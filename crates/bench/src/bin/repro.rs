//! `repro [figure…]`: regenerate the paper's figures and tables on the
//! simulated clock and print them to stdout.
//!
//! With no names it runs every figure in `masm_bench::figs::FIGURES`
//! order; with names, only those. `MASM_BENCH_MB` sets the table scale
//! (default 64). The output is deterministic; at `MASM_BENCH_MB=8` it is
//! committed as `crates/bench/golden/repro_mb8.txt`:
//!
//! ```text
//! MASM_BENCH_MB=8 cargo run --release -p masm-bench --bin repro > crates/bench/golden/repro_mb8.txt
//! ```

use std::process::ExitCode;

use masm_bench::figs::{self, FIGURES};
use masm_bench::scale_mb;

fn main() -> ExitCode {
    let mb = match scale_mb() {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut figures = Vec::new();
    for name in std::env::args().skip(1) {
        match figs::find(&name) {
            Some(figure) => figures.push(figure),
            None => {
                let valid: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
                eprintln!(
                    "repro: no figure {name:?}; the figures are:\n  {}",
                    valid.join("\n  ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if figures.is_empty() {
        figures = FIGURES.iter().map(|&(_, figure)| figure).collect();
    }
    for figure in figures {
        print!("{}", figure(mb));
    }
    ExitCode::SUCCESS
}
