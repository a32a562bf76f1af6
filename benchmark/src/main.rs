//! `masm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints diagnostics on standard error and, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--workload all` prints one such line per workload.

use std::process::ExitCode;

use masm_benchmark::run::{run, Options};
use masm_benchmark::workload::{self, Scale};

const USAGE: &str =
    "usage: masm-benchmark --workload <scan_cold|scan_hot|ingest_sustained|mixed_online|all> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 20,
        trace: false,
        scale: Scale::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let number = match flag.as_str() {
            "--workload" => {
                workload = args.next();
                continue;
            }
            "--smoke" => {
                opts.scale = Scale::Smoke;
                continue;
            }
            "--seed" | "--seconds" | "--trace" => args.next().and_then(|v| v.parse::<u64>().ok()),
            other => {
                eprintln!("unknown argument {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        let Some(number) = number else {
            eprintln!("{flag} needs a whole number\n{USAGE}");
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--seed" => opts.seed = number,
            "--seconds" => opts.seconds = number,
            _ => opts.trace = number != 0,
        }
    }
    let specs = match workload.as_deref() {
        Some("all") => workload::all().to_vec(),
        Some(name) => match workload::by_name(name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut all_correct = true;
    for spec in specs {
        let name = spec.name;
        let outcome = match run(spec, &opts) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("{name}: the run could not complete: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(trace) = &outcome.chrome_trace {
            // Inside the benchmark's own directory, wherever it was
            // started from.
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("trace-{name}.json"));
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace)) {
                Ok(()) => eprintln!("{name}: Chrome trace written to {}", path.display()),
                Err(e) => eprintln!("{name}: could not write {}: {e}", path.display()),
            }
        }
        all_correct &= outcome.correct();
        println!("{}", outcome.to_json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
