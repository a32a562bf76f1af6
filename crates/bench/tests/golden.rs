//! Every figure against its section of `golden/repro_mb8.txt`, the
//! committed output of `repro` at `MASM_BENCH_MB=8`, byte for byte.
//!
//! A figure whose numbers move on purpose regenerates the file:
//!
//! ```text
//! MASM_BENCH_MB=8 cargo run --release -p masm-bench --bin repro > crates/bench/golden/repro_mb8.txt
//! ```

use masm_bench::figs;

const GOLDEN: &str = include_str!("../golden/repro_mb8.txt");

/// Runs figure `id` at 8 MiB and compares it with the golden file from
/// its first heading on: every figure opens with a blank line and a
/// table heading, and the next figure's section does too.
fn check(id: &str) {
    let got = figs::find(id).expect("a figure id")(8).to_string();
    let heading = got.lines().nth(1).expect("a table heading");
    let at = GOLDEN.find(heading).map_or(0, |at| at - 1);
    let end = (at + got.len()).min(GOLDEN.len());
    let want = GOLDEN.get(at..end).unwrap_or_default();
    assert_eq!(want, got, "{id} differs from golden/repro_mb8.txt");
    let rest = &GOLDEN[end..];
    assert!(
        rest.is_empty() || rest.starts_with("\n=== "),
        "{id} ends early"
    );
}

/// One test per figure, plus one that the list is `figs::FIGURES`.
macro_rules! golden {
    ($($id:ident)*) => {
        $(
            #[test]
            fn $id() {
                check(stringify!($id));
            }
        )*

        #[test]
        fn every_figure_has_a_golden_test() {
            let ids: Vec<&str> = figs::FIGURES.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, [$(stringify!($id)),*]);
        }
    };
}

golden! {
    fig01_migration_tradeoff
    fig03_tpch_inplace_row
    fig04_tpch_inplace_col
    fig09_range_scan_schemes
    fig09b_point_lookup
    fig10_fill_sweep
    fig11_migration_cost
    fig12_sustained_updates
    fig13_cpu_cost
    fig14_tpch_masm
    fig_cache_scan_resistance
    fig_recovery
    tab_ablation
    tab_hdd_cache
    tab_lsm_write_amp
    tab_write_amplification
}
