//! The paper's figures and tables, one function each: `run(mb)` builds
//! its experiment at a table scale of `mb` MiB on the simulated clock and
//! returns what it measured as a [`Report`]. Every one is deterministic —
//! the same `mb` gives the same bytes — so `repro`'s output at
//! `MASM_BENCH_MB=8` is committed as `golden/repro_mb8.txt` and
//! `tests/golden.rs` holds each figure to its section of it.

use crate::Report;

/// One figure: the table scale in MiB in, its output out.
pub(crate) type Figure = fn(u64) -> Report;

/// Declares each figure's module and lists it in [`FIGURES`].
macro_rules! figures {
    ($($id:ident)*) => {
        $(mod $id;)*

        /// Every figure by id, in the order `repro` runs them.
        pub const FIGURES: &[(&str, Figure)] = &[$((stringify!($id), $id::run)),*];
    };
}

figures! {
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

/// The figure called `id`.
pub fn find(id: &str) -> Option<Figure> {
    FIGURES
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, f)| f)
}
