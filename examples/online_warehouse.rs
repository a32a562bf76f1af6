//! A data warehouse serving analysis queries 24/7 while a feed of
//! updates streams in — the paper's motivating scenario (§1).
//!
//! Three configurations answer the same "sum of the measure column over
//! a key range" query while updates arrive:
//!   1. no updates at all (the unreachable ideal),
//!   2. conventional in-place updates (random I/O on the main disk),
//!   3. MaSM (updates cached on SSD, merged into the scan).
//!
//! Run with: `cargo run --release -p masm-bench --example online_warehouse`

use masm_bench::{scale_mb, time_scan_with_inplace_updates, SyntheticEnv};

fn main() -> Result<(), String> {
    let mb = scale_mb()?.min(32);
    println!("building a {mb} MiB warehouse table (virtual devices)...");

    // Ideal: queries with no updates anywhere.
    let ideal = SyntheticEnv::new(mb);
    let max_key = ideal.table.max_key();
    let (begin, end) = (max_key / 4, max_key / 2);
    let t_ideal = ideal.time_pure_scan(begin, end);

    // Conventional: a saturated updater does random read-modify-writes
    // on the same disk while the query scans.
    let conventional = SyntheticEnv::new(mb);
    let t_inplace = time_scan_with_inplace_updates(&conventional, begin, end, 7);

    // MaSM: updates cached on the SSD (cache 50% full), merged on read.
    let masm = SyntheticEnv::new(mb);
    masm.fill_cache(0.5, 7);
    let t_masm = masm.time_masm_scan(begin, end);

    // The query itself: sum the measure column.
    let session = masm.machine.session();
    let schema = masm.engine.schema().clone();
    let sum: u64 = masm
        .engine
        .begin_scan(session, begin, end)
        .unwrap()
        .map(|r| schema.get_u32(&r.payload, 0) as u64)
        .sum();

    println!("\nquery: SELECT SUM(measure) over keys [{begin}, {end}] -> {sum}");
    println!("\n                      virtual time    vs ideal");
    println!(
        "  no updates          {:>9.1} ms       1.00x",
        t_ideal as f64 / 1e6
    );
    println!(
        "  in-place updates    {:>9.1} ms       {:.2}x",
        t_inplace as f64 / 1e6,
        t_inplace as f64 / t_ideal as f64
    );
    println!(
        "  MaSM                {:>9.1} ms       {:.2}x",
        t_masm as f64 / 1e6,
        t_masm as f64 / t_ideal as f64
    );
    println!(
        "\nMaSM answers over fresh data at essentially the no-update speed;\n\
         in-place updates make the same query several times slower."
    );
    Ok(())
}
