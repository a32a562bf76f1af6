//! Concurrent scans under sustained updates: stop-the-world vs
//! background maintenance.
//!
//! The paper's design goal 1 is *low overhead on queries*; §3.2 keeps
//! migrations off the query path by running them against a snapshot of
//! the run set. This experiment extends that to *all* maintenance: an
//! updater streams updates while a scanner repeatedly runs ~1% range
//! scans. With `background_workers = 0` a scan that arrives at a full
//! update buffer pays the flush (and any due 2-pass merge) inline,
//! and a migration that comes due blocks the next query outright (the
//! inline engine has no other thread to run it on, so the driver
//! charges it to the scan that encounters it — the paper's
//! stop-the-world strawman of §3.2). With a worker pool the scan only
//! seals the buffer and enqueues; flushes, merges, and migrations all
//! run on pool threads, so scan p99 tracks p50.
//!
//! Output: a summary table of the scan latency distribution (virtual
//! ms) and the `random_writes` invariant per mode. The binary asserts
//! that background mode improves scan p99 by at least 2x, that its
//! workers flush, and that both modes keep `random_writes == 0` — the
//! acceptance checks CI runs at `MASM_BENCH_MB=8`.

use masm_bench::*;
use masm_workloads::synthetic::{UpdateMix, UpdateStreamGen};

const SCANS: usize = 30;

struct ModeResult {
    label: &'static str,
    p50: u64,
    p99: u64,
    random_writes: u64,
    flushes_background: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn run_mode(mb: u64, label: &'static str, workers: usize) -> ModeResult {
    let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
        cfg.background_workers = workers;
        // Migrate at half-full flash (the Figure 12 setup) so several
        // migrations come due within the measurement window.
        cfg.migration_threshold = 0.5;
    });
    let cfg = env.engine.config().clone();
    let updater = env.machine.session();
    let mut gen = UpdateStreamGen::uniform(env.table.clone(), UpdateMix::default(), 31);
    // Enough updates per scan that (a) nearly every stop-the-world
    // scan arrives at a full buffer and pays the flush inline, and
    // (b) the migration threshold is crossed ~3 times over the run
    // even after the codecs compress the materialized runs (~2x).
    let per_scan = (cfg.update_buffer_bytes() / 100)
        .max(cfg.migration_trigger_bytes() * 3 / SCANS as u64 / 50)
        .max(64);
    let max_key = env.table.max_key();
    let span = (max_key / 100).max(2); // ~1% of the key space
    let mut latencies = Vec::with_capacity(SCANS);

    for i in 0..SCANS {
        for _ in 0..per_scan {
            let (key, op) = gen.next_update();
            loop {
                match env.engine.apply_update(&updater, key, op.clone()) {
                    Ok(_) => break,
                    // Background mode: the flash filled before the
                    // worker's migration caught up — the real engine's
                    // backpressure is this wait.
                    Err(masm_core::MasmError::CacheFull { .. }) if workers > 0 => {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Err(e) => panic!("update failed: {e}"),
                }
            }
        }
        let begin = (i as u64 * 2 * span) % (max_key - span);
        // A fresh session starts at the global clock: its elapsed
        // virtual time is exactly this scan's latency.
        let session = env.machine.session();
        let start = session.now();
        if workers == 0 && env.engine.needs_migration() {
            // Stop-the-world: the inline engine has no thread to run a
            // due migration on — the next query pays it.
            env.engine.migrate(&session).unwrap();
        }
        let scan = env
            .engine
            .begin_scan(session.clone(), begin, begin + span)
            .unwrap();
        let n = scan.count();
        assert!(n > 0, "scan window must not be empty");
        latencies.push(session.now() - start);
    }

    env.engine.shutdown();
    let stats = env.engine.stats();
    latencies.sort_unstable();
    ModeResult {
        label,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        random_writes: stats.ssd.random_writes,
        flushes_background: stats.workers.flushes,
    }
}

fn main() -> Result<(), String> {
    let mb = scale_mb()?;
    let stw = run_mode(mb, "stop-the-world (workers=0)", 0);
    let bg = run_mode(mb, "background (workers=2)", 2);

    let rows: Vec<Vec<String>> = [&stw, &bg]
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.3}", r.p50 as f64 / 1e6),
                format!("{:.3}", r.p99 as f64 / 1e6),
                r.random_writes.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        Report::default().table(
            &format!(
                "Concurrent scans under sustained updates — scan latency (virtual ms; table {mb} \
                 MiB, {SCANS} scans of ~1% each)"
            ),
            &["mode", "scan p50 (ms)", "scan p99 (ms)", "random writes"],
            &rows,
        )
    );
    println!(
        "\nshape: stop-the-world pays buffer flushes (and due merges) inline on the scan\n\
         path, spiking the tail; background workers keep p99 near p50."
    );

    // Acceptance: background maintenance takes the flush/merge spikes
    // off the scan tail, and neither mode ever random-writes the SSD.
    assert_eq!(stw.random_writes, 0, "design goal 2 (stop-the-world)");
    assert_eq!(bg.random_writes, 0, "design goal 2 (background)");
    assert!(
        bg.flushes_background > 0,
        "workers must flush in background mode"
    );
    assert!(
        bg.p99 * 2 <= stw.p99,
        "background p99 ({}) must improve stop-the-world p99 ({}) by >= 2x",
        bg.p99,
        stw.p99
    );
    println!(
        "\nOK: background scan p99 {:.3} ms vs stop-the-world {:.3} ms ({:.1}x better)",
        bg.p99 as f64 / 1e6,
        stw.p99 as f64 / 1e6,
        stw.p99 as f64 / bg.p99 as f64
    );
    Ok(())
}
