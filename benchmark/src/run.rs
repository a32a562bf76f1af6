//! One run: pre-fault, set-up, laps, final checks, metrics.

use std::time::Instant;

use masm_core::{theory, MasmResult};
use masm_pagestore::Key;

use crate::env::{self, PeakRss};
use crate::harness::{Env, Samples, Tally};
use crate::layers;
use crate::report::{self, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{best, median, spread_pct};
use crate::workload::{Scale, Shape, Spec, LAPS};

/// Times the whole set-up is built per end-to-end run; `setup_s` is the
/// median. One-shot phases of a few hundred ms spread 5–25 % run to
/// run on this box; the median of three does not.
const SETUPS: usize = 3;

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Requested measuring time; scales the repetition counts.
    pub seconds: u64,
    /// Traced run: per-layer metrics and a Chrome-trace file.
    pub trace: bool,
    pub scale: Scale,
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Run `spec` once.
pub fn run(spec: Spec, opts: &Options) -> MasmResult<Outcome> {
    let spec = spec.sized(opts.scale, opts.seconds);
    let started = Instant::now();
    // (0) Pre-fault, before the resident-set peak starts counting.
    let prefault_ms = env::prefault(spec.prefault_mib);
    let rss = PeakRss::start();
    let runq0 = env::runq_wait_ns();

    // (1) SET-UP, timed. The traced run reports no `setup_s` and builds
    // once; its time goes to the layer measurements instead.
    let mut tally = Tally::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut built: Option<Env> = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        if let Some(old) = built.take() {
            tally.attempted += old.tally.attempted;
            tally.failed += old.tally.failed;
        }
        let t = Instant::now();
        built = Some(Env::build(&spec, opts.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = built.expect("at least one set-up");
    // Read here, not after the laps. What stays resident through the
    // laps is decided by whether the C allocator happens to trim the
    // quarter-gigabyte of page buffers the bulk load freed: 640 or
    // 790 MB by seed on `mixed_online`, with identical device sizes.
    let rss_peak_mb = rss.peak_mb();
    let laps_started = Instant::now();

    // (2) Laps. In a traced run the last lap records spans and the ones
    // before it do not: their ratio is the tracing overhead.
    let mut s = Samples::default();
    let mut lap_wall_ns: Vec<u64> = Vec::new();
    let mut calib_ns: Vec<f64> = Vec::new();
    let stats0 = env.engine.stats();
    let merges0 = env.engine.merge_stats();
    for lap in 0..LAPS {
        env.spans.set_recording(opts.trace && lap == LAPS - 1);
        let lap_span = env.spans.begin("lap");
        calib_ns.push(env::calibration_ns());
        let before = s.timed_wall_ns;
        env.lap(&mut s);
        lap_wall_ns.push(s.timed_wall_ns - before);
        env.spans.end(lap_span);
    }

    let measured_s = laps_started.elapsed().as_secs_f64();

    // (3) Final checks. A mixed lap ends on an empty cache; the crash
    // must find runs and a part-filled buffer to recover.
    if spec.shape == Shape::Mixed {
        env.refill();
    }
    env.merged_scan(0, Key::MAX, true);
    let stats1 = env.engine.stats();
    let merges1 = env.engine.merge_stats();
    let flash_writes = ratio(
        stats1.ssd.bytes_written - stats0.ssd.bytes_written,
        stats1.ingested_bytes - stats0.ingested_bytes,
    );
    let bound = theory::masm_alpha_writes_per_update(env.engine.config().alpha);
    eprintln!(
        "{}: flash writes per update byte {flash_writes:.4} (theory 2 - 0.25a^2 = {bound:.4})",
        spec.name
    );
    env.tally.attempted += 1;
    if spec.zipf_theta.is_none() && flash_writes > bound * 1.1 {
        env.tally.failed += 1;
        eprintln!("FAILED write amplification: above the theory bound + 10 %");
    }
    let recovered = env.crash_check()?;
    env.spans.set_recording(false);
    let runq_wait_ms = (env::runq_wait_ns() - runq0) as f64 / 1e6;

    eprintln!(
        "{}: pre-fault {prefault_ms:.0} ms, set-ups {setup_s:.2?} s, laps {measured_s:.1} s, \
         whole run {:.1} s, run-queue wait {runq_wait_ms:.0} ms",
        spec.name,
        started.elapsed().as_secs_f64()
    );

    let clean_sim = ratio(s.clean_sim_ns, s.cleans);
    let mut range_sims: Vec<f64> = s.range_sim_ns.iter().map(|&ns| ns as f64).collect();
    range_sims.sort_by(f64::total_cmp);
    let walls: [(&str, &[f64]); 5] = [
        ("scan_wall_ns_per_rec", &s.scan_ns_per_rec),
        ("range_wall_us", &s.range_p50_us),
        ("get_wall_us", &s.get_us),
        ("ingest_wall_ns_per_upd", &s.ingest_ns_per_upd),
        ("migrate_wall_ns_per_rec", &s.migrate_ns_per_rec),
    ];
    for (name, reps) in walls {
        eprintln!(
            "{}: {name} best {:.1} median {:.1} spread {:.1} % over {} repetitions",
            spec.name,
            best(reps),
            median(reps),
            spread_pct(reps),
            reps.len()
        );
    }

    let metrics = if !opts.trace {
        let mut m: Vec<(&'static str, f64)> = walls.iter().map(|(n, r)| (*n, best(r))).collect();
        m.extend([
            ("setup_s", median(&setup_s)),
            ("rss_peak_mb", rss_peak_mb),
            (
                "scan_sim_slowdown",
                ratio(s.scan_sim_ns, s.scans) / clean_sim,
            ),
            (
                "range_sim_slowdown",
                ratio(s.range_sim_ns.iter().sum(), s.range_clean_sim_ns),
            ),
            ("range_sim_tail10_us", {
                let slowest = &range_sims[range_sims.len() - range_sims.len().div_ceil(10)..];
                slowest.iter().sum::<f64>() / slowest.len() as f64 / 1e3
            }),
            (
                "sustained_sim_kupd_per_s",
                s.updates as f64 / ((s.ingest_sim_ns + s.migrate_sim_ns) as f64 / 1e9) / 1e3,
            ),
            ("flash_writes_per_update", flash_writes),
            (
                "migrate_sim_x_scan",
                ratio(s.migrate_sim_ns, s.cycles) / clean_sim,
            ),
            ("recover_sim_ms", recovered.sim_ns as f64 / 1e6),
        ]);
        report::bind(&END_TO_END, m)
    } else {
        let layered = layers::measure(&mut env)?;
        let mut m = layered.metrics;
        m.extend(walls.iter().map(|(name, reps)| {
            let decl = PER_LAYER
                .iter()
                .find(|d| d.name.strip_suffix(".in_run_spread_pct") == Some(name))
                .expect("every wall metric has a spread diagnostic");
            (decl.name, spread_pct(reps))
        }));
        let merged_blocks = (merges1.blocks_moved + merges1.blocks_merged)
            - (merges0.blocks_moved + merges0.blocks_merged);
        let runs_built = stats1.compression.runs - stats0.compression.runs;
        let flushes = stats1.ops.flush.count - stats0.ops.flush.count;
        // Per record a merged scan returns: the clean scan's cost, the
        // outer join's, and the cached updates' (read back and k-way
        // merged) at the read-state's update density.
        let scan_best = best(&s.scan_ns_per_rec);
        let cached_updates =
            stats1.runs.cached_bytes as f64 / layered.stored_bytes_per_update.max(1.0);
        let attributed = best(&s.clean_ns_per_rec)
            + layered.join_ns_per_rec
            + layered.update_side_ns_per_upd * cached_updates / ratio(s.scan_records, s.scans);
        let untraced_laps = &lap_wall_ns[..LAPS - 1];
        let untraced = untraced_laps.iter().sum::<u64>() as f64 / untraced_laps.len() as f64;
        m.extend([
            (
                "codec.stored_over_raw",
                ratio(
                    stats1.compression.stored_bytes,
                    stats1.compression.raw_bytes,
                ),
            ),
            (
                "blockrun.cache.hit_rate",
                ratio(s.read_cache_hits, s.read_cache_lookups),
            ),
            (
                "blockrun.cache.evictions_per_scan",
                ratio(s.scan_evictions, s.scans),
            ),
            (
                "blockrun.plan.moved_block_share",
                ratio(merges1.blocks_moved - merges0.blocks_moved, merged_blocks),
            ),
            ("pagestore.heap.scan_ns_per_rec", best(&s.clean_ns_per_rec)),
            (
                "pagestore.heap.bulk_load_ns_per_rec",
                ratio(env.bulk_load_ns, spec.records()),
            ),
            (
                "core.wal.bytes_per_update",
                ratio(s.cycle_wal_bytes_written, s.updates),
            ),
            (
                "core.engine.recover_wall_ns_per_wal_rec",
                ratio(recovered.wall_ns, recovered.wal_records),
            ),
            (
                "core.engine.runs_at_read_state",
                s.runs_at_read_state as f64,
            ),
            (
                "core.engine.two_pass_merges_per_cycle",
                ratio(runs_built - flushes, s.cycles),
            ),
            (
                "storage.ssd.random_writes",
                env.ssd.stats().random_writes as f64,
            ),
            (
                "storage.ssd.bytes_written_per_cycle",
                ratio(s.cycle_ssd_bytes_written, s.cycles),
            ),
            (
                "storage.ssd.bytes_read_per_full_scan",
                ratio(s.scan_ssd_bytes_read, s.scans),
            ),
            (
                "storage.ssd.reads_per_range_scan",
                ratio(s.range_ssd_reads, s.range_sim_ns.len() as u64),
            ),
            (
                "storage.disk.bytes_read_per_full_scan",
                ratio(s.scan_disk_bytes_read, s.scans),
            ),
            (
                "alloc.count_per_kupd_ingest",
                ratio(s.ingest_allocs * 1000, s.updates),
            ),
            (
                "alloc.count_per_krec_scan",
                ratio(s.scan_allocs * 1000, s.scan_records),
            ),
            (
                "alloc.bytes_per_rec_scan",
                ratio(s.scan_alloc_bytes, s.scan_records),
            ),
            ("alloc.count_per_get", ratio(s.get_allocs, s.gets)),
            ("scan.attributed_pct", attributed / scan_best * 100.0),
            (
                "bench.trace_overhead_pct",
                (lap_wall_ns[LAPS - 1] as f64 / untraced - 1.0) * 100.0,
            ),
            ("env.prefault_ms", prefault_ms),
            ("env.runq_wait_ms", runq_wait_ms),
            ("env.calib_spread_pct", spread_pct(&calib_ns)),
        ]);
        report::bind(&PER_LAYER, m)
    };

    tally.attempted += env.tally.attempted;
    tally.failed += env.tally.failed;
    Ok(Outcome {
        tally,
        metrics,
        chrome_trace: opts.trace.then(|| env.spans.to_chrome_trace()),
    })
}
