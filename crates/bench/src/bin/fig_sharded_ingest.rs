//! Sharded ingest scaling: concurrent update lanes against 1, 2, and 4
//! key-range shards.
//!
//! The paper's single MaSM instance serializes all update traffic
//! through one SSD region and one redo log. Key-range sharding
//! ([`masm_core::ShardedEngine`]) gives each contiguous key range its
//! own engine — own update buffer, own flash region, own WAL queue —
//! behind one router, so concurrent ingest lanes stop queueing behind
//! each other's I/O. The total flash budget is held constant across
//! shard counts (shards divide it, per `MasmConfig::shard_config`), so
//! the sweep isolates the parallelism: same updates, same bytes, same
//! devices-per-byte, different queue fan-out.
//!
//! Workload: 4 OS-thread lanes, each serving its own block of 16
//! tenants (the SaaS deployment shape: one API server per tenant
//! group), drawing zipfian-skewed keys within the block
//! ([`masm_workloads::tenant::MultiTenantKeyGen`], θ = 0.6). The
//! split keys are exactly the tenant-block boundaries
//! (`ShardingConfig::splits`), so each lane's traffic flows to "its"
//! shard — writer keyspace locality is precisely the regime key-range
//! sharding converts into parallelism. Throughput is measured in
//! virtual time (updates per virtual second) at the moment the last
//! lane finishes; background workers flush sealed buffers throughout.
//!
//! Every lane's I/O session is pinned to the same virtual start
//! instant. Thread-spawn staggering happens in *real* time; letting a
//! late lane inherit the global clock (which the earlier lanes have
//! already driven forward) would hand it a phantom head start and
//! charge the sweep for scheduler noise instead of device queueing.
//!
//! Output: a summary table plus one `ROW:{json}` line per shard count
//! with the throughput, speedup over the unsharded run, per-shard
//! random-write counts, and the `shard_imbalance` gauge. The binary
//! asserts 4 shards ingest at least 1.8x the single-shard rate and that
//! `random_writes == 0` in every shard of every run — the acceptance
//! checks CI smoke-runs at `MASM_BENCH_MB=8`.
//!
//! With `MASM_TRACE_OUT=<path>` the 4-shard run is flight-recorded:
//! the exported Chrome trace is self-validated (every shard's process
//! track carries at least one complete `job.flush` span), written to
//! `<path>`, and summarized on a `TRACE:ok` line.

use std::sync::Arc;
use std::thread;

use masm_bench::*;
use masm_core::update::UpdateRecord;
use masm_core::ShardedEngine;
use masm_pagestore::{HeapConfig, Schema, TableHeap};
use masm_storage::{DeviceProfile, IoSession, SessionHandle, SimClock, SimDevice, MIB};
use masm_telemetry::json::{parse, JsonObj, JsonValue};
use masm_telemetry::{TraceConfig, Tracer};
use masm_workloads::tenant::MultiTenantKeyGen;

const LANES: u64 = 4;
const TENANTS_PER_LANE: u64 = 16;
const LOCAL_KEYS: u64 = 1 << 16;
const THETA: f64 = 0.6;

/// Lane `lane`'s key stream: a zipfian multi-tenant generator over its
/// own 16-tenant block, shifted into the block's key range.
fn lane_gen(lane: u64) -> impl Iterator<Item = masm_pagestore::Key> {
    let base = (lane * TENANTS_PER_LANE) << masm_workloads::tenant::TENANT_SHIFT;
    MultiTenantKeyGen::new(TENANTS_PER_LANE, LOCAL_KEYS, THETA, 1000 + lane).map(move |k| base + k)
}

struct RunResult {
    shards: usize,
    updates: u64,
    elapsed_ns: u64,
    updates_per_sec: f64,
    random_writes: u64,
    per_shard_random_writes: Vec<u64>,
    imbalance: f64,
    flushes: u64,
}

fn run(mb: u64, shards: usize, tracer: Option<&Arc<Tracer>>) -> RunResult {
    let schema = Schema::synthetic_100b();
    let mut cfg = scaled_masm_config(mb * MIB);
    // The same total flash for every shard count — floored so a 4-way
    // split still leaves each shard ≥ 64 pages at the CI smoke scale.
    cfg.ssd_capacity = cfg.ssd_capacity.max(4 * 64 * 4096);
    cfg.background_workers = 4;
    // MaSM-2M (α = 2): the largest update buffer and query-page budget,
    // i.e. the paper's lowest-maintenance variant — the sweep measures
    // ingest parallelism, not compaction policy.
    cfg.alpha = 2.0;
    // Shard boundaries at tenant-block edges: shard k owns the tenant
    // groups [k·T/N, (k+1)·T/N). This is how an operator shards a
    // multi-tenant keyspace — on the tenant boundaries it already
    // knows. (`ShardRouter::from_sample` learns splits within one
    // tenant of these from a key sample; the sharded-engine tests
    // exercise it. The timing sweep pins them exactly so each lane's
    // traffic is fully shard-local.)
    let tenants = LANES * TENANTS_PER_LANE;
    let splits: Vec<masm_pagestore::Key> = (1..shards as u64)
        .map(|k| (k * tenants / shards as u64) << masm_workloads::tenant::TENANT_SHIFT)
        .collect();
    cfg.sharding.splits = splits;

    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let ssds: Vec<SimDevice> = (0..shards)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    let wals: Vec<SimDevice> = (0..shards)
        .map(|_| SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()))
        .collect();
    // Pure-ingest setup: the heap stays empty (Replace acts as an
    // upsert), so the sweep measures the update path alone.
    let engine =
        ShardedEngine::new(heap, ssds, wals, schema.clone(), cfg.clone()).expect("sharded config");
    if let Some(t) = tracer {
        engine.install_tracer(t);
    }

    // Size the stream to ~60% of the flash budget: enough to force many
    // background flushes in every shard, comfortably under the 90%
    // migration trigger.
    let probe = UpdateRecord::new(1, 0, UpdateOp::Replace(schema.empty_payload())).encoded_len();
    let per_lane = (cfg.ssd_capacity * 60 / 100 / probe as u64 / LANES).max(500);

    let start = clock.now();
    let mut lanes = Vec::new();
    for lane in 0..LANES {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        let schema = schema.clone();
        lanes.push(thread::spawn(move || {
            // Every lane's virtual cursor starts at the sweep's start
            // instant. `SessionHandle::fresh` would start at the global
            // clock instead, handing later-spawned lanes a phantom
            // head-start equal to however much virtual time the earlier
            // lanes burned while this thread was still being created.
            let session = SessionHandle::new(IoSession::at(clock, start));
            let mut gen = lane_gen(lane);
            for j in 0..per_lane {
                let mut payload = schema.empty_payload();
                schema.set_u32(&mut payload, 0, j as u32);
                let key = gen.next().expect("endless stream");
                loop {
                    match engine.put(&session, key, UpdateOp::Replace(payload.clone())) {
                        Ok(_) => break,
                        // Backpressure: the flash filled before the
                        // workers' flushes caught up.
                        Err(masm_core::MasmError::CacheFull { .. }) => {
                            thread::sleep(std::time::Duration::from_millis(1));
                        }
                        Err(e) => panic!("update failed: {e}"),
                    }
                }
            }
        }));
    }
    for lane in lanes {
        lane.join().expect("ingest lane");
    }
    let elapsed_ns = (clock.now() - start).max(1);
    engine.shutdown();

    let stats = engine.stats();
    let updates = stats.total.ingested_updates;
    assert_eq!(updates, LANES * per_lane, "lost updates");
    RunResult {
        shards,
        updates,
        elapsed_ns,
        updates_per_sec: updates as f64 * 1e9 / elapsed_ns as f64,
        random_writes: stats.total.ssd.random_writes,
        per_shard_random_writes: stats
            .per_shard
            .iter()
            .map(|s| s.ssd.random_writes)
            .collect(),
        imbalance: stats.shard_imbalance,
        flushes: stats.total.workers.flushes,
    }
}

fn main() -> Result<(), String> {
    let mb = scale_mb()?;
    let trace_out = std::env::var("MASM_TRACE_OUT").ok();
    let tracer = trace_out.as_ref().map(|_| {
        Arc::new(Tracer::new(TraceConfig {
            ring_capacity: 1 << 15,
            ..TraceConfig::default()
        }))
    });
    // Flight-record only the 4-shard sweep point: the trace check below
    // wants one process track per shard of the widest configuration.
    let results: Vec<RunResult> = [1, 2, 4]
        .into_iter()
        .map(|n| run(mb, n, if n == 4 { tracer.as_ref() } else { None }))
        .collect();
    let base = results[0].updates_per_sec;

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                r.updates.to_string(),
                format!("{:.3}", secs(r.elapsed_ns)),
                format!("{:.0}", r.updates_per_sec),
                format!("{:.2}x", r.updates_per_sec / base),
                r.random_writes.to_string(),
                format!("{:.2}", r.imbalance),
            ]
        })
        .collect();
    print!(
        "{}",
        Report::default().table(
            &format!(
                "Sharded ingest scaling — {LANES} concurrent lanes, zipfian multi-tenant keys \
                 (flash budget fixed; table scale {mb} MiB)"
            ),
            &[
                "shards",
                "updates",
                "elapsed (s)",
                "updates/s",
                "speedup",
                "random writes",
                "imbalance",
            ],
            &rows,
        )
    );
    println!(
        "\nshape: one shard serializes all lanes behind a single WAL/flash queue; N shards\n\
         absorb the same stream through N independent queues, so throughput scales until\n\
         tenant skew (imbalance) caps it."
    );
    for r in &results {
        let per_shard = r
            .per_shard_random_writes
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut o = JsonObj::new();
        o.u64("shards", r.shards as u64)
            .u64("lanes", LANES)
            .u64("updates", r.updates)
            .u64("elapsed_ns", r.elapsed_ns)
            .f64("updates_per_sec", r.updates_per_sec)
            .f64("speedup", r.updates_per_sec / base)
            .u64("random_writes", r.random_writes)
            .raw("per_shard_random_writes", &format!("[{per_shard}]"))
            .f64("shard_imbalance", r.imbalance)
            .u64("background_flushes", r.flushes);
        println!("ROW:{}", o.finish());
    }

    // Acceptance: sharding preserves design goal 2 in every shard and
    // buys real ingest parallelism.
    for r in &results {
        for (i, &rw) in r.per_shard_random_writes.iter().enumerate() {
            assert_eq!(rw, 0, "design goal 2 violated in shard {i} of {}", r.shards);
        }
        assert_eq!(r.random_writes, 0, "design goal 2 ({} shards)", r.shards);
        assert!(r.flushes > 0, "workers must flush ({} shards)", r.shards);
    }
    let four = results.last().expect("4-shard run");
    assert!(
        four.updates_per_sec >= 1.8 * base,
        "4 shards must ingest >= 1.8x one shard (got {:.2}x)",
        four.updates_per_sec / base
    );
    println!(
        "\nOK: 4 shards ingest {:.2}x the single-shard rate ({:.0} vs {:.0} updates/s), \
         zero random writes everywhere",
        four.updates_per_sec / base,
        four.updates_per_sec,
        base
    );

    if let (Some(path), Some(tracer)) = (trace_out, tracer) {
        let json_text = tracer.export_chrome_trace();
        let doc = parse(&json_text).expect("trace export must be valid JSON");
        let Some(JsonValue::Arr(events)) = doc.get("traceEvents") else {
            panic!("trace export must carry a traceEvents array");
        };
        // Every shard's process track must have flushed in background.
        for shard in 0..4u64 {
            let flushed = events.iter().any(|e| {
                matches!(e.get("ph"), Some(JsonValue::Str(p)) if p == "X")
                    && matches!(e.get("name"), Some(JsonValue::Str(n)) if n == "job.flush")
                    && e.get_u64("pid") == Some(shard)
            });
            assert!(
                flushed,
                "no complete job.flush span on shard {shard}'s track"
            );
        }
        std::fs::write(&path, &json_text).expect("write trace file");
        let ts = tracer.stats();
        println!(
            "TRACE:ok shards=4 events={} emitted={} dropped={} path={path}",
            events.len(),
            ts.emitted,
            ts.dropped
        );
    }
    Ok(())
}
