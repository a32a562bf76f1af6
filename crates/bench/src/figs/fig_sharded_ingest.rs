//! Sharded ingest scaling: update lanes against 1, 2 and 4 key-range
//! shards.
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
//! Workload: 4 lanes, each serving its own block of 16 tenants (the
//! SaaS deployment shape: one API server per tenant group), drawing
//! zipfian-skewed keys within the block
//! ([`masm_workloads::tenant::MultiTenantKeyGen`], θ = 0.6). The split
//! keys are exactly the tenant-block boundaries
//! (`ShardingConfig::splits`), so each lane's traffic flows to "its"
//! shard — writer keyspace locality is precisely the regime key-range
//! sharding converts into parallelism.
//!
//! The lanes take turns on one thread, one `put` each per turn, and
//! each has its own session pinned at the sweep's start instant: they
//! overlap in virtual time and queue only where they share a device.
//! With no worker pool a put that fills its shard's buffer flushes it
//! inline, on its own lane's clock. Throughput is updates per virtual
//! second at the moment the last lane finishes.
//!
//! The figure asserts that 4 shards ingest at least 1.8× the
//! single-shard rate, that every shard wrote runs, and that
//! `random_writes == 0` in every shard of every run.

use std::sync::Arc;

use masm_core::{EngineStats, ShardedEngine, UpdateRecord};
use masm_pagestore::{HeapConfig, Key, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice, MIB};
use masm_workloads::tenant::{MultiTenantKeyGen, TENANT_SHIFT};

use crate::{scaled_masm_config, secs, Report, UpdateOp};

const LANES: u64 = 4;
const TENANTS_PER_LANE: u64 = 16;
const LOCAL_KEYS: u64 = 1 << 16;
const THETA: f64 = 0.6;

/// Lane `lane`'s key stream: a zipfian multi-tenant generator over its
/// own 16-tenant block, shifted into the block's key range.
fn lane_keys(lane: u64) -> impl Iterator<Item = Key> {
    let base = (lane * TENANTS_PER_LANE) << TENANT_SHIFT;
    MultiTenantKeyGen::new(TENANTS_PER_LANE, LOCAL_KEYS, THETA, 1000 + lane).map(move |k| base + k)
}

/// One point of the sweep: its rate in updates per virtual second, and
/// its table row without the speedup column.
fn sweep(mb: u64, shards: u64) -> (f64, Vec<String>) {
    let schema = Schema::synthetic_100b();
    let mut cfg = scaled_masm_config(mb * MIB);
    // The same total flash for every shard count — floored so a 4-way
    // split still leaves each shard ≥ 64 pages at small scales.
    cfg.ssd_capacity = cfg.ssd_capacity.max(4 * 64 * 4096);
    // MaSM-2M (α = 2): the largest update buffer and query-page budget,
    // i.e. the paper's lowest-maintenance variant — the sweep measures
    // ingest parallelism, not compaction policy.
    cfg.alpha = 2.0;
    // Shard k owns the tenant groups [k·T/N, (k+1)·T/N): how an operator
    // shards a multi-tenant keyspace, on the tenant boundaries it
    // already knows, so each lane's traffic is fully shard-local.
    let tenants = LANES * TENANTS_PER_LANE;
    cfg.sharding.splits = (1..shards)
        .map(|k| (k * tenants / shards) << TENANT_SHIFT)
        .collect();

    let clock = SimClock::new();
    let device = |profile| SimDevice::in_memory(profile, clock.clone());
    let heap = TableHeap::new(device(DeviceProfile::hdd_barracuda()), HeapConfig::default());
    let ssds = (0..shards).map(|_| device(DeviceProfile::ssd_x25e())).collect();
    let wals = (0..shards).map(|_| device(DeviceProfile::ssd_x25e())).collect();
    // Pure ingest: the heap stays empty (Replace acts as an upsert).
    let engine = ShardedEngine::new(Arc::new(heap), ssds, wals, schema.clone(), cfg.clone())
        .expect("sharded config");

    // ~60% of the flash budget: many flushes in every shard, well under
    // the 90% migration trigger.
    let probe = UpdateRecord::new(1, 0, UpdateOp::Replace(schema.empty_payload())).encoded_len();
    let per_lane = (cfg.ssd_capacity * 60 / 100 / probe as u64 / LANES).max(500);

    let start = clock.now();
    let mut lanes: Vec<_> = (0..LANES)
        .map(|lane| {
            let session = SessionHandle::at(clock.clone(), start);
            (session, lane_keys(lane))
        })
        .collect();
    for j in 0..per_lane {
        for (session, keys) in &mut lanes {
            let mut payload = schema.empty_payload();
            schema.set_u32(&mut payload, 0, j as u32);
            let key = keys.next().expect("endless stream");
            engine
                .put(session, key, UpdateOp::Replace(payload))
                .expect("update");
        }
    }
    let end = lanes.iter().map(|(session, _)| session.now()).max();
    let elapsed_ns = (end.unwrap_or(start) - start).max(1);

    // Sharding keeps design goal 2 in every shard.
    let stats = engine.stats();
    assert_eq!(stats.total.ingested_updates, LANES * per_lane, "lost updates");
    for (i, s) in stats.per_shard.iter().enumerate() {
        assert!(s.ops.flush.count > 0, "shard {i} of {shards} wrote no run");
        assert_eq!(s.ssd.random_writes, 0, "random writes in shard {i} of {shards}");
    }
    let per_shard = |count: fn(&EngineStats) -> u64| {
        let counts: Vec<String> = stats.per_shard.iter().map(|s| count(s).to_string()).collect();
        counts.join("/")
    };
    let rate = stats.total.ingested_updates as f64 / secs(elapsed_ns);
    let row = vec![
        shards.to_string(),
        stats.total.ingested_updates.to_string(),
        format!("{:.3}", secs(elapsed_ns)),
        format!("{rate:.0}"),
        per_shard(|s| s.ops.flush.count),
        per_shard(|s| s.ssd.random_writes),
        format!("{:.2}", stats.shard_imbalance),
    ];
    (rate, row)
}

pub fn run(mb: u64) -> Report {
    let points: Vec<(f64, Vec<String>)> = [1, 2, 4].into_iter().map(|n| sweep(mb, n)).collect();
    let base = points[0].0;
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(rate, row)| {
            let mut row = row.clone();
            row.insert(4, format!("{:.2}x", rate / base));
            row
        })
        .collect();
    let mut report = Report::default();
    report.table(
        &format!(
            "Sharded ingest scaling — {LANES} lanes taking turns, zipfian multi-tenant keys \
             (flash budget fixed; table scale {mb} MiB)"
        ),
        &[
            "shards",
            "updates",
            "elapsed (s)",
            "updates/s",
            "speedup",
            "runs per shard",
            "random writes",
            "imbalance",
        ],
        &rows,
    );
    report.note(
        "shape: one shard serializes all lanes behind a single WAL/flash queue; N shards\n\
         absorb the same stream through N independent queues, so throughput scales until\n\
         tenant skew (imbalance) caps it.",
    );
    // Sharding buys real ingest parallelism.
    let four = points[2].0;
    assert!(four >= 1.8 * base, "4 shards ingest {:.2}x one shard, not >= 1.8x", four / base);
    report
}
