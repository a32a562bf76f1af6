//! Cache scan resistance: hot point lookups interleaved with cold full
//! scans larger than the cache, across {lru, slru, slru_tier2} ×
//! {identity, lz}.
//!
//! The paper's headline workload — table range scans over data that is
//! also served point queries — is exactly what a plain LRU block cache
//! handles worst: every cold sweep larger than capacity evicts the
//! entire hot set, so the hot lookups pay device reads forever. The
//! segmented (SLRU) tier-1 policy pins re-referenced blocks in a
//! protected segment that sweeps cannot displace, and the compressed
//! victim tier absorbs the sweep itself when its *stored* bytes fit —
//! with the LZ codec the same byte budget holds ~3× the blocks, so
//! re-sweeps run entirely device-free.
//!
//! Reports one row per policy × codec, and asserts the two acceptance
//! bounds itself:
//! SLRU ≥ 2× the LRU hot-set hit rate, and tier 2 (lz) serving ≥ 1.5×
//! more blocks without device reads than tier 1 alone.

use std::sync::Arc;

use masm_blockrun::{
    point_lookup, write_run, BlockCache, BlockCacheConfig, BlockRunConfig, BlockRunScan,
    BloomFilter, CachePolicy, CodecChoice, Entry,
};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice, MIB};
use masm_telemetry::json::{parse, JsonObj};

use crate::Report;

/// One measured configuration.
struct Row {
    policy: &'static str,
    codec: CodecChoice,
    hot_hits: u64,
    hot_accesses: u64,
    no_device_blocks: u64,
    device_reads: u64,
    tier2_hits: u64,
    promotions: u64,
    evictions: u64,
    compression_ratio: f64,
}

impl Row {
    fn hot_hit_rate(&self) -> f64 {
        self.hot_hits as f64 / self.hot_accesses.max(1) as f64
    }
}

const MEASURED_ROUNDS: usize = 3;

fn run_workload(
    policy_label: &'static str,
    policy: CachePolicy,
    tier2: bool,
    codec: CodecChoice,
    raw_bytes: u64,
    ts: &mut Vec<String>,
) -> Row {
    let clock = SimClock::new();
    let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let session = SessionHandle::fresh(clock);

    // A compressible table-sized run: constant 64-byte payloads give
    // the LZ codec its ~3x ratio while identity stores raw bytes.
    let entry_bytes = 20 + 64;
    let count = raw_bytes / entry_bytes;
    let entries: Vec<Entry> = (0..count)
        .map(|k| Entry::new(k * 2, k + 1, vec![7u8; 64]))
        .collect();
    let cfg = BlockRunConfig {
        block_bytes: 16 * 1024,
        bloom_bits_per_key: 10,
        codec,
    };
    let meta = Arc::new(write_run(&session, &dev, 0, &cfg, &entries).unwrap());
    let n_blocks = meta.zones.len();
    let comp = meta.compression();

    // Decoded footprint, for sizing: the sweep must exceed tier-1
    // capacity by a wide margin (4x here).
    let decoded_bytes: usize = entries.iter().map(Entry::weight).sum::<usize>() + 64 * n_blocks;
    let t1_cap = decoded_bytes / 4;
    let cache = Arc::new(BlockCache::with_config(BlockCacheConfig {
        shards: 4,
        policy,
        tier2_bytes: if tier2 { t1_cap } else { 0 },
        ..BlockCacheConfig::new(t1_cap)
    }));

    // Hot set: every 10th block's first key — decoded it occupies half
    // the protected segment, so it fits comfortably once promoted.
    let hot_keys: Vec<u64> = meta.zones.iter().step_by(10).map(|z| z.min_key).collect();

    let sweep = |cache: &Arc<BlockCache>| {
        let scan = BlockRunScan::new(
            dev.clone(),
            session.clone(),
            Arc::clone(&meta),
            Some(Arc::clone(cache)),
            1,
            0,
            u64::MAX,
        )
        .with_prefetch_depth(4);
        std::hint::black_box(scan.count());
    };
    let hot_pass = |cache: &Arc<BlockCache>| {
        for &k in &hot_keys {
            let mut found = 0usize;
            let hashes = BloomFilter::hashes_of(k);
            point_lookup(&session, &dev, &meta, k, hashes, Some((cache, 1)), |_| {
                found += 1
            })
            .unwrap();
            std::hint::black_box(found);
        }
    };

    // Warmup: two hot passes (admission, then the re-reference that
    // promotes under SLRU), one cold sweep.
    hot_pass(&cache);
    hot_pass(&cache);
    sweep(&cache);

    // Measured rounds: one hot pass interleaved with one cold sweep.
    cache.reset_stats();
    let reads_before = dev.stats().read_ops;
    let mut hot_hits = 0u64;
    let mut hot_accesses = 0u64;
    for round in 0..MEASURED_ROUNDS {
        let before = cache.stats();
        let round_reads = dev.stats().read_ops;
        hot_pass(&cache);
        let after = cache.stats();
        let round_hits = after.no_device_hits() - before.no_device_hits();
        let round_lookups = after.lookups() - before.lookups();
        hot_hits += round_hits;
        hot_accesses += round_lookups;
        sweep(&cache);
        // One NDJSON time-series row per measured round, so the output
        // shows whether the hot set stays resident across sweeps or
        // degrades round over round.
        let mut row = JsonObj::new();
        row.str("policy", policy_label)
            .str("codec", codec.name())
            .u64("round", round as u64)
            .u64("hot_hits", round_hits)
            .u64("hot_lookups", round_lookups)
            .u64("device_reads", dev.stats().read_ops - round_reads)
            .u64("tier2_hits", after.tier2_hits - before.tier2_hits);
        ts.push(row.finish());
    }
    let stats = cache.stats();
    Row {
        policy: policy_label,
        codec,
        hot_hits,
        hot_accesses,
        no_device_blocks: stats.no_device_hits(),
        device_reads: dev.stats().read_ops - reads_before,
        tier2_hits: stats.tier2_hits,
        promotions: stats.promotions,
        evictions: stats.evictions,
        compression_ratio: comp.ratio(),
    }
}

pub(crate) fn run(mb: u64) -> Report {
    let raw_bytes = mb * MIB;

    let mut rows = Vec::new();
    let mut ts = Vec::new();
    for codec in [CodecChoice::Identity, CodecChoice::Lz] {
        for (label, policy, tier2) in [
            ("lru", CachePolicy::Lru, false),
            ("slru", CachePolicy::Slru, false),
            ("slru_tier2", CachePolicy::Slru, true),
        ] {
            rows.push(run_workload(
                label, policy, tier2, codec, raw_bytes, &mut ts,
            ));
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                r.codec.name().to_string(),
                format!("{:.3}", r.hot_hit_rate()),
                r.hot_hits.to_string(),
                r.hot_accesses.to_string(),
                r.no_device_blocks.to_string(),
                r.device_reads.to_string(),
                r.tier2_hits.to_string(),
                r.promotions.to_string(),
                r.evictions.to_string(),
                format!("{:.3}", r.compression_ratio),
            ]
        })
        .collect();
    let mut report = Report::default();
    report.table(
        &format!(
            "Cache scan resistance — hot lookups vs cold sweeps > capacity ({mb} MiB run, \
             cache 1/4 of decoded size, {MEASURED_ROUNDS} measured rounds)"
        ),
        &[
            "policy",
            "codec",
            "hot_hit_rate",
            "hot_hits",
            "hot_lookups",
            "no_dev_blocks",
            "dev_reads",
            "tier2_hits",
            "promotions",
            "evictions",
            "stored/raw",
        ],
        &table,
    );

    // Per-round time series, one `TS:` line per measured round; each
    // row is checked to parse back before it is reported.
    let ts_expected = rows.len() * MEASURED_ROUNDS;
    assert_eq!(ts.len(), ts_expected, "one TS row per config x round");
    for line in &ts {
        let row = parse(line).expect("TS row parses as JSON");
        assert!(row.get("hot_lookups").is_some());
    }
    report.series(ts.iter().map(String::as_str));

    // Acceptance bounds.
    let find = |policy: &str, codec: CodecChoice| {
        rows.iter()
            .find(|r| r.policy == policy && r.codec == codec)
            .expect("row present")
    };
    for codec in [CodecChoice::Identity, CodecChoice::Lz] {
        let lru = find("lru", codec);
        let slru = find("slru", codec);
        assert!(
            slru.hot_hit_rate() >= 2.0 * lru.hot_hit_rate() && slru.hot_hit_rate() > 0.5,
            "{}: slru hot rate {:.3} must be >= 2x lru {:.3} and > 0.5",
            codec.name(),
            slru.hot_hit_rate(),
            lru.hot_hit_rate()
        );
    }
    let t1_only = find("slru", CodecChoice::Lz);
    let t2 = find("slru_tier2", CodecChoice::Lz);
    assert!(
        t2.no_device_blocks as f64 >= 1.5 * t1_only.no_device_blocks as f64,
        "tier 2 (lz) must serve >= 1.5x more blocks without device reads: {} vs {}",
        t2.no_device_blocks,
        t1_only.no_device_blocks
    );
    report.note(&format!(
        "PASS: slru >= 2x lru hot-set hit rate on both codecs; \
         slru+tier2 (lz) served {:.1}x the device-free blocks of tier 1 alone.",
        t2.no_device_blocks as f64 / t1_only.no_device_blocks.max(1) as f64
    ));
    report
}
