//! Figure 9b (new experiment): point lookups against a materialized
//! update run — legacy sparse-index format vs the block-run format
//! (`masm-blockrun`), bloom filter on/off, block cache cold/warm.
//!
//! The paper's Figure 9 covers *range* scans, where the sparse index is
//! already good. Point lookups are the worst case it leaves open: a
//! lookup for a key the run does not contain still pays a full
//! index-cell read. The block-run format attacks both sides:
//!
//! * **bloom filter** — absent keys are rejected from memory, zero I/O;
//! * **block cache** — repeated lookups of hot keys are served from
//!   decoded blocks, zero device reads when warm.
//!
//! A second, engine-level section compares `MasmEngine::get` (buffer →
//! bloom-guarded runs → heap) against the IU baseline, whose positional
//! index on the cached updates is kept **entirely in memory** — the
//! memory-vs-I/O trade §2.3 calls out. MaSM rows run with the codec off
//! (identity) and on (lz) to show compression does not change lookup
//! I/O (blocks decode after the same single read).

use std::sync::Arc;

use masm_baselines::IuEngine;
use masm_blockrun::{
    point_lookup, write_run as write_block_run, BlockCache, BlockRunConfig, BloomFilter, Entry,
};
use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::{CodecChoice, MasmConfig, MasmEngine};
use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, Ns, SessionHandle, SimClock, SimDevice};

use crate::{Machine, Report};

/// The legacy run format the block runs replaced: a flat byte stream of
/// update records plus an in-memory sparse index (smallest key per fixed
/// byte cell). Kept here, in the benchmark only, as the comparison
/// baseline.
struct SparseRun {
    index: Vec<(u64, u64)>, // (first key, byte offset)
    total_bytes: u64,
    min_key: u64,
    max_key: u64,
}

impl SparseRun {
    fn write(
        session: &SessionHandle,
        dev: &SimDevice,
        updates: &[UpdateRecord],
        granularity: u64,
    ) -> SparseRun {
        let mut buf = Vec::new();
        let mut index = Vec::new();
        let mut next_cell = 0u64;
        for u in updates {
            let off = buf.len() as u64;
            if off >= next_cell {
                index.push((u.key, off));
                next_cell = off + granularity;
            }
            u.encode_into(&mut buf);
        }
        for chunk_start in (0..buf.len()).step_by(64 * 1024) {
            let end = (chunk_start + 64 * 1024).min(buf.len());
            session
                .write(dev, chunk_start as u64, &buf[chunk_start..end])
                .expect("write");
        }
        SparseRun {
            index,
            total_bytes: buf.len() as u64,
            min_key: updates.first().expect("non-empty").key,
            max_key: updates.last().expect("non-empty").key,
        }
    }

    fn lookup(&self, session: &SessionHandle, dev: &SimDevice, key: u64) -> Option<UpdateRecord> {
        if key < self.min_key || key > self.max_key {
            return None;
        }
        let cell = self
            .index
            .partition_point(|&(k, _)| k <= key)
            .saturating_sub(1);
        let lo = self.index[cell].1;
        let hi = self
            .index
            .get(cell + 1)
            .map_or(self.total_bytes, |&(_, off)| off);
        let data = session.read(dev, lo, hi - lo).expect("read");
        let mut pos = 0usize;
        while let Some((u, used)) = UpdateRecord::decode(&data[pos..]) {
            pos += used;
            if u.key == key {
                return Some(u);
            }
            if u.key > key {
                return None;
            }
        }
        None
    }
}

/// Mean virtual ns of `n` lookups that took `ns`, as a table cell.
fn per_lookup(ns: Ns, n: usize) -> String {
    format!("{:.0}", ns as f64 / n as f64)
}

pub(crate) fn run(mb: u64) -> Report {
    // Scale entry count with the table scale; lookups stay fixed.
    let entries_n = (mb * 4096).max(50_000);
    let lookups = 600u64;

    let updates: Vec<UpdateRecord> = (0..entries_n)
        .map(|i| UpdateRecord::new(i + 1, i * 2, UpdateOp::Replace(vec![7u8; 60])))
        .collect();
    // Half present (even), half absent (odd), spread over the key space.
    let probes: Vec<u64> = (0..lookups)
        .map(|i| {
            let slot = (i * 2_654_435_761) % entries_n;
            if i % 2 == 0 {
                slot * 2
            } else {
                slot * 2 + 1
            }
        })
        .collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut warm_ssd_reads = None;

    // --- Legacy sparse-index flat run -------------------------------
    {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let session = SessionHandle::fresh(clock);
        let run = SparseRun::write(&session, &dev, &updates, 1024);
        dev.reset_stats();
        let start: Ns = session.now();
        let mut found = 0u64;
        for &p in &probes {
            found += run.lookup(&session, &dev, p).is_some() as u64;
        }
        let stats = dev.stats();
        rows.push(vec![
            "sparse_index".into(),
            "cold".into(),
            found.to_string(),
            stats.read_ops.to_string(),
            stats.bytes_read.to_string(),
            per_lookup(session.now() - start, probes.len()),
            "0".into(),
            "0".into(),
        ]);
    }

    // --- Block runs: bloom off/on, cache cold/warm ------------------
    for (scheme, bloom_bits, use_cache) in [
        ("blockrun_bloom_off", 0u32, false),
        ("blockrun_bloom_on", 10u32, false),
        ("blockrun_bloom_on_cached", 10u32, true),
    ] {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let session = SessionHandle::fresh(clock);
        let entries: Vec<Entry> = updates
            .iter()
            .map(|u| Entry::new(u.key, u.ts, u.encode_value()))
            .collect();
        let cfg = BlockRunConfig {
            block_bytes: 1024,
            bloom_bits_per_key: bloom_bits,
            ..BlockRunConfig::default()
        };
        let meta = write_block_run(&session, &dev, 0, &cfg, &entries).expect("write run");
        let cache = use_cache.then(|| Arc::new(BlockCache::new(64 << 20)));

        let phases: &[&'static str] = if use_cache {
            &["cold", "warm"]
        } else {
            &["cold"]
        };
        for &phase in phases {
            dev.reset_stats();
            if let Some(c) = &cache {
                c.reset_stats();
            }
            let start = session.now();
            let mut found = 0u64;
            for &p in &probes {
                let mut hit = false;
                point_lookup(
                    &session,
                    &dev,
                    &meta,
                    p,
                    BloomFilter::hashes_of(p),
                    cache.as_ref().map(|c| (c.as_ref(), 1u64)),
                    |_| hit = true,
                )
                .expect("lookup");
                found += hit as u64;
            }
            let stats = dev.stats();
            let cs = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
            if phase == "warm" {
                warm_ssd_reads = Some(stats.read_ops);
            }
            rows.push(vec![
                scheme.into(),
                phase.into(),
                found.to_string(),
                stats.read_ops.to_string(),
                stats.bytes_read.to_string(),
                per_lookup(session.now() - start, probes.len()),
                cs.hits.to_string(),
                cs.misses.to_string(),
            ]);
        }
    }

    // --- Engine level: MasmEngine::get vs the IU in-memory index -----
    // `mem_bytes` is, for MaSM, the pinned run metadata (zone maps +
    // blooms); for IU, the in-memory positional index over every cached
    // update.
    let schema = Schema::synthetic_100b();
    let payload = |v: u32| {
        let mut p = schema.empty_payload();
        schema.set_u32(&mut p, 0, v);
        p
    };
    // Base table of even keys; updates insert every other odd key, so
    // `slot*4+1` is a cached hit and `slot*4+3` is definitely absent.
    let n_base = 10_000u64;
    let n_updates = 20_000u64;
    let eng_lookups = 400u64;
    let eng_probes: Vec<u64> = (0..eng_lookups)
        .map(|i| {
            let slot = (i * 2_654_435_761) % n_updates;
            if i % 2 == 0 {
                slot * 4 + 1
            } else {
                slot * 4 + 3
            }
        })
        .collect();
    let mut engine_rows: Vec<Vec<String>> = Vec::new();

    for codec in [CodecChoice::Identity, CodecChoice::Lz] {
        let m = Machine::new();
        let heap = Arc::new(TableHeap::new(m.disk.clone(), HeapConfig::default()));
        let mut cfg = MasmConfig::small_for_tests();
        cfg.codec = codec;
        let (ssd, wal, schema) = (m.ssd.clone(), m.wal.clone(), schema.clone());
        let engine = MasmEngine::new(heap, ssd, wal, schema, cfg).expect("engine");
        let session = m.session();
        engine
            .load_table(
                &session,
                (0..n_base).map(|i| Record::new(i * 2, payload(i as u32))),
                1.0,
            )
            .expect("load");
        for i in 0..n_updates {
            engine
                .apply_update(&session, i * 4 + 1, UpdateOp::Insert(payload(i as u32)))
                .expect("update");
        }
        engine.flush_buffer(&session).expect("flush");

        m.ssd.reset_stats();
        let start = session.now();
        let mut found = 0u64;
        for &k in &eng_probes {
            found += engine.get(&session, k).expect("get").is_some() as u64;
        }
        let stats = m.ssd.stats();
        engine_rows.push(vec![
            "engine_masm_get".into(),
            codec.name().into(),
            found.to_string(),
            stats.read_ops.to_string(),
            stats.bytes_read.to_string(),
            per_lookup(session.now() - start, eng_probes.len()),
            engine.cache_stats().meta_bytes.to_string(),
        ]);
    }

    {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
        let session = SessionHandle::fresh(clock);
        heap.bulk_load(
            &session,
            (0..n_base).map(|i| Record::new(i * 2, payload(i as u32))),
            1.0,
        )
        .expect("load");
        let iu = IuEngine::new(heap, ssd.clone(), schema.clone());
        for i in 0..n_updates {
            iu.apply_update(
                &session,
                i * 4 + 1,
                UpdateOp::Insert(payload(i as u32)),
                i + 1,
            )
            .expect("update");
        }
        ssd.reset_stats();
        let start = session.now();
        let mut found = 0u64;
        for &k in &eng_probes {
            let hit = iu
                .begin_scan(session.clone(), k, k, u64::MAX)
                .expect("scan")
                .next();
            found += hit.is_some() as u64;
        }
        let stats = ssd.stats();
        engine_rows.push(vec![
            "engine_iu_scan".into(),
            "none".into(),
            found.to_string(),
            stats.read_ops.to_string(),
            stats.bytes_read.to_string(),
            per_lookup(session.now() - start, eng_probes.len()),
            iu.index_memory_bytes().to_string(),
        ]);
    }

    let mut report = Report::default();
    report.table(
        &format!(
            "Figure 9b — point lookups over one materialized run \
             ({entries_n} entries, {lookups} lookups, half absent)"
        ),
        &[
            "scheme",
            "phase",
            "found",
            "ssd_reads",
            "bytes_read",
            "ns/lookup",
            "cache_hits",
            "cache_miss",
        ],
        &rows,
    );
    report.table(
        &format!(
            "Figure 9b (engine) — MasmEngine::get vs IU in-memory index \
             ({n_base} base records, {n_updates} cached updates, {eng_lookups} lookups, half absent)"
        ),
        &[
            "scheme",
            "codec",
            "found",
            "ssd_reads",
            "bytes_read",
            "ns/lookup",
            "mem_bytes",
        ],
        &engine_rows,
    );

    report.note(&format!(
        "expected shape: bloom halves cold reads (absent keys cost zero I/O); \
         warm cache serves every block from memory (ssd_reads == 0; got {}).",
        warm_ssd_reads.expect("warm row")
    ));
    report
}
