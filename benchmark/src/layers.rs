//! Per-layer measurements for the traced run. Layer = crate/module.
//!
//! Each layer is measured from outside, by timing calls into its public
//! functions on the workload's own data: update batches drawn from the
//! workload's generator, materialised as runs on a scratch simulated
//! SSD in the workload's configuration, and blocks read back from it.
//! Every timing is the fastest of a few repetitions, like the
//! end-to-end wall metrics.

use std::sync::Arc;
use std::time::Instant;

use masm_blockrun::block::{decode_block, encode_block};
use masm_blockrun::{BlockCache, BlockRunScan, Entry, StoredBlock};
use masm_codec::{Codec, Delta, Lz};
use masm_core::membuf::UpdateBuffer;
use masm_core::merge::{
    compact_block_runs, KWayUpdates, MergeDataUpdates, MergeUpdates, UpdateStream,
};
use masm_core::run::{write_run, RunScan, SortedRun};
use masm_core::wal::{Wal, WalRecord};
use masm_core::{MasmResult, UpdateRecord};
use masm_pagestore::{HeapConfig, Key, Page, Record, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_workloads::SyntheticTable;

use crate::harness::Env;

/// Runs materialised on the scratch SSD (the widest merge fan-in timed).
const RUNS: usize = 32;
/// Updates per scratch run — about one update buffer's worth.
const RUN_UPDATES: usize = 2048;
/// Repetitions per timing; the fastest is reported.
const REPS: usize = 5;

/// Fastest of [`REPS`] repetitions, in ns per unit of work. `prep`
/// builds a repetition's input outside the timed region; `work`
/// consumes it and returns how many units it processed.
fn ns_per<I>(mut prep: impl FnMut() -> I, mut work: impl FnMut(I) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let input = prep();
        let t = Instant::now();
        let units = std::hint::black_box(work(input));
        let ns = t.elapsed().as_nanos() as f64;
        best = best.min(ns / units.max(1) as f64);
    }
    best
}

fn boxed(run: Vec<UpdateRecord>) -> UpdateStream {
    Box::new(run.into_iter())
}

/// The scratch data every layer is timed on.
struct Scratch {
    session: SessionHandle,
    ssd: SimDevice,
    /// Sorted update batches, one per run.
    batches: Vec<Vec<UpdateRecord>>,
    runs: Vec<Arc<SortedRun>>,
    /// Every data block of every run.
    blocks: Vec<Block>,
}

struct Block {
    /// Bytes as stored on the device (post-codec).
    stored: Vec<u8>,
    codec_id: u8,
    entries: Vec<Entry>,
}

/// An empty simulated flash device on a clock of its own.
fn fresh_ssd() -> (SimDevice, SessionHandle) {
    let clock = SimClock::new();
    let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    (dev, SessionHandle::fresh(clock))
}

fn scratch(env: &mut Env) -> MasmResult<Scratch> {
    let (ssd, session) = fresh_ssd();
    let cfg = env.engine.config().clone();
    let mut ts = 0u64;
    let mut batches = Vec::with_capacity(RUNS);
    let mut runs = Vec::with_capacity(RUNS);
    let mut base = 0u64;
    for id in 0..RUNS as u64 {
        let mut batch: Vec<UpdateRecord> = env
            .draw_updates(RUN_UPDATES)
            .into_iter()
            .map(|(key, op)| {
                ts += 1;
                UpdateRecord::new(ts, key, op)
            })
            .collect();
        batch.sort_by_key(|u| (u.key, u.ts));
        let run = write_run(&session, &ssd, &cfg, id, base, 1, &batch)?;
        base += run.bytes;
        batches.push(batch);
        runs.push(Arc::new(run));
    }
    let mut blocks = Vec::new();
    for run in &runs {
        for zone in &run.meta.zones {
            let stored = session.read(&ssd, run.base + zone.offset, zone.len as u64)?;
            let codec = masm_codec::codec_for(zone.codec_id).expect("codec the writer just used");
            let flat = codec
                .decode(&stored, zone.raw_len as usize)
                .expect("block the writer just encoded");
            let entries = decode_block(&flat).expect("flat block the writer just built");
            blocks.push(Block {
                stored,
                codec_id: zone.codec_id,
                entries,
            });
        }
    }
    Ok(Scratch {
        session,
        ssd,
        batches,
        runs,
        blocks,
    })
}

/// What [`measure`] found.
pub struct Layered {
    /// `(metric name, value)` for every timing taken here.
    pub metrics: Vec<(&'static str, f64)>,
    /// The outer join's cost per record it returns, ns.
    pub join_ns_per_rec: f64,
    /// What one cached update adds to a merged scan, ns: read back
    /// from its run, then k-way merged at the read-state's fan-in.
    pub update_side_ns_per_upd: f64,
    /// Stored run bytes per update, to turn cached bytes into updates.
    pub stored_bytes_per_update: f64,
}

/// Time every layer.
pub fn measure(env: &mut Env) -> MasmResult<Layered> {
    let sc = scratch(env)?;
    let cfg = env.engine.config().clone();
    let schema = env.engine.schema().clone();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let flats: Vec<Vec<u8>> = sc.blocks.iter().map(|b| encode_block(&b.entries)).collect();
    let raw_bytes: u64 = flats.iter().map(|f| f.len() as u64).sum();
    let entries: u64 = sc.blocks.iter().map(|b| b.entries.len() as u64).sum();

    // codec: per raw (flat) byte, on the workload's own blocks.
    for (codec, enc_name, dec_name) in [
        (
            &Delta as &dyn Codec,
            "codec.delta.encode_ns_per_byte",
            "codec.delta.decode_ns_per_byte",
        ),
        (
            &Lz as &dyn Codec,
            "codec.lz.encode_ns_per_byte",
            "codec.lz.decode_ns_per_byte",
        ),
    ] {
        let encoded: Vec<Vec<u8>> = flats
            .iter()
            .map(|f| codec.encode(f).expect("flat blocks encode"))
            .collect();
        out.push((
            enc_name,
            ns_per(
                || (),
                |()| {
                    for f in &flats {
                        std::hint::black_box(codec.encode(f).expect("encodes"));
                    }
                    raw_bytes
                },
            ),
        ));
        out.push((
            dec_name,
            ns_per(
                || (),
                |()| {
                    for (e, f) in encoded.iter().zip(&flats) {
                        std::hint::black_box(codec.decode(e, f.len()).expect("decodes"));
                    }
                    raw_bytes
                },
            ),
        ));
    }

    // blockrun: flat block, builder, uncached scan, bloom, cache.
    out.push((
        "blockrun.block.encode_ns_per_entry",
        ns_per(
            || (),
            |()| {
                for b in &sc.blocks {
                    std::hint::black_box(encode_block(&b.entries));
                }
                entries
            },
        ),
    ));
    out.push((
        "blockrun.block.decode_ns_per_entry",
        ns_per(
            || (),
            |()| {
                for f in &flats {
                    std::hint::black_box(decode_block(f).expect("decodes"));
                }
                entries
            },
        ),
    ));
    let run_entries: Vec<Vec<Entry>> = sc
        .batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|u| Entry::new(u.key, u.ts, u.encode_value()))
                .collect()
        })
        .collect();
    let blockrun_cfg = cfg.blockrun_config();
    out.push((
        "blockrun.builder.ns_per_entry",
        ns_per(
            || (),
            |()| {
                for e in &run_entries {
                    std::hint::black_box(masm_blockrun::build_run(&blockrun_cfg, e));
                }
                (RUNS * RUN_UPDATES) as u64
            },
        ),
    ));
    out.push((
        "blockrun.scan.ns_per_entry",
        ns_per(
            || (),
            |()| {
                sc.runs
                    .iter()
                    .map(|r| {
                        BlockRunScan::new(
                            sc.ssd.clone(),
                            sc.session.clone(),
                            Arc::clone(&r.meta),
                            None,
                            r.id,
                            0,
                            Key::MAX,
                        )
                        .count() as u64
                    })
                    .sum()
            },
        ),
    ));
    let bloom = sc.runs[0].meta.bloom.as_ref();
    let members: Vec<Key> = sc.batches[0].iter().map(|u| u.key).collect();
    // Keys of the other runs that run 0 does not hold: true negatives.
    let strangers: Vec<Key> = sc.batches[1..]
        .iter()
        .flatten()
        .map(|u| u.key)
        .filter(|k| members.binary_search(k).is_err())
        .collect();
    out.push((
        "blockrun.bloom.probe_ns",
        ns_per(
            || (),
            |()| {
                let hits = strangers
                    .iter()
                    .chain(&members)
                    .filter(|&&k| bloom.is_some_and(|b| b.contains(k)))
                    .count();
                std::hint::black_box(hits);
                (strangers.len() + members.len()) as u64
            },
        ),
    ));
    let false_positives = strangers
        .iter()
        .filter(|&&k| bloom.is_some_and(|b| b.contains(k)))
        .count();
    out.push((
        "blockrun.bloom.fpr",
        false_positives as f64 / strangers.len().max(1) as f64,
    ));
    let cached: Vec<(Arc<Vec<Entry>>, StoredBlock)> = sc
        .blocks
        .iter()
        .zip(&flats)
        .map(|(b, flat)| {
            (
                Arc::new(b.entries.clone()),
                StoredBlock {
                    bytes: Arc::new(b.stored.clone()),
                    codec_id: b.codec_id,
                    raw_len: flat.len() as u32,
                },
            )
        })
        .collect();
    // Hits: a handful of resident blocks looked up over and over.
    let hot = BlockCache::with_config(cfg.cache_config());
    let resident = 8.min(cached.len());
    for (i, (block, stored)) in cached[..resident].iter().enumerate() {
        hot.insert((0, i as u32), Arc::clone(block), stored.clone());
    }
    out.push((
        "blockrun.cache.hit_ns",
        ns_per(
            || (),
            |()| {
                let lookups = 200_000u64;
                for i in 0..lookups {
                    std::hint::black_box(hot.get((0, (i % resident as u64) as u32)));
                }
                lookups
            },
        ),
    ));
    // Misses: look a fresh key up, then insert its block (evicting once
    // the workload's tier-1 budget is full) — what a cold scan pays per
    // block on top of the device read and the decode.
    out.push((
        "blockrun.cache.miss_insert_ns",
        ns_per(
            || BlockCache::with_config(cfg.cache_config()),
            |cold| {
                for (i, (block, stored)) in cached.iter().enumerate() {
                    if cold.get((1, i as u32)).is_none() {
                        cold.insert((1, i as u32), Arc::clone(block), stored.clone());
                    }
                }
                cached.len() as u64
            },
        ),
    ));

    // pagestore: page decode on bytes read back from the table's disk,
    // copy-forward rewrite on a small scratch heap.
    let (page_map, _, _) = env.heap.metadata_snapshot();
    let page_size = env.heap.config().page_size;
    let sample_pages = page_map.len().min(1024);
    let raw_pages: Vec<Vec<u8>> = page_map[..sample_pages]
        .iter()
        .map(|&off| env.session.read(&env.disk, off, page_size as u64))
        .collect::<Result<_, _>>()?;
    out.push((
        "pagestore.page.decode_ns_per_rec",
        ns_per(
            || raw_pages.clone(),
            |pages| {
                pages
                    .into_iter()
                    .map(|bytes| Page::from_bytes(bytes).records().count() as u64)
                    .sum()
            },
        ),
    ));
    let small = SyntheticTable::new(env.spec.records().min(80_000));
    out.push((
        "pagestore.heap.rewrite_ns_per_rec",
        ns_per(
            || {
                let clock = SimClock::new();
                let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
                let heap = TableHeap::new(disk, HeapConfig::default());
                let session = SessionHandle::fresh(clock);
                heap.bulk_load(&session, small.records(), 1.0)
                    .expect("scratch bulk load");
                (heap, session)
            },
            |(heap, session)| {
                let mut rewriter = heap.rewriter(session);
                while let Some(pages) = rewriter.next_chunk().expect("scratch read") {
                    rewriter.commit_chunk(pages).expect("scratch write");
                }
                let written = rewriter.records_written();
                rewriter.finish();
                written
            },
        ),
    ));

    // core: buffer, log, run, merges.
    let all_updates = (RUNS * RUN_UPDATES) as u64;
    out.push((
        "core.membuf.push_ns_per_upd",
        ns_per(
            || sc.batches.clone(),
            |batches| {
                let mut buf = UpdateBuffer::new(usize::MAX);
                for u in batches.into_iter().flatten() {
                    buf.push(u);
                }
                std::hint::black_box(buf.len());
                all_updates
            },
        ),
    ));
    out.push((
        "core.membuf.drain_sorted_ns_per_upd",
        ns_per(
            || {
                // Arrival order, as the engine's buffer sees it.
                let mut arrivals: Vec<UpdateRecord> = sc.batches[..4].concat();
                arrivals.sort_by_key(|u| u.ts);
                let mut buf = UpdateBuffer::new(usize::MAX);
                for u in arrivals {
                    buf.push(u);
                }
                buf
            },
            |mut buf| buf.drain_sorted().len() as u64,
        ),
    ));
    let log_records: Vec<WalRecord> = sc.batches[..8]
        .iter()
        .flatten()
        .cloned()
        .map(WalRecord::Update)
        .collect();
    let fresh_log = || {
        let (dev, session) = fresh_ssd();
        (Wal::new(dev.clone(), 0), dev, session)
    };
    out.push((
        "core.wal.append_ns_per_rec",
        ns_per(fresh_log, |(wal, _, session)| {
            for rec in &log_records {
                wal.append(&session, rec).expect("scratch log append");
            }
            log_records.len() as u64
        }),
    ));
    out.push((
        "core.wal.replay_ns_per_rec",
        ns_per(
            || {
                let (wal, dev, session) = fresh_log();
                for rec in &log_records {
                    wal.append(&session, rec).expect("scratch log append");
                }
                (dev, session)
            },
            |(dev, session)| {
                Wal::replay(&session, &dev)
                    .expect("scratch log replays")
                    .records
                    .len() as u64
            },
        ),
    ));
    out.push((
        "core.run.write_run_ns_per_upd",
        ns_per(fresh_ssd, |(dev, session)| {
            let mut base = 0;
            for (id, batch) in sc.batches.iter().enumerate() {
                let run = write_run(&session, &dev, &cfg, id as u64, base, 1, batch)
                    .expect("scratch run write");
                base += run.bytes;
            }
            all_updates
        }),
    ));
    // Through a block cache of the workload's own geometry, after one
    // warming pass: misses with insert-and-evict where it is small,
    // tier-1 hits where everything fits.
    let run_cache = Arc::new(BlockCache::with_config(cfg.cache_config()));
    let scan_all_runs = || -> u64 {
        sc.runs
            .iter()
            .map(|r| {
                RunScan::with_cache(
                    sc.ssd.clone(),
                    sc.session.clone(),
                    Arc::clone(r),
                    Some(Arc::clone(&run_cache)),
                    0,
                    Key::MAX,
                )
                .count() as u64
            })
            .sum()
    };
    scan_all_runs();
    let run_scan_ns = ns_per(|| (), |()| scan_all_runs());
    out.push(("core.run.scan_ns_per_upd", run_scan_ns));
    let mut kway_ns = [0.0f64; 3];
    for (slot, (fan_in, name)) in [
        (2usize, "core.merge.kway_ns_per_upd.f2"),
        (8, "core.merge.kway_ns_per_upd.f8"),
        (32, "core.merge.kway_ns_per_upd.f32"),
    ]
    .into_iter()
    .enumerate()
    {
        kway_ns[slot] = ns_per(
            || sc.batches[..fan_in].iter().cloned().map(boxed).collect(),
            |streams: Vec<UpdateStream>| KWayUpdates::new(streams).count() as u64,
        );
        out.push((name, kway_ns[slot]));
    }
    out.push((
        "core.merge.updates_ns_per_upd",
        ns_per(
            || sc.batches[..8].iter().cloned().map(boxed).collect(),
            |streams: Vec<UpdateStream>| {
                MergeUpdates::new(streams, schema.clone(), u64::MAX).count();
                8 * RUN_UPDATES as u64
            },
        ),
    ));
    // The outer join over pre-decoded inputs: a contiguous slice of the
    // table with the cached-update density of a 4 % cache.
    let join_records = env.spec.records().min(400_000);
    let table = SyntheticTable::new(join_records);
    let data: Vec<(Record, u64)> = table.records().map(|r| (r, 0)).collect();
    let mut join_updates: Vec<UpdateRecord> = MergeUpdates::new(
        sc.batches[..8].iter().cloned().map(boxed).collect(),
        schema.clone(),
        u64::MAX,
    )
    .map(|mut u| {
        u.key %= join_records * 2;
        u
    })
    .collect();
    join_updates.sort_by_key(|u| u.key);
    join_updates.dedup_by_key(|u| u.key);
    let join_ns = ns_per(
        || (data.clone(), join_updates.clone()),
        |(data, updates)| {
            MergeDataUpdates::new(data.into_iter(), updates.into_iter(), schema.clone()).count();
            join_records
        },
    );
    out.push(("core.merge.data_updates_ns_per_rec", join_ns));
    drop(data);
    out.push((
        "core.merge.compact_ns_per_upd",
        ns_per(
            || (),
            |()| {
                let (_, _, report) =
                    compact_block_runs(&sc.session, &sc.ssd, &cfg, &schema, &sc.runs[..8], None)
                        .expect("scratch compaction");
                report.entries_out
            },
        ),
    ));
    let probes: Vec<Key> = (0..256)
        .map(|i| i * 2 * (env.spec.records() / 256))
        .collect();
    out.push((
        "core.engine.scan_setup_us",
        ns_per(
            || Vec::with_capacity(probes.len()),
            |mut open| {
                // Opened scans are kept and dropped outside the timing:
                // only `begin_scan` itself is the set-up cost.
                for &k in &probes {
                    open.push(env.engine.begin_scan(env.session.clone(), k, k));
                }
                open.len() as u64
            },
        ) / 1e3,
    ));

    // storage: the simulator's own CPU, present in every wall number.
    const IO: usize = 64 << 10;
    let payload = vec![0xA5u8; IO];
    out.push((
        "storage.sim.write_ns_per_kib",
        ns_per(fresh_ssd, |(dev, session)| {
            for i in 0..256u64 {
                session
                    .write(&dev, i * IO as u64, &payload)
                    .expect("scratch write");
            }
            256 * IO as u64 / 1024
        }),
    ));
    out.push((
        "storage.sim.read_ns_per_kib",
        ns_per(
            || {
                let (dev, session) = fresh_ssd();
                for i in 0..256u64 {
                    session
                        .write(&dev, i * IO as u64, &payload)
                        .expect("scratch write");
                }
                (dev, session)
            },
            |(dev, session)| {
                for i in 0..256u64 {
                    std::hint::black_box(
                        session
                            .read(&dev, i * IO as u64, IO as u64)
                            .expect("scratch read"),
                    );
                }
                256 * IO as u64 / 1024
            },
        ),
    ));

    let fan_in_ns = match env.engine.run_count() {
        0..=4 => kway_ns[0],
        5..=16 => kway_ns[1],
        _ => kway_ns[2],
    };
    let stored: u64 = sc.runs.iter().map(|r| r.bytes).sum();
    Ok(Layered {
        metrics: out,
        join_ns_per_rec: join_ns,
        update_side_ns_per_upd: run_scan_ns + fan_in_ns,
        stored_bytes_per_update: stored as f64 / all_updates as f64,
    })
}
