//! One benchmark environment — simulated devices, engine, input
//! generators, reference model — and the timed phases run against it.
//!
//! Closed loop, one client, one thread: the next call is made when the
//! previous one returned. Every phase reports both clocks: wall time
//! from `Instant`, device time from the session cursor on the shared
//! `SimClock`.

use std::sync::Arc;
use std::time::Instant;

use masm_core::update::UpdateOp;
use masm_core::{MasmEngine, MasmError, MasmResult};
use masm_pagestore::{HeapConfig, Key, Record, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_workloads::{SyntheticTable, UpdateStreamGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc;
use crate::model::{Applied, Digest, Model};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{Shape, Spec, RANGE_RECORDS};

/// Updates generated per bounded input batch. Inputs are generated
/// outside the timed region, one batch at a time: pre-generating a whole
/// run's updates into one vector made ingest look 40 % slower over
/// eleven cycles (a benchmark artefact, not a program drift).
const INPUT_BATCH: usize = 8192;

/// `needs_migration()` / fill level is polled once per this many
/// updates, so the poll's lock round-trip stays out of the ingest cost.
const POLL_EVERY: usize = 32;

/// Operations attempted and failed. An `Err` from any engine call, a
/// scan or get that disagrees with the model, a lost update after
/// recovery and a random SSD write all count as failed operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Engine operations attempted (updates, scans, gets, migrations,
    /// recoveries).
    pub attempted: u64,
    /// Of those, how many failed or returned a wrong answer.
    pub failed: u64,
}

/// When an ingest phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// The engine reports the migration threshold reached.
    NeedsMigration,
    /// Live run bytes on flash reach this many.
    CachedBytes(u64),
}

/// Result of one ingest phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ingested {
    pub updates: u64,
    pub wall_ns: u64,
    pub sim_ns: u64,
    pub allocs: u64,
    /// Whether the stop condition (not the update limit) ended it.
    pub reached: bool,
}

/// Result of one scan (merged or clean).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scanned {
    pub records: u64,
    pub wall_ns: u64,
    pub sim_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Result of one migration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Migrated {
    pub records: u64,
    pub wall_ns: u64,
    pub sim_ns: u64,
}

/// Result of one batch of range scans.
#[derive(Debug, Clone, Default)]
pub struct Ranged {
    /// Wall time of each merged range scan, µs.
    pub wall_us: Vec<f64>,
    /// Device time of each merged range scan, ns.
    pub sim_ns: Vec<u64>,
    /// Device time of the same ranges on the bare heap, summed, ns.
    pub clean_sim_ns: u64,
    /// SSD read operations issued by the merged scans.
    pub ssd_reads: u64,
}

/// Result of one batch of gets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Got {
    pub gets: u64,
    pub wall_ns: u64,
    pub allocs: u64,
}

/// Result of the crash check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovered {
    pub sim_ns: u64,
    pub wall_ns: u64,
    pub wal_records: u64,
}

/// Everything the repetitions of a run measured.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    // One value per repetition; the wall-clock metrics are their minimum.
    pub ingest_ns_per_upd: Vec<f64>,
    pub migrate_ns_per_rec: Vec<f64>,
    pub scan_ns_per_rec: Vec<f64>,
    pub range_p50_us: Vec<f64>,
    pub get_us: Vec<f64>,
    pub clean_ns_per_rec: Vec<f64>,
    // Device-clock sums (deterministic).
    pub cycles: u64,
    pub updates: u64,
    pub ingest_sim_ns: u64,
    pub migrate_sim_ns: u64,
    pub scans: u64,
    pub scan_sim_ns: u64,
    pub scan_records: u64,
    pub cleans: u64,
    pub clean_sim_ns: u64,
    pub range_sim_ns: Vec<u64>,
    pub range_clean_sim_ns: u64,
    // Counters behind the per-layer metrics (deterministic).
    pub ingest_allocs: u64,
    pub scan_allocs: u64,
    pub scan_alloc_bytes: u64,
    pub gets: u64,
    pub get_allocs: u64,
    pub cycle_ssd_bytes_written: u64,
    pub cycle_wal_bytes_written: u64,
    pub scan_ssd_bytes_read: u64,
    pub scan_disk_bytes_read: u64,
    pub scan_evictions: u64,
    pub range_ssd_reads: u64,
    pub read_cache_hits: u64,
    pub read_cache_lookups: u64,
    pub runs_at_read_state: u64,
    /// Wall time inside timed regions, ns (for the tracing overhead).
    pub timed_wall_ns: u64,
}

impl Samples {
    fn cycle(&mut self, ing: Ingested, mig: Migrated) {
        self.cycles += 1;
        self.updates += ing.updates;
        self.ingest_sim_ns += ing.sim_ns;
        self.migrate_sim_ns += mig.sim_ns;
        self.ingest_allocs += ing.allocs;
        self.ingest_ns_per_upd
            .push(ing.wall_ns as f64 / ing.updates.max(1) as f64);
        self.migrate_ns_per_rec
            .push(mig.wall_ns as f64 / mig.records.max(1) as f64);
        self.timed_wall_ns += ing.wall_ns + mig.wall_ns;
    }

    fn merged_scan(&mut self, scan: Scanned) {
        self.scans += 1;
        self.scan_sim_ns += scan.sim_ns;
        self.scan_records += scan.records;
        self.scan_allocs += scan.allocs;
        self.scan_alloc_bytes += scan.alloc_bytes;
        self.scan_ns_per_rec
            .push(scan.wall_ns as f64 / scan.records.max(1) as f64);
        self.timed_wall_ns += scan.wall_ns;
    }

    fn clean_scan(&mut self, scan: Scanned) {
        self.cleans += 1;
        self.clean_sim_ns += scan.sim_ns;
        self.clean_ns_per_rec
            .push(scan.wall_ns as f64 / scan.records.max(1) as f64);
    }

    fn ranges(&mut self, r: &Ranged) {
        self.range_sim_ns.extend_from_slice(&r.sim_ns);
        self.range_clean_sim_ns += r.clean_sim_ns;
        self.range_ssd_reads += r.ssd_reads;
        self.timed_wall_ns += (r.wall_us.iter().sum::<f64>() * 1e3) as u64;
    }

    fn gets(&mut self, g: Got) {
        self.gets += g.gets;
        self.get_allocs += g.allocs;
        self.timed_wall_ns += g.wall_ns;
    }
}

/// One environment: devices, engine, generators, model.
pub struct Env {
    pub spec: Spec,
    pub disk: SimDevice,
    pub ssd: SimDevice,
    pub wal: SimDevice,
    pub heap: Arc<TableHeap>,
    pub engine: Arc<MasmEngine>,
    pub session: SessionHandle,
    updates: UpdateStreamGen,
    /// Seeded source of read positions, apart from the update stream's.
    reads: StdRng,
    pub model: Model,
    pub tally: Tally,
    pub spans: Spans,
    /// Updates one ingest→migrate cycle takes, estimated during set-up
    /// (sizes the sixteenths of a mixed cycle).
    cycle_updates: u64,
    /// Wall time of the bulk load, for `pagestore.heap.bulk_load_*`.
    pub bulk_load_ns: u64,
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Env {
    /// SET-UP: build the devices, bulk-load the table, bring the update
    /// cache to the workload's read-state, run one repetition of every
    /// read as a warm-up (discarded), and check the table against the
    /// model. Structural failures (a device or the engine refusing to
    /// come up) are returned; wrong answers are tallied.
    pub fn build(spec: &Spec, seed: u64) -> MasmResult<Env> {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let table = SyntheticTable::new(spec.records());
        let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
        let engine = MasmEngine::new(
            Arc::clone(&heap),
            ssd.clone(),
            wal.clone(),
            table.schema.clone(),
            spec.config(),
        )?;
        let session = SessionHandle::fresh(clock);

        let t = Instant::now();
        engine.load_table(&session, table.records(), 1.0)?;
        let bulk_load_ns = since(t);

        let updates = match spec.zipf_theta {
            Some(theta) => UpdateStreamGen::zipf(table.clone(), spec.mix, theta, seed),
            None => UpdateStreamGen::uniform(table.clone(), spec.mix, seed),
        };
        let mut env = Env {
            spec: spec.clone(),
            disk,
            ssd,
            wal,
            heap,
            engine,
            session,
            updates,
            reads: StdRng::seed_from_u64(seed ^ 0x5EED_0F4E_AD50),
            model: Model::loaded(table.records),
            tally: Tally {
                attempted: 1,
                failed: 0,
            },
            spans: Spans::default(),
            cycle_updates: 0,
            bulk_load_ns,
        };

        let filled = env.refill();
        env.cycle_updates = ((filled.updates as f64 / spec.read_fill) as u64).max(16);
        // Warm-up: one of each read, so the measured laps start with the
        // allocator, the block cache and the heap's prefetch path in
        // their steady state. The full scan is also the set-up's
        // correctness check (every payload byte compared).
        env.merged_scan(0, Key::MAX, true);
        env.clean_scan();
        env.range_batch(spec.ranges_per_batch.min(16));
        env.get_batch(spec.gets_per_batch.min(4096));
        Ok(env)
    }

    /// The next `n` updates of the workload's stream, for measurements
    /// that never reach the engine (and so never the model).
    pub fn draw_updates(&mut self, n: usize) -> Vec<(Key, UpdateOp)> {
        (0..n).map(|_| self.updates.next_update()).collect()
    }

    fn fail(&mut self, what: &str, err: &dyn std::fmt::Display) {
        self.tally.failed += 1;
        eprintln!("FAILED {what}: {err}");
    }

    /// Apply generated updates until `until` holds or `limit` updates
    /// were applied.
    pub fn ingest(&mut self, limit: u64, until: Until) -> Ingested {
        let span = self.spans.begin("ingest");
        let mut out = Ingested::default();
        let mut batch: Vec<(Key, UpdateOp)> = Vec::with_capacity(INPUT_BATCH);
        let mut applied: Vec<Applied> = Vec::with_capacity(INPUT_BATCH);
        while out.updates < limit && !out.reached {
            let n = (limit - out.updates).min(INPUT_BATCH as u64) as usize;
            batch.clear();
            applied.clear();
            for _ in 0..n {
                let (key, op) = self.updates.next_update();
                applied.push(Applied::of(key, &op, self.engine.schema()));
                batch.push((key, op));
            }

            let chunk = self.spans.begin("apply_update.batch");
            let (allocs0, _) = alloc::snapshot();
            let sim0 = self.session.now();
            let t = Instant::now();
            let mut done = 0usize;
            let mut error: Option<MasmError> = None;
            for (key, op) in batch.drain(..) {
                let call = self.spans.begin_sampled("apply_update");
                let r = self.engine.apply_update(&self.session, key, op);
                self.spans.end(call);
                if let Err(e) = r {
                    error = Some(e);
                    break;
                }
                done += 1;
                if done.is_multiple_of(POLL_EVERY) && self.stop(until) {
                    out.reached = true;
                    break;
                }
            }
            out.wall_ns += since(t);
            out.sim_ns += self.session.now() - sim0;
            out.allocs += alloc::snapshot().0 - allocs0;
            self.spans.end(chunk);

            self.model.apply(&applied[..done]);
            out.updates += done as u64;
            self.tally.attempted += done as u64;
            if let Some(e) = error {
                self.tally.attempted += 1;
                self.fail("apply_update", &e);
                break;
            }
        }
        self.spans.end(span);
        out
    }

    fn stop(&self, until: Until) -> bool {
        match until {
            Until::NeedsMigration => self.engine.needs_migration(),
            Until::CachedBytes(b) => self.engine.cached_bytes() >= b,
        }
    }

    /// Migrate every cached update into the heap.
    pub fn migrate(&mut self) -> Migrated {
        let span = self.spans.begin("migrate");
        let sim0 = self.session.now();
        let t = Instant::now();
        let r = self.engine.migrate(&self.session);
        let out = Migrated {
            records: self.heap.record_count(),
            wall_ns: since(t),
            sim_ns: self.session.now() - sim0,
        };
        self.spans.end(span);
        self.tally.attempted += 1;
        if let Err(e) = r {
            self.fail("migrate", &e);
        }
        out
    }

    /// Bring the update cache to the workload's read-state: ingest until
    /// the configured share of the migration threshold is cached, then
    /// open one single-key scan so that the run merges a scan's set-up
    /// performs (more live runs than query pages) happen here and every
    /// measured read sees the same run set.
    pub fn refill(&mut self) -> Ingested {
        let target =
            (self.engine.config().migration_trigger_bytes() as f64 * self.spec.read_fill) as u64;
        let filled = self.ingest(u64::MAX, Until::CachedBytes(target));
        self.merged_scan(0, 0, false);
        filled
    }

    /// One merged scan of `[begin, end]`, drained and compared with the
    /// model. `deep` also checks every payload byte beyond field 0.
    pub fn merged_scan(&mut self, begin: Key, end: Key, deep: bool) -> Scanned {
        let span = self.spans.begin("begin_scan+drain");
        let width = self.engine.schema().payload_width();
        let (allocs0, bytes0) = alloc::snapshot();
        let sim0 = self.session.now();
        let t = Instant::now();
        let mut got = Digest::default();
        let mut malformed = 0u64;
        let opened = self.engine.begin_scan(self.session.clone(), begin, end);
        let err = match opened {
            Ok(scan) if deep => {
                for r in scan {
                    malformed += u64::from(!well_formed(&r, width));
                    got.add_record(&r);
                }
                None
            }
            Ok(scan) => {
                for r in scan {
                    got.add_record(&r);
                }
                None
            }
            Err(e) => Some(e),
        };
        let wall_ns = since(t);
        let sim_ns = self.session.now() - sim0;
        let (allocs1, bytes1) = alloc::snapshot();
        self.spans.end(span);

        self.tally.attempted += 1;
        let want = self.model.digest(begin, end);
        if let Some(e) = err {
            self.fail("begin_scan", &e);
        } else if got != want || malformed != 0 {
            self.fail(
                "merged scan",
                &format!("[{begin}, {end}] got {got:?} ({malformed} malformed), model {want:?}"),
            );
        }
        Scanned {
            records: got.count,
            wall_ns,
            sim_ns,
            allocs: allocs1 - allocs0,
            alloc_bytes: bytes1 - bytes0,
        }
    }

    /// One scan of the bare heap (no update cache involved): the
    /// denominator of the paper's slowdown figures.
    pub fn clean_range(&mut self, begin: Key, end: Key) -> Scanned {
        let span = self.spans.begin("heap.scan_range+drain");
        let sim0 = self.session.now();
        let t = Instant::now();
        let mut seen = Digest::default();
        for r in self.heap.scan_range(self.session.clone(), begin, end) {
            seen.add_record(&r);
        }
        let out = Scanned {
            records: std::hint::black_box(seen).count,
            wall_ns: since(t),
            sim_ns: self.session.now() - sim0,
            ..Scanned::default()
        };
        self.spans.end(span);
        self.tally.attempted += 1;
        out
    }

    /// Full-table clean scan.
    pub fn clean_scan(&mut self) -> Scanned {
        self.park_disk_head();
        self.clean_range(0, Key::MAX)
    }

    /// Read the table's first page, so the full scan that follows starts
    /// from the same head position whether it is merged or clean. (The
    /// simulated disk charges a seek by distance; without this the
    /// slowdown ratio mostly measured where the previous phase happened
    /// to leave the head.)
    fn park_disk_head(&mut self) {
        self.clean_range(0, 0);
    }

    /// `n` merged range scans of 1 MiB of table each at seeded
    /// positions, then the same ranges on the bare heap (device time
    /// only).
    pub fn range_batch(&mut self, n: usize) -> Ranged {
        let slots = self.spec.records();
        let span_slots = RANGE_RECORDS.min(slots);
        let ranges: Vec<(Key, Key)> = (0..n)
            .map(|_| {
                let first = self.reads.gen_range(0..=slots - span_slots);
                (first * 2, (first + span_slots) * 2 - 1)
            })
            .collect();
        let span = self.spans.begin("range_scans");
        let mut out = Ranged::default();
        let reads0 = self.ssd.stats().read_ops;
        for &(begin, end) in &ranges {
            let s = self.merged_scan(begin, end, false);
            out.wall_us.push(s.wall_ns as f64 / 1e3);
            out.sim_ns.push(s.sim_ns);
        }
        out.ssd_reads = self.ssd.stats().read_ops - reads0;
        for &(begin, end) in &ranges {
            out.clean_sim_ns += self.clean_range(begin, end).sim_ns;
        }
        self.spans.end(span);
        out
    }

    /// `n` gets on seeded keys, alternately even (present unless
    /// deleted) and odd (absent unless inserted), each answer compared
    /// with the model through a running checksum.
    pub fn get_batch(&mut self, n: usize) -> Got {
        let slots = self.spec.records();
        let keys: Vec<Key> = (0..n as u64)
            .map(|i| self.reads.gen_range(0..slots) * 2 + (i & 1))
            .collect();
        let fold = |acc: u64, v: Option<u32>| acc.rotate_left(7) ^ v.map_or(0, |v| v as u64 + 1);

        let span = self.spans.begin("gets");
        let (allocs0, _) = alloc::snapshot();
        let t = Instant::now();
        let mut got = 0u64;
        let mut error: Option<MasmError> = None;
        for &key in &keys {
            let call = self.spans.begin_sampled("get");
            let r = self.engine.get(&self.session, key);
            self.spans.end(call);
            match r {
                Ok(rec) => {
                    let v = rec.map(|r| {
                        r.payload
                            .get(0..4)
                            .map_or(u32::MAX, |b| u32::from_le_bytes(b.try_into().expect("4")))
                    });
                    got = fold(got, v);
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let wall_ns = since(t);
        let allocs = alloc::snapshot().0 - allocs0;
        self.spans.end(span);

        self.tally.attempted += n as u64;
        let want = keys
            .iter()
            .fold(0u64, |acc, &k| fold(acc, self.model.get(k)));
        if let Some(e) = error {
            self.fail("get", &e);
        } else if got != want {
            self.fail("get batch", &"answers disagree with the model");
        }
        Got {
            gets: n as u64,
            wall_ns,
            allocs,
        }
    }

    /// One lap of the workload's shape.
    pub fn lap(&mut self, s: &mut Samples) {
        match self.spec.shape {
            Shape::Blocks => self.lap_blocks(s),
            Shape::Mixed => self.lap_mixed(s),
        }
    }

    /// Full merged scan with the device counters around it.
    fn counted_full_scan(&mut self, s: &mut Samples) {
        let (ssd0, disk0) = (self.ssd.stats(), self.disk.stats());
        let evictions0 = self.engine.cache_stats().evictions;
        self.park_disk_head();
        let scan = self.merged_scan(0, Key::MAX, false);
        s.scan_ssd_bytes_read += self.ssd.stats().bytes_read - ssd0.bytes_read;
        s.scan_disk_bytes_read += self.disk.stats().bytes_read - disk0.bytes_read;
        s.scan_evictions += self.engine.cache_stats().evictions - evictions0;
        s.merged_scan(scan);
    }

    /// W-block, refill, R-block. The repetitions of the different reads
    /// are interleaved rather than back to back, so the repetitions of
    /// any one phase are spread over the whole block and a burst of a
    /// few seconds cannot cover them all.
    fn lap_blocks(&mut self, s: &mut Samples) {
        let phase = self.spans.begin("W-block");
        // From whatever the previous block left cached to an empty cache.
        self.migrate();
        let (ssd0, wal0) = (self.ssd.stats(), self.wal.stats());
        for _ in 0..self.spec.cycles_per_lap {
            self.spans.next_op();
            let rep = self.spans.begin("cycle");
            let ing = self.ingest(u64::MAX, Until::NeedsMigration);
            let mig = self.migrate();
            self.spans.end(rep);
            s.cycle(ing, mig);
        }
        s.cycle_ssd_bytes_written += self.ssd.stats().bytes_written - ssd0.bytes_written;
        s.cycle_wal_bytes_written += self.wal.stats().bytes_written - wal0.bytes_written;
        self.spans.end(phase);

        let phase = self.spans.begin("refill");
        self.refill();
        s.runs_at_read_state = self.engine.run_count() as u64;
        self.spans.end(phase);

        let phase = self.spans.begin("R-block");
        let cache0 = self.engine.cache_stats();
        for rep in 0..self.spec.reads_per_lap {
            self.spans.next_op();
            let span = self.spans.begin("read repetition");
            self.counted_full_scan(s);
            let ranges = self.range_batch(self.spec.ranges_per_batch);
            s.range_p50_us.push(stats::median(&ranges.wall_us));
            s.ranges(&ranges);
            let got = self.get_batch(self.spec.gets_per_batch);
            s.get_us
                .push(got.wall_ns as f64 / 1e3 / got.gets.max(1) as f64);
            s.gets(got);
            if rep < 2 {
                let clean = self.clean_scan();
                s.clean_scan(clean);
            }
            self.spans.end(span);
        }
        let cache = self.engine.cache_stats().delta(&cache0);
        s.read_cache_hits += cache.hits;
        s.read_cache_lookups += cache.lookups();
        self.spans.end(phase);
    }

    /// Reads beside writes: every cycle visits the same fill levels, so
    /// the per-cycle values are comparable and the best cycle is taken.
    fn lap_mixed(&mut self, s: &mut Samples) {
        const SLICES: u64 = 16;
        let slice = (self.cycle_updates / SLICES).max(1);
        let cache0 = self.engine.cache_stats();
        for _ in 0..self.spec.cycles_per_lap {
            self.spans.next_op();
            let rep = self.spans.begin("cycle");
            let (ssd0, wal0) = (self.ssd.stats(), self.wal.stats());
            let mut ing = Ingested::default();
            let mut range_us: Vec<f64> = Vec::new();
            let mut gets = Got::default();
            // Twice the expected slices bounds a cycle whose estimate
            // was low; the threshold normally ends it.
            for i in 0..2 * SLICES {
                let part = self.ingest(slice, Until::NeedsMigration);
                ing.updates += part.updates;
                ing.wall_ns += part.wall_ns;
                ing.sim_ns += part.sim_ns;
                ing.allocs += part.allocs;
                if part.reached {
                    break;
                }
                let ranges = self.range_batch(self.spec.ranges_per_batch);
                range_us.extend_from_slice(&ranges.wall_us);
                s.ranges(&ranges);
                let got = self.get_batch(self.spec.gets_per_batch);
                gets.gets += got.gets;
                gets.wall_ns += got.wall_ns;
                s.gets(got);
                if i == SLICES / 2 - 1 {
                    self.counted_full_scan(s);
                    s.runs_at_read_state = self.engine.run_count() as u64;
                    let clean = self.clean_scan();
                    s.clean_scan(clean);
                }
            }
            let mig = self.migrate();
            s.cycle_ssd_bytes_written += self.ssd.stats().bytes_written - ssd0.bytes_written;
            s.cycle_wal_bytes_written += self.wal.stats().bytes_written - wal0.bytes_written;
            self.spans.end(rep);
            s.cycle(ing, mig);
            s.range_p50_us.push(stats::median(&range_us));
            s.get_us
                .push(gets.wall_ns as f64 / 1e3 / gets.gets.max(1) as f64);
        }
        let cache = self.engine.cache_stats().delta(&cache0);
        s.read_cache_hits += cache.hits;
        s.read_cache_lookups += cache.lookups();
    }

    /// Crash check: freeze all three devices as a power cut would leave
    /// them (the log cut at its stable offset), recover a second engine
    /// from the images alone, and compare its full scan with the model —
    /// an acknowledged update missing after recovery fails here.
    pub fn crash_check(&mut self) -> MasmResult<Recovered> {
        let span = self.spans.begin("crash check");
        let clock = SimClock::new();
        let disk = self.disk.snapshot(clock.clone())?;
        let ssd = self.ssd.snapshot(clock.clone())?;
        let wal = self.wal.snapshot_prefix(clock.clone(), self.wal.len())?;
        let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));

        let call = self.spans.begin("recover");
        let t = Instant::now();
        let recovered = MasmEngine::recover(
            Arc::clone(&heap),
            ssd.clone(),
            wal,
            self.engine.schema().clone(),
            self.engine.config().clone(),
        );
        let wall_ns = since(t);
        self.spans.end(call);
        self.tally.attempted += 1;
        let (engine, report) = match recovered {
            Ok(ok) => ok,
            Err(e) => {
                self.fail("recover", &e);
                self.spans.end(span);
                return Err(e);
            }
        };
        let out = Recovered {
            sim_ns: clock.now(),
            wall_ns,
            wal_records: report.wal_records_replayed,
        };

        // The survivor answers for the rest of the check.
        let live = std::mem::replace(&mut self.engine, engine);
        let live_session = std::mem::replace(&mut self.session, SessionHandle::fresh(clock));
        self.merged_scan(0, Key::MAX, true);
        self.engine = live;
        self.session = live_session;

        self.tally.attempted += 1;
        let random = self.ssd.stats().random_writes + ssd.stats().random_writes;
        if random != 0 {
            self.fail("SSD write pattern", &format!("{random} random writes"));
        }
        self.spans.end(span);
        Ok(out)
    }
}

fn well_formed(r: &Record, width: usize) -> bool {
    r.payload.len() == width && r.payload[4..].iter().all(|&b| b == 0)
}
