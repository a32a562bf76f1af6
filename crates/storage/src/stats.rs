//! The statistics vocabulary: every `u64` statistics family of the
//! workspace is declared **once** here — field name, aggregation
//! [`StatKind`], [`Unit`], one-line help — through `stat_family!`.
//! The declaration generates the plain `Copy` struct and its
//! [`StatFamily`] impl; `delta`, `merge`, the JSON codec and the
//! OpenMetrics rendering (in `masm-telemetry`) are written once,
//! generically over [`StatFamily::FIELDS`].

use std::sync::atomic::{AtomicU64, Ordering};

/// The unit a metric is reported in, stated explicitly so exported
/// numbers are never ambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A count of operations or events.
    Ops,
    /// Bytes.
    Bytes,
    /// Virtual nanoseconds on the shared simulated clock (wall-clock
    /// nanoseconds when driven against real hardware).
    VirtualNs,
}

impl Unit {
    /// Stable lowercase label used in exported metric catalogs.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Unit::Ops => "ops",
            Unit::Bytes => "bytes",
            Unit::VirtualNs => "virtual-ns",
        }
    }
}

/// How one statistics field aggregates over time ([`StatFamily::delta`])
/// and across sources ([`StatFamily::merge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// Monotone event count: `delta` subtracts, `merge` adds.
    Counter,
    /// Current level of a resource that sources hold disjointly
    /// (resident bytes, touched blocks): `delta` carries the newer
    /// value, `merge` adds.
    Level,
    /// High-water mark (`max_queue_depth`), or a level every source
    /// sees of one shared resource (`epoch_lag`, one engine's publish
    /// epoch): `delta` carries the newer value, `merge` takes the
    /// larger.
    Peak,
}

/// Descriptor of one field of a [`StatFamily`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatField {
    /// Field name: the struct field, the JSON key, the metric name.
    pub name: &'static str,
    /// Aggregation rule.
    pub kind: StatKind,
    /// Unit of the value.
    pub unit: Unit,
    /// One-line description.
    pub help: &'static str,
}

/// A statistics family: a `Copy` struct of `u64` fields with a static
/// roster. Everything that must visit every field — delta, merge,
/// serializers, exporters, tests — walks [`StatFamily::FIELDS`] instead
/// of naming fields.
pub trait StatFamily: Copy + Default {
    /// The fields, in declaration (= serialization) order.
    const FIELDS: &'static [StatField];

    /// Value of field `i` of [`StatFamily::FIELDS`].
    fn get(&self, i: usize) -> u64;

    /// Set field `i` of [`StatFamily::FIELDS`].
    fn set(&mut self, i: usize, v: u64);

    /// `self − earlier` for two snapshots of one source: counters
    /// subtract (a debug-build panic if `earlier` is in fact newer),
    /// levels and peaks are carried from `self`.
    #[must_use]
    fn delta(&self, earlier: &Self) -> Self {
        let mut out = *self;
        for (i, f) in Self::FIELDS.iter().enumerate() {
            if f.kind == StatKind::Counter {
                out.set(i, self.get(i) - earlier.get(i));
            }
        }
        out
    }

    /// Combine the snapshots of two disjoint sources (a running total
    /// and one more report): counters and levels add, peaks take the
    /// larger. Associative and commutative.
    #[must_use]
    fn merge(&self, other: &Self) -> Self {
        let mut out = *self;
        for (i, f) in Self::FIELDS.iter().enumerate() {
            let (a, b) = (self.get(i), other.get(i));
            let merged = if f.kind == StatKind::Peak {
                a.max(b)
            } else {
                a + b
            };
            out.set(i, merged);
        }
        out
    }
}

/// Declare one statistics family: `Kind name: Unit = "help"` per field.
/// `atomic Name` additionally generates the lock-free recorder twin
/// (`AtomicU64` per field, `snapshot()`, and `reset()` of the counters).
macro_rules! stat_family {
    ($(#[$meta:meta])* pub struct $name:ident $(, atomic $atomic:ident)? {
        $($(#[$fmeta:meta])* $kind:ident $field:ident : $unit:ident = $help:literal),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(#[doc = $help] $(#[$fmeta])* pub $field: u64,)*
        }

        impl StatFamily for $name {
            const FIELDS: &'static [StatField] = &[$(StatField {
                name: stringify!($field),
                kind: StatKind::$kind,
                unit: Unit::$unit,
                help: $help,
            }),*];

            fn get(&self, i: usize) -> u64 {
                [$(self.$field),*][i]
            }

            fn set(&mut self, i: usize, v: u64) {
                *[$(&mut self.$field),*][i] = v;
            }
        }

        impl $name {
            /// [`StatFamily::delta`], callable without the trait in scope.
            #[must_use]
            pub fn delta(&self, earlier: &Self) -> Self {
                StatFamily::delta(self, earlier)
            }

            /// [`StatFamily::merge`], callable without the trait in scope.
            #[must_use]
            pub fn merge(&self, other: &Self) -> Self {
                StatFamily::merge(self, other)
            }
        }

        stat_family!(@atomic $name; $($atomic)?; $($kind $field)*);
    };
    (@atomic $name:ident; ; $($rest:tt)*) => {};
    (@atomic $name:ident; $atomic:ident; $($kind:ident $field:ident)*) => {
        #[doc = concat!("Lock-free recorder behind [`", stringify!($name), "`]: bump a")]
        /// field with one relaxed `fetch_add` at the point the event
        /// happens.
        #[derive(Debug, Default)]
        pub struct $atomic {
            $(pub $field: AtomicU64,)*
        }

        impl $atomic {
            /// Copyable summary for reporting.
            pub fn snapshot(&self) -> $name {
                $name { $($field: self.$field.load(Ordering::Relaxed),)* }
            }

            /// Zero the counters (levels and peaks are kept).
            pub fn reset(&self) {
                $(if StatKind::$kind == StatKind::Counter {
                    self.$field.store(0, Ordering::Relaxed);
                })*
            }
        }
    };
}

stat_family! {
    /// I/O statistics of one [`crate::sim::SimDevice`].
    pub struct IoStatsSnapshot {
        Counter read_ops: Ops = "read operations",
        Counter write_ops: Ops = "write operations",
        Counter bytes_read: Bytes = "bytes read",
        Counter bytes_written: Bytes = "bytes written",
        Counter sequential_ops: Ops = "operations that continued the previous access (no seek / setup penalty)",
        Counter random_ops: Ops = "operations that paid the random-access setup cost",
        /// MaSM design goal 2 is that this stays zero for the update-cache SSD.
        Counter random_writes: Ops = "random write operations",
        Counter busy_ns: VirtualNs = "time the device was busy",
        /// 1 = strictly serial callers; >1 means some actor overlapped its I/O.
        Peak max_queue_depth: Ops = "deepest submission queue: requests in flight at one submission instant, including the new one",
        Counter queue_depth_sum: Ops = "sum of the observed queue depth over all operations",
        Peak max_block_wear: Ops = "highest write count over any single erase block",
        Level touched_blocks: Ops = "distinct erase blocks ever written",
    }
}

impl IoStatsSnapshot {
    /// Average write amplification relative to `logical_bytes` of intent.
    #[must_use]
    pub fn write_amplification(&self, logical_bytes: u64) -> f64 {
        if logical_bytes == 0 {
            return 0.0;
        }
        self.bytes_written as f64 / logical_bytes as f64
    }
}

/// The statistics a [`crate::sim::SimDevice`] accumulates: the
/// reportable [`IoStatsSnapshot`] itself plus the per-erase-block write
/// counts behind its wear fields.
#[derive(Debug, Default, Clone)]
pub(crate) struct IoStats {
    snap: IoStatsSnapshot,
    /// Writes per erase block, indexed by block number (it grows to
    /// the highest block written: 8 bytes per erase block of backend,
    /// and no hash on the write path). Readers use the O(1) summaries
    /// kept in lock step below, never a walk of it.
    wear: Vec<u64>,
    /// Running Σ of per-block write counts.
    wear_sum: u64,
    /// Running Σ of squared per-block write counts (for the coefficient
    /// of variation).
    wear_sq_sum: u64,
}

impl IoStats {
    /// Record one access.
    pub(crate) fn record(
        &mut self,
        kind: crate::device::AccessKind,
        len: u64,
        sequential: bool,
        duration: u64,
        offset: u64,
        erase_block: u64,
    ) {
        let s = &mut self.snap;
        match kind {
            crate::device::AccessKind::Read => {
                s.read_ops += 1;
                s.bytes_read += len;
            }
            crate::device::AccessKind::Write => {
                s.write_ops += 1;
                s.bytes_written += len;
                if let Some(first) = offset.checked_div(erase_block) {
                    let last = (offset + len.max(1) - 1) / erase_block;
                    if last as usize >= self.wear.len() {
                        self.wear.resize(last as usize + 1, 0);
                    }
                    for w in &mut self.wear[first as usize..=last as usize] {
                        *w += 1;
                        // One block going w-1 → w adds 1 to Σw and
                        // (2w-1) to Σw².
                        self.wear_sum += 1;
                        self.wear_sq_sum += 2 * *w - 1;
                        s.max_block_wear = s.max_block_wear.max(*w);
                        s.touched_blocks += u64::from(*w == 1);
                    }
                }
                if !sequential {
                    s.random_writes += 1;
                }
            }
        }
        if sequential {
            s.sequential_ops += 1;
        } else {
            s.random_ops += 1;
        }
        s.busy_ns += duration;
    }

    /// Record the submission-queue depth observed by one access.
    pub(crate) fn record_queue_depth(&mut self, depth: u64) {
        self.snap.max_queue_depth = self.snap.max_queue_depth.max(depth);
        self.snap.queue_depth_sum += depth;
    }

    /// The statistics so far. O(1): no per-block map walk.
    #[must_use]
    pub(crate) fn snapshot(&self) -> IoStatsSnapshot {
        self.snap
    }

    /// O(1) wear/endurance summary from the running aggregates.
    #[must_use]
    pub(crate) fn wear_stats(&self) -> WearStats {
        let n = self.snap.touched_blocks;
        if n == 0 {
            return WearStats::default();
        }
        let mean = self.wear_sum as f64 / n as f64;
        // Var = E[w²] − E[w]²; guard tiny negatives from f64 rounding.
        let var = (self.wear_sq_sum as f64 / n as f64 - mean * mean).max(0.0);
        WearStats {
            max_writes_per_block: self.snap.max_block_wear,
            mean_writes_per_block: mean,
            blocks_touched: n,
            cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }
}

/// O(1) summary of SSD erase-block wear. A low [`WearStats::cv`] means
/// writes are spread evenly — MaSM's sequential materialize/migrate
/// pattern should keep it near zero, while in-place update schemes
/// hammer hot blocks. Hand-written rather than a [`StatFamily`]: two of
/// its fields are `f64` moments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearStats {
    /// Highest write count over any single erase block (unit: ops).
    pub max_writes_per_block: u64,
    /// Mean write count over the touched blocks (unit: ops).
    pub mean_writes_per_block: f64,
    /// Distinct erase blocks ever written (unit: ops).
    pub blocks_touched: u64,
    /// Coefficient of variation (σ/µ) of per-block write counts;
    /// dimensionless, 0 = perfectly even wear.
    pub cv: f64,
}

stat_family! {
    /// Counters and residency levels of a read cache sitting above a
    /// device (the two-tier block cache of `masm-blockrun`).
    pub struct CacheStatsSnapshot, atomic CacheStats {
        Counter hits: Ops = "lookups served from tier 1 (decoded blocks)",
        Counter misses: Ops = "lookups that went to the device",
        Counter insertions: Ops = "entries inserted into tier 1",
        Counter evictions: Ops = "entries evicted from tier 1",
        Counter promotions: Ops = "probation → protected promotions (a block's second reference under SLRU)",
        Counter demotions: Ops = "protected → probation demotions (the protected segment ran over its share)",
        Counter rejected: Ops = "oversized blocks refused admission (larger than a whole shard)",
        /// Each hit promotes the block back into tier 1, so this doubles
        /// as the decode-on-promote counter.
        Counter tier2_hits: Ops = "lookups served from the compressed victim tier: one codec decode, zero device reads",
        Counter tier2_insertions: Ops = "tier-1 victims whose stored bytes were demoted into tier 2",
        Counter tier2_evictions: Ops = "entries aged out of tier 2",
        /// Always `probation_bytes + protected_bytes`.
        Level data_bytes: Bytes = "bytes charged to tier 1: decoded blocks plus retained stored copies",
        Level probation_bytes: Bytes = "bytes charged to the probation segment",
        Level protected_bytes: Bytes = "bytes charged to the protected segment",
        Level meta_bytes: Bytes = "pinned run metadata (zone maps, bloom filters), never evicted",
        /// The gap to `data_bytes` is the codec's memory amplification.
        Level disk_bytes: Bytes = "on-device (post-codec) size of the resident tier-1 blocks",
        Level tier2_bytes: Bytes = "stored (post-codec) bytes resident in tier 2",
    }
}

impl CacheStatsSnapshot {
    /// Fraction of lookups served without a device read — from either
    /// tier (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        match self.lookups() {
            0 => 0.0,
            total => self.no_device_hits() as f64 / total as f64,
        }
    }

    /// Total lookups, however they were served: tier-1 hits + tier-2
    /// hits + misses (unit: ops).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.tier2_hits + self.misses
    }

    /// Lookups served without touching the device (unit: ops).
    #[must_use]
    pub fn no_device_hits(&self) -> u64 {
        self.hits + self.tier2_hits
    }
}

stat_family! {
    /// Codec accounting of block runs (one run, or cumulative): raw
    /// (flat) versus stored (post-codec) data-block bytes, and how many
    /// blocks each codec stored. The `blocks_*` fields name the stable
    /// codec ids of `masm-codec` (0 = identity, 1 = delta, 2 = lz) by
    /// convention — this crate sits below the codec crate.
    pub struct CompressionReport {
        Counter runs: Ops = "runs accounted",
        Counter blocks: Ops = "data blocks accounted",
        Counter raw_bytes: Bytes = "raw (flat, pre-codec) bytes of those blocks",
        Counter stored_bytes: Bytes = "stored (on-device, post-codec) bytes of those blocks",
        Counter blocks_identity: Ops = "blocks stored uncompressed",
        Counter blocks_delta: Ops = "blocks stored delta+varint-coded",
        Counter blocks_lz: Ops = "blocks stored LZ-coded",
    }
}

impl CompressionReport {
    /// Stored/raw byte ratio (1.0 = no compression, smaller is better;
    /// 1.0 when nothing was accounted).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 1.0;
        }
        self.stored_bytes as f64 / self.raw_bytes as f64
    }
}

stat_family! {
    /// Outcome of planned run merges (one compaction or 2-pass merge, or
    /// cumulative): how much work was *moved* (whole blocks relinked
    /// verbatim, CRC-checked but never decoded) versus *merged* (decoded
    /// and folded through the k-way merge). On fully disjoint inputs
    /// `bytes_decoded == 0` — compaction cost is proportional to
    /// overlap, not input size.
    pub struct MergeReport {
        Counter inputs: Ops = "input runs consumed",
        /// Also the prefetch depth the executor keeps in flight.
        Peak fan_in: Ops = "widest merge: inputs contributing blocks",
        Counter blocks_moved: Ops = "data blocks relinked verbatim, without decoding",
        Counter blocks_merged: Ops = "data blocks decoded and fed through the k-way merge",
        Counter bytes_moved: Bytes = "encoded bytes of the moved blocks",
        Counter bytes_decoded: Bytes = "encoded bytes that had to be decoded (the overlap cost)",
        Counter entries_out: Ops = "entries written to output runs",
        /// Streaming compaction (§3.3) bounds this by `fan_in +
        /// block_entries`, independent of `entries_out`.
        Peak peak_merge_entries: Ops = "most update records resident in the merge pipeline at once",
    }
}

impl MergeReport {
    /// Fraction of processed bytes that avoided decoding (1.0 = pure
    /// move, 0.0 = full decode; 0.0 when nothing was processed).
    #[must_use]
    pub fn move_ratio(&self) -> f64 {
        match self.bytes_moved + self.bytes_decoded {
            0 => 0.0,
            total => self.bytes_moved as f64 / total as f64,
        }
    }
}

stat_family! {
    /// Occupancy of the in-memory update buffer.
    pub struct BufferStats {
        Level updates: Ops = "buffered update records",
        Level bytes: Bytes = "encoded bytes of the buffered updates",
        Level capacity_bytes: Bytes = "buffer capacity, including stolen query pages",
    }
}

stat_family! {
    /// The materialized-run set.
    pub struct RunSetStats {
        Level count: Ops = "live materialized runs",
        Level cached_bytes: Bytes = "SSD bytes occupied by live runs",
        Level ssd_capacity_bytes: Bytes = "configured SSD update-cache capacity",
        /// 0 when no query is active.
        Peak epoch_lag: Ops = "publish epochs the oldest pinned query snapshot trails the engine by",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AccessKind;

    #[test]
    fn record_read_and_write() {
        let mut s = IoStats::default();
        s.record(AccessKind::Read, 4096, true, 100, 0, 0);
        s.record(AccessKind::Write, 8192, false, 200, 4096, 0);
        let snap = s.snapshot();
        assert_eq!(snap.read_ops, 1);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.bytes_read, 4096);
        assert_eq!(snap.bytes_written, 8192);
        assert_eq!(snap.sequential_ops, 1);
        assert_eq!(snap.random_ops, 1);
        assert_eq!(snap.random_writes, 1);
        assert_eq!(snap.busy_ns, 300);
    }

    #[test]
    fn wear_tracks_erase_blocks() {
        let mut s = IoStats::default();
        let blk = 256 * 1024;
        // Two writes to the same block, one spanning two blocks.
        s.record(AccessKind::Write, 4096, true, 1, 0, blk);
        s.record(AccessKind::Write, 4096, true, 1, 4096, blk);
        s.record(AccessKind::Write, blk, true, 1, blk - 100, blk);
        let snap = s.snapshot();
        // Block 0 written by all three ops (the span starts inside it);
        // block 1 only by the spanning op.
        assert_eq!(snap.touched_blocks, 2);
        assert_eq!(snap.max_block_wear, 3);
    }

    #[test]
    fn wear_stats_match_raw_histogram() {
        let mut s = IoStats::default();
        assert_eq!(s.wear_stats(), WearStats::default(), "idle is all-zero");
        let blk = 4096;
        // Counts per block: {0: 3, 1: 1} → mean 2, σ 1, cv 0.5.
        for _ in 0..3 {
            s.record(AccessKind::Write, 100, true, 1, 0, blk);
        }
        s.record(AccessKind::Write, 100, true, 1, blk, blk);
        let w = s.wear_stats();
        assert_eq!(w.max_writes_per_block, 3);
        assert_eq!(w.blocks_touched, 2);
        assert!((w.mean_writes_per_block - 2.0).abs() < 1e-9);
        assert!((w.cv - 0.5).abs() < 1e-9);
        // The snapshot's wear fields come from the same aggregates.
        let snap = s.snapshot();
        assert_eq!(snap.max_block_wear, 3);
        assert_eq!(snap.touched_blocks, 2);
    }

    #[test]
    fn even_wear_has_zero_cv() {
        let mut s = IoStats::default();
        let blk = 4096;
        for i in 0..8u64 {
            s.record(AccessKind::Write, 100, true, 1, i * blk, blk);
        }
        let w = s.wear_stats();
        assert_eq!(w.max_writes_per_block, 1);
        assert_eq!(w.blocks_touched, 8);
        assert!(w.cv.abs() < 1e-9, "perfectly even wear");
    }

    /// The three aggregation rules, on the one family that has all of
    /// them (the all-families algebra is property-tested over `FIELDS`
    /// in `masm-telemetry`).
    #[test]
    fn kinds_drive_delta_and_merge() {
        let mut s = IoStats::default();
        s.record(AccessKind::Write, 10, true, 5, 0, 4096);
        s.record_queue_depth(2);
        let a = s.snapshot();
        s.record(AccessKind::Write, 30, true, 5, 4096, 4096);
        s.record_queue_depth(1);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!((d.write_ops, d.bytes_written), (1, 30), "counters subtract");
        assert_eq!(d.max_queue_depth, 2, "peak carried");
        assert_eq!(d.touched_blocks, 2, "level carried");
        let m = a.merge(&b);
        assert_eq!(m.write_ops, 3, "counters add");
        assert_eq!(m.touched_blocks, 3, "levels add");
        assert_eq!(m.max_queue_depth, 2, "peaks take the larger");
        assert_eq!(IoStatsSnapshot::FIELDS.len(), 12);
        assert_eq!(b.get(3), b.bytes_written);
    }

    #[test]
    fn cache_recorder_snapshots_and_resets_counters_only() {
        let s = CacheStats::default();
        s.hits.fetch_add(2, Ordering::Relaxed);
        s.misses.fetch_add(1, Ordering::Relaxed);
        s.meta_bytes.fetch_add(64, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.meta_bytes), (2, 1, 64));
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(CacheStatsSnapshot::default().hit_rate(), 0.0);
        s.reset();
        let snap = s.snapshot();
        assert_eq!((snap.hits, snap.misses), (0, 0));
        assert_eq!(snap.meta_bytes, 64, "a level survives the counter reset");
    }

    #[test]
    fn derived_ratios() {
        assert_eq!(CompressionReport::default().ratio(), 1.0, "idle is neutral");
        let half = CompressionReport {
            raw_bytes: 2000,
            stored_bytes: 1000,
            ..CompressionReport::default()
        };
        assert!((half.ratio() - 0.5).abs() < 1e-9);
        assert_eq!(MergeReport::default().move_ratio(), 0.0);
        let m = MergeReport {
            bytes_moved: 400,
            bytes_decoded: 100,
            ..MergeReport::default()
        };
        assert!((m.move_ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn write_amplification_ratio() {
        let mut s = IoStats::default();
        s.record(AccessKind::Write, 2000, true, 1, 0, 0);
        s.record(AccessKind::Write, 2000, true, 1, 2000, 0);
        assert!((s.snapshot().write_amplification(1000) - 4.0).abs() < 1e-9);
        assert_eq!(s.snapshot().write_amplification(0), 0.0);
    }
}
