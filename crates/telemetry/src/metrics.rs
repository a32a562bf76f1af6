//! The latency primitive: log₂-bucketed histograms with a fixed bucket
//! array (no allocation on the record path).
//!
//! A [`Histogram`] sample is two atomic read-modify-writes: its bucket
//! and the sum. The sample **count is derived** — it is the sum of the
//! buckets, computed when a snapshot is taken — and the maximum is
//! written only by a sample that raises it.

use std::sync::atomic::{AtomicU64, Ordering};

pub use masm_storage::Unit;

/// Number of buckets in every [`Histogram`]: bucket 0 holds exact
/// zeros, bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the last
/// bucket absorbs everything from `2^62` up. The array is a fixed-size
/// field of the histogram — recording never allocates.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (for the engine: latency
/// in virtual-ns). Recording is two relaxed atomic RMWs — the sample's
/// bucket in a **fixed** `[AtomicU64; 64]` array, and the sum — plus a
/// load of the maximum, which is written (`fetch_max`) only by a sample
/// that raises it: a bounded constant with no allocation. The sample
/// count is not stored: it *is* the sum of the buckets, so a snapshot
/// taken while other threads record can never disagree with its own
/// buckets. Per-record hot paths keep even that off the record: they
/// count locally and report a whole batch with [`Histogram::record_n`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Map a sample to its bucket: 0 → 0, otherwise `⌊log₂ v⌋ + 1`, capped
/// at the last bucket.
#[must_use]
pub(crate) fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (used for percentile readout and
/// the OpenMetrics `le` labels).
#[must_use]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A histogram with all buckets at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Constant-time, allocation-free.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v` for the price of one — exactly
    /// what `n` calls of [`Histogram::record`] would leave behind.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.raise_max(v);
    }

    /// `max = max(max, v)`. A maximum only grows, so a load that
    /// already shows `v` or more settles it without a write.
    fn raise_max(&self, v: u64) {
        if self.max.load(Ordering::Relaxed) < v {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Copyable snapshot for reporting. `count` is the sum of the
    /// buckets as they were read.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Copyable summary of a [`Histogram`]. Sample unit is whatever the
/// histogram recorded (virtual-ns for the engine's latency families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (unit: ops); see [`HISTOGRAM_BUCKETS`]
    /// for the bucket boundaries.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples (unit: ops).
    pub count: u64,
    /// Sum of all samples (sample unit, e.g. virtual-ns). Wraps mod
    /// 2⁶⁴ if the stream exceeds `u64::MAX` in aggregate.
    pub sum: u64,
    /// Largest sample observed (sample unit).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty; sample unit).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Value at quantile `q ∈ [0, 1]`: the inclusive upper bound of the
    /// first bucket whose cumulative count reaches `q × count`, clamped
    /// to the observed [`HistogramSnapshot::max`] so the top bucket
    /// never reports an absurd bound. 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (sample unit).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (sample unit).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (sample unit).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Difference between two snapshots (`self − earlier`): bucket and
    /// counter fields subtract (the sum wraps, matching its recording
    /// semantics); `max` is carried from `self` (it is a high-water
    /// mark, not a counter).
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
            count: self.count - earlier.count,
            sum: self.sum.wrapping_sub(earlier.sum),
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for shift in 0..64 {
            assert!(bucket_index(1u64 << shift) < HISTOGRAM_BUCKETS);
        }
    }

    #[test]
    fn record_path_is_a_fixed_array_no_allocation() {
        // The whole histogram is one inline struct: a fixed bucket
        // array plus two scalars. If someone swaps the array for a
        // Vec/HashMap (allocating on record), this size pin fails.
        assert_eq!(
            std::mem::size_of::<Histogram>(),
            (HISTOGRAM_BUCKETS + 2) * std::mem::size_of::<u64>()
        );
        // Extreme values stay in-bounds rather than growing anything.
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn snapshot_stats_and_percentiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1110);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 185.0).abs() < 1e-9);
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max);
        assert_eq!(s.quantile(1.0), 1000, "top quantile clamps to max");
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn record_n_equals_n_records_bucket_for_bucket() {
        let (batched, single) = (Histogram::new(), Histogram::new());
        for (v, n) in [(0u64, 5u64), (7, 1), (7, 0), (4096, 300), (u64::MAX, 3)] {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(batched.snapshot(), single.snapshot());
        assert_eq!(batched.snapshot().count, 309);
    }

    #[test]
    fn snapshot_delta_subtracts_counts_keeps_max() {
        let h = Histogram::new();
        h.record(10);
        let a = h.snapshot();
        h.record(20);
        h.record(5);
        let b = h.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 25);
        assert_eq!(d.max, 20);
        assert_eq!(d.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn a_snapshot_agrees_with_its_own_buckets_while_another_thread_records() {
        use std::sync::atomic::AtomicBool;
        let h = Histogram::new();
        let (stop, started) = (AtomicBool::new(false), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v);
                    h.record_n(v >> 3, 3);
                    v = v.rotate_left(7) ^ 0x9E37_79B9;
                }
            });
            started.wait();
            let mut last = 0;
            for _ in 0..2_000 {
                let snap = h.snapshot();
                assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
                assert!(snap.count >= last, "the count never goes back");
                last = snap.count;
            }
            stop.store(true, Ordering::Relaxed);
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
    }

    /// `record`, `record_n`, `delta` and the two renderings
    /// over a fixed sample list, against what the histogram with a
    /// stored `count` (and an unconditional `fetch_max`) produced.
    #[test]
    fn fixed_samples_render_byte_for_byte_as_before() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 4, 100, 1000] {
            h.record(v);
        }
        let earlier = h.snapshot();
        h.record_n(4096, 300);
        h.record_n(7, 0);
        h.record(17);
        h.record_n(70_000, 2);
        let now = h.snapshot();

        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, n) in [(0, 1), (1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (10, 1)] {
            buckets[i] = n;
        }
        buckets[13] = 300;
        buckets[17] = 2;
        let want = HistogramSnapshot {
            buckets,
            count: 309,
            sum: 1_369_925,
            max: 70_000,
        };
        assert_eq!(now, want);
        let delta = now.delta(&earlier);
        assert_eq!(
            (delta.count, delta.sum, delta.max),
            (303, 1_368_817, 70_000)
        );
        assert_eq!(delta.buckets.iter().sum::<u64>(), 303);

        let stats = crate::EngineStats {
            ops: crate::OpLatencies {
                ingest: now,
                get: delta,
                ..Default::default()
            },
            ..Default::default()
        };
        let json = stats.to_json();
        assert_eq!(
            &json[json.find("\"ops\":").expect("ops key")..],
            "\"ops\":{\
             \"ingest\":{\"count\":309,\"sum\":1369925,\"max\":70000,\"p50\":8191,\"p95\":8191,\"p99\":8191,\"mean\":4433.414239},\
             \"get\":{\"count\":303,\"sum\":1368817,\"max\":70000,\"p50\":8191,\"p95\":8191,\"p99\":8191,\"mean\":4517.547855},\
             \"scan_next\":{\"count\":0,\"sum\":0,\"max\":0,\"p50\":0,\"p95\":0,\"p99\":0,\"mean\":0.000000},\
             \"flush\":{\"count\":0,\"sum\":0,\"max\":0,\"p50\":0,\"p95\":0,\"p99\":0,\"mean\":0.000000},\
             \"migrate\":{\"count\":0,\"sum\":0,\"max\":0,\"p50\":0,\"p95\":0,\"p99\":0,\"mean\":0.000000},\
             \"block_fetch\":{\"count\":0,\"sum\":0,\"max\":0,\"p50\":0,\"p95\":0,\"p99\":0,\"mean\":0.000000}}}"
        );
        let cumulative = [
            1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 7, 7, 7, 307, 307, 307, 307, 309,
        ];
        let mut expected = String::new();
        for (i, n) in cumulative.into_iter().enumerate() {
            let le = bucket_upper_bound(i);
            expected += &format!("op_ingest_virtual_ns_bucket{{le=\"{le}\"}} {n}\n");
        }
        expected += "op_ingest_virtual_ns_bucket{le=\"+Inf\"} 309\n\
                 op_ingest_virtual_ns_sum 1369925\n\
                 op_ingest_virtual_ns_count 309\n";
        let text = stats.render_openmetrics();
        let ingest: String = text
            .lines()
            .filter(|l| l.starts_with("op_ingest_virtual_ns"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(ingest, expected);
        assert!(text.contains("# TYPE op_ingest_virtual_ns histogram\n"));
        assert!(text.ends_with("op_block_fetch_virtual_ns_count 0\n# EOF\n"));
    }
}
