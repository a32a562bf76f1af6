//! NDJSON time-series export: one JSON object per line, sampled from
//! [`EngineStats`] snapshots on a (virtual-clock) interval.
//!
//! Sustained-load benches poll [`TimeSeriesWriter::poll`] from their
//! driver loop; the writer decides — off the snapshot's own `at_ns` —
//! whether a new sample is due, and appends a row combining the level snapshot
//! with the [`StatsDelta`](crate::StatsDelta) since the previous row.

use crate::json::JsonObj;
use crate::stats::EngineStats;

/// Samples [`EngineStats`] on a fixed virtual-clock interval and
/// collects one NDJSON row (one line, no trailing newline) per sample.
///
/// Each row is `{"t_ns", "random_writes", "updates_per_sec",
/// "stats": {…}, "delta": {…}}`:
///
/// * `t_ns` — the snapshot's virtual time (unit: virtual-ns).
/// * `random_writes` — the SSD's cumulative random-write count, lifted
///   to the top level so the paper's zero-random-write invariant is
///   checkable per row without descending into `stats.ssd`.
/// * `updates_per_sec` — ingest rate over the interval since the
///   previous row (unit: ops per virtual second; 0 on the first row).
/// * `stats` — the full [`EngineStats::to_json`] object (levels and
///   cumulative counters).
/// * `delta` — the [`StatsDelta::to_json`](crate::StatsDelta::to_json)
///   object since the previous row; omitted on the first row, which has
///   no predecessor.
#[derive(Debug)]
pub struct TimeSeriesWriter {
    /// The rows sampled so far, oldest first.
    pub rows: Vec<String>,
    interval_ns: u64,
    next_ns: Option<u64>,
    prev: Option<EngineStats>,
}

impl TimeSeriesWriter {
    /// A writer that samples every `interval_ns` of virtual time
    /// (clamped to ≥ 1 so a zero interval samples on every poll).
    #[must_use]
    pub fn new(interval_ns: u64) -> Self {
        TimeSeriesWriter {
            rows: Vec::new(),
            interval_ns: interval_ns.max(1),
            next_ns: None,
            prev: None,
        }
    }

    /// Offer a snapshot; a row is appended only when the snapshot's
    /// `at_ns` has reached the next sample tick (the first poll always
    /// samples, establishing the baseline). Returns whether a row was
    /// appended. Cheap when no sample is due: one comparison.
    pub fn poll(&mut self, stats: &EngineStats) -> bool {
        match self.next_ns {
            Some(next) if stats.at_ns < next => return false,
            _ => {}
        }
        self.sample(stats);
        true
    }

    /// Append a row unconditionally (used for a final row at the end of
    /// a bench so the series always covers the full span).
    pub fn sample(&mut self, stats: &EngineStats) {
        let mut o = JsonObj::new();
        o.u64("t_ns", stats.at_ns)
            .u64("random_writes", stats.ssd.random_writes);
        match &self.prev {
            Some(prev) => {
                let d = stats.delta(prev);
                o.f64("updates_per_sec", d.updates_per_sec());
                o.raw("stats", &stats.to_json());
                o.raw("delta", &d.to_json());
            }
            None => {
                o.f64("updates_per_sec", 0.0);
                o.raw("stats", &stats.to_json());
            }
        }
        self.rows.push(o.finish());
        self.prev = Some(*stats);
        // Next tick is measured from this sample, so a driver that
        // polls rarely does not emit a burst of catch-up rows.
        self.next_ns = Some(stats.at_ns.saturating_add(self.interval_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::stats::StatsDelta;

    fn stats_at(t: u64, updates: u64) -> EngineStats {
        EngineStats {
            at_ns: t,
            ingested_updates: updates,
            ingested_bytes: updates * 100,
            ..EngineStats::default()
        }
    }

    #[test]
    fn polls_sample_on_interval_only() {
        let mut ts = TimeSeriesWriter::new(1000);
        assert!(ts.poll(&stats_at(0, 0)), "first poll samples");
        assert!(!ts.poll(&stats_at(500, 5)), "mid-interval skipped");
        assert!(ts.poll(&stats_at(1000, 10)));
        assert!(!ts.poll(&stats_at(1500, 15)));
        assert!(ts.poll(&stats_at(2600, 26)));
        assert_eq!(ts.rows.len(), 3);
        // Next tick counts from the last sample (2600), not the grid.
        assert!(!ts.poll(&stats_at(3000, 30)));
        assert!(ts.poll(&stats_at(3600, 36)));
    }

    #[test]
    fn rows_parse_and_carry_rate_and_invariant_field() {
        let mut ts = TimeSeriesWriter::new(100);
        ts.poll(&stats_at(0, 0));
        ts.poll(&stats_at(1_000_000_000, 2000));
        let rows: Vec<_> = ts
            .rows
            .iter()
            .map(|l| parse(l).expect("row parses"))
            .collect();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.get_u64("random_writes"), Some(0));
            assert!(row.get("stats").is_some());
        }
        assert!(rows[0].get("delta").is_none(), "first row has no delta");
        let second = &rows[1];
        assert!((second.get_f64("updates_per_sec").unwrap() - 2000.0).abs() < 1e-6);
        let delta = StatsDelta::from_json(second.get("delta").unwrap()).unwrap();
        assert_eq!(delta.ingested_updates, 2000);
        assert_eq!(delta.elapsed_ns, 1_000_000_000);
    }

    #[test]
    fn forced_sample_ignores_interval() {
        let mut ts = TimeSeriesWriter::new(1_000_000);
        ts.poll(&stats_at(0, 0));
        ts.sample(&stats_at(10, 1));
        assert_eq!(ts.rows.len(), 2);
    }
}
