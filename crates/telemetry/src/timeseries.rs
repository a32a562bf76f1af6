//! NDJSON time-series export: one JSON object per line, sampled from
//! [`EngineStats`] snapshots on a (virtual-clock) interval.
//!
//! Sustained-load benches poll [`TimeSeriesWriter::poll`] from their
//! driver loop; the writer decides — off the snapshot's own `at_ns` —
//! whether a new sample is due, and appends a row combining the level snapshot
//! with the [`StatsDelta`](crate::StatsDelta) since the previous row.

use std::io::{self, Write};

use crate::json::JsonObj;
use crate::stats::EngineStats;

/// Appends newline-delimited JSON rows to any [`Write`] sink and counts
/// them. Rows are written verbatim plus a trailing `\n`; the caller is
/// responsible for handing in one-line JSON (what [`JsonObj::finish`]
/// produces).
#[derive(Debug)]
pub struct NdjsonWriter<W: Write> {
    out: W,
    rows: u64,
}

impl<W: Write> NdjsonWriter<W> {
    /// Wrap a sink.
    pub fn new(out: W) -> Self {
        NdjsonWriter { out, rows: 0 }
    }

    /// Append one row (a complete JSON object, no trailing newline).
    pub fn row(&mut self, json: &str) -> io::Result<()> {
        debug_assert!(!json.contains('\n'), "NDJSON rows must be one line");
        self.out.write_all(json.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.rows += 1;
        Ok(())
    }

    /// Rows appended so far (unit: ops).
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and return the underlying sink.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }

    /// The underlying sink, borrowed.
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

/// Samples [`EngineStats`] on a fixed virtual-clock interval and
/// appends one NDJSON row per sample.
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
pub struct TimeSeriesWriter<W: Write> {
    out: NdjsonWriter<W>,
    interval_ns: u64,
    next_ns: Option<u64>,
    prev: Option<EngineStats>,
}

impl<W: Write> TimeSeriesWriter<W> {
    /// A writer that samples every `interval_ns` of virtual time
    /// (clamped to ≥ 1 so a zero interval samples on every poll).
    pub fn new(out: W, interval_ns: u64) -> Self {
        TimeSeriesWriter {
            out: NdjsonWriter::new(out),
            interval_ns: interval_ns.max(1),
            next_ns: None,
            prev: None,
        }
    }

    /// Offer a snapshot; a row is appended only when the snapshot's
    /// `at_ns` has reached the next sample tick (the first poll always
    /// samples, establishing the baseline). Returns whether a row was
    /// written. Cheap when no sample is due: one comparison.
    pub fn poll(&mut self, stats: &EngineStats) -> io::Result<bool> {
        match self.next_ns {
            Some(next) if stats.at_ns < next => return Ok(false),
            _ => {}
        }
        self.sample(stats)?;
        Ok(true)
    }

    /// Append a row unconditionally (used for a final row at the end of
    /// a bench so the series always covers the full span).
    pub fn sample(&mut self, stats: &EngineStats) -> io::Result<()> {
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
        self.out.row(&o.finish())?;
        self.prev = Some(*stats);
        // Next tick is measured from this sample, so a driver that
        // polls rarely does not emit a burst of catch-up rows.
        self.next_ns = Some(stats.at_ns.saturating_add(self.interval_ns));
        Ok(())
    }

    /// Rows written so far (unit: ops).
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.out.rows()
    }

    /// Flush and return the underlying sink.
    pub fn into_inner(self) -> io::Result<W> {
        self.out.into_inner()
    }

    /// The underlying sink, borrowed (e.g. to inspect an in-memory
    /// buffer in tests).
    pub fn get_ref(&self) -> &W {
        self.out.get_ref()
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
    fn ndjson_writer_counts_lines() {
        let mut w = NdjsonWriter::new(Vec::new());
        w.row("{\"a\":1}").unwrap();
        w.row("{\"b\":2}").unwrap();
        assert_eq!(w.rows(), 2);
        let buf = w.into_inner().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn polls_sample_on_interval_only() {
        let mut ts = TimeSeriesWriter::new(Vec::new(), 1000);
        assert!(ts.poll(&stats_at(0, 0)).unwrap(), "first poll samples");
        assert!(!ts.poll(&stats_at(500, 5)).unwrap(), "mid-interval skipped");
        assert!(ts.poll(&stats_at(1000, 10)).unwrap());
        assert!(!ts.poll(&stats_at(1500, 15)).unwrap());
        assert!(ts.poll(&stats_at(2600, 26)).unwrap());
        assert_eq!(ts.rows(), 3);
        // Next tick counts from the last sample (2600), not the grid.
        assert!(!ts.poll(&stats_at(3000, 30)).unwrap());
        assert!(ts.poll(&stats_at(3600, 36)).unwrap());
    }

    #[test]
    fn rows_parse_and_carry_rate_and_invariant_field() {
        let mut ts = TimeSeriesWriter::new(Vec::new(), 100);
        ts.poll(&stats_at(0, 0)).unwrap();
        ts.poll(&stats_at(1_000_000_000, 2000)).unwrap();
        let buf = String::from_utf8(ts.into_inner().unwrap()).unwrap();
        let rows: Vec<_> = buf.lines().map(|l| parse(l).expect("row parses")).collect();
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
        let mut ts = TimeSeriesWriter::new(Vec::new(), 1_000_000);
        ts.poll(&stats_at(0, 0)).unwrap();
        ts.sample(&stats_at(10, 1)).unwrap();
        assert_eq!(ts.rows(), 2);
    }
}
