//! A registry that namespaces metric families.
//!
//! Components register their metrics under `family.name` keys (for the
//! engine: `op.ingest`, `cache.hits`, …) and hold the returned `Arc` for
//! the hot path; the registry itself is only walked at export time, so
//! registration cost never shows up in per-operation latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use masm_storage::StatFamily;

use crate::metrics::{bucket_upper_bound, Counter, Gauge, Histogram, Unit};

/// One registered metric, tagged with its kind.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(Arc<Counter>),
    /// A level.
    Gauge(Arc<Gauge>),
    /// A latency (or size) distribution.
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    metric: Metric,
    unit: Unit,
    help: &'static str,
}

/// Namespaced metric families. Keys are `family.name`; re-registering
/// an existing key returns the existing metric (so two components can
/// share a family without coordination).
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        family: &str,
        name: &str,
        make: impl FnOnce() -> Metric,
        unit: Unit,
        help: &'static str,
    ) -> Metric {
        let key = format!("{family}.{name}");
        // Recover a poisoned lock instead of propagating the panic:
        // every metric is atomic and the map is append-only, so a
        // thread that died mid-registration leaves nothing half-built
        // worth failing exports over.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries
            .entry(key)
            .or_insert_with(|| Entry {
                metric: make(),
                unit,
                help,
            })
            .metric
            .clone()
    }

    /// Register (or fetch) a counter. `unit` states what it counts.
    pub fn counter(
        &self,
        family: &str,
        name: &str,
        unit: Unit,
        help: &'static str,
    ) -> Arc<Counter> {
        match self.register(
            family,
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            unit,
            help,
        ) {
            Metric::Counter(c) => c,
            _ => panic!("metric {family}.{name} already registered with a different kind"),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, family: &str, name: &str, unit: Unit, help: &'static str) -> Arc<Gauge> {
        match self.register(
            family,
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            unit,
            help,
        ) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {family}.{name} already registered with a different kind"),
        }
    }

    /// Register (or fetch) a histogram. `unit` is the sample unit
    /// (virtual-ns for latency families).
    pub fn histogram(
        &self,
        family: &str,
        name: &str,
        unit: Unit,
        help: &'static str,
    ) -> Arc<Histogram> {
        match self.register(
            family,
            name,
            || Metric::Histogram(Arc::new(Histogram::new())),
            unit,
            help,
        ) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {family}.{name} already registered with a different kind"),
        }
    }

    /// Register an *existing* counter under `family.name` (the
    /// [`crate::trace::Tracer`] uses this to expose its own accounting
    /// counters). If the key already exists, the registered counter
    /// wins and is returned — same sharing semantics as
    /// [`Registry::counter`].
    pub fn attach_counter(
        &self,
        family: &str,
        name: &str,
        counter: Arc<Counter>,
        unit: Unit,
        help: &'static str,
    ) -> Arc<Counter> {
        match self.register(family, name, move || Metric::Counter(counter), unit, help) {
            Metric::Counter(c) => c,
            _ => panic!("metric {family}.{name} already registered with a different kind"),
        }
    }

    /// Walk every registered metric in key order:
    /// `(full_name, metric, unit, help)`. A poisoned lock (a thread
    /// panicked inside a previous walk's callback) is recovered —
    /// exports are read-mostly and metrics are atomic, so continuing
    /// is safe.
    pub fn for_each(&self, mut f: impl FnMut(&str, &Metric, Unit, &'static str)) {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        for (key, e) in entries.iter() {
            f(key, &e.metric, e.unit, e.help);
        }
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy this registry's `family.<field>` counters and gauges into
    /// the same-named fields of `out`; fields with no registered metric
    /// are left as they are.
    pub fn read_family<F: StatFamily>(&self, family: &str, out: &mut F) {
        let prefix = format!("{family}.");
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        for (key, e) in entries.iter() {
            let Some(name) = key.strip_prefix(&prefix) else {
                continue;
            };
            let value = match &e.metric {
                Metric::Counter(c) => c.get(),
                Metric::Gauge(g) => g.get(),
                Metric::Histogram(_) => continue,
            };
            if let Some(i) = F::FIELDS.iter().position(|f| f.name == name) {
                out.set(i, value);
            }
        }
    }

    /// Render every registered metric as Prometheus / OpenMetrics text
    /// exposition, ending with `# EOF`.
    ///
    /// The output is deterministic for a given set of metric values:
    /// families render in key order (the registry map is a `BTreeMap`),
    /// names are the `family.name` key with `.` → `_` plus a unit
    /// suffix (`_bytes`, `_virtual_ns`; `ops` adds none), counters get
    /// the conventional `_total` sample suffix, and histograms render
    /// cumulative `_bucket{le="…"}` series over the log₂ buckets
    /// (inclusive upper bounds, trailing empty buckets elided) plus
    /// `_sum`/`_count`.
    #[must_use]
    pub fn render_openmetrics(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out.push_str("# EOF\n");
        out
    }

    /// [`Registry::render_openmetrics`] without the `# EOF` trailer.
    pub(crate) fn render_into(&self, out: &mut String) {
        self.for_each(|key, metric, unit, help| match metric {
            Metric::Counter(c) => write_sample(out, key, unit, help, true, c.get()),
            Metric::Gauge(g) => write_sample(out, key, unit, help, false, g.get()),
            Metric::Histogram(h) => {
                let name = write_header(out, key, unit, help, "histogram");
                let s = h.snapshot();
                let top = s.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
                let mut cumulative = 0u64;
                for (i, &n) in s.buckets.iter().enumerate().take(top) {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_upper_bound(i)
                    );
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", s.count);
                let _ = writeln!(out, "{name}_sum {}", s.sum);
                let _ = writeln!(out, "{name}_count {}", s.count);
            }
        });
    }
}

/// Write the `# HELP` / `# TYPE` lines of metric `key` (`family.name`)
/// and return its exposition name.
fn write_header(out: &mut String, key: &str, unit: Unit, help: &str, kind: &str) -> String {
    let mut name = key.replace('.', "_");
    let suffix = match unit {
        Unit::Ops => "",
        Unit::Bytes => "_bytes",
        Unit::VirtualNs => "_virtual_ns",
    };
    if !name.ends_with(suffix) {
        name.push_str(suffix);
    }
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
    name
}

/// One counter (`_total` sample) or gauge in OpenMetrics text form.
pub(crate) fn write_sample(
    out: &mut String,
    key: &str,
    unit: Unit,
    help: &str,
    counter: bool,
    value: u64,
) {
    if counter {
        let name = write_header(out, key, unit, help, "counter");
        let _ = writeln!(out, "{name}_total {value}");
    } else {
        let name = write_header(out, key, unit, help, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_namespaces_and_shares() {
        let r = Registry::new();
        let c1 = r.counter("cache", "hits", Unit::Ops, "tier-1 hits");
        let c2 = r.counter("cache", "hits", Unit::Ops, "tier-1 hits");
        c1.incr();
        assert_eq!(c2.get(), 1, "same key shares the metric");
        r.gauge("cache", "bytes", Unit::Bytes, "resident bytes");
        r.histogram("op", "ingest", Unit::VirtualNs, "ingest latency");
        assert_eq!(r.len(), 3);
        let mut keys = Vec::new();
        r.for_each(|k, _, unit, _| keys.push((k.to_string(), unit.label())));
        assert_eq!(
            keys,
            vec![
                ("cache.bytes".to_string(), "bytes"),
                ("cache.hits".to_string(), "ops"),
                ("op.ingest".to_string(), "virtual-ns"),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("a", "b", Unit::Ops, "");
        r.gauge("a", "b", Unit::Ops, "");
    }

    #[test]
    fn attach_counter_shares_the_given_counter() {
        let r = Registry::new();
        let mine = Arc::new(Counter::new());
        let got = r.attach_counter("trace", "emitted", Arc::clone(&mine), Unit::Ops, "emitted");
        mine.add(7);
        assert_eq!(got.get(), 7, "registry holds the attached counter");
        // Re-registering the key returns the already-attached one.
        let again = r.counter("trace", "emitted", Unit::Ops, "emitted");
        assert_eq!(again.get(), 7);
    }

    #[test]
    fn poisoned_registry_recovers() {
        let r = Arc::new(Registry::new());
        let hits = r.counter("cache", "hits", Unit::Ops, "hits");
        hits.incr();
        // Panic *inside* a for_each callback: the walker holds the
        // lock, so the unwinding thread poisons it.
        let r2 = Arc::clone(&r);
        let died = std::thread::spawn(move || {
            r2.for_each(|_, _, _, _| panic!("callback died mid-walk"));
        })
        .join();
        assert!(died.is_err(), "the walker thread must have panicked");
        // Every entry point still works — one dead exporter must not
        // take down metrics for good.
        assert_eq!(r.len(), 1);
        let mut seen = 0;
        r.for_each(|_, _, _, _| seen += 1);
        assert_eq!(seen, 1);
        assert_eq!(r.counter("cache", "hits", Unit::Ops, "hits").get(), 1);
        assert!(r.render_openmetrics().contains("cache_hits_total 1"));
    }

    #[test]
    fn openmetrics_rendering_matches_golden_output() {
        let r = Registry::new();
        let g = r.gauge("buffer", "bytes", Unit::Bytes, "resident bytes");
        g.set(4096);
        let c = r.counter("worker", "flushes", Unit::Ops, "background flushes");
        c.add(3);
        let h = r.histogram("op", "ingest", Unit::VirtualNs, "ingest latency");
        h.record(0);
        h.record(3);
        h.record(10);
        let expected = "\
# HELP buffer_bytes resident bytes
# TYPE buffer_bytes gauge
buffer_bytes 4096
# HELP op_ingest_virtual_ns ingest latency
# TYPE op_ingest_virtual_ns histogram
op_ingest_virtual_ns_bucket{le=\"0\"} 1
op_ingest_virtual_ns_bucket{le=\"1\"} 1
op_ingest_virtual_ns_bucket{le=\"3\"} 2
op_ingest_virtual_ns_bucket{le=\"7\"} 2
op_ingest_virtual_ns_bucket{le=\"15\"} 3
op_ingest_virtual_ns_bucket{le=\"+Inf\"} 3
op_ingest_virtual_ns_sum 13
op_ingest_virtual_ns_count 3
# HELP worker_flushes background flushes
# TYPE worker_flushes counter
worker_flushes_total 3
# EOF
";
        assert_eq!(r.render_openmetrics(), expected);
    }

    #[test]
    fn openmetrics_empty_registry_is_just_eof() {
        assert_eq!(Registry::new().render_openmetrics(), "# EOF\n");
    }
}
