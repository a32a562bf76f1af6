//! `masm-trace` — a bounded flight recorder with Perfetto export.
//!
//! The metrics layer answers *how much*; this module answers *why*: it
//! records causally-linked spans and instant events across the engine's
//! threads — ingest → backpressure stall → sealed batch → flush job →
//! the compaction or migration it triggered — into one bounded
//! in-memory queue, and exports them as Chrome trace-event JSON that
//! opens directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`.
//!
//! # Design
//!
//! * **Fixed-size records.** A [`TraceRecord`] is `Copy`, contains no
//!   heap data (names are `&'static str`), and its exact size is pinned
//!   by a test — the emit path allocates nothing, ever.
//! * **One bounded queue, overflow counted.** Records land in one queue
//!   preallocated to [`TraceConfig::ring_capacity`] records; an emitter
//!   takes one short lock to push. A full queue *drops* the record and
//!   counts it — emitters never wait on a consumer and never overwrite
//!   unread data, and the counters move under the same lock, so
//!   `emitted == retained + drained + dropped` holds exactly
//!   ([`TraceStats`]).
//! * **Pay for what you use.** [`Tracer::enabled`] is one field read,
//!   fixed when the tracer is built; every instrumentation site checks
//!   it first, so a disabled tracer costs one load per operation. Hot
//!   per-operation spans are additionally sampled 1-in-2^`op_sample_shift`.
//! * **Causal links.** Flow ids ([`Tracer::next_flow_id`]) connect a
//!   producer-side [`Tracer::flow_start`] to a consumer-side
//!   [`Tracer::flow_finish`] across threads; Perfetto draws the arrow
//!   between the enclosing slices. Every event renders in one process
//!   lane (pid 0, named `masm`); its track picks the thread lane
//!   ([`current_tid`]).
//!
//! Timestamps come from whatever clock the caller samples — the engine
//! passes virtual time (session cursors or the shared high-water
//! clock). The export writes microsecond `ts`/`dur` fields as Chrome
//! expects.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::JsonObj;
use crate::stats::EngineStats;

/// The kind of one [`TraceRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A complete span (`ph:"X"`): `[t_ns, t_ns + dur_ns]`.
    Span,
    /// A thread-scoped instant event (`ph:"i"`).
    Instant,
    /// A flow origin (`ph:"s"`), bound to the enclosing span.
    FlowStart,
    /// A flow target (`ph:"f"`), bound to the enclosing span.
    FlowFinish,
    /// A counter sample (`ph:"C"`).
    Counter,
}

/// Where an event renders: the worker/actor thread lane of the one
/// process lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId {
    /// Thread lane: a process-wide thread index ([`current_tid`]).
    pub tid: u32,
}

/// One fixed-size trace record. `Copy`, no heap data — the emit path
/// is allocation-free by construction (size pinned by a test, like
/// [`crate::Histogram`]'s bucket array).
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Event kind.
    pub kind: RecordKind,
    /// Process/thread lane.
    pub track: TrackId,
    /// Event (or span) name; flow start/finish pairs share a name.
    pub name: &'static str,
    /// Event time in clock nanoseconds (span start for [`RecordKind::Span`]).
    pub t_ns: u64,
    /// Span duration (0 for non-span records).
    pub dur_ns: u64,
    /// Flow id linking a start/finish pair (0 = none).
    pub flow: u64,
    /// Name of the numeric payload (`""` = none).
    pub arg_name: &'static str,
    /// Numeric payload (bytes, attempts, lag, counter value, …).
    pub arg: u64,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's process-wide trace thread index (assigned on first
/// use, stable for the thread's lifetime).
#[must_use]
pub fn current_tid() -> u32 {
    THREAD_TID.with(|t| *t)
}

/// Tracer construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Capacity of the recorder's one queue, in records (preallocated
    /// up front; 65,536 records of 72 bytes by default). Overflow is
    /// counted ([`TraceStats::dropped`]), not blocked on.
    pub ring_capacity: usize,
    /// Sample hot per-operation spans 1-in-2^shift
    /// ([`Tracer::op_span`]); 0 records every operation. Lifecycle
    /// events (jobs, flows, instants) are never sampled away.
    pub op_sample_shift: u32,
    /// Whether the tracer records at all (fixed for its lifetime).
    pub enabled: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 1 << 16,
            op_sample_shift: 0,
            enabled: true,
        }
    }
}

/// Emission accounting. The exact-drop invariant is
/// `emitted == retained + drained + dropped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Records offered to the queue while the tracer was enabled.
    pub emitted: u64,
    /// Records dropped because the queue was full.
    pub dropped: u64,
    /// Records handed to a consumer by [`Tracer::drain`].
    pub drained: u64,
    /// Records currently waiting in the queue.
    pub retained: u64,
    /// Invariant violations an [`InvariantWatchdog`] observed.
    pub violations: u64,
}

impl TraceStats {
    /// Whether the drop-accounting invariant holds.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.emitted == self.retained + self.drained + self.dropped
    }
}

/// The flight recorder: span/event emission into one bounded queue,
/// drained on demand and exported as Chrome trace-event JSON.
#[derive(Debug)]
pub struct Tracer {
    /// Preallocated to `capacity` records, so a push never allocates.
    /// `emitted`, `dropped` and `drained` move only while it is held.
    queue: Mutex<VecDeque<TraceRecord>>,
    capacity: usize,
    enabled: bool,
    op_mask: u64,
    op_counter: AtomicU64,
    next_flow: AtomicU64,
    emitted: AtomicU64,
    dropped: AtomicU64,
    violations: AtomicU64,
    drained: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(TraceConfig::default())
    }
}

impl Tracer {
    /// Build a tracer with the given queue capacity and sampling knobs.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            queue: Mutex::new(VecDeque::with_capacity(cfg.ring_capacity)),
            capacity: cfg.ring_capacity,
            enabled: cfg.enabled,
            op_mask: (1u64 << cfg.op_sample_shift.min(63)) - 1,
            op_counter: AtomicU64::new(0),
            next_flow: AtomicU64::new(1),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// The queue. A holder only pushes, counts or swaps the queue out,
    /// none of which can leave it half-updated, so a poisoned lock is
    /// still a valid queue.
    fn queue(&self) -> MutexGuard<'_, VecDeque<TraceRecord>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether recording is on — **one field read**; this is the
    /// whole per-operation cost of a disabled tracer.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh process-unique flow id (never 0).
    pub fn next_flow_id(&self) -> u64 {
        self.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether this hot-path operation is in the 1-in-2^shift sample.
    #[inline]
    pub(crate) fn sample_op(&self) -> bool {
        self.op_mask == 0 || (self.op_counter.fetch_add(1, Ordering::Relaxed) & self.op_mask) == 0
    }

    /// Emit one record (no-op when disabled). Allocation-free: one
    /// short lock to push into the preallocated queue; overflow is
    /// counted, not blocked on.
    pub fn emit(&self, rec: TraceRecord) {
        if !self.enabled() {
            return;
        }
        let mut queue = self.queue();
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if queue.len() < self.capacity {
            queue.push_back(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A complete span with explicit start and duration.
    pub fn span_event(
        &self,
        name: &'static str,
        track: TrackId,
        t_ns: u64,
        dur_ns: u64,
        arg_name: &'static str,
        arg: u64,
    ) {
        self.emit(TraceRecord {
            kind: RecordKind::Span,
            track,
            name,
            t_ns,
            dur_ns,
            flow: 0,
            arg_name,
            arg,
        });
    }

    /// A thread-scoped instant event.
    pub fn instant(
        &self,
        name: &'static str,
        track: TrackId,
        t_ns: u64,
        arg_name: &'static str,
        arg: u64,
    ) {
        self.emit(TraceRecord {
            kind: RecordKind::Instant,
            track,
            name,
            t_ns,
            dur_ns: 0,
            flow: 0,
            arg_name,
            arg,
        });
    }

    /// A flow origin: Perfetto draws an arrow from the span enclosing
    /// this event to the span enclosing the matching
    /// [`Tracer::flow_finish`].
    pub fn flow_start(&self, name: &'static str, track: TrackId, t_ns: u64, flow: u64) {
        self.emit(TraceRecord {
            kind: RecordKind::FlowStart,
            track,
            name,
            t_ns,
            dur_ns: 0,
            flow,
            arg_name: "",
            arg: 0,
        });
    }

    /// A flow target (see [`Tracer::flow_start`]).
    pub fn flow_finish(&self, name: &'static str, track: TrackId, t_ns: u64, flow: u64) {
        self.emit(TraceRecord {
            kind: RecordKind::FlowFinish,
            track,
            name,
            t_ns,
            dur_ns: 0,
            flow,
            arg_name: "",
            arg: 0,
        });
    }

    /// A counter sample (renders as a counter track).
    pub(crate) fn counter(&self, name: &'static str, track: TrackId, t_ns: u64, value: u64) {
        self.emit(TraceRecord {
            kind: RecordKind::Counter,
            track,
            name,
            t_ns,
            dur_ns: 0,
            flow: 0,
            arg_name: "value",
            arg: value,
        });
    }

    /// A drop-guard span: records a complete span from now (per the
    /// caller's clock closure, mirroring [`crate::Timer`]) to the
    /// guard's drop.
    pub fn span<F: Fn() -> u64>(
        &self,
        name: &'static str,
        track: TrackId,
        now: F,
    ) -> SpanGuard<'_, F> {
        let start = now();
        SpanGuard {
            tracer: self,
            name,
            track,
            start,
            now,
            arg_name: "",
            arg: 0,
        }
    }

    /// A sampled hot-path span: `None` (cost: one relaxed
    /// fetch-and-add) for operations outside the 1-in-2^shift sample.
    pub fn op_span<F: Fn() -> u64>(
        &self,
        name: &'static str,
        track: TrackId,
        now: F,
    ) -> Option<SpanGuard<'_, F>> {
        if !self.sample_op() {
            return None;
        }
        Some(self.span(name, track, now))
    }

    /// Drain the queue in emission order, handing each record to `f`.
    /// The queue is swapped for a fresh preallocated one under the
    /// lock, and `f` runs after the lock is released, so emitters wait
    /// on no consumer.
    pub fn drain(&self, f: impl FnMut(TraceRecord)) -> u64 {
        let fresh = VecDeque::with_capacity(self.capacity);
        let records = {
            let mut queue = self.queue();
            let records = std::mem::replace(&mut *queue, fresh);
            self.drained
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            records
        };
        let n = records.len() as u64;
        records.into_iter().for_each(f);
        n
    }

    /// Drain into a vector, sorted by event time (stable, so equal
    /// timestamps keep emission order).
    pub fn take_records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        self.drain(|r| out.push(r));
        out.sort_by_key(|r| r.t_ns);
        out
    }

    /// Emission accounting (see [`TraceStats::consistent`]), read under
    /// the queue's lock so it is consistent at every instant.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let queue = self.queue();
        TraceStats {
            emitted: self.emitted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            retained: queue.len() as u64,
            violations: self.violations.load(Ordering::Relaxed),
        }
    }

    /// Drain everything and render it as Chrome trace-event JSON
    /// (`{"traceEvents":[…]}`), openable in Perfetto /
    /// `chrome://tracing`.
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        render_chrome_trace(&self.take_records())
    }
}

/// A drop-guard recording a complete span, mirroring [`crate::Timer`]:
/// the clock closure is sampled at construction and at drop.
pub struct SpanGuard<'t, F: Fn() -> u64> {
    tracer: &'t Tracer,
    name: &'static str,
    track: TrackId,
    start: u64,
    now: F,
    arg_name: &'static str,
    arg: u64,
}

impl<F: Fn() -> u64> SpanGuard<'_, F> {
    /// Attach a numeric payload to the span record.
    pub fn set_arg(&mut self, name: &'static str, value: u64) {
        self.arg_name = name;
        self.arg = value;
    }
}

impl<F: Fn() -> u64> Drop for SpanGuard<'_, F> {
    fn drop(&mut self) {
        let end = (self.now)();
        self.tracer.span_event(
            self.name,
            self.track,
            self.start,
            end.saturating_sub(self.start),
            self.arg_name,
            self.arg,
        );
    }
}

fn push_event(events: &mut Vec<String>, rec: &TraceRecord) {
    let ts_us = rec.t_ns as f64 / 1000.0;
    let mut o = JsonObj::new();
    match rec.kind {
        RecordKind::Span => {
            o.str("name", rec.name)
                .str("cat", "masm")
                .str("ph", "X")
                .f64("ts", ts_us)
                .f64("dur", rec.dur_ns as f64 / 1000.0)
                .u64("pid", 0)
                .u64("tid", u64::from(rec.track.tid));
            if !rec.arg_name.is_empty() {
                let mut args = JsonObj::new();
                args.u64(rec.arg_name, rec.arg);
                o.raw("args", &args.finish());
            }
        }
        RecordKind::Instant => {
            o.str("name", rec.name)
                .str("cat", "masm")
                .str("ph", "i")
                .str("s", "t")
                .f64("ts", ts_us)
                .u64("pid", 0)
                .u64("tid", u64::from(rec.track.tid));
            if !rec.arg_name.is_empty() {
                let mut args = JsonObj::new();
                args.u64(rec.arg_name, rec.arg);
                o.raw("args", &args.finish());
            }
        }
        RecordKind::FlowStart | RecordKind::FlowFinish => {
            o.str("name", rec.name).str("cat", "flow");
            if rec.kind == RecordKind::FlowStart {
                o.str("ph", "s");
            } else {
                o.str("ph", "f").str("bp", "e");
            }
            o.u64("id", rec.flow)
                .f64("ts", ts_us)
                .u64("pid", 0)
                .u64("tid", u64::from(rec.track.tid));
        }
        RecordKind::Counter => {
            let mut args = JsonObj::new();
            args.u64(rec.arg_name, rec.arg);
            o.str("name", rec.name)
                .str("ph", "C")
                .f64("ts", ts_us)
                .u64("pid", 0)
                .raw("args", &args.finish());
        }
    }
    events.push(o.finish());
}

/// Render drained records as a Chrome trace-event JSON document
/// (`{"traceEvents":[…]}`), openable in Perfetto / `chrome://tracing`.
/// The one process (pid 0, `masm`) and every thread that appears get
/// their names as metadata events.
#[must_use]
pub(crate) fn render_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(records.len() + 8);
    let mut seen_tids: Vec<u32> = Vec::new();
    for rec in records {
        if !seen_tids.contains(&rec.track.tid) {
            seen_tids.push(rec.track.tid);
        }
    }
    seen_tids.sort_unstable();
    if !records.is_empty() {
        let mut args = JsonObj::new();
        args.str("name", "masm");
        let mut o = JsonObj::new();
        o.str("name", "process_name")
            .str("ph", "M")
            .u64("pid", 0)
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    for tid in seen_tids {
        let mut args = JsonObj::new();
        args.str("name", &format!("thread-{tid}"));
        let mut o = JsonObj::new();
        o.str("name", "thread_name")
            .str("ph", "M")
            .u64("pid", 0)
            .u64("tid", u64::from(tid))
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    for rec in records {
        push_event(&mut events, rec);
    }
    let mut doc = JsonObj::new();
    doc.raw("traceEvents", &format!("[{}]", events.join(",")))
        .str("displayTimeUnit", "ms");
    doc.finish()
}

/// Epoch-lag alarm threshold of [`InvariantWatchdog`]: a pinned query
/// snapshot trailing the publish head by more than this many epochs
/// emits an `epoch.lag` instant event.
const MAX_EPOCH_LAG: u64 = 64;

/// Polls [`EngineStats`] on a configurable interval (measured on the
/// snapshot's own `at_ns`, so it behaves identically under simulated
/// and wall-clock time, like [`crate::TimeSeriesWriter`]) and emits
/// instant events + the `trace.violations` counter when the paper's
/// bounded-cost invariants regress — the violation is recorded *in
/// situ*, surrounded by the causal context that produced it.
#[derive(Debug)]
pub struct InvariantWatchdog {
    tracer: Arc<Tracer>,
    track: TrackId,
    interval_ns: u64,
    last_poll: Option<u64>,
}

impl InvariantWatchdog {
    /// A watchdog emitting on `tracer` under `track`, polling at most
    /// once per `interval_ns`.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>, track: TrackId, interval_ns: u64) -> Self {
        InvariantWatchdog {
            tracer,
            track,
            interval_ns,
            last_poll: None,
        }
    }

    /// Check one snapshot. Returns the violation messages found (empty
    /// when the interval has not elapsed or everything holds). The
    /// first poll always samples.
    pub fn poll(&mut self, stats: &EngineStats) -> Vec<String> {
        let now = stats.at_ns;
        if let Some(last) = self.last_poll {
            if now.saturating_sub(last) < self.interval_ns {
                return Vec::new();
            }
        }
        self.last_poll = Some(now);
        let violations = stats.invariant_violations();
        let total = &self.tracer.violations;
        for _ in &violations {
            let seen = total.fetch_add(1, Ordering::Relaxed) + 1;
            self.tracer
                .instant("invariant.violation", self.track, now, "total", seen);
        }
        if stats.workers.epoch_lag > MAX_EPOCH_LAG {
            self.tracer.instant(
                "epoch.lag",
                self.track,
                now,
                "epochs",
                stats.workers.epoch_lag,
            );
        }
        self.tracer.counter(
            "trace.violations",
            self.track,
            now,
            total.load(Ordering::Relaxed),
        );
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    fn track(tid: u32) -> TrackId {
        TrackId { tid }
    }

    /// The emit path writes one fixed-size record — no heap data, no
    /// allocation. Two `&'static str` (two words each) + four u64
    /// payload fields + the 4-byte track + the kind byte, padded to
    /// 8-byte alignment: 72 bytes. If this grows, the flight recorder's
    /// memory bound and allocation-freeness both change: move the new
    /// state somewhere else.
    #[test]
    fn record_is_fixed_size_no_allocation() {
        assert_eq!(std::mem::size_of::<TraceRecord>(), 72);
        // Copy is what lets the queue hand records around by value.
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceRecord>();
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::new(TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        });
        t.instant("x", track(1), 10, "", 0);
        drop(t.span("s", track(1), || 5));
        let s = t.stats();
        assert_eq!(s.emitted, 0);
        assert_eq!(s.retained, 0);
        assert!(s.consistent());
    }

    #[test]
    fn overflow_is_counted_not_blocked() {
        let t = Tracer::new(TraceConfig {
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        // Four records fit; the other sixteen are dropped and counted.
        for i in 0..20 {
            t.instant("e", track(1), i, "", 0);
        }
        let s = t.stats();
        assert_eq!(s.emitted, 20);
        assert_eq!(s.retained, 4);
        assert_eq!(s.dropped, 16);
        assert!(s.consistent());
        let drained = t.drain(|_| {});
        assert_eq!(drained, 4);
        let s = t.stats();
        assert_eq!(s.drained, 4);
        assert_eq!(s.retained, 0);
        assert!(s.consistent());
    }

    /// Concurrent writers against a concurrent drainer: every drained
    /// record is internally consistent (never torn across fields) and
    /// the drop accounting is exact.
    #[test]
    fn concurrent_stress_no_torn_records_exact_accounting() {
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 20_000;
        let t = Arc::new(Tracer::new(TraceConfig {
            ring_capacity: 256,
            ..TraceConfig::default()
        }));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let drainer = {
            let t = Arc::clone(&t);
            let seen = Arc::clone(&seen);
            let stop = Arc::clone(&stop);
            thread::spawn(move || loop {
                let mut batch = Vec::new();
                t.drain(|r| batch.push(r));
                seen.lock().unwrap().extend(batch);
                if stop.load(Ordering::Acquire) {
                    let mut batch = Vec::new();
                    t.drain(|r| batch.push(r));
                    seen.lock().unwrap().extend(batch);
                    return;
                }
                std::hint::spin_loop();
            })
        };

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let t = Arc::clone(&t);
                thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        // Every field derived from (w, i): a torn record
                        // breaks the cross-field checks below.
                        let v = w * PER_WRITER + i;
                        t.emit(TraceRecord {
                            kind: RecordKind::Span,
                            track: track(w as u32),
                            name: "stress",
                            t_ns: v,
                            dur_ns: v.wrapping_mul(3),
                            flow: v ^ 0xABCD,
                            arg_name: "v",
                            arg: v,
                        });
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        drainer.join().unwrap();

        let seen = seen.lock().unwrap();
        for r in seen.iter() {
            assert_eq!(r.name, "stress");
            assert_eq!(r.t_ns, r.arg, "torn record: t_ns vs arg");
            assert_eq!(r.dur_ns, r.arg.wrapping_mul(3), "torn record: dur");
            assert_eq!(r.flow, r.arg ^ 0xABCD, "torn record: flow");
            assert_eq!(u64::from(r.track.tid), r.arg / PER_WRITER, "torn track");
        }
        let s = t.stats();
        assert_eq!(s.emitted, WRITERS * PER_WRITER);
        assert_eq!(s.retained, 0);
        assert_eq!(s.drained, seen.len() as u64);
        assert!(s.consistent(), "emitted != drained + dropped: {s:?}");
        // No writer-side duplicates: drained values are unique.
        let mut vals: Vec<u64> = seen.iter().map(|r| r.arg).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), seen.len(), "duplicate records drained");
    }

    #[test]
    fn span_guards_nest_and_durations_are_nonnegative() {
        let t = Tracer::default();
        let clock = AtomicU64::new(100);
        let now = || clock.fetch_add(10, Ordering::Relaxed);
        let tr = track(7);
        {
            let _outer = t.span("outer", tr, now);
            let _inner = t.span("inner", tr, now);
            // inner drops first (LIFO), then outer.
        }
        let recs = t.take_records();
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        assert!(outer.t_ns < inner.t_ns, "parent must open before child");
        assert!(
            inner.t_ns + inner.dur_ns <= outer.t_ns + outer.dur_ns,
            "child must close within parent"
        );
    }

    #[test]
    fn op_sampling_keeps_one_in_two_pow_shift() {
        let t = Tracer::new(TraceConfig {
            op_sample_shift: 3,
            ..TraceConfig::default()
        });
        let kept = (0..800).filter(|_| t.sample_op()).count();
        assert_eq!(kept, 100);
    }

    #[test]
    fn a_forty_thousand_record_export_parses() {
        let t = Tracer::default();
        for i in 0..40_000u64 {
            let tr = track((i % 7) as u32);
            t.span_event("job.flush", tr, i * 10, 5, "bytes", i);
        }
        let doc = parse(&t.export_chrome_trace()).expect("export must parse");
        let Some(crate::json::JsonValue::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        let spans = events
            .iter()
            .filter(|e| e.get("ph") == Some(&crate::json::JsonValue::Str("X".into())))
            .count();
        assert_eq!(spans, 40_000);
    }

    #[test]
    fn export_is_valid_chrome_trace_json() {
        let t = Tracer::default();
        let tr = track(9);
        let flow = t.next_flow_id();
        t.span_event("job.flush", tr, 1000, 500, "bytes", 4096);
        t.flow_start("masm.flush", track(3), 900, flow);
        t.flow_finish("masm.flush", tr, 1001, flow);
        t.instant("job.retry", tr, 1200, "attempts", 2);
        t.counter("trace.violations", tr, 1300, 1);
        let json = t.export_chrome_trace();
        let doc = parse(&json).expect("export must parse");
        let events = match doc.get("traceEvents") {
            Some(crate::json::JsonValue::Arr(a)) => a,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        // 1 process + 2 thread metadata + 5 records.
        assert_eq!(events.len(), 8);
        let phase = |e: &crate::json::JsonValue| match e.get("ph") {
            Some(crate::json::JsonValue::Str(s)) => s.clone(),
            _ => panic!("event without ph"),
        };
        let spans: Vec<_> = events.iter().filter(|e| phase(e) == "X").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get_u64("pid"), Some(0));
        let str_of = |e: &crate::json::JsonValue, key| match e.get(key) {
            Some(crate::json::JsonValue::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let procs: Vec<_> = events
            .iter()
            .filter(|e| str_of(e, "name") == "process_name")
            .collect();
        assert_eq!(procs.len(), 1, "one process lane");
        assert_eq!(procs[0].get_u64("pid"), Some(0));
        assert_eq!(str_of(procs[0].get("args").unwrap(), "name"), "masm");
        assert_eq!(spans[0].get_u64("tid"), Some(9));
        assert_eq!(spans[0].get_f64("ts"), Some(1.0));
        assert_eq!(
            spans[0].get("args").and_then(|a| a.get_u64("bytes")),
            Some(4096)
        );
        let s = events.iter().find(|e| phase(e) == "s").expect("flow start");
        let f = events
            .iter()
            .find(|e| phase(e) == "f")
            .expect("flow finish");
        assert_eq!(s.get_u64("id"), f.get_u64("id"), "flow ids must resolve");
        assert!(events.iter().any(|e| phase(e) == "i"));
        assert!(events.iter().any(|e| phase(e) == "C"));
        assert!(events.iter().any(|e| phase(e) == "M"));
    }

    #[test]
    fn watchdog_emits_on_violation_and_respects_interval() {
        let t = Arc::new(Tracer::default());
        let mut dog = InvariantWatchdog::new(Arc::clone(&t), track(1), 1000);
        let mut stats = EngineStats {
            at_ns: 10,
            ..EngineStats::default()
        };
        // A healthy snapshot: counter sample only, no violation.
        assert!(dog.poll(&stats).is_empty());
        assert_eq!(t.stats().violations, 0);
        // Break the cache-accounting invariant.
        stats.at_ns = 2000;
        stats.cache.data_bytes = 1;
        let v = dog.poll(&stats);
        assert_eq!(v.len(), 1, "cache accounting violation expected: {v:?}");
        assert_eq!(t.stats().violations, 1);
        // Within the interval: no re-poll even though still violated.
        stats.at_ns = 2500;
        assert!(dog.poll(&stats).is_empty());
        assert_eq!(t.stats().violations, 1);
        // Past the interval + an epoch-lag alarm.
        stats.at_ns = 4000;
        stats.workers.epoch_lag = MAX_EPOCH_LAG + 1;
        assert_eq!(dog.poll(&stats).len(), 1);
        let recs = t.take_records();
        assert!(recs.iter().any(|r| r.name == "invariant.violation"));
        assert!(recs.iter().any(|r| r.name == "epoch.lag"
            && r.arg == MAX_EPOCH_LAG + 1
            && r.kind == RecordKind::Instant));
        assert!(recs
            .iter()
            .any(|r| r.name == "trace.violations" && r.kind == RecordKind::Counter));
    }
}
