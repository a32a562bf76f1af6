//! `masm-trace` — a lock-free flight recorder with Perfetto export.
//!
//! The metrics layer answers *how much*; this module answers *why*: it
//! records causally-linked spans and instant events across the engine's
//! threads — ingest → backpressure stall → sealed batch → flush job →
//! the compaction or migration it triggered — into bounded in-memory
//! ring buffers, and exports them as Chrome trace-event JSON that opens
//! directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`.
//!
//! # Design
//!
//! * **Fixed-size records.** A [`TraceRecord`] is `Copy`, contains no
//!   heap data (names are `&'static str`), and its exact size is pinned
//!   by a test — the emit path allocates nothing, ever.
//! * **Bounded rings, overflow counted.** Records land in one of
//!   [`TRACE_RINGS`] bounded ring buffers (writers are striped by
//!   thread id; claims are CAS-based and lock-free). A full ring
//!   *drops* the record and counts it — emitters never block and never
//!   overwrite unread data, so `emitted == retained + drained +
//!   dropped` holds exactly ([`TraceStats`]).
//! * **Pay for what you use.** [`Tracer::enabled`] is one relaxed
//!   atomic load; every instrumentation site checks it first, so a
//!   disabled tracer costs one load per operation. Hot per-operation
//!   spans are additionally sampled 1-in-2^`op_sample_shift`.
//! * **Causal links.** Flow ids ([`Tracer::next_flow_id`]) connect a
//!   producer-side [`Tracer::flow_start`] to a consumer-side
//!   [`Tracer::flow_finish`] across threads; Perfetto draws the arrow
//!   between the enclosing slices. Track ids map `pid` = shard and
//!   `tid` = OS thread ([`current_tid`]), so a sharded engine renders
//!   as one process lane per shard.
//!
//! Timestamps come from whatever clock the caller samples — the engine
//! passes virtual time (session cursors or the shared high-water
//! clock). The export writes microsecond `ts`/`dur` fields as Chrome
//! expects.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonObj;
use crate::stats::EngineStats;

/// Number of ring buffers writers are striped over (by thread id).
pub const TRACE_RINGS: usize = 16;

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

/// Where an event renders: `pid` = shard, `tid` = worker/actor thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId {
    /// Process lane: the shard id (0 for an unsharded engine).
    pub pid: u32,
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
    /// Shard/thread lane.
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

impl TraceRecord {
    const EMPTY: TraceRecord = TraceRecord {
        kind: RecordKind::Instant,
        track: TrackId { pid: 0, tid: 0 },
        name: "",
        t_ns: 0,
        dur_ns: 0,
        flow: 0,
        arg_name: "",
        arg: 0,
    };
}

/// One bounded ring: multi-producer (CAS claim), single consumer (the
/// drain path holds [`Tracer`]'s drain lock). Producers that find the
/// ring full return `false` instead of blocking or overwriting.
struct Ring {
    /// Next claim index (monotonic, not wrapped).
    head: AtomicU64,
    /// Next read index (monotonic; advanced only by the consumer).
    tail: AtomicU64,
    /// `seq == index + 1` marks a slot as published for that index.
    slots: Box<[Slot]>,
}

struct Slot {
    seq: AtomicU64,
    rec: UnsafeCell<TraceRecord>,
}

// Slots are written only by the producer that CAS-claimed their index
// and read only after the matching release-store of `seq` — the
// acquire/release pair orders the record bytes, so no torn reads.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let slots = (0..capacity.max(2))
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                rec: UnsafeCell::new(TraceRecord::EMPTY),
            })
            .collect();
        Ring {
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots,
        }
    }

    fn capacity(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Lock-free bounded push: `false` when the ring is full (the
    /// record is dropped, never blocking the emitter).
    fn push(&self, rec: TraceRecord) -> bool {
        loop {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            if head.wrapping_sub(tail) >= self.capacity() {
                return false;
            }
            if self
                .head
                .compare_exchange_weak(head, head + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let slot = &self.slots[(head % self.capacity()) as usize];
                // Safety: this producer owns index `head` exclusively
                // (the CAS), and the consumer cannot touch the slot
                // until the release-store below publishes it.
                unsafe { *slot.rec.get() = rec };
                slot.seq.store(head + 1, Ordering::Release);
                return true;
            }
        }
    }

    /// Single-consumer drain (caller holds the tracer's drain lock).
    fn drain(&self, f: &mut impl FnMut(TraceRecord)) -> u64 {
        let mut n = 0;
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            if tail == self.head.load(Ordering::Acquire) {
                return n;
            }
            let slot = &self.slots[(tail % self.capacity()) as usize];
            if slot.seq.load(Ordering::Acquire) != tail + 1 {
                // Claimed but not yet published; the producer is mid-write.
                std::hint::spin_loop();
                continue;
            }
            // Safety: published (seq acquire above) and not yet consumed
            // (tail advances only below, after the copy).
            let rec = unsafe { *slot.rec.get() };
            self.tail.store(tail + 1, Ordering::Release);
            f(rec);
            n += 1;
        }
    }

    fn len(&self) -> u64 {
        self.head
            .load(Ordering::Acquire)
            .saturating_sub(self.tail.load(Ordering::Acquire))
    }
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
    /// Capacity of each of the [`TRACE_RINGS`] ring buffers, in
    /// records. Overflow is counted ([`TraceStats::dropped`]), not
    /// blocked on.
    pub ring_capacity: usize,
    /// Sample hot per-operation spans 1-in-2^shift
    /// ([`Tracer::op_span`]); 0 records every operation. Lifecycle
    /// events (jobs, flows, instants) are never sampled away.
    pub op_sample_shift: u32,
    /// Whether the tracer starts enabled.
    pub enabled: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
            op_sample_shift: 0,
            enabled: true,
        }
    }
}

/// Emission accounting. The exact-drop invariant is
/// `emitted == retained + drained + dropped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Records offered to the rings while the tracer was enabled.
    pub emitted: u64,
    /// Records dropped because their ring was full.
    pub dropped: u64,
    /// Records handed to a consumer by [`Tracer::drain`].
    pub drained: u64,
    /// Records currently waiting in the rings.
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

/// The flight recorder: lock-free span/event emission into bounded
/// rings, drained on demand and exported as Chrome trace-event JSON.
#[derive(Debug)]
pub struct Tracer {
    rings: Vec<Ring>,
    enabled: AtomicBool,
    op_mask: u64,
    op_counter: AtomicU64,
    next_flow: AtomicU64,
    emitted: AtomicU64,
    dropped: AtomicU64,
    violations: AtomicU64,
    drained: AtomicU64,
    /// Serializes consumers; the emit path never touches it.
    drain_lock: Mutex<()>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(TraceConfig::default())
    }
}

impl Tracer {
    /// Build a tracer with the given ring capacity and sampling knobs.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            rings: (0..TRACE_RINGS)
                .map(|_| Ring::new(cfg.ring_capacity))
                .collect(),
            enabled: AtomicBool::new(cfg.enabled),
            op_mask: (1u64 << cfg.op_sample_shift.min(63)) - 1,
            op_counter: AtomicU64::new(0),
            next_flow: AtomicU64::new(1),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
        }
    }

    /// Whether recording is on — **one relaxed atomic load**; this is
    /// the whole per-operation cost of a disabled tracer.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// A fresh process-unique flow id (never 0).
    pub fn next_flow_id(&self) -> u64 {
        self.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether this hot-path operation is in the 1-in-2^shift sample.
    #[inline]
    pub fn sample_op(&self) -> bool {
        self.op_mask == 0 || (self.op_counter.fetch_add(1, Ordering::Relaxed) & self.op_mask) == 0
    }

    /// Emit one record (no-op when disabled). Lock-free and
    /// allocation-free; overflow is counted, not blocked on.
    pub fn emit(&self, rec: TraceRecord) {
        if !self.enabled() {
            return;
        }
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let ring = &self.rings[rec.track.tid as usize % TRACE_RINGS];
        if !ring.push(rec) {
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
    pub fn counter(&self, name: &'static str, track: TrackId, t_ns: u64, value: u64) {
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

    /// Drain every ring in thread-stripe order, handing each record to
    /// `f`. Single-consumer (internally serialized); concurrent
    /// emitters keep running lock-free.
    pub fn drain(&self, mut f: impl FnMut(TraceRecord)) -> u64 {
        let _guard = self
            .drain_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut n = 0;
        for ring in &self.rings {
            n += ring.drain(&mut f);
        }
        self.drained.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Drain into a vector, sorted by event time (stable, so equal
    /// timestamps keep emission-stripe order).
    pub fn take_records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        self.drain(|r| out.push(r));
        out.sort_by_key(|r| r.t_ns);
        out
    }

    /// Emission accounting (see [`TraceStats::consistent`]).
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            emitted: self.emitted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            retained: self.rings.iter().map(Ring::len).sum(),
            violations: self.violations.load(Ordering::Relaxed),
        }
    }

    /// Drain everything and render it as Chrome trace-event JSON (see
    /// [`render_chrome_trace`]).
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
                .u64("pid", u64::from(rec.track.pid))
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
                .u64("pid", u64::from(rec.track.pid))
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
                .u64("pid", u64::from(rec.track.pid))
                .u64("tid", u64::from(rec.track.tid));
        }
        RecordKind::Counter => {
            let mut args = JsonObj::new();
            args.u64(rec.arg_name, rec.arg);
            o.str("name", rec.name)
                .str("ph", "C")
                .f64("ts", ts_us)
                .u64("pid", u64::from(rec.track.pid))
                .raw("args", &args.finish());
        }
    }
    events.push(o.finish());
}

/// Render drained records as a Chrome trace-event JSON document
/// (`{"traceEvents":[…]}`), openable in Perfetto / `chrome://tracing`.
/// Process (`shard-N`) and thread names are synthesized as metadata
/// events for every track that appears.
#[must_use]
pub fn render_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(records.len() + 8);
    let mut seen_pids: Vec<u32> = Vec::new();
    let mut seen_tracks: Vec<TrackId> = Vec::new();
    for rec in records {
        if !seen_pids.contains(&rec.track.pid) {
            seen_pids.push(rec.track.pid);
        }
        if !seen_tracks.contains(&rec.track) {
            seen_tracks.push(rec.track);
        }
    }
    seen_pids.sort_unstable();
    seen_tracks.sort_unstable_by_key(|t| (t.pid, t.tid));
    for pid in seen_pids {
        let mut args = JsonObj::new();
        args.str("name", &format!("shard-{pid}"));
        let mut o = JsonObj::new();
        o.str("name", "process_name")
            .str("ph", "M")
            .u64("pid", u64::from(pid))
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    for track in seen_tracks {
        let mut args = JsonObj::new();
        args.str("name", &format!("thread-{}", track.tid));
        let mut o = JsonObj::new();
        o.str("name", "thread_name")
            .str("ph", "M")
            .u64("pid", u64::from(track.pid))
            .u64("tid", u64::from(track.tid))
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
    max_epoch_lag: u64,
    last_poll: Option<u64>,
}

impl InvariantWatchdog {
    /// A watchdog emitting on `tracer` under `track` (pid = the shard
    /// being watched), polling at most once per `interval_ns`.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>, track: TrackId, interval_ns: u64) -> Self {
        InvariantWatchdog {
            tracer,
            track,
            interval_ns,
            max_epoch_lag: 64,
            last_poll: None,
        }
    }

    /// Epoch-lag alarm threshold (default 64): a pinned query snapshot
    /// trailing the publish head by more than this many epochs emits an
    /// `epoch.lag` instant event.
    #[must_use]
    pub fn with_max_epoch_lag(mut self, lag: u64) -> Self {
        self.max_epoch_lag = lag;
        self
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
        if stats.workers.epoch_lag > self.max_epoch_lag {
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

    fn track(pid: u32, tid: u32) -> TrackId {
        TrackId { pid, tid }
    }

    /// The emit path writes one fixed-size record — no heap data, no
    /// allocation. Two `&'static str` (two words each) + four u64
    /// payload fields + the 8-byte track + the kind byte, padded to
    /// 8-byte alignment: 80 bytes. If this grows, the flight recorder's
    /// memory bound and allocation-freeness both change: move the new
    /// state somewhere else.
    #[test]
    fn record_is_fixed_size_no_allocation() {
        assert_eq!(std::mem::size_of::<TraceRecord>(), 80);
        // Copy is what lets the ring hand records around by value.
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceRecord>();
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::new(TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        });
        t.instant("x", track(0, 1), 10, "", 0);
        drop(t.span("s", track(0, 1), || 5));
        let s = t.stats();
        assert_eq!(s.emitted, 0);
        assert_eq!(s.retained, 0);
        assert!(s.consistent());
        t.set_enabled(true);
        t.instant("x", track(0, 1), 10, "", 0);
        assert_eq!(t.stats().emitted, 1);
    }

    #[test]
    fn overflow_is_counted_not_blocked() {
        let t = Tracer::new(TraceConfig {
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        // All records from one tid land in one 4-slot ring.
        for i in 0..20 {
            t.instant("e", track(0, 1), i, "", 0);
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
        let stop = Arc::new(AtomicBool::new(false));

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
                    let tid = current_tid();
                    for i in 0..PER_WRITER {
                        // Every field derived from (w, i): a torn record
                        // breaks the cross-field checks below.
                        let v = w * PER_WRITER + i;
                        t.emit(TraceRecord {
                            kind: RecordKind::Span,
                            track: track(w as u32, tid),
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
            assert_eq!(u64::from(r.track.pid), r.arg / PER_WRITER, "torn track");
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
        let tr = track(0, 7);
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
    fn export_is_valid_chrome_trace_json() {
        let t = Tracer::default();
        let tr = track(2, 9);
        let flow = t.next_flow_id();
        t.span_event("job.flush", tr, 1000, 500, "bytes", 4096);
        t.flow_start("masm.flush", track(2, 3), 900, flow);
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
        assert_eq!(spans[0].get_u64("pid"), Some(2));
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
        let mut dog =
            InvariantWatchdog::new(Arc::clone(&t), track(0, 1), 1000).with_max_epoch_lag(4);
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
        stats.workers.epoch_lag = 9;
        assert_eq!(dog.poll(&stats).len(), 1);
        let recs = t.take_records();
        assert!(recs.iter().any(|r| r.name == "invariant.violation"));
        assert!(recs
            .iter()
            .any(|r| r.name == "epoch.lag" && r.arg == 9 && r.kind == RecordKind::Instant));
        assert!(recs
            .iter()
            .any(|r| r.name == "trace.violations" && r.kind == RecordKind::Counter));
    }
}
