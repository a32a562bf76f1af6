//! # masm-telemetry — unified observability for the MaSM engine
//!
//! The MaSM paper's headline claims are *quantitative invariants* —
//! zero random SSD writes, bounded migration cost, scan slowdown within
//! a few percent — so the reproduction's benches, tests, and (future)
//! ops dashboards all need the same numbers. This crate provides them
//! in four layers:
//!
//! 1. **Metrics core** ([`metrics`]) — log₂-bucketed latency
//!    [`Histogram`]s with p50/p95/p99/max readout and a **fixed bucket
//!    array** (no allocation on the record path), and a [`Timer`] guard
//!    that records elapsed virtual nanoseconds into a histogram on drop.
//!    The counter families themselves are declared once in
//!    [`masm_storage::stats`].
//! 2. **Unified snapshots** ([`stats`]) — [`EngineStats`], the one
//!    struct that composes cache, merge, compression, device I/O,
//!    SSD-wear summary, buffer and run-set occupancy, and
//!    per-operation latency histograms: every engine number has its one
//!    home there, and [`EngineStats::render_openmetrics`] renders all
//!    of it in one walk. [`StatsDelta`] (`now − prev`) makes rates
//!    first-class.
//! 3. **Time-series export** — [`TimeSeriesWriter`]
//!    polls snapshots on a virtual-clock interval and collects NDJSON
//!    rows (one JSON object per line), so sustained-load benches emit a
//!    time series instead of a single summary row.
//! 4. **Span tracing** ([`trace`]) — [`Tracer`], a flight recorder:
//!    fixed-size records go into one bounded, preallocated queue (an
//!    emitter takes one short lock; a full queue drops the record and
//!    counts it), exported as Chrome trace-event JSON for Perfetto.
//!
//! JSON is hand-rolled ([`json`]) because the workspace is offline (no
//! serde); the tiny writer/parser pair is enough for NDJSON rows and
//! for round-trip tests.
//!
//! ## Units
//!
//! Every metric states its unit in its rustdoc. The conventions:
//! **ops** (a count of operations or events), **bytes**, and
//! **virtual-ns** (nanoseconds of simulated time on the shared
//! [`masm_storage::SimClock`]).

pub mod json;
pub mod metrics;
pub mod stats;
pub(crate) mod timer;
pub(crate) mod timeseries;
pub mod trace;

pub use json::JsonValue;
pub use masm_storage::{BufferStats, RunSetStats};
pub use metrics::{Histogram, HistogramSnapshot, Unit, HISTOGRAM_BUCKETS};
pub use stats::{EngineStats, OpCountDelta, OpCountDeltas, OpLatencies, StatsDelta};
pub use timer::Timer;
pub use timeseries::TimeSeriesWriter;
pub use trace::{
    current_tid, InvariantWatchdog, RecordKind, SpanGuard, TraceConfig, TraceRecord, TraceStats,
    Tracer, TrackId,
};
