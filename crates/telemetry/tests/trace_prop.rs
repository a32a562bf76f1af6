//! Property tests for the `masm-trace` flight recorder: exact drop
//! accounting under arbitrary queue capacities and writer counts, no
//! torn records under concurrency, span well-formedness (end ≥ start,
//! parents open before children, children close within parents) for
//! arbitrary nesting programs, and flow-id resolution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use masm_telemetry::json::{parse, JsonValue};
use masm_telemetry::trace::{RecordKind, TraceConfig, TraceRecord, Tracer, TrackId};

const SPAN_NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One step of a synthetic tracing program (single track, monotonic
/// clock): open a span, close the innermost, drop an instant, or emit
/// a flow start/finish pair.
#[derive(Debug, Clone, Copy)]
enum Step {
    Open,
    Close,
    Instant,
    Flow,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            2 => Just(Step::Open),
            2 => Just(Step::Close),
            1 => Just(Step::Instant),
            1 => Just(Step::Flow),
        ],
        0..120,
    )
}

proptest! {
    /// `emitted == retained + drained + dropped` holds exactly for any
    /// queue capacity, writer count, and stream length — and once fully
    /// drained, `retained == 0` and nothing was double-counted.
    #[test]
    fn drop_accounting_is_exact(
        capacity in 2usize..64,
        writers in 1u64..4,
        per_writer in 0u64..300,
    ) {
        let t = Arc::new(Tracer::new(TraceConfig {
            ring_capacity: capacity,
            ..TraceConfig::default()
        }));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let t = Arc::clone(&t);
                thread::spawn(move || {
                    for i in 0..per_writer {
                        let v = w * per_writer + i;
                        t.emit(TraceRecord {
                            kind: RecordKind::Instant,
                            track: TrackId { tid: w as u32 },
                            name: "prop",
                            t_ns: v,
                            dur_ns: v.wrapping_mul(7),
                            flow: !v,
                            arg_name: "v",
                            arg: v,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let before = t.stats();
        prop_assert_eq!(before.emitted, writers * per_writer);
        prop_assert!(before.consistent(), "pre-drain accounting: {:?}", before);

        let mut drained = Vec::new();
        t.drain(|r| drained.push(r));
        let after = t.stats();
        prop_assert_eq!(after.retained, 0);
        prop_assert_eq!(after.drained, drained.len() as u64);
        prop_assert_eq!(after.emitted, after.drained + after.dropped);
        prop_assert!(after.consistent(), "post-drain accounting: {:?}", after);

        // No torn records: every field of a drained record is a pure
        // function of its `arg`, and no record is drained twice.
        let mut seen = Vec::new();
        for r in &drained {
            prop_assert_eq!(r.name, "prop");
            prop_assert_eq!(r.t_ns, r.arg);
            prop_assert_eq!(r.dur_ns, r.arg.wrapping_mul(7));
            prop_assert_eq!(r.flow, !r.arg);
            prop_assert_eq!(u64::from(r.track.tid), r.arg / per_writer.max(1));
            seen.push(r.arg);
        }
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), drained.len(), "a record was drained twice");
    }

    /// Spans produced by guard (stack) discipline on a monotonic clock
    /// are well-formed: durations are non-negative by construction,
    /// every parent opens strictly before its children, and children
    /// close within their parent. Flow start/finish pairs resolve to
    /// each other, start before finish.
    #[test]
    fn spans_are_well_formed_and_flows_resolve(program in steps()) {
        let t = Tracer::default();
        let clock = AtomicU64::new(1);
        let now = || clock.fetch_add(1, Ordering::Relaxed);
        let track = TrackId { tid: 1 };
        let mut stack = Vec::new();
        for step in &program {
            match step {
                Step::Open => {
                    let name = SPAN_NAMES[stack.len() % SPAN_NAMES.len()];
                    stack.push(t.span(name, track, now));
                }
                Step::Close => {
                    stack.pop();
                }
                Step::Instant => t.instant("tick", track, now(), "", 0),
                Step::Flow => {
                    let id = t.next_flow_id();
                    t.flow_start("link", track, now(), id);
                    t.flow_finish("link", track, now(), id);
                }
            }
        }
        while stack.pop().is_some() {}

        let records = t.take_records();
        let stats = t.stats();
        prop_assert_eq!(stats.dropped, 0, "program must fit the queue");
        prop_assert!(stats.consistent());

        let spans: Vec<&TraceRecord> =
            records.iter().filter(|r| r.kind == RecordKind::Span).collect();
        for a in &spans {
            let (a0, a1) = (a.t_ns, a.t_ns + a.dur_ns);
            prop_assert!(a1 >= a0);
            for b in &spans {
                let (b0, b1) = (b.t_ns, b.t_ns + b.dur_ns);
                // Stack discipline on a strictly monotonic clock: two
                // spans either nest or are disjoint — any overlap means
                // the later-opened one closed within the earlier.
                if a0 < b0 && b0 < a1 {
                    prop_assert!(b1 <= a1, "span {} [{},{}] straddles {} [{},{}]",
                        b.name, b0, b1, a.name, a0, a1);
                }
            }
        }

        let starts: Vec<&TraceRecord> =
            records.iter().filter(|r| r.kind == RecordKind::FlowStart).collect();
        let finishes: Vec<&TraceRecord> =
            records.iter().filter(|r| r.kind == RecordKind::FlowFinish).collect();
        prop_assert_eq!(starts.len(), finishes.len());
        for s in &starts {
            let matched: Vec<_> = finishes.iter().filter(|f| f.flow == s.flow).collect();
            prop_assert_eq!(matched.len(), 1, "flow id must resolve exactly once");
            prop_assert!(matched[0].t_ns >= s.t_ns, "flow must finish after it starts");
        }
    }

    /// Whatever the program emitted, the Chrome export is valid JSON
    /// with one event per record plus per-track metadata.
    #[test]
    fn export_always_parses(program in steps()) {
        let t = Tracer::default();
        let clock = AtomicU64::new(1);
        let now = || clock.fetch_add(1, Ordering::Relaxed);
        let track = TrackId { tid: 2 };
        let mut stack = Vec::new();
        for step in &program {
            match step {
                Step::Open => stack.push(t.span("s", track, now)),
                Step::Close => {
                    stack.pop();
                }
                Step::Instant => t.instant("i", track, now(), "n", 1),
                Step::Flow => {
                    let id = t.next_flow_id();
                    t.flow_start("f", track, now(), id);
                    t.flow_finish("f", track, now(), id);
                }
            }
        }
        while stack.pop().is_some() {}
        let emitted = t.stats().emitted;
        let json = t.export_chrome_trace();
        let doc = parse(&json).expect("export must be valid JSON");
        match doc.get("traceEvents") {
            Some(JsonValue::Arr(events)) => {
                let metadata = if emitted > 0 { 2 } else { 0 };
                prop_assert_eq!(events.len() as u64, emitted + metadata);
            }
            other => prop_assert!(false, "traceEvents must be an array, got {:?}", other),
        }
    }
}
