//! Spans recorded by the benchmark around its calls into the engine:
//! phase → repetition → call. Kept in memory, written as Chrome-trace
//! JSON when the run ends. Spans inside the program are a later change.

use std::time::Instant;

use masm_telemetry::json::JsonObj;

/// One closed or still-open span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Index of the enclosing span, `u32::MAX` at the root.
    parent: u32,
    /// Shared by every span of one repetition (one "request").
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Token returned by [`Spans::begin`]; `None` while recording is off.
pub type SpanId = Option<u32>;

/// The in-memory span recorder. Off by default: the end-to-end run
/// never pays for it.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    /// Counter behind [`Spans::begin_sampled`].
    calls: u64,
}

/// Per-call spans around `apply_update` and `get` are kept for one call
/// in this many; every call would be millions of spans per run.
const HOT_CALL_SAMPLE: u64 = 512;

impl Default for Spans {
    fn default() -> Self {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            calls: 0,
        }
    }
}

impl Spans {
    /// Turn recording on or off (between repetitions only).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(
            self.stack.is_empty(),
            "toggle between spans, not inside one"
        );
        self.on = on;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new repetition: its spans share a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    /// [`Spans::begin`] for calls made hundreds of thousands of times
    /// per repetition: records one call in [`HOT_CALL_SAMPLE`].
    #[inline]
    pub fn begin_sampled(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        self.calls += 1;
        if self.calls.is_multiple_of(HOT_CALL_SAMPLE) {
            self.begin(name)
        } else {
            None
        }
    }

    /// Close the span `id` (which must be the innermost open one).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Render as Chrome trace-event JSON (`ph:"X"` complete events on
    /// one thread lane; nesting follows from containment, and `args`
    /// carries the explicit id / parent / op links).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = JsonObj::new();
            args.u64("id", i as u64).u64("op", s.op as u64);
            if s.parent != u32::MAX {
                args.u64("parent", s.parent as u64);
            }
            let mut ev = JsonObj::new();
            ev.str("name", s.name)
                .str("ph", "X")
                .u64("pid", 1)
                .u64("tid", 1)
                .raw("ts", &format!("{:.3}", s.start_ns as f64 / 1e3))
                .raw(
                    "dur",
                    &format!("{:.3}", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                )
                .raw("args", &args.finish());
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.finish());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut s = Spans::default();
        let id = s.begin("ignored");
        s.end(id);
        assert!(s.is_empty());

        s.set_recording(true);
        s.next_op();
        let outer = s.begin("phase");
        let inner = s.begin("call");
        s.end(inner);
        s.end(outer);
        assert_eq!(s.len(), 2);
        let json = s.to_chrome_trace();
        let parsed = masm_telemetry::json::parse(&json).expect("valid JSON");
        let events = match parsed.get("traceEvents") {
            Some(masm_telemetry::JsonValue::Arr(a)) => a.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get_u64("parent")),
            Some(0)
        );
        assert_eq!(events[1].get("args").and_then(|a| a.get_u64("op")), Some(1));
    }

    #[test]
    fn hot_calls_are_sampled() {
        let mut s = Spans::default();
        s.set_recording(true);
        for _ in 0..HOT_CALL_SAMPLE * 3 {
            let id = s.begin_sampled("get");
            s.end(id);
        }
        assert_eq!(s.len(), 3);
    }
}
