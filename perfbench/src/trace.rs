//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start, end, parent, request id}`. Spans are kept in
//! memory, one buffer per client thread, and written out when the run
//! ends. A layer's self time is its spans' duration minus the part
//! covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// One thread's span buffer. A disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty buffer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: Option<u64>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Times `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's buffer, re-basing its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: (count, total time, self time).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, Duration, Duration)> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_time[p] += span.end - span.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_time) {
        let total = span.end - span.start;
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total.saturating_sub(children);
    }
    out
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"req\":{}}}",
            s.name,
            s.start.as_micros(),
            s.end.as_micros(),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req.map_or("null".to_string(), |r| r.to_string()),
        );
    }
    out
}
