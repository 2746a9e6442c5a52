//! Wall-clock spans recorded from outside the layers.
//!
//! Each span is recorded twice: as a begin/end pair in an
//! [`obs::TraceBuffer`] (exported as a Chrome trace, where spans on one
//! lane nest), and as a [`SpanRecord`] whose self time is its duration
//! minus the time of the spans it directly encloses.

use std::time::Instant;

use obs::{Lane, TraceBuffer};

/// A closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Nesting depth: 0 for a top-level span.
    pub depth: usize,
    /// Wall-clock duration.
    pub secs: f64,
    /// Duration minus the duration of direct children.
    pub self_secs: f64,
}

impl SpanRecord {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested wall-clock spans.
pub struct Tracer {
    buf: TraceBuffer,
    /// Accumulated child time of each open span, innermost last.
    open: Vec<f64>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        let mut buf = TraceBuffer::new(1 << 14);
        buf.set_lane_name(Lane::MAIN, "benchmark");
        Tracer {
            buf,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.buf.begin_wall(name, Lane::MAIN);
        self.open.push(0.0);
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.buf.end_wall(name, Lane::MAIN);
        let children = self.open.pop().expect("span was opened above");
        if let Some(parent) = self.open.last_mut() {
            *parent += secs;
        }
        self.spans.push(SpanRecord {
            name,
            depth: self.open.len(),
            secs,
            self_secs: secs - children,
        });
        out
    }

    /// Spans closed so far, in closing order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs)
            .sum()
    }

    /// The recorded trace, for export.
    pub fn buffer(&self) -> &TraceBuffer {
        &self.buf
    }
}
