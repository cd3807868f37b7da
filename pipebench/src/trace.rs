//! The benchmark's own tracer: spans kept in memory around the calls it
//! makes into each crate, written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate time of a span the library records itself (`hdx-obs`).
struct LibSpan {
    op: u64,
    path: String,
    count: u64,
    total_ns: u64,
}

/// In-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    lib: Vec<LibSpan>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            lib: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its length in ms. Spans opened inside it
    /// and left open (an operation that failed part-way) stay unfinished,
    /// with `end_ns` 0.
    pub fn end(&mut self, id: usize) -> f64 {
        if let Some(at) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(at);
        }
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Times `f` as a span, returning its result and length in ms.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Files the spans `hdx-obs` recorded inside the library during the
    /// current operation (top-level paths only).
    pub fn absorb_library_spans(&mut self, telemetry: &hdx_core::obs::RunTelemetry) {
        for span in telemetry.spans.iter().filter(|s| !s.path.contains(" > ")) {
            self.lib.push(LibSpan {
                op: self.op,
                path: span.path.clone(),
                count: span.count,
                total_ns: span.total_ns,
            });
        }
    }

    /// All spans as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.op,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("],\"library_spans\":[");
        for (i, s) in self.lib.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"op\":{},\"path\":\"{}\",\"count\":{},\"total_ns\":{}}}",
                if i > 0 { "," } else { "" },
                s.op,
                s.path.replace('\\', "\\\\").replace('"', "\\\""),
                s.count,
                s.total_ns,
            );
        }
        out.push_str("]}");
        out
    }
}
