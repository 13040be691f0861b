//! Benchmark-side spans: the per-layer pass wraps each call into a layer
//! in a span recorded here, outside the program. Spans stay in memory and
//! are written once, at exit, as Chrome trace-event JSON (loadable in
//! Perfetto).
//!
//! A span names its parent, so a layer's *self* time is its duration minus
//! the time its children cover. `open`/`close` must nest; the recorder is
//! single-threaded like the sweep it times.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Tree level the call worked on.
    pub level: u8,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    anchor: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            anchor: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, level: u8) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            level,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = end_ns;
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, level: u8, f: impl FnOnce() -> R) -> R {
        self.open(name, level);
        let r = f();
        self.close();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    fn from_spans(spans: Vec<Span>) -> Self {
        Self {
            anchor: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    /// Self time per span: duration minus the duration of direct children.
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_s();
            }
        }
        own
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// microsecond timestamps, the tree level in `args`.
    pub fn chrome_trace(&self, process: &str) -> Json {
        let mut events = vec![Json::obj([
            ("ph", Json::str("M")),
            ("name", Json::str("process_name")),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(0.0)),
            ("args", Json::obj([("name", Json::str(process))])),
        ])];
        events.extend(self.spans.iter().map(|s| {
            Json::obj([
                ("ph", Json::str("X")),
                ("name", Json::str(s.name)),
                ("cat", Json::str("layer")),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(0.0)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("args", Json::obj([("level", Json::Num(s.level as f64))])),
            ])
        }));
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, level: u8) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            level,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // eliminate [0, 100) contains skeletonize [10, 50), which contains
        // proxy [20, 30); a sibling apply [100, 130) follows.
        let r = Recorder::from_spans(vec![
            span("eliminate", 0, 100_000_000, None, 4),
            span("skeletonize", 10_000_000, 50_000_000, Some(0), 4),
            span("proxy", 20_000_000, 30_000_000, Some(1), 4),
            span("apply", 100_000_000, 130_000_000, None, 3),
        ]);
        let own = r.self_times_s();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(own[0], 0.060));
        assert!(close(own[1], 0.030));
        assert!(close(own[2], 0.010));
        assert!(close(own[3], 0.030));
        // Self times partition the covered wall time.
        assert!(close(own.iter().sum::<f64>(), 0.130));
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut r = Recorder::new();
        r.open("outer", 2);
        let v = r.span("inner", 2, || 7);
        r.close();
        assert_eq!(v, 7);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let trace = r.chrome_trace("laplace_grid");
        let text = trace.render();
        assert_eq!(Json::parse(&text).unwrap(), trace);
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().len(), 3);
    }
}
