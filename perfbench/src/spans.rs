//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the workspace crates, so every
//! layer is timed from outside the program. A span holds its layer and
//! call name, start and end on one monotonic clock, its parent span and
//! the operation (one reconfiguration or campaign) it belongs to. Spans
//! stay in memory and are written out once, in Chrome Trace Event
//! Format, when the run ends. When the recorder is off, `begin` and `end`
//! record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[must_use]
pub struct Open(Option<usize>);

/// An in-memory span recorder for one thread of calls.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts operation `op`: spans opened from now on carry its id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of closed spans named `layer.name`, in ms.
    pub fn total_ms(&self, layer: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time per span (its duration minus the part its direct
    /// children cover; children of one thread never overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time of `layer.name` spans, summed, in ms.
    pub fn self_ms(&self, layer: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.layer == layer && s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Per-layer `(spans, self ms)`, keyed by layer name.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.layer).or_insert((0usize, 0.0f64));
            e.0 += 1;
            e.1 += ns as f64 / 1e6;
        }
        out
    }

    /// The spans in Chrome Trace Event Format (complete `X` events,
    /// microsecond timestamps), loadable in Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.layer,
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new(true);
        s.spans = vec![
            Span {
                layer: "bench",
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                layer: "sim",
                name: "run_for",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                op: 1,
            },
            Span {
                layer: "core",
                name: "inner",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                op: 1,
            },
            Span {
                layer: "net",
                name: "poll",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                op: 1,
            },
        ];
        assert_eq!(s.self_ns(), vec![30, 30, 10, 30]);
        let layers = s.layer_self_ms();
        assert_eq!(layers["bench"], (1, 30.0 / 1e6));
        assert_eq!(s.total_ms("sim", "run_for"), 40.0 / 1e6);
        assert!(s.to_chrome_trace().contains("\"name\":\"net.poll\""));
    }

    #[test]
    fn off_recorder_records_nothing_and_nesting_is_enforced() {
        let mut off = Spans::new(false);
        let a = off.begin("sim", "run_for");
        off.end(a);
        assert!(off.spans().is_empty());

        let mut on = Spans::new(true);
        on.set_op(7);
        let outer = on.begin("bench", "op");
        let inner = on.begin("sim", "run_for");
        on.end(inner);
        on.end(outer);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[1].op, 7);
        assert!(on.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
