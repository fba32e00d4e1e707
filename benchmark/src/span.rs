//! In-memory spans recorded from the benchmark's own files around each
//! call into a layer. Nothing inside the program is instrumented.
//!
//! A span is `(name, start, end, parent)`. Calls that happen millions of
//! times per run (the FM's callbacks) are not recorded one by one: the
//! [`crate::timed::Timed`] wrapper sums them and the sum is attached as
//! one *aggregate* child span carrying the call count, so a parent's
//! self time still comes out as its duration minus its children.

use asi_harness::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fabric.run`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Calls summed into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Span recorder. A disabled tracer records nothing, so the same driver
/// code serves the untraced and the traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            // Room up front, so recording a span does not allocate while
            // the program's own allocations are being counted.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            enabled: true,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: false,
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(index);
        // Read the clock last so recording the span is not inside it.
        self.spans[index].start_ns = self.now_ns();
        SpanId(Some(index))
    }

    /// Closes a span; it must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(index) = id.0 {
            assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = now;
        }
    }

    /// Attaches `calls` calls totalling `total_ns` as one child of the
    /// open span `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, total_ns: u64, calls: u64) {
        if let Some(p) = parent.0 {
            let start_ns = self.spans[p].start_ns;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + total_ns,
                parent: Some(p),
                calls,
            });
        }
    }

    /// Number of spans recorded so far; pass it to the `*_since`
    /// queries to look at one repetition only.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds of the spans named `name` recorded since `mark`.
    pub fn total_s_since(&self, mark: usize, name: &str) -> f64 {
        let ns: u64 = self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Calls summed into the spans named `name` recorded since `mark`.
    pub fn calls_since(&self, mark: usize, name: &str) -> u64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// Self time in seconds of the spans named `name` recorded since
    /// `mark`: their duration minus what their direct children cover.
    pub fn self_s_since(&self, mark: usize, name: &str) -> f64 {
        let mut ns = 0i128;
        for (index, span) in self.spans.iter().enumerate().skip(mark) {
            if span.name == name {
                ns += i128::from(span.ns());
            }
            if let Some(p) = span.parent {
                if p >= mark && self.spans[p].name == name {
                    ns -= i128::from(span.ns());
                }
            }
            debug_assert!(span.parent.is_none_or(|p| p < index));
        }
        ns as f64 / 1e9
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, calls}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::object()
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", s.parent.map_or(Json::Null, Json::from))
                        .with("calls", s.calls)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::enabled();
        t.spans = vec![
            span("run", 0, 1_000, None),
            span("agent", 100, 300, Some(0)),
            span("inner", 150, 250, Some(1)), // grandchild: not subtracted from run
            span("agent", 400, 450, Some(0)),
            span("run", 2_000, 2_500, None),
        ];
        assert_eq!(t.total_s_since(0, "run"), 1_500e-9);
        assert_eq!(t.self_s_since(0, "run"), 1_250e-9);
        assert_eq!(t.self_s_since(0, "agent"), 150e-9);
        // Only the second repetition.
        assert_eq!(t.self_s_since(4, "run"), 500e-9);
    }

    #[test]
    fn aggregate_children_keep_parent_arithmetic() {
        let mut t = Tracer::enabled();
        let run = t.enter("fabric.run");
        t.aggregate("core.on_packet", run, 700, 7);
        t.aggregate("core.on_timer", run, 300, 3);
        t.exit(run);
        let total = t.total_s_since(0, "fabric.run");
        let children = t.total_s_since(0, "core.on_packet") + t.total_s_since(0, "core.on_timer");
        assert!((t.self_s_since(0, "fabric.run") - (total - children)).abs() < 1e-15);
        assert_eq!(t.calls_since(0, "core.on_packet"), 7);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn nesting_records_the_open_parent() {
        let mut t = Tracer::enabled();
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        let c = t.enter("c");
        t.exit(c);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None]);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let a = t.enter("a");
        t.aggregate("x", a, 10, 1);
        t.exit(a);
        assert!(t.spans.is_empty());
    }
}
