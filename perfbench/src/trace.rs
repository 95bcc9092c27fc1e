//! In-memory span recording for the traced run.
//!
//! A span covers one call into a layer's public entry point, made from
//! the benchmark's own code. Spans nest through the closure passed to
//! [`Tracer::span`]; each records its name, start, end, parent and the
//! op id current when it opened. A disabled tracer runs the closure
//! and records nothing, so the untraced run executes the same code.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span whose times were taken elsewhere (a request's
    /// flight, timed by the load generator), under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, op: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.stack.last().copied(),
                op,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|span| serde::json::to_string(span) + "\n")
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Grandchildren are already inside
/// their parent's interval, so nesting never subtracts a span twice;
/// overlapping children are merged before subtracting.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<f64>,
}

/// Aggregates by name the spans recorded from index `from` on.
pub fn by_layer(spans: &[Span], from: usize) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs).skip(from) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
        entry.durations_ns.push(span.duration_ns() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("boot", 10, 50, Some(0)),
            span("generate", 20, 40, Some(1)),
            span("index", 25, 35, Some(2)),
            span("walk", 60, 90, Some(0)),
        ];
        // job: 100 − (40 + 30); the grandchildren sit inside boot.
        // boot: 40 − 20; generate: 20 − 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 10, 30]);
        let layers = by_layer(&spans, 0);
        assert_eq!(by_layer(&spans, 4).keys().collect::<Vec<_>>(), [&"walk"]);
        let total_self: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_children_are_merged_and_clipped() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("late", 90, 130, Some(0)),
        ];
        // Covered: [10, 80) ∪ [90, 100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_op(7);
        let value = tracer.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
