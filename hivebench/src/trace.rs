//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public function in a span, keeps the spans in memory,
//! and writes them out once the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Statement the span belongs to; spans of one statement share it.
    pub stmt: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one client thread.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, stmt: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span; returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        stmt: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.begin(name, parent, stmt);
        let out = f();
        self.end(id);
        (out, id)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Overlapping children (say, two layers timed on
/// separate threads) count their shared time once, and child time outside
/// the parent's interval is ignored.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    parent.dur_ns() - covered
}

/// Statements whose direct children's durations add up to more than the
/// statement span itself. Children are timed one after another, so this
/// must be zero; anything else means the clocks are inconsistent.
pub fn overfull_statements(spans: &[Span]) -> usize {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.parent.is_none() && child_sum[*i] > s.dur_ns())
        .count()
}

/// Write spans as JSON lines: one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"stmt\":{}}}",
            s.name, s.start_ns, s.end_ns, s.stmt
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            stmt: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(overfull_statements(&spans), 0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // a: 10..50, b: 30..60, c: 55..58 (inside b) → union 10..60 = 50.
        let spans = vec![
            span("stmt", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 55, 58, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        // The children's plain sum (73) fits in the 100 ns statement.
        assert_eq!(overfull_statements(&spans), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("stmt", 20, 80, None),
            span("early", 0, 30, Some(0)),
            span("late", 70, 120, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 40);
        // Grandchildren do not count against the root.
        let spans = vec![
            span("stmt", 0, 10, None),
            span("a", 0, 10, Some(0)),
            span("a.inner", 0, 10, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
        assert_eq!(overfull_statements(&spans), 0);
    }

    #[test]
    fn overfull_statement_is_flagged() {
        let spans = vec![
            span("stmt", 0, 10, None),
            span("a", 0, 8, Some(0)),
            span("b", 2, 9, Some(0)),
        ];
        assert_eq!(overfull_statements(&spans), 1);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("stmt", None, 7);
        let (v, child) = t.time("child", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans[child].parent, Some(root));
        assert!(t.spans[root].end_ns >= t.spans[child].end_ns);
        assert_eq!(overfull_statements(&t.spans), 0);
    }
}
