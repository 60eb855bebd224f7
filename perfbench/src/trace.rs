//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public API, made from the
//! benchmark's own code: it has a name, a start, an end, the span that
//! caused it and the workload it belongs to. Spans live in memory while
//! the run measures and are written out once, when it ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover (children on worker threads may overlap each
//! other, so the covered part is the union of their intervals).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub workload: &'static str,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads. A span's id is fixed when
/// it opens, so children (opened later) always carry a larger id than
/// their parent.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// pass as the parent of nested spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span store lock poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                workload: self.workload,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store lock poisoned")[id].end_ns = end_ns;
        out
    }

    /// The spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock poisoned").clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// For every root span named `root`, `values` (one per span) summed per
/// span name over that root's whole subtree, the root itself included.
pub fn sum_by_root(spans: &[Span], root: &str, values: &[u64]) -> Vec<BTreeMap<&'static str, u64>> {
    let mut root_of: Vec<SpanId> = Vec::with_capacity(spans.len());
    for (id, span) in spans.iter().enumerate() {
        let r = match span.parent {
            Some(parent) => root_of[parent],
            None => id,
        };
        root_of.push(r);
    }
    let mut slot: BTreeMap<SpanId, usize> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if span.parent.is_none() && span.name == root {
            slot.insert(id, slot.len());
        }
    }
    let mut out: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); slot.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(&i) = slot.get(&root_of[id]) {
            *out[i].entry(span.name).or_insert(0) += values[id];
        }
    }
    out
}

/// Every span's whole duration.
pub fn durations(spans: &[Span]) -> Vec<u64> {
    spans.iter().map(Span::duration_ns).collect()
}

/// Writes the spans as JSON lines (id, name, start, end, parent, self
/// time, workload) and returns any I/O error.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns},\"workload\":\"{}\"}}",
            span.name, span.start_ns, span.end_ns, span.workload
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "test",
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children [1,3] and [2,5] overlap (two worker threads): they
        // cover [1,5], not 5 ns. With [7,8] the parent's self time is
        // 10 - (4 + 1) = 5.
        let spans = vec![
            span("op", 0, 10, None),
            span("a", 1, 3, Some(0)),
            span("b", 2, 5, Some(0)),
            span("c", 7, 8, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![5, 2, 3, 1]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn nested_children_count_only_against_their_parent() {
        let spans = vec![
            span("op", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("inner", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_sums_per_root_and_name() {
        let spans = vec![
            span("pass", 0, 10, None),
            span("sim.run", 0, 4, Some(0)),
            span("sim.run", 5, 7, Some(0)),
            span("setup", 10, 12, None),
            span("pass", 20, 30, None),
            span("sim.run", 21, 22, Some(4)),
        ];
        let by_root = sum_by_root(&spans, "pass", &self_times(&spans));
        assert_eq!(by_root.len(), 2);
        assert_eq!(by_root[0]["sim.run"], 6);
        assert_eq!(by_root[0]["pass"], 4);
        assert_eq!(by_root[1]["sim.run"], 1);
        let totals = sum_by_root(&spans, "pass", &durations(&spans));
        assert_eq!(totals[0]["pass"], 10);
        assert_eq!(totals[0]["sim.run"], 6);
    }

    #[test]
    fn tracer_records_parents_across_threads() {
        let tracer = Tracer::new("test");
        tracer.span("root", None, |root| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| tracer.span("child", Some(root), |_| ()));
                }
            });
        });
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
