//! Spans and counters for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! They stay in memory and are written out once, when the run ends.

use rock_core::similarity::Similarity;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer (or root operation) name, e.g. `neighbors` or `fit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root operation.
    pub parent: Option<usize>,
    /// The request, fit or batch this span belongs to.
    pub request: u64,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. Nested calls build the span tree.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval covered by its direct children.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = union_within(kids, s.start_ns, s.end_ns);
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A similarity measure that counts its evaluations, and those at or
/// above `theta`, with relaxed atomics (the counts publish no other data).
///
/// The traced run wraps the measure in this instead of reading
/// `perf::sim_evals`, which only the parallel kernels bump.
pub struct CountingSimilarity<S> {
    inner: S,
    theta: f64,
    evals: AtomicU64,
    hits: AtomicU64,
}

impl<S> CountingSimilarity<S> {
    /// Wraps `inner`, counting hits against `theta`.
    pub fn new(inner: S, theta: f64) -> Self {
        CountingSimilarity {
            inner,
            theta,
            evals: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The `(evaluations, hits)` counted since the last call, resetting both.
    pub fn take(&self) -> (u64, u64) {
        (
            self.evals.swap(0, Ordering::Relaxed),
            self.hits.swap(0, Ordering::Relaxed),
        )
    }
}

impl<P, S: Similarity<P>> Similarity<P> for CountingSimilarity<S> {
    fn similarity(&self, a: &P, b: &P) -> f64 {
        let s = self.inner.similarity(a, b);
        self.evals.fetch_add(1, Ordering::Relaxed);
        if s >= self.theta {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        s
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // fit [0, 100] holds a [10, 40] and b [30, 60] (overlapping) and
        // c [90, 120] (runs past its parent); a holds a grandchild.
        let spans = vec![
            span("fit", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("g", 15, 25, Some(1)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let s = self_seconds(&spans);
        let ns = |name| (s[name] * 1e9).round() as u64;
        // Children cover [10, 60] and [90, 100] of the fit: 60 ns.
        assert_eq!(ns("fit"), 40);
        assert_eq!(ns("a"), 20);
        assert_eq!(ns("g"), 10);
        assert_eq!(ns("b"), 30);
        assert_eq!(ns("c"), 30);
    }

    #[test]
    fn self_time_sums_over_spans_of_one_name() {
        let spans = vec![
            span("request", 0, 10, None),
            span("serve", 2, 9, Some(0)),
            span("request", 10, 30, None),
            span("serve", 12, 29, Some(2)),
        ];
        let s = self_seconds(&spans);
        assert_eq!((s["request"] * 1e9).round() as u64, 6);
        assert_eq!((s["serve"] * 1e9).round() as u64, 24);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        t.span("fit", 7, |t| {
            t.span("neighbors", 7, |_| ());
            t.span("labeling", 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn counting_similarity_counts_evals_and_hits() {
        struct Half;
        impl Similarity<u8> for Half {
            fn similarity(&self, a: &u8, b: &u8) -> f64 {
                if a == b {
                    1.0
                } else {
                    0.25
                }
            }
        }
        let c = CountingSimilarity::new(Half, 0.5);
        assert_eq!(c.similarity(&1, &1), 1.0);
        assert_eq!(c.similarity(&1, &2), 0.25);
        assert_eq!(c.take(), (2, 1));
        assert_eq!(c.take(), (0, 0));
    }
}
