//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans stay in memory during the run and are written out at the end as
//! a Chrome trace. With tracing off, [`Tracer::open`] and
//! [`Tracer::close`] do nothing but a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job (or request batch) the span belongs to.
    pub job: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, job: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied(), job });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id` and any span still open inside it (left open when a
    /// panic unwound past its `close`).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                sp.name,
                sp.start as f64 / 1e3,
                (sp.end - sp.start) as f64 / 1e3,
                sp.job
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Self time per span name: each span's duration minus the part covered
/// by its direct children, summed over every span of that name, with the
/// number of spans. Children of one span never overlap (the benchmark
/// makes its calls one after another), so covered time is their sum.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += (s.end - s.start).saturating_sub(child_ns[i]);
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, job: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", 0, 100, None),
            span("run", 10, 40, Some(0)),
            span("inner", 15, 35, Some(1)),
            span("run", 50, 70, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], (50, 1));
        assert_eq!(t["run"], (10 + 20, 2));
        assert_eq!(t["inner"], (20, 1));
    }

    #[test]
    fn close_unwinds_spans_left_open() {
        let mut tr = Tracer::new(true);
        let job = tr.open("job", 3);
        let _leaked = tr.open("run", 3);
        tr.close(job);
        assert!(tr.open.is_empty());
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].job, 3);
        let next = tr.open("job", 4);
        assert_eq!(tr.spans()[2].parent, None);
        tr.close(next);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("job", 0);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }
}
