//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, and the span that was open when it
//! began. The benchmark opens one around each public call it makes into
//! the system; nothing inside the system is instrumented. Spans stay in
//! memory until the run ends, then [`Tracer::write_tsv`] writes them out.
//! A disabled tracer records nothing and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span; `end_ns` is 0 while it is open.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The recorder. Single-threaded: the benchmark's own calls all run on
/// its main thread.
pub struct Tracer {
    origin: Option<Instant>,
    inner: RefCell<Spans>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Per-name aggregate of closed spans.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Duration of each span, ns, in recording order.
    pub total_ns: Vec<u64>,
    /// Self time of each span, ns: duration minus what its children cover.
    pub self_ns: Vec<u64>,
}

impl Tracer {
    /// A recorder that records (`true`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: enabled.then(Instant::now),
            inner: RefCell::new(Spans::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(&self, origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&self, name: &'static str) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId(None);
        };
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let id = inner.spans.len();
        let start_ns = self.now_ns(origin);
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        inner.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&self, span: SpanId) {
        let (Some(origin), Some(id)) = (self.origin, span.0) else {
            return;
        };
        let end_ns = self.now_ns(origin);
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        inner.spans[id].end_ns = end_ns.max(inner.spans[id].start_ns);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = f();
        self.end(id);
        result
    }

    /// Every span, in the order they were opened.
    fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Durations and self times of every closed span, grouped by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let open = self.inner.borrow().open.clone();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (id, (span, own)) in spans.iter().zip(self_ns).enumerate() {
            if open.contains(&id) {
                continue;
            }
            let entry = out.entry(span.name).or_default();
            entry.total_ns.push(span.end_ns - span.start_ns);
            entry.self_ns.push(own);
        }
        out
    }

    /// Writes every span as a tab-separated row: id, parent id (-1 for a
    /// root), name, start and end in ns since the tracer was made, self ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let own = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, own)) in spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{own}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            duration - covered((span.start_ns, span.end_ns), kids)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `window`.
fn covered(window: (u64, u64), intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = window.0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(window.1);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
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
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("op", 100, 200, None),
            span("x", 90, 130, Some(0)),
            span("y", 120, 150, Some(0)),
            span("z", 190, 260, Some(0)),
        ];
        // Covered: [100,150) from x and y, [190,200) from z.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_aggregates() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let stats = tracer.by_name();
        let outer = &stats["outer"];
        let inner = &stats["inner"];
        assert_eq!(outer.total_ns[0], outer.self_ns[0] + inner.total_ns[0]);
        assert!(inner.total_ns[0] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.begin("x");
        tracer.end(id);
        assert_eq!(tracer.span("y", || 7), 7);
        assert!(tracer.spans().is_empty());
        assert!(!tracer.enabled());
    }
}
