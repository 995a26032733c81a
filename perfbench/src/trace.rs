//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id shared by every span of one frame or request.  Spans are kept in
//! memory while a traced run measures and written out when it ends; a
//! layer's self time is its spans' durations minus the part of each
//! interval covered by child spans.  An untraced run holds a disabled
//! [`Tracer`], whose calls do nothing.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Boundary name, `layer.operation`.
    pub name: &'static str,
    /// The frame or request this span belongs to.
    pub id: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` until the span ends).
    pub end: u64,
}

/// Handle to an open span (an index into the tracer's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle a disabled tracer returns.
    pub const NONE: SpanId = SpanId(None);
}

/// Shared span recorder; cheap to clone across generator threads.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<(Instant, Mutex<Vec<Span>>)>>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            inner: on.then(|| Arc::new((Instant::now(), Mutex::new(Vec::new())))),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn ns(base: Instant, at: Instant) -> u64 {
        at.saturating_duration_since(base).as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(&self, name: &'static str, id: u64, parent: SpanId) -> SpanId {
        self.begin_at(name, id, parent, Instant::now())
    }

    /// Open a span that started at `at`.
    pub fn begin_at(&self, name: &'static str, id: u64, parent: SpanId, at: Instant) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let start = Self::ns(inner.0, at);
        let mut spans = inner
            .1
            .lock()
            .expect("span list poisoned by a panicking thread");
        spans.push(Span {
            name,
            id,
            parent: parent.0,
            start,
            end: start,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Close a span now.
    pub fn end(&self, span: SpanId) {
        self.end_at(span, Instant::now());
    }

    /// Close a span at `at`.
    pub fn end_at(&self, span: SpanId, at: Instant) {
        if let (Some(inner), Some(index)) = (&self.inner, span.0) {
            let end = Self::ns(inner.0, at);
            inner
                .1
                .lock()
                .expect("span list poisoned by a panicking thread")[index]
                .end = end;
        }
    }

    /// Record a finished span in one call.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = self.begin_at(name, id, parent, start);
        self.end_at(span, end);
        span
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner
                .1
                .lock()
                .expect("span list poisoned by a panicking thread")
                .clone(),
            None => Vec::new(),
        }
    }
}

/// Durations in ms of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect()
}

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if e > s {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for (s, e) in kids {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, seconds, with span counts.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += own as f64 / 1e9;
        entry.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("frame", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),  // overlaps a: union 10..50
            span("c", Some(0), 90, 120), // clipped to 90..100
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["frame"].1, 1);
        assert!((by_name["frame"].0 - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        let s = off.begin("x", 0, SpanId::NONE);
        off.end(s);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        let parent = on.begin("p", 3, SpanId::NONE);
        let child = on.begin("c", 3, parent);
        on.end(child);
        on.end(parent);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
