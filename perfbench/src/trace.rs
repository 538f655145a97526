//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public API, timed from the benchmark's
//! own code: name (`<layer>.<call>`), start, end, the span that caused it, and
//! the thread it ran on. Spans stay in memory and are written out when the
//! benchmark ends. With tracing off, [`Tracer::span`] returns an inert guard
//! and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

static THREAD_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
}

/// Span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Guard of an open span; the span ends when the guard drops.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<(u64, Option<u64>, &'static str, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, open: None };
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        self.open(name, parent)
    }

    /// Opens a span with an explicit parent: a pool worker's span is caused
    /// by the span that fanned the work out, on another thread.
    pub fn child_of(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, open: None };
        }
        self.open(name, parent)
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard { tracer: self, open: Some((id, parent, name, self.now_ns())) }
    }

    /// The innermost open span of this thread, to hand to pool workers.
    pub fn current(&self) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Records a span measured elsewhere (a timed loop inside a probe).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let base = self.epoch;
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current(),
            name,
            start_ns: start.saturating_duration_since(base).as_nanos() as u64,
            end_ns: end.saturating_duration_since(base).as_nanos() as u64,
            thread: THREAD_ID.with(|t| *t),
        };
        self.spans.lock().expect("span list poisoned by a panicking thread").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panicking thread").clone()
    }

    /// Durations in nanoseconds of every span with this name, in end order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                stack.remove(pos);
            }
        });
        let span = Span { id, parent, name, start_ns, end_ns, thread: THREAD_ID.with(|t| *t) };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-layer totals: span count, summed duration and summed self time (a
/// span's duration minus the part of its interval its children cover).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub spans: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per layer. Children running in parallel on pool threads may
/// overlap; their coverage is the union of their intervals, clipped to the
/// parent's.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.layer()).or_default();
        entry.spans += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Renders spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"thread\": {}}}{}\n",
            s.id,
            parent,
            s.name,
            s.start_ns,
            s.end_ns,
            s.thread,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end, thread: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children [10, 40) and [30, 60) cover 50 of the
        // parent's 100; a child outside the parent is clipped away.
        let spans = vec![
            span(1, None, "engine.pool", 0, 100),
            span(2, Some(1), "engine.run", 10, 40),
            span(3, Some(1), "engine.run", 30, 60),
            span(4, Some(1), "routes.entry", 150, 160),
        ];
        let times = layer_times(&spans);
        let engine = times["engine"];
        assert_eq!(engine.spans, 3);
        assert_eq!(engine.total_ns, 100 + 30 + 30);
        assert_eq!(engine.self_ns, 50 + 30 + 30);
        assert_eq!(times["routes"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _s = tracer.span("engine.run");
        }
        tracer.record("event.hold", Instant::now(), Instant::now());
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.current(), None);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("campaign.run");
            let _inner = tracer.span("scenario.build");
        }
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "campaign.run").unwrap();
        let inner = spans.iter().find(|s| s.name == "scenario.build").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
    }
}
