//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (name, start, end, parent). A span name is
//! `<layer>.<call>`; the layer is the part before the first dot. Nothing
//! is recorded while tracing is off: [`span`] then only calls its
//! closure, so the untraced runs measure the program alone.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One recorded span. Times are microseconds since tracing was enabled.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in µs.
    pub start_us: f64,
    /// End, in µs.
    pub end_us: f64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        counts: BTreeMap::new(),
    });
}

/// Whether tracing is on.
pub fn on() -> bool {
    TRACER.with(|t| t.borrow().on)
}

/// Turns tracing on or off. Turning it on clears what was recorded.
pub fn set(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        if on {
            t.t0 = Instant::now();
            t.spans.clear();
            t.stack.clear();
            t.counts.clear();
        }
    });
}

/// Runs `f` inside a span named `name` (a no-op wrapper when off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.spans.len();
        let start_us = t.t0.elapsed().as_secs_f64() * 1e6;
        let parent = t.stack.last().copied();
        t.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us: start_us,
        });
        t.stack.push(id);
        id
    });
    let r = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.t0.elapsed().as_secs_f64() * 1e6;
        t.spans[id].end_us = end;
        t.stack.pop();
    });
    r
}

/// Adds `v` to the counter `name` (a no-op when off).
pub fn count(name: &str, v: f64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            *t.counts.entry(name.to_string()).or_insert(0.0) += v;
        }
    });
}

/// The spans and counters recorded so far.
pub fn take() -> (Vec<Span>, BTreeMap<String, f64>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        (std::mem::take(&mut t.spans), std::mem::take(&mut t.counts))
    })
}

/// Cost of recording one empty span, in ns: the tracer's own share of
/// a traced pass is about `spans × span_ns`.
/// Call it with tracing off; it leaves tracing off and nothing recorded.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    set(true);
    let t = Instant::now();
    for _ in 0..N {
        span("trace.empty", || ());
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(N);
    set(false);
    take();
    ns
}

/// Per-name totals: calls, total µs and self µs (total minus the time
/// covered by direct children).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Totals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed self time, µs.
    pub self_us: f64,
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    spans
        .iter()
        .zip(&child_us)
        .map(|(s, c)| (s.dur_us() - c).max(0.0))
        .collect()
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.to_string()).or_default();
        e.calls += 1;
        e.total_us += s.dur_us();
        e.self_us += self_us;
    }
    out
}

/// Marks the spans named `root` and their descendants (every span when
/// `root` is `None`).
pub fn in_subtree(spans: &[Span], root: Option<&str>) -> Vec<bool> {
    // Parents precede children, so one forward sweep marks subtrees.
    let mut inside = vec![root.is_none(); spans.len()];
    for s in spans {
        inside[s.id] |= Some(s.name) == root || s.parent.is_some_and(|p| inside[p]);
    }
    inside
}

/// Self time per layer, µs, over the subtree of [`in_subtree`].
pub fn self_by_layer(spans: &[Span], root: Option<&str>) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let inside = in_subtree(spans, root);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for ((s, self_us), keep) in spans.iter().zip(selfs).zip(inside) {
        if keep {
            *out.entry(s.layer().to_string()).or_insert(0.0) += self_us;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "a.outer",
                start_us: 0.0,
                end_us: 10.0,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "b.inner",
                start_us: 2.0,
                end_us: 6.0,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "c.leaf",
                start_us: 3.0,
                end_us: 4.0,
            },
        ];
        assert_eq!(self_times(&spans), vec![6.0, 3.0, 1.0]);
        let layers = self_by_layer(&spans, None);
        assert_eq!(layers["a"], 6.0);
        assert_eq!(layers["b"], 3.0);
        let under = self_by_layer(&spans, Some("b.inner"));
        assert!(!under.contains_key("a"));
        assert_eq!(under["c"], 1.0);
    }

    #[test]
    fn off_records_nothing() {
        set(false);
        let v = span("x.y", || 7);
        count("x.n", 1.0);
        assert_eq!(v, 7);
        let (spans, counts) = take();
        assert!(spans.is_empty() && counts.is_empty());
    }
}
