//! The benchmark's own tracer: spans recorded from *outside* the program,
//! around calls into each layer's public functions, kept in memory and
//! written out when the run ends.
//!
//! A span is `(name, start, end, parent, request)`. A layer's **self
//! time** is its span's duration minus the part of that interval its
//! child spans cover. The tracer is single-threaded by design (the traced
//! pass walks requests on one thread) and uses interior mutability so the
//! harness's own callbacks — a steering-policy closure, a wrapped
//! estimator — can record spans from inside a call into the program.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::measure::median;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

/// Records spans when enabled; a disabled tracer runs the same walk with
/// no recording, which is how the tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                request: 0,
            }),
        }
    }

    /// Sets the request identifier stamped on subsequent spans.
    pub fn set_request(&self, request: u64) {
        self.inner.borrow_mut().request = request;
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open. No borrow is held while `f` runs, so `f` may open spans.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut t = self.inner.borrow_mut();
            let id = t.spans.len() as u32;
            let parent = t.stack.last().copied();
            let request = t.request;
            t.stack.push(id);
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            t.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            id
        };
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut t = self.inner.borrow_mut();
        t.spans[id as usize].end_ns = end_ns;
        t.stack.pop();
        out
    }

    /// Renames the most recently closed span called `from` — for a call
    /// whose kind is only known after it returns (a commit that flushed).
    pub fn rename_last(&self, from: &'static str, to: &'static str) {
        let mut t = self.inner.borrow_mut();
        if let Some(s) = t.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Median duration of an empty span in ns: what the tracer's two clock
/// reads add to every per-call time it reports.
pub fn span_floor_ns() -> f64 {
    let tracer = Tracer::new(true);
    for _ in 0..10_000 {
        tracer.span("empty", || ());
    }
    LayerTable::new(&tracer.into_spans()).median_ns("empty")
}

/// Self time of every span: duration minus the part of its interval that
/// its direct children cover (children are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            own[p as usize] = own[p as usize].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// Per-name aggregates over a span set.
pub struct LayerTable {
    durations: BTreeMap<&'static str, Vec<f64>>,
    self_ns: BTreeMap<&'static str, u64>,
}

impl LayerTable {
    pub fn new(spans: &[Span]) -> Self {
        let own = self_times_ns(spans);
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, own) in spans.iter().zip(own) {
            durations
                .entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64);
            *self_ns.entry(s.name).or_default() += own;
        }
        Self { durations, self_ns }
    }

    /// Durations (ns) of the spans called `name`, in start order.
    pub fn durations_ns(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }

    /// Median duration per call in ns; 0 when the layer was never crossed.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |d| median(d))
    }

    /// Total self time under `name` in ns.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Total duration of all spans called `name` in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |d| d.iter().sum())
    }

    /// Self time of `name` as a share of the total duration of `root`
    /// spans (the request total).
    pub fn share_of(&self, name: &str, root: &str) -> f64 {
        let total = self.total_ns(root);
        if total == 0.0 {
            0.0
        } else {
            self.self_total_ns(name) as f64 / total
        }
    }
}

/// Spans written to a trace file at most; aggregates always use all spans.
pub const TRACE_FILE_SPAN_CAP: usize = 20_000;

/// The trace file: a header plus the first [`TRACE_FILE_SPAN_CAP`] spans.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let rows: Vec<Value> = spans
        .iter()
        .take(TRACE_FILE_SPAN_CAP)
        .enumerate()
        .map(|(id, s)| {
            let mut o = BTreeMap::new();
            o.insert("id".to_string(), Value::from(id as u64));
            o.insert("name".to_string(), Value::from(s.name));
            o.insert("start_ns".to_string(), Value::from(s.start_ns));
            o.insert("end_ns".to_string(), Value::from(s.end_ns));
            o.insert(
                "parent".to_string(),
                s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
            );
            o.insert("request".to_string(), Value::from(s.request));
            Value::Object(o)
        })
        .collect();
    let mut o = BTreeMap::new();
    o.insert("workload".to_string(), Value::from(workload));
    o.insert("seed".to_string(), Value::from(seed));
    o.insert("spans_total".to_string(), Value::from(spans.len() as u64));
    o.insert("spans".to_string(), Value::Array(rows));
    Value::Object(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children_without_double_counting() {
        // request [0,100) ─ plan [10,40) ─ cost [20,30)
        //                 └ exec [50,90)
        let spans = vec![
            span("request", 0, 100, None),
            span("plan", 10, 40, Some(0)),
            span("cost", 20, 30, Some(1)),
            span("exec", 50, 90, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // The grandchild is subtracted from its parent only, never from
        // the root as well.
        assert_eq!(own, vec![30, 20, 10, 40]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
        let t = LayerTable::new(&spans);
        assert!((t.share_of("exec", "request") - 0.4).abs() < 1e-12);
        assert_eq!(t.calls("plan"), 1);
        assert_eq!(t.median_ns("missing"), 0.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span("parent", 10, 20, None), span("child", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_through_reentrant_closures() {
        let t = Tracer::new(true);
        t.set_request(7);
        let v = t.span("outer", || t.span("inner", || 1) + t.span("inner", || 2));
        assert_eq!(v, 3);
        t.rename_last("inner", "inner_b");
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].name, spans[2].name), ("inner", "inner_b"));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.into_spans().is_empty());
    }
}
