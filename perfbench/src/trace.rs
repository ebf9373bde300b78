//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans nest: a span opened while another is open on the same
//! [`Tracer`] becomes its child. A layer's self time is the time its
//! spans cover minus the part their direct children cover. Tracers of
//! worker threads are merged into the main one with [`Tracer::absorb`];
//! their spans stay roots, so per-layer self times on a parallel phase
//! are thread-seconds, not wall seconds.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layer name of the benchmark's own glue: the root span of every
/// traced phase. Its self time is the part of the traced wall time that
/// no layer span accounts for.
pub const GLUE: &str = "bench";

/// One recorded span, in seconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The layer the spanned call belongs to.
    pub layer: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose times count from `origin` (share one origin across
    /// the tracers of one phase so their spans can be merged).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start = self.origin.elapsed().as_secs_f64();
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Appends another tracer's spans; its root spans stay roots.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals over every span recorded so far.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        layer_totals(&self.spans)
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration();
        }
    }
    out
}

/// What one layer's spans add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: usize,
    /// Summed span durations, seconds (nested spans of one layer count
    /// twice; self time does not).
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Aggregates spans by layer.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.total_s += s.duration();
        t.self_s += own;
    }
    out
}

/// Share of the glue roots' time that layer spans account for:
/// `1 − Σ glue self time / Σ glue root duration`. 1.0 when nothing was
/// traced.
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (glue_self, glue_total) = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.layer == GLUE && s.parent.is_none())
        .fold((0.0, 0.0), |(a, b), (s, o)| (a + o, b + s.duration()));
    if glue_total > 0.0 {
        1.0 - glue_self / glue_total
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench [0, 10] ⊃ deploy [1, 9] ⊃ {lambda [2, 5], current [5, 8]}
        //                                   current ⊃ linalg [6, 7]
        let spans = [
            span(GLUE, 0.0, 10.0, None),
            span("deploy", 1.0, 9.0, Some(0)),
            span("lambda", 2.0, 5.0, Some(1)),
            span("current", 5.0, 8.0, Some(1)),
            span("linalg", 6.0, 7.0, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 2.0, 3.0, 2.0, 1.0]);
        // Self times partition the root: they add up to its duration.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
        let layers = layer_totals(&spans);
        assert_eq!(layers["current"].self_s, 2.0);
        assert_eq!(layers["current"].total_s, 3.0);
        assert_eq!(layers["linalg"].calls, 1);
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn same_layer_spans_accumulate_and_absorbed_roots_stay_roots() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        main.span(GLUE, |t| {
            t.span("assembly", |_| ());
            t.span("assembly", |t| t.span("linalg", |_| ()));
        });
        let mut worker = Tracer::new(origin);
        worker.span("explore", |t| t.span("current", |_| ()));
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[5].parent, Some(4));
        let layers = main.layers();
        assert_eq!(layers["assembly"].calls, 2);
        assert!(layers["assembly"].self_s <= layers["assembly"].total_s);
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!((0.0..=1.0).contains(&coverage(spans)));
    }

    #[test]
    fn coverage_without_glue_is_complete() {
        assert_eq!(coverage(&[span("lambda", 0.0, 1.0, None)]), 1.0);
    }
}
