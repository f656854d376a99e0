//! Spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into a workspace crate goes through
//! [`Trace::span`] (or [`Trace::open`]/[`Trace::close`] when the call
//! has children), which returns the call's wall time in milliseconds.
//! Untraced runs use that number and keep nothing; traced runs also
//! keep each span — name, layer, parent, start, end — in memory and
//! write them out when the workload ends. Time comes from
//! [`digg_bench::timing`], the workspace's single wall-clock access
//! point.

use digg_bench::timing::{stopwatch, Stopwatch};
use serde::Serialize;
use std::collections::BTreeMap;

/// The layer of grouping spans (the workload, a pass): their self time
/// is harness glue between calls that no layer span covers.
pub const ROOT: &str = "workload";
/// `digg-sim`: population, `Sim`, the supervised sweep.
pub const SIM: &str = "digg-sim";
/// `digg-data`: scrape, JSON io, ingest.
pub const DATA: &str = "digg-data";
/// `social-graph`: CSR build, mapped snapshot, membership probes.
pub const GRAPH: &str = "social-graph";
/// `digg-core`: story sweeps, incremental analytics, figures.
pub const CORE: &str = "digg-core";
/// `digg-ml`: C4.5 and cross-validation.
pub const ML: &str = "digg-ml";
/// `digg-snapshot`: snapshot encode and decode.
pub const SNAPSHOT: &str = "digg-snapshot";
/// The benchmark itself: input generation and output checks.
pub const BENCH: &str = "bench";

/// Every layer with its self-time metric.
pub const LAYERS: [(&str, &str); 7] = [
    (SIM, "digg-sim.self_ms"),
    (DATA, "digg-data.self_ms"),
    (GRAPH, "social-graph.self_ms"),
    (CORE, "digg-core.self_ms"),
    (ML, "digg-ml.self_ms"),
    (SNAPSHOT, "digg-snapshot.self_ms"),
    (BENCH, "bench.self_ms"),
];

/// One recorded span. Times are milliseconds since the trace began.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The crate (layer) the call went into, or [`ROOT`].
    pub layer: &'static str,
    /// Index of the enclosing span in the span list.
    pub parent: Option<usize>,
    /// Start, ms since the trace began.
    pub start_ms: f64,
    /// End, ms since the trace began.
    pub end_ms: f64,
}

impl Span {
    fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A span that has been opened and not yet closed.
#[must_use = "an open span must be closed"]
pub struct Open {
    index: Option<usize>,
    start_ms: f64,
}

/// The span recorder. Disabled recorders time calls but keep nothing.
pub struct Trace {
    enabled: bool,
    origin: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Trace {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: stopwatch(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are kept (the `--trace` run).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a span of `layer`; spans opened before it closes are its
    /// children.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Open {
        let start_ms = self.origin.elapsed_ms();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                layer,
                parent: self.stack.last().copied(),
                start_ms,
                end_ms: start_ms,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start_ms }
    }

    /// End a span; returns its duration in ms.
    pub fn close(&mut self, open: Open) -> f64 {
        let end_ms = self.origin.elapsed_ms();
        if let Some(i) = open.index {
            self.spans[i].end_ms = end_ms;
            self.stack.retain(|&s| s != i);
        }
        end_ms - open.start_ms
    }

    /// Run `f` as a childless span of `layer`; returns its result and
    /// its duration in ms.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(layer, name);
        let out = f();
        (out, self.close(open))
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part covered by its
/// children. Children never overlap (the benchmark calls one layer at
/// a time from one thread), so the children's durations are summed.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ms();
        }
    }
    own
}

/// Self time summed per layer, [`ROOT`] included.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += own;
    }
    out
}

/// Total wall time of the top-level spans (the traced workload wall).
pub fn wall_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ms)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: &'static str, parent: Option<usize>, t: (f64, f64)) -> Span {
        Span {
            name,
            layer,
            parent,
            start_ms: t.0,
            end_ms: t.1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", ROOT, None, (0.0, 100.0)),
            span("run", "digg-sim", Some(0), (5.0, 65.0)),
            span("snapshot", "digg-snapshot", Some(1), (10.0, 30.0)),
            span("scrape", "digg-data", Some(0), (70.0, 90.0)),
        ];
        assert_eq!(self_times(&spans), vec![20.0, 40.0, 20.0, 20.0]);
        let layers = layer_self_ms(&spans);
        assert_eq!(layers[ROOT], 20.0);
        assert_eq!(layers["digg-sim"], 40.0);
        assert_eq!(layers["digg-snapshot"], 20.0);
        assert_eq!(layers["digg-data"], 20.0);
        // Self times partition the wall exactly.
        assert_eq!(layers.values().sum::<f64>(), wall_ms(&spans));
    }

    #[test]
    fn disabled_trace_times_calls_but_keeps_nothing() {
        let mut t = Trace::new(false);
        let (v, ms) = t.span("digg-core", "work", || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_trace_links_children_to_the_open_span() {
        let mut t = Trace::new(true);
        let root = t.open(ROOT, "root");
        t.span("social-graph", "build", || ());
        let inner = t.open("digg-core", "sweep");
        t.span("digg-core", "batch", || ());
        t.close(inner);
        t.close(root);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans().iter().all(|s| s.end_ms >= s.start_ms));
    }
}
