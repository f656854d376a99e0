//! The metric catalogue and the per-run report.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric the benchmark can
//! emit, with its unit, its direction and the workloads that measure
//! it; the root `BENCHMARK.json` lists the same names (a test holds the
//! two together). An untraced run emits exactly the end-to-end metrics,
//! a traced run exactly the per-layer ones. A per-layer metric that the
//! running workload does not measure reads 0.
//!
//! Only speeds, times and sizes are metrics. [`FACTS`] lists the
//! numbers that describe a run's inputs, outputs or host instead —
//! simulated votes, in-network shares, cache size, clock drift. They
//! have no better side (a change in one is a change of behaviour or of
//! machine, not a gain or a loss), so they go to the result and trace
//! files and the printout, never to the result line.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full June-2006 reproduction at one seed.
    June2006,
    /// Eight small simulations as four supervised, checkpointed sweeps.
    SeedBand,
    /// Per-vote analytics over cascade-shaped stories on a 1M-user graph.
    Live1m,
}

impl Workload {
    /// Every workload, in `--all` order.
    pub const ALL: [Workload; 3] = [Workload::June2006, Workload::SeedBand, Workload::Live1m];

    /// The name used on the command line and in output files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::June2006 => "june2006",
            Workload::SeedBand => "seed_band",
            Workload::Live1m => "live_1m",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes).
    Lower,
    /// Larger values are better (rates, speed-ups).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark emits.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Workloads that measure it (the others report 0).
    pub workloads: &'static [Workload],
}

use Better::{Higher as H, Lower as Lo};
use Workload::{June2006 as J, Live1m as L, SeedBand as B};

const ALL: &[Workload] = &Workload::ALL;

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        workloads,
    }
}

/// What a user of the system sees; emitted by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", Lo, ALL),
    m("setup_s", "s", Lo, ALL),
    m("votes_per_s", "votes/s", H, ALL),
    m("peak_rss_mb", "MB", Lo, ALL),
];

/// Per-layer numbers; emitted by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    // Self time of every layer, and how much of the wall they cover.
    m("digg-sim.self_ms", "ms", Lo, &[J, B]),
    m("digg-data.self_ms", "ms", Lo, &[J]),
    m("social-graph.self_ms", "ms", Lo, &[L]),
    m("digg-core.self_ms", "ms", Lo, &[J, L]),
    m("digg-ml.self_ms", "ms", Lo, &[J]),
    m("digg-snapshot.self_ms", "ms", Lo, &[B]),
    m("bench.self_ms", "ms", Lo, &[B, L]),
    m("trace.wall_ms", "ms", Lo, ALL),
    // june2006: moves wall_s (repro) and votes_per_s.
    m("digg-sim.population_ms", "ms", Lo, &[J]),
    m("digg-sim.run_ms", "ms", Lo, &[J]),
    m("digg-data.scrape_ms", "ms", Lo, &[J]),
    m("digg-data.io_ms", "ms", Lo, &[J]),
    m("digg-data.json_bytes", "bytes", Lo, &[J]),
    m("digg-data.ingest_ms", "ms", Lo, &[J]),
    m("digg-core.figures_ms", "ms", Lo, &[J]),
    m("digg-core.intext_ms", "ms", Lo, &[J]),
    m("digg-core.prediction_ms", "ms", Lo, &[J]),
    m("digg-core.render_ms", "ms", Lo, &[J]),
    m("digg-ml.fig5_ms", "ms", Lo, &[J]),
    // seed_band: moves votes_per_s and setup_s.
    m("digg-sim.supervisor.sweep_ms", "ms", Lo, &[B]),
    m("digg-sim.supervisor.startup_ms", "ms", Lo, &[B]),
    m("digg-sim.supervisor.nockpt_sweep_ms", "ms", Lo, &[B]),
    m("digg-snapshot.overhead_ratio", "ratio", Lo, &[B]),
    m("digg-snapshot.encode_ms", "ms", Lo, &[B]),
    m("digg-snapshot.decode_ms", "ms", Lo, &[B]),
    m("digg-snapshot.bytes", "bytes", Lo, &[B]),
    // live_1m: setup_s is the graph build.
    m("social-graph.build_ms", "ms", Lo, &[L]),
    m("social-graph.build_edges_per_s", "edges/s", H, &[L]),
    m("social-graph.build_serial_ms", "ms", Lo, &[L]),
    m("social-graph.par_build_speedup", "ratio", H, &[L]),
    // live_1m, traced only: the graph as a mapped CSR, no end-to-end
    // metric.
    m("social-graph.gmap_write_ms", "ms", Lo, &[L]),
    m("social-graph.gmap_bytes", "bytes", Lo, &[L]),
    m("social-graph.gmap_open_ms", "ms", Lo, &[L]),
    m("social-graph.gmap_open_trusted_ms", "ms", Lo, &[L]),
    m("digg-core.sweep_map_ms", "ms", Lo, &[L]),
    m("social-graph.gmap_sweep_ratio", "ratio", Lo, &[L]),
    // live_1m: votes_per_s is the apply plus sweep rate.
    m("digg-core.sweep_ms", "ms", Lo, &[L]),
    m("digg-core.apply_ms", "ms", Lo, &[L]),
    m("digg-core.apply_max_ms", "ms", Lo, &[L]),
    m("des-core.par_speedup", "ratio", H, &[L]),
    m(
        "social-graph.membership_scalar_probes_per_s",
        "probes/s",
        H,
        &[L],
    ),
    m(
        "social-graph.membership_bitset_probes_per_s",
        "probes/s",
        H,
        &[L],
    ),
    // Input generation, excluded from every end-to-end metric.
    m("bench.edge_gen_ms", "ms", Lo, &[L]),
    m("bench.voter_gen_ms", "ms", Lo, &[L]),
];

/// Facts about the inputs, the outputs and the host, as `(name, unit)`.
pub const FACTS: &[(&str, &str)] = &[
    // Simulator output, fixed by the seed and the simulator's rules
    // (`june2006`; votes also `seed_band`).
    ("digg-sim.votes", "count"),
    ("digg-sim.events", "count"),
    // Input shape (`live_1m`): the share of votes cast by a fan of an
    // earlier voter, and of Fig. 5 verdicts that call a story
    // interesting.
    ("digg-core.in_network_frac", "ratio"),
    ("digg-ml.interesting_frac", "ratio"),
    // The host the numbers came from (every run).
    ("host.nproc", "count"),
    ("host.l3_kb", "kB"),
    ("host.mem_total_mb", "MB"),
    ("host.calib_before_mops", "Mops"),
    ("host.calib_after_mops", "Mops"),
    ("host.clock_drift", "ratio"),
    ("host.sustained", "bool"),
    // The share of the traced wall inside some layer's span (traced
    // runs).
    ("trace.coverage", "ratio"),
];

/// The catalogue entry of `name`, if any.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One output check.
#[derive(Debug, Clone, Serialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// A metric value with its unit, as printed in the result line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Value {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// A metric as written to the result file: its value, the number of
/// samples it summarises and, with enough samples, the tail on the
/// metric's worse side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The measured value: the median of the samples for a per-layer
    /// metric; for an end-to-end time their mean, for an end-to-end
    /// rate the total work over the total time.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// Samples behind the value; 0 for a metric the workload does not
    /// measure.
    pub samples: usize,
    /// The highest percentile, counted from the better side, with at
    /// least ten samples beyond it; `None` under 21 samples.
    pub tail: Option<Tail>,
}

/// A percentile of the samples, counted from the metric's better side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tail {
    /// The percentile, e.g. 90 for the tenth-worst of 100 samples.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
}

/// A recorded metric.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stat {
    value: f64,
    samples: usize,
    tail: Option<Tail>,
}

/// Metrics, facts and checks of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    stats: BTreeMap<&'static str, Stat>,
    facts: BTreeMap<&'static str, f64>,
    checks: Vec<Check>,
}

impl Report {
    /// Record a metric measured once.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue: every emitted metric must
    /// be listed in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.record(name, &[value]);
    }

    /// Record a metric as the median of `samples`, with their count and
    /// tail. Nothing is recorded for an empty slice.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue.
    pub fn record(&mut self, name: &'static str, samples: &[f64]) {
        self.record_value(name, median(samples), samples);
    }

    /// Record a metric whose value is summarised from `samples` by the
    /// caller (a mean, or a total over a total), with the samples' count
    /// and tail. Nothing is recorded for an empty slice.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue.
    pub fn record_value(&mut self, name: &'static str, value: f64, samples: &[f64]) {
        let better = def(name).map(|d| d.better);
        assert!(better.is_some(), "metric {name} is not in the catalogue");
        if samples.is_empty() {
            return;
        }
        let stat = Stat {
            value,
            samples: samples.len(),
            tail: better.and_then(|b| tail(samples, b)),
        };
        self.stats.insert(name, stat);
    }

    /// Record a fact.
    ///
    /// # Panics
    ///
    /// On a name missing from [`FACTS`].
    pub fn fact(&mut self, name: &'static str, value: f64) {
        assert!(
            FACTS.iter().any(|&(n, _)| n == name),
            "fact {name} is not in the catalogue"
        );
        self.facts.insert(name, value);
    }

    /// Every recorded fact with its unit, by name.
    pub fn facts(&self) -> BTreeMap<String, Value> {
        FACTS
            .iter()
            .filter_map(|&(name, unit)| {
                let value = *self.facts.get(name)?;
                let unit = unit.to_string();
                Some((name.to_string(), Value { value, unit }))
            })
            .collect()
    }

    /// Record an output check; a failure is also reported on stderr.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("[benchmark] CHECK FAILED: {name}");
        }
        self.checks.push(Check { name, ok });
    }

    /// Every check recorded so far.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Number of failed checks.
    pub fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    /// Metric names recorded so far (for the catalogue tests).
    #[cfg(test)]
    pub fn recorded(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.stats.keys().copied()
    }

    /// The summaries of `defs` by name; unmeasured ones read 0 from 0
    /// samples.
    pub fn summaries(&self, defs: &[MetricDef]) -> BTreeMap<String, Summary> {
        defs.iter()
            .map(|d| {
                let s = self.stats.get(d.name).copied().unwrap_or(Stat {
                    value: 0.0,
                    samples: 0,
                    tail: None,
                });
                let summary = Summary {
                    value: s.value,
                    unit: d.unit.to_string(),
                    samples: s.samples,
                    tail: s.tail,
                };
                (d.name.to_string(), summary)
            })
            .collect()
    }
}

/// The values and units of `summaries`, as the result line carries them.
pub fn values(summaries: &BTreeMap<String, Summary>) -> BTreeMap<String, Value> {
    summaries
        .iter()
        .map(|(name, s)| {
            let v = Value {
                value: s.value,
                unit: s.unit.clone(),
            };
            (name.clone(), v)
        })
        .collect()
}

/// `count` per second of `ms` milliseconds.
pub fn per_s(count: f64, ms: f64) -> f64 {
    count / (ms / 1e3).max(1e-9)
}

/// Milliseconds to seconds.
pub fn secs(ms: &[f64]) -> Vec<f64> {
    ms.iter().map(|ms| ms / 1e3).collect()
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `xs`, counted from the `better` side, that
/// has at least ten samples beyond it (nearest rank). Below 21 samples
/// that percentile is the median or lower, and `None` is returned.
pub fn tail(xs: &[f64], better: Better) -> Option<Tail> {
    let n = xs.len();
    if n < 21 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let rank = n - 10;
    let percentile = u32::try_from(100 * rank / n).unwrap_or(100);
    Some(Tail {
        percentile,
        value: v[rank - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let metrics: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &metrics {
            assert!(!d.workloads.is_empty(), "{} is measured nowhere", d.name);
        }
        let defs: Vec<(&str, &str)> = metrics
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(FACTS.iter().copied())
            .collect();
        let mut names: Vec<&str> = defs.iter().map(|d| d.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "duplicate name");
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        for (name, unit) in defs {
            assert!(name.len() <= 64 && ok(name, ""), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(unit.len() <= 16 && ok(unit, "/%"), "{unit}");
        }
    }

    #[test]
    fn median_and_mean_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_on_the_worse_side() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Times: the 90th-percentile sample, with 91..=100 beyond it.
        let t = tail(&xs, Better::Lower).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        // Rates: counted from the top, so the low end is the tail.
        let t = tail(&xs, Better::Higher).unwrap();
        assert_eq!((t.percentile, t.value), (90, 11.0));
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&xs, Better::Lower).unwrap().percentile, 66);
        assert_eq!(tail(&xs[..20], Better::Lower), None);
    }

    #[test]
    fn summaries_carry_counts_and_unmeasured_metrics_read_zero() {
        let mut r = Report::default();
        r.record("wall_s", &[1.5, 1.0, 2.0]);
        r.record_value("votes_per_s", 7.0, &[6.0, 8.0]);
        let s = r.summaries(END_TO_END);
        assert_eq!((s["wall_s"].value, s["wall_s"].samples), (1.5, 3));
        assert_eq!((s["votes_per_s"].value, s["votes_per_s"].samples), (7.0, 2));
        assert_eq!((s["setup_s"].value, s["setup_s"].samples), (0.0, 0));
        assert_eq!(s.len(), END_TO_END.len());
        assert_eq!(values(&s)["wall_s"].unit, "s");
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unlisted_metric_is_refused() {
        Report::default().set("made_up_ms", 1.0);
    }
}
