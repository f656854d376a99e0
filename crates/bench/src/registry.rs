//! Experiment registry: one [`ExperimentSpec`] per paper artifact,
//! mapping a stable name to a [`Runner`] so the one `experiments`
//! dispatcher runs any of them by name. A runner is either
//! [`Runner::Synth`] (consumes the shared June-2006 synthesis, built
//! lazily on first use) or [`Runner::Standalone`] (self-contained, fed
//! only the seed — the scenario-sweep experiments).
//!
//! Every run is timed; [`write_bench_summary`] persists wall-time and
//! throughput (in the experiment's own unit) per experiment (plus any seed-baseline comparisons from
//! [`crate::baseline`]) into `bench_summary.json`.

use crate::timing::stopwatch;
use crate::{emit, seed_from_env, shared_synthesis};
use digg_core::experiments::{decay, fig1, fig2, fig3, fig4, fig5, intext, prediction, scatter};
use digg_core::features::INTERESTINGNESS_THRESHOLD;
use digg_core::pipeline::PipelineConfig;
use digg_core::predictor::InterestingnessPredictor;
use digg_data::synth::Synthesis;
use digg_ml::c45::C45Params;
use digg_sim::scenario::PROMOTION_THRESHOLD;
use serde::{Serialize, Value};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One emitted result: the rendering that goes to stdout/`<name>.txt`
/// and the serialized payload that goes to `<name>.json`.
pub struct Artifact {
    /// File stem under `DIGG_RESULTS_DIR`.
    pub name: String,
    /// Human-readable rendering.
    pub rendered: String,
    /// Serialized payload.
    pub payload: Value,
    /// Whether the result passes its own validity checks (e.g. the
    /// in-text statistics report no structural violations). A false
    /// flag makes the dispatcher exit non-zero.
    pub ok: bool,
}

impl Artifact {
    /// A passing artifact.
    pub fn new<T: Serialize>(name: &str, rendered: String, payload: &T) -> Artifact {
        Artifact {
            name: name.to_string(),
            rendered,
            payload: payload.to_value(),
            ok: true,
        }
    }

    /// Override the validity flag.
    pub fn with_ok(mut self, ok: bool) -> Artifact {
        self.ok = ok;
        self
    }
}

/// How an experiment runs: against the shared June-2006 synthesis, or
/// standalone from just a seed.
///
/// The split is what makes dispatch *lazy*: the multi-day synthesis is
/// built only when a selected experiment actually needs it, so
/// `experiments --list` and the standalone sweep experiments never pay
/// for it.
pub enum Runner {
    /// Runs on the shared synthesis.
    Synth {
        /// Input size used for the throughput rate: stories for the
        /// story-level analyses, users for the scatter figure.
        stories: fn(&Synthesis) -> usize,
        /// Produce the artifacts.
        run: fn(&Synthesis) -> Vec<Artifact>,
    },
    /// Self-contained: receives the run seed, returns artifacts plus
    /// the number of work units executed.
    Standalone {
        /// Produce the artifacts and the unit count.
        run: fn(u64) -> (Vec<Artifact>, usize),
    },
}

/// A named experiment: how to run it and how big its input is.
pub struct ExperimentSpec {
    /// Stable name (`experiments <name>`).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// What the runner's input size counts (`"stories"`, `"users"`,
    /// `"scenarios"`), recorded beside its throughput.
    pub unit: &'static str,
    /// How to run it.
    pub runner: Runner,
}

/// Wall-time record of one experiment run.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// Experiment name.
    pub experiment: String,
    /// Wall time of the runner in milliseconds.
    pub wall_ms: f64,
    /// Input size in `unit`s.
    pub stories: usize,
    /// What `stories` counts (the experiment's [`ExperimentSpec::unit`]).
    pub unit: &'static str,
    /// Throughput in `unit`s per second.
    pub stories_per_sec: f64,
}

/// One scale-trajectory row of `bench_summary.json`: the throughput of
/// a substrate operation at a stated graph size — the numbers that
/// track progress toward the ROADMAP's millions-of-users target.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRecord {
    /// Operation name (e.g. `graph_build_parallel`, `story_sweeps`).
    pub name: String,
    /// Users in the graph the operation ran against.
    pub users: usize,
    /// Edges in that graph.
    pub edges: usize,
    /// Wall time of the operation in milliseconds.
    pub wall_ms: f64,
    /// Throughput in `unit`s per second.
    pub per_sec: f64,
    /// What `per_sec` counts: `"edges"` or `"votes"`.
    pub unit: &'static str,
    /// Speedup over the serial implementation of the same operation,
    /// when one exists.
    pub speedup_vs_serial: Option<f64>,
}

static RUNS: Mutex<Vec<RunRecord>> = Mutex::new(Vec::new());
static BASELINES: Mutex<Vec<crate::baseline::BaselineRecord>> = Mutex::new(Vec::new());
static SCALE: Mutex<Vec<ScaleRecord>> = Mutex::new(Vec::new());
static DEGRADATION: Mutex<Vec<crate::degradation::DegradationRecord>> = Mutex::new(Vec::new());

/// Lock one of the summary accumulators, recovering from poisoning:
/// the rows are append-only `Vec`s, so a panic mid-`extend` at worst
/// loses that panicking run's rows — the summary of every *other* run
/// is still worth writing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Store seed-baseline comparison rows for the next
/// [`write_bench_summary`].
pub fn record_baselines(rows: Vec<crate::baseline::BaselineRecord>) {
    lock(&BASELINES).extend(rows);
}

/// Store scale-trajectory rows for the next [`write_bench_summary`].
pub fn record_scale(rows: Vec<ScaleRecord>) {
    lock(&SCALE).extend(rows);
}

/// Store predictor-decay rows for the next [`write_bench_summary`].
pub fn record_degradation(rows: Vec<crate::degradation::DegradationRecord>) {
    lock(&DEGRADATION).extend(rows);
}

fn fp(s: &Synthesis) -> usize {
    s.dataset.front_page.len()
}

fn all_records(s: &Synthesis) -> usize {
    s.dataset.front_page.len() + s.dataset.upcoming.len()
}

fn sim_stories(s: &Synthesis) -> usize {
    s.sim.stories().len()
}

fn run_fig1(s: &Synthesis) -> Vec<Artifact> {
    let result = fig1::run(&s.sim, &fig1::Fig1Params::default());
    let mut rendered = result.render();
    let accel = result
        .curves
        .iter()
        .filter(|c| result.promotion_accelerates(c))
        .count();
    rendered.push_str(&format!(
        "promotion accelerates voting on {accel}/{} sampled stories\n",
        result.curves.len()
    ));
    if let Some(f) = result.mean_first_day_fraction() {
        rendered.push_str(&format!(
            "mean fraction of final votes within one day of promotion: {f:.2} (Wu-Huberman: interest decays with ~1-day half-life)\n"
        ));
    }
    vec![Artifact::new("fig1", rendered, &result)]
}

fn run_fig2(s: &Synthesis) -> Vec<Artifact> {
    let ds = &s.dataset;
    let a = fig2::run_a(ds, 16, 4000.0);
    // The paper's Fig 2b counts activity within its scraped sample;
    // the lifetime supplement covers the whole simulated history (the
    // scale on which the paper's all-time Top Users list was built).
    let b = fig2::run_b(ds);
    let bl = fig2::run_b_sim(&s.sim);
    vec![
        Artifact::new("fig2a", a.render(), &a),
        Artifact::new("fig2b", b.render(), &b),
        Artifact::new("fig2b_lifetime", bl.render(), &bl),
    ]
}

fn run_fig3(s: &Synthesis) -> Vec<Artifact> {
    let ds = &s.dataset;
    let a = fig3::run_a(ds);
    let b = fig3::run_b(ds);
    vec![
        Artifact::new("fig3a", a.render(), &a),
        Artifact::new("fig3b", b.render(), &b),
    ]
}

fn run_fig4(s: &Synthesis) -> Vec<Artifact> {
    let result = fig4::run(&s.dataset);
    vec![Artifact::new("fig4", result.render(), &result)]
}

fn run_fig5(s: &Synthesis) -> Vec<Artifact> {
    let ds = &s.dataset;
    let Some(result) = fig5::run(ds, &C45Params::default(), 0x1e12) else {
        eprintln!("fig5: no trainable stories in the dataset");
        return vec![];
    };
    // Also write the tree as Graphviz DOT when persisting.
    if let (Ok(dir), Some(p)) = (
        std::env::var("DIGG_RESULTS_DIR"),
        InterestingnessPredictor::train(
            &ds.front_page,
            &ds.network,
            INTERESTINGNESS_THRESHOLD,
            &C45Params::default(),
        ),
    ) {
        let path = std::path::Path::new(&dir).join("fig5.dot");
        if crate::write_atomic(&path, p.tree().to_dot().as_bytes()).is_ok() {
            eprintln!("[digg-bench] wrote {}", path.display());
        }
    }
    vec![Artifact::new("fig5", result.render(), &result)]
}

fn run_prediction(s: &Synthesis) -> Vec<Artifact> {
    let Some(result) = prediction::run(s, &PipelineConfig::default()) else {
        eprintln!("prediction: empty training sample or holdout");
        return vec![];
    };
    let mut rendered = result.render();
    if let Some(beats) = result.classifier_beats_digg() {
        rendered.push_str(&format!(
            "classifier precision beats the promoter: {beats} (paper: yes, 0.57 vs 0.36)\n"
        ));
    }
    vec![Artifact::new("prediction", rendered, &result)]
}

fn run_scatter(s: &Synthesis) -> Vec<Artifact> {
    let result = scatter::run(&s.dataset, 100);
    let mut rendered = result.render();
    rendered.push_str(&format!(
        "top users dominate the fan axis: {}\n",
        result.top_users_dominate()
    ));
    vec![Artifact::new("scatter", rendered, &result)]
}

fn run_intext(s: &Synthesis) -> Vec<Artifact> {
    let result = intext::run(s, PROMOTION_THRESHOLD);
    let ok = result.violations.is_empty();
    vec![Artifact::new("intext", result.render(), &result).with_ok(ok)]
}

fn run_decay(s: &Synthesis) -> Vec<Artifact> {
    let result = decay::run(&s.sim, 2 * digg_sim::time::DAY, 72);
    vec![Artifact::new("decay", result.render(), &result)]
}

/// Every experiment, in report order.
pub static REGISTRY: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "fig1",
        about: "vote time series of sampled front-page stories",
        unit: "stories",
        runner: Runner::Synth {
            stories: sim_stories,
            run: run_fig1,
        },
    },
    ExperimentSpec {
        name: "fig2",
        about: "final-vote histogram and per-user activity distributions",
        unit: "stories",
        runner: Runner::Synth {
            stories: all_records,
            run: run_fig2,
        },
    },
    ExperimentSpec {
        name: "fig3",
        about: "story influence and cascade-size histograms",
        unit: "stories",
        runner: Runner::Synth {
            stories: fp,
            run: run_fig3,
        },
    },
    ExperimentSpec {
        name: "fig4",
        about: "final votes vs early in-network votes (inverse relationship)",
        unit: "stories",
        runner: Runner::Synth {
            stories: fp,
            run: run_fig4,
        },
    },
    ExperimentSpec {
        name: "fig5",
        about: "C4.5 interestingness tree and cross-validation",
        unit: "stories",
        runner: Runner::Synth {
            stories: fp,
            run: run_fig5,
        },
    },
    ExperimentSpec {
        name: "prediction",
        about: "upcoming-queue holdout precision vs the promoter",
        unit: "stories",
        runner: Runner::Synth {
            stories: all_records,
            run: run_prediction,
        },
    },
    ExperimentSpec {
        name: "scatter",
        about: "friends vs fans scatter with top users highlighted",
        unit: "users",
        runner: Runner::Synth {
            stories: |s| s.dataset.network.user_count(),
            run: run_scatter,
        },
    },
    ExperimentSpec {
        name: "intext",
        about: "section-3 in-text statistics and dataset invariants",
        unit: "stories",
        runner: Runner::Synth {
            stories: sim_stories,
            run: run_intext,
        },
    },
    ExperimentSpec {
        name: "decay",
        about: "post-promotion interest decay (Wu-Huberman half-life)",
        unit: "stories",
        runner: Runner::Synth {
            stories: sim_stories,
            run: run_decay,
        },
    },
    ExperimentSpec {
        name: "sim_sweep",
        about: "parallel (config, seed) simulator sweep, rows checked against an in-process run",
        unit: "scenarios",
        runner: Runner::Standalone {
            run: crate::sweeps::run_sim_sweep,
        },
    },
    ExperimentSpec {
        name: "graph_scale",
        about: "million-user CSR build (serial vs sharded) + degree metrics + sweep batch",
        unit: "stories",
        runner: Runner::Standalone {
            run: crate::scale::run_graph_scale,
        },
    },
    ExperimentSpec {
        name: "incr_sweep",
        about: "per-vote incremental analytics vs batch re-sweep (speedup + checkpoint equality)",
        unit: "stories",
        runner: Runner::Standalone {
            run: crate::incr::run_incr_sweep,
        },
    },
    ExperimentSpec {
        name: "mmap_sweep",
        about: "mmap-backed CSR snapshot: O(1) load, bit-identity vs in-memory, out-of-core sweeps",
        unit: "stories",
        runner: Runner::Standalone {
            run: crate::mmap::run_mmap_sweep,
        },
    },
    ExperimentSpec {
        name: "degradation_sweep",
        about: "predictor precision/recall decay vs injected scrape-fault rates",
        unit: "scenarios",
        runner: Runner::Standalone {
            run: crate::degradation::run_degradation_sweep,
        },
    },
    ExperimentSpec {
        name: "chaos_sweep",
        about: "full chaos-matrix drill: stalls, corrupt frames, torn checkpoints — recovered rows byte-identical, lenient degradation, snapshot scale",
        unit: "scenarios",
        runner: Runner::Standalone {
            run: crate::chaos::run_chaos_sweep,
        },
    },
];

/// Look up an experiment by name.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Run one experiment: time the runner, emit every artifact, record a
/// [`RunRecord`]. Returns whether all artifacts passed.
///
/// The shared synthesis is built lazily: standalone experiments (and
/// `--list`, which never gets here) do not trigger it.
pub fn run_spec(spec: &ExperimentSpec) -> bool {
    let t0 = stopwatch();
    let (artifacts, stories) = match spec.runner {
        Runner::Synth { stories, run } => {
            let synthesis = shared_synthesis();
            (run(synthesis), stories(synthesis))
        }
        Runner::Standalone { run } => run(seed_from_env()),
    };
    let wall = t0.elapsed();
    lock(&RUNS).push(RunRecord {
        experiment: spec.name.to_string(),
        wall_ms: wall.as_secs_f64() * 1e3,
        stories,
        unit: spec.unit,
        stories_per_sec: stories as f64 / wall.as_secs_f64().max(1e-9),
    });
    let mut ok = true;
    for a in &artifacts {
        emit(&a.name, &a.rendered, &a.payload);
        ok &= a.ok;
    }
    ok
}

#[derive(Serialize)]
struct BenchSummary {
    seed: u64,
    threads: usize,
    runs: Vec<RunRecord>,
    baseline: Vec<crate::baseline::BaselineRecord>,
    scale: Vec<ScaleRecord>,
    /// Predictor-decay rows from `degradation_sweep`. Omitted when the
    /// experiment did not run, so every other experiment's summary
    /// stays byte-identical to before the field existed.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    degradation: Vec<crate::degradation::DegradationRecord>,
}

/// Write `bench_summary.json` (wall-times, throughput, baseline
/// speedups) into `DIGG_RESULTS_DIR`, or the working directory when it
/// is unset. The write is atomic (`*.tmp` + rename): a crash or a
/// concurrent reader never sees a half-written summary.
pub fn write_bench_summary() {
    let summary = BenchSummary {
        seed: seed_from_env(),
        threads: digg_core::worker_threads(),
        runs: lock(&RUNS).clone(),
        baseline: lock(&BASELINES).clone(),
        scale: lock(&SCALE).clone(),
        degradation: lock(&DEGRADATION).clone(),
    };
    let dir = std::env::var("DIGG_RESULTS_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("bench_summary.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match serde_json::to_vec_pretty(&summary) {
        Ok(json) => match crate::write_atomic(&path, &json) {
            Ok(()) => eprintln!("[digg-bench] wrote {}", path.display()),
            Err(e) => eprintln!("[digg-bench] cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("[digg-bench] cannot serialize bench summary: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for spec in REGISTRY {
            assert!(std::ptr::eq(find(spec.name).unwrap(), spec));
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn every_entry_reports_its_own_unit() {
        let units: Vec<(&str, &str)> = REGISTRY.iter().map(|s| (s.name, s.unit)).collect();
        assert_eq!(
            units,
            vec![
                ("fig1", "stories"),
                ("fig2", "stories"),
                ("fig3", "stories"),
                ("fig4", "stories"),
                ("fig5", "stories"),
                ("prediction", "stories"),
                ("scatter", "users"),
                ("intext", "stories"),
                ("decay", "stories"),
                ("sim_sweep", "scenarios"),
                ("graph_scale", "stories"),
                ("incr_sweep", "stories"),
                ("mmap_sweep", "stories"),
                ("degradation_sweep", "scenarios"),
                ("chaos_sweep", "scenarios"),
            ]
        );
    }

    #[test]
    fn artifact_ok_flag_round_trips() {
        let a = Artifact::new("t", "body".into(), &42u32);
        assert!(a.ok);
        assert!(!a.with_ok(false).ok);
    }

    #[test]
    fn degradation_section_is_omitted_when_empty() {
        // The summary field uses `skip_serializing_if`, so runs that
        // never touch degradation_sweep keep their summary unchanged.
        #[derive(Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Summary {
            seed: u64,
            #[serde(skip_serializing_if = "Vec::is_empty")]
            degradation: Vec<u32>,
        }
        let empty = Summary {
            seed: 1,
            degradation: vec![],
        };
        let json = serde_json::to_string(&empty).unwrap();
        assert!(!json.contains("degradation"), "field not skipped: {json}");
        // An absent key deserializes back to the default (empty) vec.
        assert_eq!(serde_json::from_str::<Summary>(&json).unwrap(), empty);
        let full = Summary {
            seed: 1,
            degradation: vec![7],
        };
        let json = serde_json::to_string(&full).unwrap();
        assert!(json.contains("degradation"));
        assert_eq!(serde_json::from_str::<Summary>(&json).unwrap(), full);
    }
}
