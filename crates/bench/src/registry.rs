//! Experiment registry: one [`ExperimentSpec`] per paper artifact,
//! mapping a stable name to a [`Runner`] so the one `experiments`
//! dispatcher runs any of them by name. A runner is either
//! [`Runner::Synth`] (reads the shared June-2006 synthesis, its story
//! table and the one fit of the paper's model on it, each built lazily
//! on first use) or [`Runner::Standalone`] (self-contained, fed only
//! the seed — `incr_sweep`, `abl2` and `abl4`).
//!
//! Experiments produce artifacts and `ok` flags only; timing is the
//! repository benchmark's job (`benchmark/`). The one exception is
//! `incr_sweep`, which writes its pair of scale rows into
//! `bench_summary.json` for the `bench_gate` ratio check.

use crate::ablations::{
    clean_rows_match, feature_ablation, network_grid, promotion_ablation, render_feature_ablation,
    render_network, render_observation, render_promotion_ablation, render_robustness,
    render_window_sweep, window_sweep, GraphVariant, SeedRow, SEED_BAND,
};
use crate::{emit, seed_from_env, shared_synthesis};
use des_core::par::worker_threads;
use digg_core::experiments::fig3::{Fig3aResult, Fig3bResult};
use digg_core::experiments::fig4::Fig4Result;
use digg_core::experiments::{decay, fig1, fig2, fig5, intext, prediction, scatter};
use digg_core::features::INTERESTINGNESS_THRESHOLD;
use digg_core::pipeline::PipelineConfig;
use digg_core::predictor::{self, Fit};
use digg_core::StoryTable;
use digg_data::synth::{june2006_scenario, SynthConfig};
use digg_sim::scenario::PROMOTION_THRESHOLD;
use serde::{Serialize, Value};
use std::sync::OnceLock;

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
    pub(crate) fn new<T: Serialize>(name: &str, rendered: String, payload: &T) -> Artifact {
        Artifact {
            name: name.to_string(),
            rendered,
            payload: payload.to_value(),
            ok: true,
        }
    }

    /// Override the validity flag.
    pub(crate) fn with_ok(mut self, ok: bool) -> Artifact {
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
    /// Runs on the shared synthesis, reading it, its story table and
    /// its one fit through `shared_synthesis`, `shared_table` and
    /// `shared_fit`.
    Synth(fn() -> Vec<Artifact>),
    /// Self-contained: receives the run seed.
    Standalone(fn(u64) -> Vec<Artifact>),
}

/// The shared synthesis's story table, built on first use: every
/// experiment in one invocation reads the same sweep of its stories.
fn shared_table() -> &'static StoryTable {
    static CELL: OnceLock<StoryTable> = OnceLock::new();
    CELL.get_or_init(|| StoryTable::build(&shared_synthesis().dataset, worker_threads()))
}

/// The one fit of the paper's model on [`shared_table`] (the default
/// §5.2 configuration), made on first use: Fig. 5 and the §5.2 holdout
/// report the same tree and CV. `None` below two trainable stories.
fn shared_fit() -> Option<&'static Fit> {
    static CELL: OnceLock<Option<Fit>> = OnceLock::new();
    CELL.get_or_init(|| predictor::fit(shared_table(), &PipelineConfig::default()))
        .as_ref()
}

/// A named experiment and how to run it.
pub struct ExperimentSpec {
    /// Stable name (`experiments <name>`).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// How to run it.
    pub runner: Runner,
}

fn run_fig1() -> Vec<Artifact> {
    let result = fig1::run(&shared_synthesis().sim, &fig1::Fig1Params::default());
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

fn run_fig2() -> Vec<Artifact> {
    let s = shared_synthesis();
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

fn run_fig3() -> Vec<Artifact> {
    let a = Fig3aResult::from_table(shared_table());
    let b = Fig3bResult::from_table(shared_table());
    vec![
        Artifact::new("fig3a", a.render(), &a),
        Artifact::new("fig3b", b.render(), &b),
    ]
}

fn run_fig4() -> Vec<Artifact> {
    let result = Fig4Result::from_table(shared_table());
    vec![Artifact::new("fig4", result.render(), &result)]
}

fn run_fig5() -> Vec<Artifact> {
    let Some(fit) = shared_fit() else {
        eprintln!("fig5: fewer than two trainable stories in the dataset");
        return vec![];
    };
    // Also write the tree as Graphviz DOT when persisting.
    if let Ok(dir) = std::env::var("DIGG_RESULTS_DIR") {
        let path = std::path::Path::new(&dir).join("fig5.dot");
        if crate::write_atomic(&path, fit.predictor.tree().to_dot().as_bytes()).is_ok() {
            eprintln!("[digg-bench] wrote {}", path.display());
        }
    }
    let result = fig5::Fig5Result::from_fit(fit);
    vec![Artifact::new("fig5", result.render(), &result)]
}

fn run_prediction() -> Vec<Artifact> {
    let (s, cfg) = (shared_synthesis(), PipelineConfig::default());
    let score = |fit| prediction::score(&s.dataset, shared_table(), &s.sim, &cfg, fit);
    let Some(result) = shared_fit().and_then(score) else {
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

fn run_scatter() -> Vec<Artifact> {
    let result = scatter::run(&shared_synthesis().dataset, 100);
    let mut rendered = result.render();
    rendered.push_str(&format!(
        "top users dominate the fan axis: {}\n",
        result.top_users_dominate()
    ));
    vec![Artifact::new("scatter", rendered, &result)]
}

fn run_intext() -> Vec<Artifact> {
    let result = intext::run(shared_synthesis(), PROMOTION_THRESHOLD);
    let ok = result.violations.is_empty();
    vec![Artifact::new("intext", result.render(), &result).with_ok(ok)]
}

fn run_decay() -> Vec<Artifact> {
    let result = decay::run(&shared_synthesis().sim, 2 * digg_sim::time::DAY, 72);
    vec![Artifact::new("decay", result.render(), &result)]
}

fn run_abl1() -> Vec<Artifact> {
    let rows = feature_ablation(shared_table(), INTERESTINGNESS_THRESHOLD, seed_from_env());
    vec![Artifact::new(
        "abl1_features",
        render_feature_ablation(&rows),
        &rows,
    )]
}

fn run_abl2(seed: u64) -> Vec<Artifact> {
    let rows = promotion_ablation(seed, 3);
    vec![Artifact::new(
        "abl2_promotion",
        render_promotion_ablation(&rows),
        &rows,
    )]
}

fn run_abl3() -> Vec<Artifact> {
    let rows = window_sweep(shared_table(), INTERESTINGNESS_THRESHOLD, seed_from_env());
    vec![Artifact::new(
        "abl3_window",
        render_window_sweep(&rows),
        &rows,
    )]
}

/// ABL4 and ABL5 over the fixed seed band (the run seed is not used).
/// The `site` rows are also the `robustness` artifact; ABL5 passes
/// when its rate-0 rows reproduce them.
fn run_abl4(_seed: u64) -> Vec<Artifact> {
    eprintln!(
        "[digg-bench] ABL4 grid: 3 graphs x {} seeds…",
        SEED_BAND.len()
    );
    let (rows, observation) = network_grid(&SEED_BAND, des_core::par::worker_threads(), |seed| {
        let (sim_cfg, pop) = june2006_scenario(seed);
        (SynthConfig::june2006(seed), sim_cfg, pop)
    });
    let site: Vec<SeedRow> = rows
        .iter()
        .filter(|r| r.graph == GraphVariant::Site.name())
        .map(|r| r.pipeline.clone())
        .collect();
    let clean = clean_rows_match(&site, &observation);
    vec![
        Artifact::new("abl4_network", render_network(&rows), &rows),
        Artifact::new("robustness", render_robustness(&site), &site),
        Artifact::new(
            "abl5_observation",
            render_observation(&observation, clean),
            &observation,
        )
        .with_ok(clean),
    ]
}

/// Every experiment, in report order.
pub static REGISTRY: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "fig1",
        about: "vote time series of sampled front-page stories",
        runner: Runner::Synth(run_fig1),
    },
    ExperimentSpec {
        name: "fig2",
        about: "final-vote histogram and per-user activity distributions",
        runner: Runner::Synth(run_fig2),
    },
    ExperimentSpec {
        name: "fig3",
        about: "story influence and cascade-size histograms",
        runner: Runner::Synth(run_fig3),
    },
    ExperimentSpec {
        name: "fig4",
        about: "final votes vs early in-network votes (inverse relationship)",
        runner: Runner::Synth(run_fig4),
    },
    ExperimentSpec {
        name: "fig5",
        about: "C4.5 interestingness tree and cross-validation",
        runner: Runner::Synth(run_fig5),
    },
    ExperimentSpec {
        name: "prediction",
        about: "upcoming-queue holdout precision vs the promoter",
        runner: Runner::Synth(run_prediction),
    },
    ExperimentSpec {
        name: "scatter",
        about: "friends vs fans scatter with top users highlighted",
        runner: Runner::Synth(run_scatter),
    },
    ExperimentSpec {
        name: "intext",
        about: "section-3 in-text statistics and dataset invariants",
        runner: Runner::Synth(run_intext),
    },
    ExperimentSpec {
        name: "decay",
        about: "post-promotion interest decay (Wu-Huberman half-life)",
        runner: Runner::Synth(run_decay),
    },
    ExperimentSpec {
        name: "abl1",
        about: "ABL1: predictor feature ablation (10-fold CV accuracy)",
        runner: Runner::Synth(run_abl1),
    },
    ExperimentSpec {
        name: "abl2",
        about: "ABL2: threshold vs diversity promoter (reduced-scale scenario)",
        runner: Runner::Standalone(run_abl2),
    },
    ExperimentSpec {
        name: "abl3",
        about: "ABL3: observation-window sweep (v_w + fans1)",
        runner: Runner::Synth(run_abl3),
    },
    ExperimentSpec {
        name: "abl4",
        about: "ABL4 fan-graph grid and ABL5 observation loss over the seed band; robustness rows",
        runner: Runner::Standalone(run_abl4),
    },
    ExperimentSpec {
        name: "incr_sweep",
        about: "per-vote incremental analytics vs batch re-sweep (speedup + checkpoint equality)",
        runner: Runner::Standalone(crate::incr::run_incr_sweep),
    },
];

/// Look up an experiment by name.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Run one experiment and emit every artifact. Returns whether it
/// wrote at least one artifact and all of them passed.
///
/// The shared synthesis is built lazily: standalone experiments (and
/// `--list`, which never gets here) do not trigger it.
pub fn run_spec(spec: &ExperimentSpec) -> bool {
    let artifacts = match spec.runner {
        Runner::Synth(run) => run(),
        Runner::Standalone(run) => run(seed_from_env()),
    };
    let mut ok = !artifacts.is_empty();
    for a in &artifacts {
        emit(&a.name, &a.rendered, &a.payload);
        ok &= a.ok;
    }
    ok
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
    fn an_experiment_that_writes_nothing_fails() {
        let spec = ExperimentSpec {
            name: "empty",
            about: "writes no artifact",
            runner: Runner::Standalone(|_| vec![]),
        };
        assert!(!run_spec(&spec));
    }

    #[test]
    fn artifact_ok_flag_round_trips() {
        let a = Artifact::new("t", "body".into(), &42u32);
        assert!(a.ok);
        assert!(!a.with_ok(false).ok);
    }
}
