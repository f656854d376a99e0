//! The scenario-sweep experiment: deterministic parallel fan-outs of
//! independent `(config, seed)` simulator runs.
//!
//! `sim_sweep`, a standalone registry entry, shards a toy scenario grid
//! through the supervised runner
//! [`digg_sim::supervisor::run_sweep_supervised`] (subprocess
//! `sweep_worker`s when the binary is present, the in-process path
//! otherwise) and checks the rows against an in-process run of the same
//! grid, byte for byte.
//!
//! The payload is **timing-free and thread-invariant**: the supervisor
//! recombines its shards in grid order, so the artifact JSON is
//! byte-identical at any `DIGG_THREADS`. The integration test
//! `tests/sweep_invariance.rs` pins that by building the payload at the
//! thread counts `DIGG_THREADS=1/2/8` would select —
//! [`des_core::par::worker_threads`] is the one place that env var is
//! parsed. The sweep's wall time appears only in the rendered text.

use crate::registry::Artifact;
use crate::timing::time_ms;
use digg_sim::population::PopulationConfig;
use digg_sim::supervisor::{run_sweep_supervised, SupervisorConfig};
use digg_sim::sweep::{CellOutcome, ScenarioRun, ScenarioSpec};
use digg_sim::{Kernel, SimConfig};
use serde::Serialize;

/// Identity of a sweep cell whose simulation panicked. The sweep
/// itself survives — panic isolation in the fan-out — and the loss is
/// surfaced here instead of aborting the experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PanickedCell {
    /// Scenario name of the failed cell.
    pub scenario: String,
    /// Seed of the failed run.
    pub seed: u64,
    /// Rendered panic payload.
    pub message: String,
}

/// The timing-free `sim_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimSweepPayload {
    /// The scenario grid results, row-major (panicked cells omitted).
    pub runs: Vec<ScenarioRun>,
    /// Cells that panicked. Empty — and omitted from the JSON, keeping
    /// the payload byte-identical to before the field existed — on a
    /// healthy sweep.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub panicked: Vec<PanickedCell>,
}

/// The toy scenario grid swept by `sim_sweep`.
pub fn sim_sweep_specs() -> Vec<ScenarioSpec> {
    let mut quiet = SimConfig::toy(0);
    quiet.submissions_per_minute = 0.05;
    quiet.frontpage_sessions_per_minute = 1.0;
    vec![
        ScenarioSpec {
            name: "toy".into(),
            cfg: SimConfig::toy(0),
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::default(),
            minutes: 240,
        },
        ScenarioSpec {
            name: "quiet".into(),
            cfg: quiet,
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::default(),
            minutes: 240,
        },
    ]
}

/// Run the scenario grid with an explicit thread count (in-process
/// supervisor shards). Contains no timings by construction.
pub fn sim_sweep_payload(seed: u64, threads: usize) -> SimSweepPayload {
    sim_sweep_payload_with(seed, &SupervisorConfig::in_process(threads))
}

/// [`sim_sweep_payload`] under an explicit [`SupervisorConfig`] — the
/// grid goes through [`run_sweep_supervised`], so the experiment binary
/// shards it across `sweep_worker` subprocesses when the binary is
/// available, while library tests drive the identical in-process path.
/// The payload is worker-mode invariant: subprocess and in-process
/// sweeps serialize byte-identically.
pub fn sim_sweep_payload_with(seed: u64, sup: &SupervisorConfig) -> SimSweepPayload {
    let seeds: Vec<u64> = (0..3).map(|i| seed.wrapping_add(100 + i)).collect();
    // The panic-isolated supervised runner: a poisoned cell costs only
    // its own grid slot, reported in `panicked`, not the whole
    // experiment — whether the cell ran in-process or in a subprocess.
    let outcomes = match run_sweep_supervised(&sim_sweep_specs(), &seeds, sup) {
        Ok(outcomes) => outcomes,
        Err(e) => panic!("sim_sweep supervisor failed: {e}"),
    };
    let mut runs = Vec::new();
    let mut panicked = Vec::new();
    for o in outcomes {
        match o {
            CellOutcome::Ok(run) => runs.push(run),
            CellOutcome::Panicked {
                scenario,
                seed,
                message,
            } => panicked.push(PanickedCell {
                scenario,
                seed,
                message,
            }),
        }
    }
    SimSweepPayload { runs, panicked }
}

/// The `sim_sweep` standalone experiment. Shards the grid across
/// `sweep_worker` subprocesses when the binary is available (the
/// experiment binaries build it as a sibling), falling back to the
/// in-process supervisor path otherwise. The artifact is `ok` when no
/// cell panicked and the rows serialize byte-identical to an
/// in-process run of the same grid.
pub fn run_sim_sweep(seed: u64) -> Vec<Artifact> {
    let threads = des_core::par::worker_threads();
    let sup = match crate::chaos::sweep_worker_cmd() {
        Some(cmd) => SupervisorConfig {
            worker_cmd: Some(cmd),
            ..SupervisorConfig::in_process(threads)
        },
        None => SupervisorConfig::in_process(threads),
    };
    let mode = if sup.worker_cmd.is_some() {
        "subprocess workers"
    } else {
        "in-process shards"
    };
    let (payload, sweep_ms) = time_ms(|| sim_sweep_payload_with(seed, &sup));
    let scenarios = payload.runs.len();
    let json = |p: &SimSweepPayload| serde_json::to_string(p).expect("payload serializes");
    let matches_in_process = json(&payload) == json(&sim_sweep_payload(seed, threads));

    let mut rendered = String::from("Scenario sweep (event kernel)\n");
    rendered.push_str(&format!(
        "swept {scenarios} scenarios in {sweep_ms:.1} ms on {threads} {mode} ({:.1} scenarios/sec)\n",
        scenarios as f64 / (sweep_ms / 1e3).max(1e-9)
    ));
    for r in &payload.runs {
        rendered.push_str(&format!(
            "  {:<16} seed {:>4}: {:>4} stories, {:>6} votes, {:>3} promotions\n",
            r.scenario,
            r.seed,
            r.stories,
            r.metrics.total_votes(),
            r.metrics.promotions
        ));
    }
    for p in &payload.panicked {
        rendered.push_str(&format!(
            "  PANICKED {:<16} seed {:>4}: {}\n",
            p.scenario, p.seed, p.message
        ));
    }
    rendered.push_str(&format!(
        "rows vs an in-process run of the grid: {}\n",
        if matches_in_process {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    ));
    let ok = matches_in_process && payload.panicked.is_empty();
    vec![Artifact::new("sim_sweep", rendered, &payload).with_ok(ok)]
}
