//! Scenario-sweep cells: what one cell of a sweep grid is and what it
//! produces.
//!
//! A sweep is the cross product of scenario specs and seeds, each cell
//! an independent simulation run. The grid itself is driven by
//! [`crate::supervisor::run_sweep_supervised_lenient`] (in-process shards or
//! worker subprocesses), whose results are **bit-identical at any
//! worker count**. [`ScenarioRun`] deliberately carries no wall-time
//! (the `benchmark/` harness times runs from outside), which is what
//! lets the worker-invariance tests demand exact payload equality.

use crate::config::SimConfig;
use crate::engine::{Kernel, Sim};
use crate::metrics::SimMetrics;
use crate::population::{Population, PopulationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Salt mixed into each run's seed when generating its population, so
/// the population draw and the simulation draw streams differ.
const POPULATION_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One cell of a sweep grid: a named configuration to run for
/// `minutes`. Serializable because the multi-process
/// supervisor ([`crate::supervisor`]) ships specs to worker
/// subprocesses over the frame protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Stable name recorded on every run of this scenario.
    pub name: String,
    /// Simulator configuration; its `seed` field is overridden per run.
    pub cfg: SimConfig,
    /// Population to generate for each run.
    pub pop_cfg: PopulationConfig,
    /// Always [`Kernel::EventStreams`], the simulator's one sample path;
    /// never read.
    pub kernel: Kernel,
    /// Simulated minutes per run.
    pub minutes: u64,
}

/// The outcome of one `(scenario, seed)` run. Serializable into bench
/// payloads; contains no timings (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioRun {
    /// Name of the scenario that produced this run.
    pub scenario: String,
    /// The run seed.
    pub seed: u64,
    /// Simulated minutes.
    pub minutes: u64,
    /// Stories submitted over the run.
    pub stories: usize,
    /// Full metric counters.
    pub metrics: SimMetrics,
}

/// The population a `(spec, seed)` cell runs against — a pure function
/// of the pair, which is what lets the checkpoint/replay machinery
/// regenerate it on restore instead of serializing it.
pub fn scenario_population(spec: &ScenarioSpec, seed: u64) -> Population {
    let mut pop_rng = StdRng::seed_from_u64(seed ^ POPULATION_SALT);
    Population::generate(&mut pop_rng, &spec.pop_cfg)
}

/// The fully-seeded [`Sim`] a `(spec, seed)` cell starts from.
pub fn scenario_sim(spec: &ScenarioSpec, seed: u64) -> Sim {
    let mut cfg = spec.cfg.clone();
    cfg.seed = seed;
    Sim::new(cfg, scenario_population(spec, seed))
}

/// Package a finished cell simulation into its [`ScenarioRun`].
pub(crate) fn scenario_run(spec: &ScenarioSpec, seed: u64, sim: &Sim) -> ScenarioRun {
    ScenarioRun {
        scenario: spec.name.clone(),
        seed,
        minutes: spec.minutes,
        stories: sim.stories().len(),
        metrics: sim.metrics().clone(),
    }
}

/// Run one `(spec, seed)` cell to completion — the plain reference run
/// every supervised sweep must reproduce byte for byte.
pub fn run_scenario(spec: &ScenarioSpec, seed: u64) -> ScenarioRun {
    let mut sim = scenario_sim(spec, seed);
    sim.run(spec.minutes);
    scenario_run(spec, seed, &sim)
}

/// The outcome of one panic-isolated sweep cell: either the completed
/// run, or the identity of the scenario that panicked plus its
/// rendered panic message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellOutcome {
    /// The cell ran to completion.
    Ok(ScenarioRun),
    /// The cell's simulation panicked; the rest of the batch is
    /// unaffected.
    Panicked {
        /// Name of the scenario that failed.
        scenario: String,
        /// The seed of the failed run.
        seed: u64,
        /// Rendered panic payload.
        message: String,
    },
}

impl CellOutcome {
    /// The completed run, if the cell succeeded.
    pub(crate) fn run(&self) -> Option<&ScenarioRun> {
        match self {
            CellOutcome::Ok(run) => Some(run),
            CellOutcome::Panicked { .. } => None,
        }
    }
}
