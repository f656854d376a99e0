//! The scenario-sweep experiment: deterministic parallel fan-outs of
//! independent `(config, seed)` simulator runs.
//!
//! `sim_sweep`, a standalone registry entry, checks the event-driven
//! [`Sim`] (Compat kernel) against the seed tick loop ([`TickSim`])
//! metric-for-metric on several seeds, shards a toy scenario grid
//! through the supervised runner
//! [`digg_sim::supervisor::run_sweep_supervised`] (subprocess
//! `sweep_worker`s when the binary is present, the bit-identical
//! in-process path otherwise), and times both kernels against the tick
//! loop on a *sparse* long-horizon scenario where skipping idle minutes
//! pays (recorded as a baseline row in `bench_summary.json`).
//!
//! The payload is **timing-free and thread-invariant**: the supervisor
//! recombines its shards in grid order, so the artifact JSON is
//! byte-identical at any `DIGG_THREADS`. The integration test
//! `tests/sweep_invariance.rs` pins that by building the payload at the
//! thread counts `DIGG_THREADS=1/2/8` would select —
//! [`digg_core::worker_threads`] is the one place that env var is
//! parsed. Timings go to the bench summary's run and baseline records
//! instead.

use crate::baseline::BaselineRecord;
use crate::registry::{record_baselines, Artifact};
use crate::timing::time_ms;
use digg_sim::baseline::TickSim;
use digg_sim::population::{Population, PopulationConfig};
use digg_sim::supervisor::{run_sweep_supervised, SupervisorConfig};
use digg_sim::sweep::{CellOutcome, ScenarioRun, ScenarioSpec};
use digg_sim::{Kernel, Sim, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One tick-loop-vs-event-kernel equivalence verdict.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EquivalenceCheck {
    /// Seed the pair of runs used.
    pub seed: u64,
    /// Simulated minutes.
    pub minutes: u64,
    /// Submissions observed (same on both sides when `ok`).
    pub submissions: u64,
    /// Votes observed (same on both sides when `ok`).
    pub votes: u64,
    /// Whether the full `SimMetrics` structs were identical.
    pub ok: bool,
}

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
    /// Per-seed tick-loop equivalence verdicts (all must hold).
    pub equivalence: Vec<EquivalenceCheck>,
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
            name: "toy-compat".into(),
            cfg: SimConfig::toy(0),
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::Compat,
            minutes: 240,
        },
        ScenarioSpec {
            name: "quiet-streams".into(),
            cfg: quiet,
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::EventStreams,
            minutes: 240,
        },
    ]
}

/// Run the tick-loop equivalence checks and the scenario grid with an
/// explicit thread count (in-process supervisor shards). Contains no
/// timings by construction.
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
    let minutes = 480;
    let equivalence = (0..3)
        .map(|i| {
            let cfg = SimConfig::toy(seed.wrapping_add(i));
            let mut pop_rng = StdRng::seed_from_u64(cfg.seed ^ 0xE0_17AB1E);
            let pop = Population::generate(&mut pop_rng, &PopulationConfig::toy(cfg.users));
            let mut tick = TickSim::new(cfg.clone(), pop.clone());
            let mut event = Sim::with_kernel(cfg.clone(), pop, Kernel::Compat);
            tick.run(minutes);
            event.run(minutes);
            EquivalenceCheck {
                seed: cfg.seed,
                minutes,
                submissions: tick.metrics().submissions,
                votes: tick.metrics().total_votes(),
                ok: tick.metrics() == event.metrics(),
            }
        })
        .collect();
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
    SimSweepPayload {
        equivalence,
        runs,
        panicked,
    }
}

/// A sparse, long-horizon scenario: almost nothing happens per minute,
/// so the tick loop burns its time on idle rescans while the event
/// kernels only pay for actual activity.
fn sparse_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::toy(seed);
    cfg.submissions_per_minute = 0.0005;
    cfg.frontpage_sessions_per_minute = 0.001;
    cfg.upcoming_sessions_per_minute = 0.001;
    cfg.external_rate = 0.001;
    cfg
}

/// Time the tick loop against both event kernels on the sparse
/// scenario. Returns the baseline row (`seed` = tick loop, `new` =
/// EventStreams, `new(1t)` column = Compat kernel, which reproduces
/// the tick loop's exact results) and the minutes simulated.
fn sparse_kernel_timing(seed: u64) -> (BaselineRecord, u64) {
    let minutes = 100_000;
    let cfg = sparse_config(seed);
    let mut pop_rng = StdRng::seed_from_u64(seed ^ 0x5BA_A5E);
    let pop = Population::generate(&mut pop_rng, &PopulationConfig::toy(cfg.users));

    let (tick, tick_ms) = time_ms(|| {
        let mut sim = TickSim::new(cfg.clone(), pop.clone());
        sim.run(minutes);
        sim.metrics().clone()
    });
    let (compat, compat_ms) = time_ms(|| {
        let mut sim = Sim::with_kernel(cfg.clone(), pop.clone(), Kernel::Compat);
        sim.run(minutes);
        sim.metrics().clone()
    });
    let (_, streams_ms) = time_ms(|| {
        let mut sim = Sim::with_kernel(cfg.clone(), pop.clone(), Kernel::EventStreams);
        sim.run(minutes);
        sim.metrics().clone()
    });
    assert_eq!(
        tick, compat,
        "Compat kernel diverged from the tick loop on the sparse scenario"
    );
    (
        BaselineRecord::new("sim_kernel_sparse", tick_ms, streams_ms, compat_ms),
        minutes,
    )
}

/// The `sim_sweep` standalone experiment. Shards the grid across
/// `sweep_worker` subprocesses when the binary is available (the
/// experiment binaries build it as a sibling), falling back to the
/// bit-identical in-process supervisor path otherwise.
pub fn run_sim_sweep(seed: u64) -> (Vec<Artifact>, usize) {
    let threads = digg_core::worker_threads();
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
    let (sparse, sparse_minutes) = sparse_kernel_timing(seed);

    let equivalence_ok = payload.equivalence.iter().all(|e| e.ok);
    let mut rendered = String::from("Scenario sweep (event kernel)\n");
    rendered.push_str(&format!(
        "tick-loop equivalence on {} seeds: {}\n",
        payload.equivalence.len(),
        if equivalence_ok { "exact" } else { "DIVERGED" }
    ));
    for e in &payload.equivalence {
        rendered.push_str(&format!(
            "  seed {:>6}: {} submissions, {} votes over {} min — {}\n",
            e.seed,
            e.submissions,
            e.votes,
            e.minutes,
            if e.ok { "identical" } else { "DIVERGED" }
        ));
    }
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
        "sparse scenario ({sparse_minutes} min): tick loop {:.1} ms, event kernel {:.1} ms ({:.1}x), compat replay {:.1} ms\n",
        sparse.seed_ms, sparse.new_ms, sparse.speedup, sparse.new_single_ms
    ));
    let ok = equivalence_ok && sparse.speedup > 1.0 && payload.panicked.is_empty();
    record_baselines(vec![sparse]);
    (
        vec![Artifact::new("sim_sweep", rendered, &payload).with_ok(ok)],
        scenarios,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_config_is_actually_sparse() {
        let cfg = sparse_config(1);
        assert!(cfg.submissions_per_minute < 0.05);
        assert!(cfg.frontpage_sessions_per_minute < 0.1);
    }
}
