//! The `chaos_sweep` experiment: the full fault-matrix drill for the
//! checkpointing sweep supervisor (DESIGN.md §15, hardened in §17).
//!
//! It drives **every** fault class the chaos plan knows — kills,
//! silent stalls, heartbeat-only dawdles, corrupt response frames,
//! torn checkpoint writes, bit-flipped checkpoint writes — through a
//! subprocess sweep and demands four things:
//!
//! 1. **Byte-identity under chaos.** A grid of at least six cells runs
//!    once clean and once under [`ChaosPlan::matrix`] (round-robin
//!    classes, so each of the six fires at least once). Every faulted
//!    cell must recover — via watchdog SIGKILL + respawn, generation
//!    fallback, or cold restart — and the chaos sweep's rows must
//!    serialize byte-identical to the clean sweep's.
//! 2. **Taxonomy coverage.** The [`SweepDegradationReport`]'s observed
//!    [`FailureCounts`] must show each recovery path actually fired:
//!    hangs (stall), deadline expiries (dawdle), corrupt frames,
//!    crashes (kill + the post-corruption chaos exits), and checkpoint
//!    fallback rungs (torn + bit-flipped generations).
//! 3. **Lenient degradation.** A separate drill with a zero respawn
//!    budget and one killed cell must degrade exactly that cell to a
//!    [`CellResult::Failed`] while every surviving cell's row stays
//!    byte-identical to the clean run.
//! 4. **Snapshot round trip at scale.** A `DIGG_CHECKPOINT_USERS`-user
//!    simulation (default one million; CI smoke uses 50k) snapshotted
//!    and restored once must re-encode to the same bytes.
//!
//! A fifth check runs one cell with checkpointing off and again with
//! checkpoints every N events: both runs must produce the same row.
//! Without a `sweep_worker` binary the fault drills are skipped (there
//! is no subprocess to fault); `DIGG_REQUIRE_WORKER=1` turns that skip
//! into a failure.

use crate::registry::Artifact;
use digg_data::ChaosPlan;
use digg_sim::population::PopulationConfig;
use digg_sim::supervisor::{
    run_cell, run_sweep_supervised_lenient, CellCheckpointing, CellResult, ChaosFault,
    FailureCounts, SupervisorConfig, SweepDegradationReport, WatchdogConfig,
};
use digg_sim::sweep::{scenario_population, scenario_sim, CellOutcome, ScenarioRun, ScenarioSpec};
use digg_sim::{Kernel, Sim, SimConfig};
use digg_snapshot::{Restore, Snapshot};
use serde::Serialize;
use std::time::Duration;

/// Workload dimensions, scaled off `DIGG_CHECKPOINT_USERS`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CheckpointParams {
    /// Users per sweep cell and in the snapshot-scale sim
    /// (`DIGG_CHECKPOINT_USERS`, default 1,000,000; CI smoke: 50,000).
    pub users: usize,
    /// Simulated minutes per sweep cell.
    pub minutes: u64,
    /// Events between checkpoints.
    pub checkpoint_every: u64,
}

impl CheckpointParams {
    /// Dimensions from the environment (≥ 1,000 users enforced so the
    /// grid always carries real graph state into its snapshots).
    pub fn from_env() -> CheckpointParams {
        let users = std::env::var("DIGG_CHECKPOINT_USERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1_000_000)
            .max(1_000);
        CheckpointParams {
            users,
            minutes: 240,
            checkpoint_every: 300,
        }
    }
}

/// The scenario grid the drill sweeps: toy rates and a busier variant
/// at the scaled user count (event counts stay bounded — rates are
/// population-wide, not per-user).
pub fn checkpoint_specs(params: &CheckpointParams) -> Vec<ScenarioSpec> {
    let mut cfg = SimConfig::toy(0);
    cfg.users = params.users;
    let mut busy = cfg.clone();
    busy.submissions_per_minute = 0.4;
    busy.frontpage_sessions_per_minute = 12.0;
    vec![
        ScenarioSpec {
            name: "ckpt-toy".into(),
            cfg,
            pop_cfg: PopulationConfig::toy(params.users),
            kernel: Kernel::default(),
            minutes: params.minutes,
        },
        ScenarioSpec {
            name: "ckpt-busy".into(),
            cfg: busy,
            pop_cfg: PopulationConfig::toy(params.users),
            kernel: Kernel::default(),
            minutes: params.minutes,
        },
    ]
}

/// Locate the `sweep_worker` subprocess binary: the `DIGG_SWEEP_WORKER`
/// env override, else a sibling of the current executable (where cargo
/// puts workspace binaries next to `experiments`). `None` means
/// subprocess supervision is unavailable and callers fall back to
/// in-process workers.
pub fn sweep_worker_cmd() -> Option<Vec<String>> {
    if let Ok(p) = std::env::var("DIGG_SWEEP_WORKER") {
        if !p.is_empty() {
            return Some(vec![p]);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let sibling = exe
        .parent()?
        .join(format!("sweep_worker{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        Some(vec![sibling.to_string_lossy().into_owned()])
    } else {
        None
    }
}

fn env_secs(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(default)
        .max(1)
}

/// Watchdog deadlines for the drill. The stall cell burns one full
/// heartbeat timeout and the dawdle cell one full cell deadline before
/// recovery, so these bound the drill's wall time; CI smoke tightens
/// them via `DIGG_CHAOS_HEARTBEAT_SECS` / `DIGG_CHAOS_DEADLINE_SECS`.
/// The deadline must comfortably exceed a clean cell's wall time or
/// healthy resumed attempts get spuriously killed.
fn chaos_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        heartbeat_timeout: Duration::from_secs(env_secs("DIGG_CHAOS_HEARTBEAT_SECS", 30)),
        cell_deadline: Some(Duration::from_secs(env_secs(
            "DIGG_CHAOS_DEADLINE_SECS",
            240,
        ))),
    }
}

/// The timing-free `chaos_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosSweepPayload {
    /// Users per cell.
    pub users: usize,
    /// Whether the drill ran subprocess workers (`false` = no worker
    /// binary; the chaos halves were skipped).
    pub subprocess: bool,
    /// Cells in the grid.
    pub cells: usize,
    /// Faults the matrix plan injected (== cells when subprocess).
    pub faults_injected: usize,
    /// The clean sweep's rows, row-major.
    pub clean: Vec<ScenarioRun>,
    /// Chaos-recovered rows byte-identical to the clean rows
    /// (vacuously true when skipped — see `subprocess`).
    pub chaos_identical: bool,
    /// No cell exhausted its respawn budget under the full matrix.
    pub chaos_all_recovered: bool,
    /// Observed failure events by kind during the matrix drill.
    pub observed: FailureCounts,
    /// Every fault class left its signature in `observed`.
    pub taxonomy_covered: bool,
    /// The zero-budget drill degraded exactly one cell and kept every
    /// survivor byte-identical.
    pub degradation_isolated: bool,
    /// Snapshot container size for the scaled sim, bytes.
    pub snapshot_bytes: usize,
    /// The scaled snapshot round-tripped: the restored sim re-encodes
    /// to the same bytes.
    pub snapshot_round_trip: bool,
}

fn rows_of(results: &[CellResult]) -> Vec<ScenarioRun> {
    results.iter().filter_map(|r| r.run().cloned()).collect()
}

fn lenient_or_panic(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    cfg: &SupervisorConfig,
) -> (Vec<CellResult>, SweepDegradationReport) {
    run_sweep_supervised_lenient(specs, seeds, cfg)
        .unwrap_or_else(|e| panic!("chaos_sweep supervisor failed: {e}"))
}

/// The `chaos_sweep` standalone experiment.
pub fn run_chaos_sweep(seed: u64) -> Vec<Artifact> {
    let params = CheckpointParams::from_env();
    let threads = des_core::par::worker_threads();
    let specs = checkpoint_specs(&params);
    // Three seeds x two specs = six cells: one per fault class under
    // the round-robin matrix.
    let seeds: Vec<u64> = (0..3).map(|i| seed.wrapping_add(i)).collect();
    let cells = specs.len() * seeds.len();
    let dir = std::env::temp_dir().join(format!("digg-chaos-sweep-{}", std::process::id()));

    let worker_cmd = sweep_worker_cmd();
    let subprocess = worker_cmd.is_some();
    let require_worker = std::env::var("DIGG_REQUIRE_WORKER")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);

    let base_cfg = match &worker_cmd {
        Some(cmd) => {
            SupervisorConfig::subprocess(cmd.clone(), threads, params.checkpoint_every, dir.clone())
        }
        None => SupervisorConfig {
            checkpoint_every: params.checkpoint_every,
            checkpoint_dir: Some(dir.clone()),
            ..SupervisorConfig::in_process(threads)
        },
    };

    // 1. The clean reference sweep.
    let (clean_results, clean_report) = lenient_or_panic(&specs, &seeds, &base_cfg);
    let clean = rows_of(&clean_results);
    let clean_ok = clean_report.failed.is_empty() && clean.len() == cells;

    // 2. The full-matrix chaos drill.
    let plan = ChaosPlan::fault_all(seed, 2);
    let matrix = plan.matrix(cells);
    let faults_injected = if subprocess {
        matrix.iter().flatten().count()
    } else {
        0
    };
    let (chaos_identical, chaos_all_recovered, observed, taxonomy_covered) = if subprocess {
        let chaos_cfg = SupervisorConfig {
            chaos: matrix,
            watchdog: chaos_watchdog(),
            ..base_cfg.clone()
        };
        let (results, report) = lenient_or_panic(&specs, &seeds, &chaos_cfg);
        let identical = serde_json::to_string(&rows_of(&results)) == serde_json::to_string(&clean);
        let all_recovered = report.failed.is_empty() && report.completed == cells;
        // Each class's observable signature: stall -> hung, dawdle
        // -> deadline, corrupt frame -> corrupt_frame, kill + the
        // post-corruption chaos exits -> crashed, torn + bit-flip
        // generations -> checkpoint fallback rungs.
        let covered = report.observed.hung >= 1
            && report.observed.deadline_exceeded >= 1
            && report.observed.corrupt_frame >= 1
            && report.observed.crashed >= 1
            && report.observed.corrupt_checkpoint >= 2;
        (identical, all_recovered, report.observed, covered)
    } else {
        (true, true, FailureCounts::default(), true)
    };

    // 3. Lenient degradation: zero respawn budget, one killed cell —
    // the batch must survive minus exactly that cell.
    let degradation_isolated = if subprocess {
        let mut chaos = vec![None; cells];
        chaos[0] = Some(ChaosFault::Kill {
            after_checkpoints: 1,
        });
        let lenient_cfg = SupervisorConfig {
            chaos,
            max_respawns: 0,
            ..base_cfg.clone()
        };
        let (results, report) = lenient_or_panic(&specs, &seeds, &lenient_cfg);
        let failed_right = report.failed.len() == 1 && report.failed[0].cell == 0;
        let survivors_identical = results
            .iter()
            .zip(&clean_results)
            .skip(1)
            .all(|(got, want)| match (got, want) {
                (
                    CellResult::Completed(CellOutcome::Ok(g)),
                    CellResult::Completed(CellOutcome::Ok(w)),
                ) => serde_json::to_string(g).ok() == serde_json::to_string(w).ok(),
                _ => false,
            });
        failed_right && survivors_identical
    } else {
        true
    };
    let _ = std::fs::remove_dir_all(&dir);

    // 4. Generational checkpoints are invisible in the output: one
    // cell, checkpointing off vs every-N, must give the same row.
    let overhead_dir =
        std::env::temp_dir().join(format!("digg-chaos-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&overhead_dir).expect("create overhead temp dir");
    let overhead_path = overhead_dir.join("cell_overhead.snap");
    let spec = &specs[0];
    let off = CellCheckpointing::default();
    let (run_off, _) = run_cell(spec, seed, &off, &mut |_, _| Ok(()))
        .unwrap_or_else(|e| panic!("overhead probe (off) failed: {e}"));
    let on = CellCheckpointing {
        every_events: params.checkpoint_every,
        path: Some(&overhead_path),
        ..CellCheckpointing::default()
    };
    let (run_on, report) = run_cell(spec, seed, &on, &mut |_, _| Ok(()))
        .unwrap_or_else(|e| panic!("overhead probe (on) failed: {e}"));
    let overhead_ok = run_on == run_off && report.checkpoints_written > 0;
    let _ = std::fs::remove_dir_all(&overhead_dir);

    // 5. Snapshot scale: round-trip one scaled sim.
    let scale_spec = &specs[1];
    let mut scaled = scenario_sim(scale_spec, seed);
    scaled.run(60);
    let bytes = scaled.snapshot();
    let snapshot_bytes = bytes.len();
    let restored = Sim::restore(&bytes, scenario_population(scale_spec, seed))
        .unwrap_or_else(|e| panic!("scaled snapshot failed to restore: {e}"));
    let snapshot_round_trip = restored.snapshot() == bytes;

    let payload = ChaosSweepPayload {
        users: params.users,
        subprocess,
        cells,
        faults_injected,
        clean,
        chaos_identical,
        chaos_all_recovered,
        observed,
        taxonomy_covered,
        degradation_isolated,
        snapshot_bytes,
        snapshot_round_trip,
    };

    let mut rendered = format!(
        "Chaos-matrix sweep ({} users, {cells} cells, checkpoint every {} events)\n",
        params.users, params.checkpoint_every
    );
    rendered.push_str(&format!(
        "clean sweep: {cells} cells via {} workers ({threads} shards)\n",
        if subprocess {
            "subprocess"
        } else {
            "in-process"
        }
    ));
    if subprocess {
        rendered.push_str(&format!(
                "chaos sweep: {faults_injected} faults (kill/stall/dawdle/corrupt-frame/torn/bit-flip) — rows {}\n",
                if payload.chaos_identical {
                    "byte-identical to clean"
                } else {
                    "DIVERGED"
                }
            ));
        rendered.push_str(&format!(
                "observed: {} hung, {} crashed, {} corrupt frames, {} checkpoint fallbacks, {} deadline expiries — taxonomy {}\n",
                observed.hung,
                observed.crashed,
                observed.corrupt_frame,
                observed.corrupt_checkpoint,
                observed.deadline_exceeded,
                if taxonomy_covered { "covered" } else { "INCOMPLETE" }
            ));
        rendered.push_str(&format!(
            "zero-budget drill: cell 0 degraded, survivors {}\n",
            if degradation_isolated {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        ));
    } else {
        rendered.push_str(if require_worker {
            "chaos sweep: FAILED (DIGG_REQUIRE_WORKER set but no sweep_worker binary found; build digg-bench binaries or set DIGG_SWEEP_WORKER)\n"
        } else {
            "chaos sweep: SKIPPED (no sweep_worker binary found; build digg-bench binaries or set DIGG_SWEEP_WORKER)\n"
        });
    }
    rendered.push_str(&format!(
        "checkpointing off vs every {} events ({} generational checkpoints): {}\n",
        params.checkpoint_every,
        report.checkpoints_written,
        if overhead_ok {
            "identical results"
        } else {
            "DIVERGED"
        }
    ));
    rendered.push_str(&format!(
        "snapshot at {} users: {:.2} MB — {}\n",
        params.users,
        snapshot_bytes as f64 / 1e6,
        if snapshot_round_trip {
            "round-trips byte-identically"
        } else {
            "DIVERGED"
        }
    ));

    let ok = clean_ok
        && payload.chaos_identical
        && payload.chaos_all_recovered
        && taxonomy_covered
        && degradation_isolated
        && overhead_ok
        && snapshot_round_trip
        && (subprocess || !require_worker);
    vec![Artifact::new("chaos_sweep", rendered, &payload).with_ok(ok)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_specs_scale_both_cells() {
        let params = CheckpointParams {
            users: 1_000,
            minutes: 120,
            checkpoint_every: 200,
        };
        let specs = checkpoint_specs(&params);
        assert_eq!(specs.len(), 2);
        assert!(specs[0].cfg.submissions_per_minute < specs[1].cfg.submissions_per_minute);
        assert!(specs.iter().all(|s| s.cfg.users == 1_000));
    }

    #[test]
    fn watchdog_env_defaults_are_sane() {
        let wd = chaos_watchdog();
        assert!(wd.heartbeat_timeout >= Duration::from_secs(1));
        let deadline = wd.cell_deadline.expect("drill always sets a deadline");
        assert!(deadline >= wd.heartbeat_timeout);
    }
}
