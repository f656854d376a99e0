//! End-to-end recovery drill against the real `sweep_worker` binary:
//! the supervisor shards a grid across subprocesses, a deterministic
//! chaos plan makes workers die, stall, emit garbage, or tear their
//! checkpoints, and the recovered sweep must serialize byte-identical
//! to an uninterrupted one. This is the tentpole property of the
//! checkpoint/replay stack (DESIGN.md §15, hardened §17) exercised
//! across a true process boundary — JSON frames, heartbeats,
//! watchdog SIGKILLs, respawns, generation files and all.

use digg_sim::config::PromoterKind;
use digg_sim::population::PopulationConfig;
use digg_sim::supervisor::{
    run_sweep_supervised_lenient, CellFailure, CellResult, ChaosFault, ChaosPlan, FailureKind,
    SupervisorConfig,
};
use digg_sim::sweep::{run_scenario, CellOutcome, ScenarioSpec};
use digg_sim::{Kernel, SimConfig};
use std::time::Duration;

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_sweep_worker").to_string()]
}

/// The toy threshold rule, and a quiet site under the diversity rule,
/// whose resumed cells refold every story from an empty fold. The
/// chaos matrix lands its corrupt-frame, torn and bit-flip faults on
/// the diversity cells; a fault at checkpoint 1 or 2 (150 events each)
/// comes before any of their promotions.
fn small_specs() -> Vec<ScenarioSpec> {
    let mut quiet = SimConfig::toy(0);
    quiet.submissions_per_minute = 0.05;
    quiet.promoter = PromoterKind::Diversity {
        min_weighted: 10.0,
        in_network_weight: 0.4,
    };
    vec![
        ScenarioSpec {
            name: "toy".into(),
            cfg: SimConfig::toy(0),
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::default(),
            minutes: 240,
        },
        ScenarioSpec {
            name: "quiet-diversity".into(),
            cfg: quiet,
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::default(),
            minutes: 240,
        },
    ]
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("digg-ckpt-recovery-{tag}-{}", std::process::id()))
}

#[test]
fn subprocess_sweep_matches_in_process_runs() {
    // The middle scenario's zero-user population panics inside the
    // cell: the worker must catch it and ship the same `Panicked`
    // outcome the in-process transport produces, and every healthy
    // cell must match its single-process run.
    let mut specs = small_specs();
    specs.insert(
        1,
        ScenarioSpec {
            name: "poisoned".into(),
            cfg: SimConfig::toy(0),
            pop_cfg: PopulationConfig::toy(0),
            kernel: Kernel::default(),
            minutes: 240,
        },
    );
    let seeds = [11u64, 12];
    let cfg = SupervisorConfig {
        worker_cmd: Some(worker_cmd()),
        ..SupervisorConfig::in_process(2)
    };
    let (outcomes, report) = run_sweep_supervised_lenient(&specs, &seeds, &cfg).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    let (in_process, report) =
        run_sweep_supervised_lenient(&specs, &seeds, &SupervisorConfig::in_process(2)).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(outcomes, in_process);
    let mut k = 0;
    for spec in &specs {
        for &s in &seeds {
            match &outcomes[k] {
                CellResult::Completed(CellOutcome::Panicked {
                    scenario,
                    seed,
                    message,
                }) => {
                    assert_eq!((scenario.as_str(), *seed), ("poisoned", s));
                    assert!(
                        message.contains("population must be non-empty"),
                        "unexpected panic message: {message}"
                    );
                }
                CellResult::Completed(CellOutcome::Ok(run)) => {
                    assert_eq!(run, &run_scenario(spec, s))
                }
                CellResult::Failed(f) => panic!("cell {k} failed: {f:?}"),
            }
            k += 1;
        }
    }
    assert_eq!(
        outcomes.iter().filter(|o| o.run().is_none()).count(),
        seeds.len(),
        "exactly the poisoned scenario's cells fail"
    );
}

#[test]
fn killed_workers_recover_to_byte_identical_rows() {
    let specs = small_specs();
    let seeds = [21u64, 22];
    let cells = specs.len() * seeds.len();

    let clean_dir = temp_dir("clean");
    let clean_cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, clean_dir.clone());
    let (clean, report) = run_sweep_supervised_lenient(&specs, &seeds, &clean_cfg).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);

    // Every cell's worker dies after its first or second checkpoint.
    let kills = (0..cells as u32)
        .map(|cell| {
            Some(ChaosFault::Kill {
                after_checkpoints: 1 + cell % 2,
            })
        })
        .collect();
    let killed_dir = temp_dir("killed");
    let killed_cfg = SupervisorConfig {
        chaos: kills,
        ..SupervisorConfig::subprocess(worker_cmd(), 2, 150, killed_dir.clone())
    };
    let (recovered, report) = run_sweep_supervised_lenient(&specs, &seeds, &killed_cfg).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);

    assert_eq!(recovered, clean);
    assert_eq!(
        serde_json::to_string(&recovered).unwrap(),
        serde_json::to_string(&clean).unwrap(),
        "recovered sweep rows are not byte-identical to the clean sweep"
    );
    // And both match straight single-process runs of the same cells.
    let mut k = 0;
    for spec in &specs {
        for &s in &seeds {
            assert_eq!(recovered[k].run(), Some(&run_scenario(spec, s)));
            k += 1;
        }
    }
    // Checkpoint files were consumed and removed on the way out.
    for dir in [clean_dir, killed_dir] {
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftover checkpoints: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn respawn_budget_exhaustion_fails_the_cell() {
    // A kill at every checkpoint index the budget allows: the worker
    // dies on the first attempt, resumes clean afterwards — so to
    // force exhaustion the budget must be zero.
    let specs = small_specs();
    let dir = temp_dir("exhaust");
    let mut cfg = SupervisorConfig::subprocess(worker_cmd(), 1, 150, dir.clone());
    cfg.max_respawns = 0;
    cfg.chaos = vec![Some(ChaosFault::Kill {
        after_checkpoints: 1,
    })];
    let (results, report) = run_sweep_supervised_lenient(&specs[..1], &[31], &cfg).unwrap();
    let failure = CellFailure {
        cell: 0,
        scenario: "toy".into(),
        seed: 31,
        kind: FailureKind::Crashed,
        respawns: 0,
    };
    assert_eq!(report.failed, vec![failure.clone()]);
    assert_eq!(results, vec![CellResult::Failed(failure)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_chaos_matrix_recovers_to_byte_identical_rows() {
    // Six cells, one fault class each (round-robin): kill, stall,
    // dawdle, corrupt frame, torn checkpoint, bit-flipped checkpoint.
    // The watchdog must SIGKILL the stalled and dawdling workers, the
    // generation ladder must absorb the damaged checkpoints, and the
    // recovered rows must still be byte-identical to a clean sweep.
    let specs = small_specs();
    let seeds = [41u64, 42, 43];
    let cells = specs.len() * seeds.len();

    let clean_dir = temp_dir("chaos-clean");
    let clean_cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, clean_dir.clone());
    let (clean, report) = run_sweep_supervised_lenient(&specs, &seeds, &clean_cfg).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);

    let chaos_dir = temp_dir("chaos-matrix");
    let mut chaos_cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, chaos_dir.clone());
    chaos_cfg.chaos = ChaosPlan::fault_all(7, 2).matrix(cells);
    // Tight deadlines keep the stall and dawdle cells from dominating
    // the suite. Toy cells finish far inside the 2 s deadline: over 20
    // `cargo test --workspace` runs (dev profile, 2 vCPU) the slowest
    // clean or resumed cell took 43 ms, so the deadline keeps more
    // than 10x headroom. It must stay above the heartbeat timeout, or
    // the stalled worker would count as `DeadlineExceeded`, not `Hung`.
    chaos_cfg.watchdog.heartbeat_timeout = Duration::from_millis(500);
    chaos_cfg.watchdog.cell_deadline = Some(Duration::from_secs(2));
    let (results, report) = run_sweep_supervised_lenient(&specs, &seeds, &chaos_cfg).unwrap();

    assert_eq!(report.failed, vec![], "every faulted cell must recover");
    assert_eq!(report.completed, cells);
    let recovered: Vec<_> = results
        .iter()
        .map(|r| r.run().expect("completed cell").clone())
        .collect();
    let clean_rows: Vec<_> = clean.iter().map(|o| o.run().unwrap().clone()).collect();
    assert_eq!(
        serde_json::to_string(&recovered).unwrap(),
        serde_json::to_string(&clean_rows).unwrap(),
        "chaos-recovered rows are not byte-identical to the clean sweep"
    );
    // The diversity cells resumed from rebuilt folds and still promoted.
    assert!(recovered[seeds.len()..]
        .iter()
        .all(|r| r.metrics.promotions > 0));
    // Every fault class left its signature in the observed counters.
    assert!(report.observed.hung >= 1, "stall: {:?}", report.observed);
    assert!(
        report.observed.deadline_exceeded >= 1,
        "dawdle: {:?}",
        report.observed
    );
    assert!(
        report.observed.corrupt_frame >= 1,
        "corrupt frame: {:?}",
        report.observed
    );
    assert!(report.observed.crashed >= 1, "kill: {:?}", report.observed);
    assert!(
        report.observed.corrupt_checkpoint >= 2,
        "torn + bit-flip fallbacks: {:?}",
        report.observed
    );
    assert!(report.respawns >= 6, "all six faults force a respawn");
    // Generation files were consumed and removed on the way out.
    for dir in [clean_dir, chaos_dir] {
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftover checkpoints: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn lenient_sweep_degrades_one_cell_without_losing_survivors() {
    // Zero respawn budget + one killed cell: the batch must come back
    // with exactly that cell degraded and every survivor byte-equal
    // to its single-process run.
    let specs = small_specs();
    let seeds = [51u64, 52];
    let cells = specs.len() * seeds.len();
    let dir = temp_dir("lenient");
    let mut cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, dir.clone());
    cfg.max_respawns = 0;
    cfg.chaos = vec![None; cells];
    cfg.chaos[1] = Some(ChaosFault::Kill {
        after_checkpoints: 1,
    });
    let (results, report) = run_sweep_supervised_lenient(&specs, &seeds, &cfg).unwrap();
    assert_eq!(results.len(), cells);
    assert_eq!(report.completed, cells - 1);
    assert_eq!(report.failed.len(), 1);
    let failure = &report.failed[0];
    assert_eq!(failure.cell, 1);
    assert_eq!(failure.kind, FailureKind::Crashed);
    assert_eq!(failure.respawns, 0);
    assert_eq!(results[1].failure(), Some(failure));
    let mut k = 0;
    for spec in &specs {
        for &s in &seeds {
            if k != 1 {
                assert_eq!(results[k].run(), Some(&run_scenario(spec, s)));
            }
            k += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
