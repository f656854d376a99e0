//! `seed_band`: eight seeds of the reduced June-2006 scenario as four
//! sequential supervised sweeps of two cells each, on worker
//! subprocesses that checkpoint every [`CHECKPOINT_EVERY`] events.
//!
//! Set-up is a zero-minute sweep (spawn the workers, ship the specs,
//! build the populations). A pass is the four sweeps. The traced run
//! repeats the sweeps with checkpointing off (the checkpoint overhead,
//! and the rows must match byte for byte) and snapshots and restores
//! one finished cell in process.

use crate::metrics::{mean, median, per_s, secs};
use crate::trace::{BENCH, ROOT, SIM, SNAPSHOT};
use crate::{host, Ctx};
use des_core::StreamRng;
use digg_sim::population::PopulationConfig;
use digg_sim::scenario;
use digg_sim::supervisor::{run_sweep_supervised_lenient, CellResult, SupervisorConfig};
use digg_sim::sweep::{scenario_population, scenario_sim, CellOutcome, ScenarioRun, ScenarioSpec};
use digg_sim::time::DAY;
use digg_sim::{Kernel, Sim, SimConfig};
use digg_snapshot::{Restore, Snapshot};
use rand::Rng;
use std::path::Path;

/// Events between worker checkpoints.
const CHECKPOINT_EVERY: u64 = 20_000;
/// Sequential sweeps per pass.
const SWEEPS: usize = 4;
/// Cells (seeds) per sweep, one per worker.
const CELLS: usize = 2;
/// Stream salt of the cell seeds.
const BAND_STREAM: u64 = 0x0042_414e_445f_5345; // "BAND_SE"

/// The cell scenario: `june2006_small` for seven simulated days (smoke:
/// the toy scenario for six hours). The one place the benchmark names
/// a simulator kernel.
fn spec(smoke: bool) -> ScenarioSpec {
    let (cfg, pop_cfg, minutes) = if smoke {
        let cfg = SimConfig::toy(0);
        let pop_cfg = PopulationConfig::toy(cfg.users);
        (cfg, pop_cfg, 6 * 60)
    } else {
        let (cfg, _) = scenario::june2006_small(0);
        let pop_cfg = PopulationConfig {
            users: cfg.users,
            ..scenario::june2006_population_config()
        };
        (cfg, pop_cfg, 7 * DAY)
    };
    ScenarioSpec {
        name: "june2006_small".into(),
        cfg,
        pop_cfg,
        kernel: Kernel::default(),
        minutes,
    }
}

/// The band's cell seeds, derived from the run seed.
fn band_seeds(seed: u64) -> Vec<u64> {
    (0..(SWEEPS * CELLS) as u64)
        .map(|i| StreamRng::keyed(seed, &[BAND_STREAM, i]).random::<u64>())
        .collect()
}

/// Supervisor settings: subprocess workers when the benchmark binary
/// can serve as one, in-process shards otherwise (unit tests). The
/// workers get the checkpoint directory `dir`, where they leave their
/// peak RSS.
fn supervisor(ctx: &Ctx, checkpoint_every: u64, dir: &Path) -> SupervisorConfig {
    let workers = CELLS.min(ctx.threads);
    match &ctx.workers {
        Some(cmd) => {
            let mut cmd = cmd.clone();
            cmd.push(dir.to_string_lossy().into_owned());
            SupervisorConfig::subprocess(cmd, workers, checkpoint_every, dir.to_path_buf())
        }
        None => SupervisorConfig {
            checkpoint_every,
            checkpoint_dir: Some(dir.to_path_buf()),
            ..SupervisorConfig::in_process(workers)
        },
    }
}

/// What one supervised sweep did.
struct Swept {
    /// The completed cells' rows (empty on failure).
    rows: Vec<ScenarioRun>,
    /// Votes the rows simulated.
    votes: u64,
    /// Wall time of the sweep.
    ms: f64,
    /// Peak RSS of each worker process, MB (none in process).
    worker_rss_mb: Vec<f64>,
}

/// One supervised sweep. Checks that every cell completed without a
/// respawn.
fn sweep(
    ctx: &mut Ctx,
    spec: &ScenarioSpec,
    seeds: &[u64],
    every: u64,
    label: &'static str,
) -> Swept {
    let dir = ctx.tmp.join(format!("ckpt-{}", seeds[0]));
    let cfg = supervisor(ctx, every, &dir);
    let specs = std::slice::from_ref(spec);
    let (out, ms) = ctx.trace.span(SIM, label, || {
        run_sweep_supervised_lenient(specs, seeds, &cfg)
    });
    let worker_rss_mb = host::workers_peak_rss_mb(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let rows: Vec<ScenarioRun> = match &out {
        Ok((results, report)) => {
            let clean = report.failed.is_empty() && report.respawns == 0;
            let rows: Vec<ScenarioRun> = results
                .iter()
                .filter_map(|r| match r {
                    CellResult::Completed(CellOutcome::Ok(run)) => Some(run.clone()),
                    _ => None,
                })
                .collect();
            let ok = clean && rows.len() == seeds.len();
            ctx.report.check(
                format!("seed_band: {label} cells completed, 0 respawns"),
                ok,
            );
            rows
        }
        Err(e) => {
            eprintln!("[benchmark] seed_band: {label} failed: {e}");
            ctx.report.check(format!("seed_band: {label} ran"), false);
            Vec::new()
        }
    };
    let votes = rows.iter().map(|r| r.metrics.total_votes()).sum();
    Swept {
        rows,
        votes,
        ms,
        worker_rss_mb,
    }
}

/// One in-process snapshot and restore of a finished cell; checks the
/// restored simulator re-encodes to the same bytes.
fn snapshot_round_trip(ctx: &mut Ctx, spec: &ScenarioSpec, seed: u64) {
    let tr = &mut ctx.trace;
    let (sim, _) = tr.span(SIM, "run cell in process", || {
        let mut sim = scenario_sim(spec, seed);
        sim.run(spec.minutes);
        sim
    });
    let (bytes, encode_ms) = tr.span(SNAPSHOT, "Sim::snapshot", || sim.snapshot());
    let (pop, _) = tr.span(SIM, "scenario_population", || {
        scenario_population(spec, seed)
    });
    let (restored, decode_ms) = tr.span(SNAPSHOT, "Sim::restore", || Sim::restore(&bytes, pop));
    let (same, _) = tr.span(BENCH, "check round trip", || {
        restored.as_ref().is_ok_and(|r| r.snapshot() == bytes)
    });
    ctx.report.check(
        "seed_band: snapshot restores and re-encodes identically",
        same,
    );
    let r = &mut ctx.report;
    r.set("digg-snapshot.encode_ms", encode_ms);
    r.set("digg-snapshot.decode_ms", decode_ms);
    r.set("digg-snapshot.bytes", bytes.len() as f64);
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let spec = spec(ctx.smoke);
    let seeds = band_seeds(ctx.seed);

    let startup = ScenarioSpec {
        minutes: 0,
        ..spec.clone()
    };
    let set_up = |ctx: &mut Ctx| sweep(ctx, &startup, &seeds[..CELLS], 0, "startup sweep").ms;
    let mut setup_ms = Vec::new();
    while ctx.another_setup(&setup_ms, false) {
        setup_ms.push(set_up(ctx));
    }

    let mut passes: Vec<f64> = Vec::new();
    let mut sweep_ms = Vec::new();
    let mut rates = Vec::new();
    let mut worker_rss_mb = Vec::new();
    let mut pass_votes = 0;
    let mut swept_votes = 0;
    let mut rows = Vec::new();
    while ctx.another_pass(&passes) {
        let open = ctx.trace.open(ROOT, "pass");
        rows.clear();
        pass_votes = 0;
        for pair in seeds.chunks(CELLS) {
            let s = sweep(ctx, &spec, pair, CHECKPOINT_EVERY, "sweep");
            rows.extend(s.rows);
            sweep_ms.push(s.ms);
            pass_votes += s.votes;
            swept_votes += s.votes;
            rates.push(per_s(s.votes as f64, s.ms));
            worker_rss_mb.extend(s.worker_rss_mb);
        }
        passes.push(ctx.trace.close(open));
    }
    while ctx.another_setup(&setup_ms, true) {
        setup_ms.push(set_up(ctx));
    }

    // The cells run in the workers, so theirs is the workload's memory:
    // the median worker's peak RSS. The largest would follow single
    // cells: in 3 of 10 seeded runs one of the eight workers peaked
    // about 25% above the others. With in-process workers (unit tests)
    // it is this process's peak.
    let expected = match ctx.workers {
        Some(_) => passes.len() * SWEEPS * CELLS.min(ctx.threads),
        None => {
            worker_rss_mb.push(host::peak_rss_mb());
            1
        }
    };
    let r = &mut ctx.report;
    r.check(
        "seed_band: every worker reports its peak RSS",
        worker_rss_mb.len() == expected,
    );
    let (walls, setups) = (secs(&passes), secs(&setup_ms));
    let swept_ms: f64 = sweep_ms.iter().sum();
    r.record("peak_rss_mb", &worker_rss_mb);
    r.record_value("wall_s", mean(&walls), &walls);
    r.record_value("setup_s", mean(&setups), &setups);
    r.record_value("votes_per_s", per_s(swept_votes as f64, swept_ms), &rates);
    r.fact("digg-sim.votes", pass_votes as f64);
    r.record("digg-sim.supervisor.sweep_ms", &sweep_ms);
    r.record("digg-sim.supervisor.startup_ms", &setup_ms);

    if ctx.trace.enabled() {
        let mut plain_rows = Vec::new();
        let mut plain_ms = Vec::new();
        for pair in seeds.chunks(CELLS) {
            let s = sweep(ctx, &spec, pair, 0, "sweep without checkpoints");
            plain_rows.extend(s.rows);
            plain_ms.push(s.ms);
        }
        let (same, _) = ctx.trace.span(BENCH, "compare rows", || {
            serde_json::to_string(&rows).ok() == serde_json::to_string(&plain_rows).ok()
        });
        ctx.report.check(
            "seed_band: checkpointed rows byte-identical to checkpoint_every = 0 rows",
            same && !rows.is_empty(),
        );
        let nockpt = median(&plain_ms);
        let r = &mut ctx.report;
        r.record("digg-sim.supervisor.nockpt_sweep_ms", &plain_ms);
        r.set(
            "digg-snapshot.overhead_ratio",
            median(&sweep_ms) / nockpt.max(1e-9),
        );
        snapshot_round_trip(ctx, &spec, seeds[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_seeds_are_distinct_and_follow_the_run_seed() {
        let a = band_seeds(1);
        assert_eq!(a, band_seeds(1));
        assert_ne!(a, band_seeds(2));
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), SWEEPS * CELLS);
    }
}
