//! # digg-bench
//!
//! Benchmark harness and experiment binaries for the Digg
//! reproduction.
//!
//! * [`registry`] — one [`registry::ExperimentSpec`] per paper
//!   artifact (fig1 … decay, the ablations abl1–abl4; see DESIGN.md
//!   §4): name → runner → rendered artifacts. Each run prints the
//!   reproduced table/series and writes `<name>.txt` / `<name>.json`
//!   when `DIGG_RESULTS_DIR` is set; a false `ok` flag fails the run.
//! * `src/bin/*` — the `experiments` dispatcher over the registry
//!   (`experiments fig3 scatter`, `experiments all`), the
//!   `sweep_worker` subprocess (the supervisor's worker, driven by
//!   `tests/checkpoint_recovery.rs`), and the `calibrate` and
//!   `bench_gate` tools.
//! * [`ablations`] — ABL1–ABL5. ABL4 ([`ablations::network_grid`])
//!   runs the june2006 pipeline over the robustness seed band on three
//!   fan graphs; its `site` rows are also the `robustness` artifact,
//!   and each `site` cell re-observes its scrape through the scrape
//!   faults at five rates (ABL5, observation loss).
//! * [`scale`] — the scale workloads: a deterministic
//!   `DIGG_SCALE_USERS` edge list (default one million users, ~10M
//!   edges), a story batch and the batch sweep checksums, shared by
//!   `incr_sweep`, the `live_1m` benchmark workload and
//!   `tests/scale_paths.rs`.
//! * [`incr`] — the `incr_sweep` experiment: per-vote analytics via
//!   `IncrementalSweep::apply_votes` against a re-sweep-every-vote
//!   batch baseline on the same scaled graph, with checkpoint
//!   equality enforced. It writes its two `scale` rows to
//!   `bench_summary.json`, which `bench_gate` reads.
//!
//! Performance is measured by the repository benchmark
//! (`benchmark/`); the experiments here produce artifacts and `ok`
//! flags.
//!
//! The expensive part — synthesizing the calibrated June-2006 dataset
//! (a multi-day platform simulation) — happens once per process via
//! `shared_synthesis`.

#![warn(missing_docs)]

pub mod ablations;
pub mod incr;
pub mod registry;
pub mod scale;
pub mod timing;

use digg_data::synth::{synthesize, SynthConfig, Synthesis};
use std::sync::OnceLock;

/// Artifact files go through the snapshot layer's one atomic, durable
/// write (tmp file, fsync, rename), so a concurrent reader never sees
/// a truncated file.
pub use digg_snapshot::write_atomic;

/// Default seed for all experiment binaries (override with
/// `DIGG_SEED`).
pub const DEFAULT_SEED: u64 = 2006;

/// Seed from `DIGG_SEED` or the default.
pub(crate) fn seed_from_env() -> u64 {
    std::env::var("DIGG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The shared full-scale synthesis, built once per process.
///
/// Uses the calibrated June-2006 scenario (25k users; the simulation
/// runs until ≥220 stories are promoted, then four more days for vote
/// saturation — tens of seconds in release builds).
pub(crate) fn shared_synthesis() -> &'static Synthesis {
    static CELL: OnceLock<Synthesis> = OnceLock::new();
    CELL.get_or_init(|| {
        let seed = seed_from_env();
        eprintln!("[digg-bench] synthesizing June-2006 dataset (seed {seed})…");
        let t0 = timing::stopwatch();
        let out = synthesize(&SynthConfig::june2006(seed));
        eprintln!(
            "[digg-bench] synthesis done in {:.1?}: {} fp / {} upcoming stories, {} users",
            t0.elapsed(),
            out.dataset.front_page.len(),
            out.dataset.upcoming.len(),
            out.dataset.network.user_count(),
        );
        out
    })
}

/// Print a rendered result and, when `DIGG_RESULTS_DIR` is set, save
/// `<name>.txt` (the rendering) and `<name>.json` (the serialized
/// payload) there. Artifact files are written atomically
/// ([`write_atomic`]).
pub(crate) fn emit<T: serde::Serialize>(name: &str, rendered: &str, payload: &T) {
    println!("{rendered}");
    let Ok(dir) = std::env::var("DIGG_RESULTS_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[digg-bench] cannot create {}: {e}", dir.display());
        return;
    }
    let write = |path: std::path::PathBuf, data: &[u8]| match write_atomic(&path, data) {
        Ok(()) => eprintln!("[digg-bench] wrote {}", path.display()),
        Err(e) => eprintln!("[digg-bench] cannot write {}: {e}", path.display()),
    };
    write(dir.join(format!("{name}.txt")), rendered.as_bytes());
    match serde_json::to_vec_pretty(payload) {
        Ok(json) => write(dir.join(format!("{name}.json")), &json),
        Err(e) => eprintln!("[digg-bench] cannot serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_seed_when_env_unset() {
        // The test runner may set DIGG_SEED; only assert the parse
        // path doesn't panic.
        let _ = super::seed_from_env();
    }
}
