//! # digg-bench
//!
//! Benchmark harness and experiment binaries for the Digg
//! reproduction.
//!
//! * [`registry`] — one [`registry::ExperimentSpec`] per paper
//!   artifact (fig1 … decay; see DESIGN.md §4): name → runner →
//!   rendered artifacts. Each run prints the reproduced table/series,
//!   writes `<name>.txt` / `<name>.json` when `DIGG_RESULTS_DIR` is
//!   set, and records wall-time + stories/sec into
//!   `bench_summary.json`.
//! * `src/bin/*` — the `experiments` dispatcher over the registry
//!   (`experiments fig3 scatter`, `experiments all --baseline`), the
//!   `sweep_worker` subprocess, and the `calibrate`, `ablations`,
//!   `robustness` and `bench_gate` tools.
//! * [`baseline`] — the pre-refactor (seed) implementations of fig3 /
//!   scatter / intext, timed against the sweep engine and verified to
//!   produce identical results.
//! * [`sweeps`] — the standalone `sim_sweep` experiment: a parallel
//!   `(config, seed)` simulator fan-out through the supervised sweep
//!   driver, whose subprocess rows must match an in-process run byte
//!   for byte.
//! * [`scale`] — the `graph_scale` experiment: serial-vs-sharded CSR
//!   construction of a `DIGG_SCALE_USERS` graph (default one million
//!   users, ~10M edges) with bit-identity enforced, plus degree
//!   metrics and a story-sweep batch; records edges/sec and votes/sec
//!   `scale` rows into `bench_summary.json`.
//! * [`incr`] — the `incr_sweep` experiment: per-vote analytics via
//!   `IncrementalSweep::apply_vote` against a re-sweep-every-vote
//!   batch baseline on the same scaled graph, with checkpoint
//!   equality enforced and the speedup recorded as `scale` rows.
//! * [`chaos`] — the `chaos_sweep` experiment: the one sweep driver
//!   (`digg_sim::supervisor`) run across real worker subprocesses
//!   under the full `ChaosPlan` fault matrix, with the recovered rows
//!   byte-compared to a clean sweep, a zero-budget lenient drill, plus
//!   checkpoint-overhead and snapshot encode/decode rates at
//!   `DIGG_CHECKPOINT_USERS`.
//!
//! Performance is measured by the repository benchmark (`benchmark/`)
//! and by the `bench_summary.json` rows the experiments record.
//!
//! The expensive part — synthesizing the calibrated June-2006 dataset
//! (a multi-day platform simulation) — happens once per process via
//! [`shared_synthesis`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baseline;
pub mod chaos;
pub mod degradation;
pub mod incr;
pub mod mmap;
pub mod registry;
pub mod scale;
pub mod sweeps;
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
pub fn seed_from_env() -> u64 {
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
pub fn shared_synthesis() -> &'static Synthesis {
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
pub fn emit<T: serde::Serialize>(name: &str, rendered: &str, payload: &T) {
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
