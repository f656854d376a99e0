//! Seed-baseline comparison: the pre-refactor implementations of the
//! fig3 / scatter / intext analyses, timed against the unified
//! single-pass sweep engine on the same synthesis.
//!
//! The originals (preserved here verbatim in algorithmic shape) ran
//! one independent pass per statistic: fig3(a) built a fresh fan-union
//! `HashSet` per influence checkpoint, fig3(b) recomputed the full
//! O(votes²) in-network flag vector per cascade window, and scatter /
//! intext walked their inputs serially. The sweep engine answers every
//! per-story statistic from one truncated voter walk and fans stories
//! across worker threads, so [`compare`] both *verifies* that the new
//! results are identical and *measures* the speedup recorded in
//! `bench_summary.json`.

use crate::timing::time_ms as time;
use des_core::par::worker_threads;
use digg_core::experiments::{fig3, intext, scatter};
use digg_data::synth::Synthesis;
use digg_data::DiggDataset;
use digg_sim::scenario::PROMOTION_THRESHOLD;
use serde::Serialize;
use social_graph::{metrics, SocialGraph, UserId};
use std::collections::HashSet;

/// One seed-vs-sweep timing row of `bench_summary.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BaselineRecord {
    /// Analysis name (or the combined `fig3+scatter+intext` row).
    pub experiment: String,
    /// Seed implementation, milliseconds.
    pub seed_ms: f64,
    /// Sweep engine with the default worker fan-out, milliseconds.
    pub new_ms: f64,
    /// Sweep engine forced to one worker thread, milliseconds.
    pub new_single_ms: f64,
    /// `seed_ms / new_ms` (acceptance: ≥ 3 on the combined row).
    pub speedup: f64,
    /// `seed_ms / new_single_ms` (acceptance: ≥ 1 — never slower).
    pub single_thread_speedup: f64,
}

impl BaselineRecord {
    pub(crate) fn new(
        experiment: &str,
        seed_ms: f64,
        new_ms: f64,
        new_single_ms: f64,
    ) -> BaselineRecord {
        BaselineRecord {
            experiment: experiment.to_string(),
            seed_ms,
            new_ms,
            new_single_ms,
            speedup: seed_ms / new_ms.max(1e-9),
            single_thread_speedup: seed_ms / new_single_ms.max(1e-9),
        }
    }
}

/// Seed influence: fresh fan-union `HashSet` per checkpoint (the
/// pre-sweep-engine influence computation).
fn seed_influence_after(graph: &SocialGraph, voters: &[UserId], k: usize) -> usize {
    let k = k.min(voters.len());
    let mut audience: HashSet<UserId> = HashSet::new();
    for &v in &voters[..k] {
        audience.extend(graph.fans(v).iter().copied());
    }
    for &v in &voters[..k] {
        audience.remove(&v);
    }
    audience.len()
}

/// Seed cascade: the full O(votes²) flag vector (the pre-sweep-engine
/// in-network flags), recomputed per window and truncated.
fn seed_in_network_count_within(graph: &SocialGraph, voters: &[UserId], n: usize) -> usize {
    let mut flags = Vec::with_capacity(voters.len().saturating_sub(1));
    for k in 1..voters.len() {
        flags.push(graph.is_fan_of_any(voters[k], &voters[..k]));
    }
    flags.into_iter().take(n).filter(|&f| f).count()
}

/// Seed fig3 per-story values: three influence checkpoints and three
/// cascade windows, each computed independently and serially.
fn seed_fig3_values(ds: &DiggDataset) -> (Vec<[u64; 3]>, Vec<[u64; 3]>) {
    let g = &ds.network;
    let influence = ds
        .front_page
        .iter()
        .map(|r| {
            [
                seed_influence_after(g, &r.voters, 1) as u64,
                seed_influence_after(g, &r.voters, 11) as u64,
                seed_influence_after(g, &r.voters, 21) as u64,
            ]
        })
        .collect();
    let cascade = ds
        .front_page
        .iter()
        .map(|r| {
            [
                seed_in_network_count_within(g, &r.voters, 10) as u64,
                seed_in_network_count_within(g, &r.voters, 20) as u64,
                seed_in_network_count_within(g, &r.voters, 30) as u64,
            ]
        })
        .collect();
    (influence, cascade)
}

/// Seed scatter: the serial degree walks from
/// [`social_graph::metrics`], exactly as the pre-refactor binary
/// composed them.
fn seed_scatter(ds: &DiggDataset, top_k: usize) -> scatter::ScatterResult {
    let g = &ds.network;
    let all_users = metrics::friends_fans_scatter(g);
    let fans = metrics::fan_counts(g);
    let top: Vec<(f64, f64)> = ds
        .top_users
        .iter()
        .take(top_k)
        .map(|&u| (g.friend_count(u) as f64 + 1.0, g.fan_count(u) as f64 + 1.0))
        .collect();
    let xs: Vec<f64> = all_users.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = all_users.iter().map(|p| p.1).collect();
    let fan_tail = digg_stats::fit::fit_best_xmin(&fans, &[2, 3, 5, 10, 20]).map(Into::into);
    let median = |v: &[(f64, f64)]| {
        let fans: Vec<f64> = v.iter().map(|p| p.1).collect();
        digg_stats::descriptive::median(&fans).unwrap_or(0.0)
    };
    scatter::ScatterResult {
        spearman: digg_stats::correlation::spearman(&xs, &ys),
        fan_tail,
        top_median_fans: median(&top),
        all_median_fans: median(&all_users),
        all_users,
        top_users: top,
    }
}

/// Run the seed-vs-sweep comparison on a synthesis: verify the sweep
/// engine reproduces the seed results exactly, and return timing rows
/// (per analysis plus the combined `fig3+scatter+intext` acceptance
/// row).
///
/// Panics when any result diverges from the seed implementation —
/// a silent numeric drift would invalidate every figure downstream.
pub fn compare(synthesis: &Synthesis) -> Vec<BaselineRecord> {
    let ds = &synthesis.dataset;
    let threads = worker_threads();

    // fig3: seed = six independent passes; new = two truncated sweeps.
    let (new_fig3, fig3_new_ms) =
        time(|| (fig3::run_a_with(ds, threads), fig3::run_b_with(ds, threads)));
    let (_, fig3_single_ms) = time(|| (fig3::run_a_with(ds, 1), fig3::run_b_with(ds, 1)));
    let ((seed_infl, seed_casc), fig3_seed_ms) = time(|| seed_fig3_values(ds));
    let (new_a, new_b) = &new_fig3;
    for (ck, col) in new_a.checkpoints.iter().zip(0..3) {
        let seed_col: Vec<u64> = seed_infl.iter().map(|row| row[col]).collect();
        assert_eq!(
            ck.values, seed_col,
            "fig3a checkpoint {col} diverged from seed"
        );
    }
    for (ck, col) in new_b.checkpoints.iter().zip(0..3) {
        let seed_col: Vec<u64> = seed_casc.iter().map(|row| row[col]).collect();
        assert_eq!(
            ck.values, seed_col,
            "fig3b checkpoint {col} diverged from seed"
        );
    }

    // scatter: seed = serial metrics walks; new = fanned-out lookups.
    let (new_sc, sc_new_ms) = time(|| scatter::run_with(ds, 100, threads));
    let (_, sc_single_ms) = time(|| scatter::run_with(ds, 100, 1));
    let (seed_sc, sc_seed_ms) = time(|| seed_scatter(ds, 100));
    assert_eq!(
        serde_json::to_string(&new_sc).unwrap(),
        serde_json::to_string(&seed_sc).unwrap(),
        "scatter diverged from seed"
    );

    // intext: the port differs from the seed only in fanning out the
    // promotion-time scan, so the single-thread run *is* the seed
    // implementation; it is timed separately for each role.
    let (new_it, it_new_ms) = time(|| intext::run_with(synthesis, PROMOTION_THRESHOLD, threads));
    let (single_it, it_single_ms) = time(|| intext::run_with(synthesis, PROMOTION_THRESHOLD, 1));
    let (_, it_seed_ms) = time(|| intext::run_with(synthesis, PROMOTION_THRESHOLD, 1));
    assert_eq!(
        serde_json::to_string(&new_it).unwrap(),
        serde_json::to_string(&single_it).unwrap(),
        "intext diverged across thread counts"
    );

    let combined = BaselineRecord::new(
        "fig3+scatter+intext",
        fig3_seed_ms + sc_seed_ms + it_seed_ms,
        fig3_new_ms + sc_new_ms + it_new_ms,
        fig3_single_ms + sc_single_ms + it_single_ms,
    );
    if combined.speedup < 3.0 {
        eprintln!(
            "[digg-bench] WARNING: combined speedup {:.2}x below the 3x acceptance bar",
            combined.speedup
        );
    }
    vec![
        BaselineRecord::new("fig3", fig3_seed_ms, fig3_new_ms, fig3_single_ms),
        BaselineRecord::new("scatter", sc_seed_ms, sc_new_ms, sc_single_ms),
        BaselineRecord::new("intext", it_seed_ms, it_new_ms, it_single_ms),
        combined,
    ]
}

/// Render baseline rows as an aligned table.
pub fn render(rows: &[BaselineRecord]) -> String {
    let mut out = String::from(
        "Seed-baseline comparison (ms)\n  experiment            seed      new   new(1t)  speedup  1t-speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<20} {:>8.1} {:>8.1} {:>8.1} {:>7.2}x {:>9.2}x\n",
            r.experiment, r.seed_ms, r.new_ms, r.new_single_ms, r.speedup, r.single_thread_speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use social_graph::GraphBuilder;

    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(12);
        for f in 1..=5 {
            b.add_watch(UserId(f), UserId(0));
        }
        b.add_watch(UserId(6), UserId(1));
        b.build()
    }

    #[test]
    fn seed_helpers_match_the_sweep_engine() {
        let g = graph();
        let voters: Vec<UserId> = [0u32, 1, 6, 7, 2].iter().map(|&u| UserId(u)).collect();
        let mut sweeper = digg_core::IncrementalSweep::new(&g);
        let sweep = sweeper.sweep_story(&g, &voters);
        for k in 0..=voters.len() {
            assert_eq!(
                seed_influence_after(&g, &voters, k),
                sweep.influence_after(k),
                "influence diverges at k={k}"
            );
        }
        for n in 0..6 {
            assert_eq!(
                seed_in_network_count_within(&g, &voters, n),
                sweep.in_network_count_within(n),
                "cascade diverges at n={n}"
            );
        }
    }

    #[test]
    fn records_compute_speedups() {
        let r = BaselineRecord::new("x", 30.0, 10.0, 15.0);
        assert!((r.speedup - 3.0).abs() < 1e-9);
        assert!((r.single_thread_speedup - 2.0).abs() < 1e-9);
    }
}
