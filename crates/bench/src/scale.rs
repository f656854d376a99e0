//! Scale workloads shared by the `incr_sweep` experiment, the
//! `live_1m` benchmark workload and the `tests/scale_paths.rs` checks:
//! a deterministic shuffled raw edge list of `DIGG_SCALE_USERS` users
//! (default one million) at ~10 watch edges per user, a story batch of
//! chronological voter lists, and the batch sweep that reduces the
//! batch to `(in-network, influence)` checksums.
//!
//! Every generator draws from `StreamRng` counter streams, so its
//! output is a pure function of the seed and the dimensions, whatever
//! the thread count.

use des_core::StreamRng;
use rand::Rng;
use social_graph::{GraphBuilder, UserId};

/// Stream salts for the deterministic workload generators.
const EDGE_STREAM: u64 = 0x0053_4341_4c45_5f45; // "SCALE_E"
const SHUF_STREAM: u64 = 0x0053_4341_4c45_5f53; // "SCALE_S"
const STORY_STREAM: u64 = 0x0053_4341_4c45_5f56; // "SCALE_V"

/// Workload dimensions, scaled off `DIGG_SCALE_USERS`.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct ScaleParams {
    /// Users in the graph (`DIGG_SCALE_USERS`, default 1,000,000).
    pub users: usize,
    /// Mean watch edges per user in the generated edge list.
    pub avg_degree: usize,
    /// Stories in the sweep batch.
    pub stories: usize,
    /// Chronological voters per story.
    pub votes_per_story: usize,
}

impl ScaleParams {
    /// Dimensions from the environment: `DIGG_SCALE_USERS` users
    /// (≥ 1,000 enforced, so the ~10,000 raw edges clear the CSR
    /// build's one-range cutoff and it runs on several ranges), one
    /// sweep story per 100 users within `[100, 10_000]`.
    pub(crate) fn from_env() -> ScaleParams {
        let users = std::env::var("DIGG_SCALE_USERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1_000_000)
            .max(1_000);
        ScaleParams {
            users,
            avg_degree: 10,
            stories: (users / 100).clamp(100, 10_000),
            votes_per_story: 100,
        }
    }
}

/// Deterministic raw edge list: per-row skip-sampling on `StreamRng`
/// counter streams (thread-invariant by construction), then one
/// Fisher–Yates pass so the builders see scrape-order chaos rather
/// than presorted rows.
pub fn scale_edge_list(
    seed: u64,
    users: usize,
    avg_degree: usize,
    threads: usize,
) -> Vec<(UserId, UserId)> {
    let p = (avg_degree as f64 / users as f64).min(1.0);
    let lq = (1.0 - p).ln();
    let idx: Vec<usize> = (0..users).collect();
    let rows: Vec<Vec<UserId>> = des_core::par_map(&idx, threads, |&a| {
        let mut rng = StreamRng::keyed(seed, &[EDGE_STREAM, a as u64]);
        let mut row = Vec::with_capacity(avg_degree + avg_degree / 2);
        let mut col: u64 = 0;
        loop {
            let u: f64 = 1.0 - rng.random::<f64>();
            let skip = (u.ln() / lq).floor() as u64;
            col = col.saturating_add(skip).saturating_add(1);
            if col > users as u64 {
                break;
            }
            let c = (col - 1) as usize;
            if c != a {
                row.push(UserId::from_index(c));
            }
        }
        row
    });
    let mut edges: Vec<(UserId, UserId)> = Vec::with_capacity(users * avg_degree);
    for (a, row) in rows.iter().enumerate() {
        let a = UserId::from_index(a);
        edges.extend(row.iter().map(|&b| (a, b)));
    }
    let mut rng = StreamRng::keyed(seed, &[SHUF_STREAM]);
    for i in (1..edges.len()).rev() {
        let j = rng.random_range(0..=i);
        edges.swap(i, j);
    }
    edges
}

/// Deterministic sweep batch: `stories` voter lists of distinct users.
pub fn story_batch(seed: u64, params: &ScaleParams) -> Vec<Vec<UserId>> {
    (0..params.stories)
        .map(|i| {
            let mut rng = StreamRng::keyed(seed, &[STORY_STREAM, i as u64]);
            let mut voters: Vec<UserId> = Vec::with_capacity(params.votes_per_story);
            while voters.len() < params.votes_per_story {
                let v = UserId::from_index(rng.random_range(0..params.users));
                if !voters.contains(&v) {
                    voters.push(v);
                }
            }
            voters
        })
        .collect()
}

/// Builder over the scale edge list for `users` users. It borrows
/// `edges` ([`GraphBuilder::from_edges`]): the build reads the list in
/// place, so no copy of it is made.
pub fn builder_from(users: usize, edges: &[(UserId, UserId)]) -> GraphBuilder<'_> {
    GraphBuilder::from_edges(users, edges)
}

/// Batch story sweeps against any [`FanView`](social_graph::FanView)
/// graph — the in-memory CSR or the mmap-backed
/// [`social_graph::GraphMap`] — returning the `(in-network,
/// influence)` checksums.
pub fn sweep_totals<G: social_graph::FanView + Sync>(
    graph: &G,
    stories: &[Vec<UserId>],
    threads: usize,
) -> (u64, u64) {
    let per_story = digg_core::sweep_map(graph, stories, threads, |sw, voters| {
        let s = sw.sweep_story(graph, voters);
        (
            s.in_network_count_within(voters.len()) as u64,
            s.influence_after(voters.len()) as u64,
        )
    });
    per_story
        .into_iter()
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_is_thread_invariant_and_loop_free() {
        let one = scale_edge_list(5, 2_000, 5, 1);
        for threads in [2, 8] {
            assert_eq!(scale_edge_list(5, 2_000, 5, threads), one);
        }
        assert!(one.iter().all(|&(a, b)| a != b));
        let expected = 2_000.0 * 5.0;
        assert!(
            (one.len() as f64 - expected).abs() < 5.0 * expected.sqrt() + 50.0,
            "raw edges {} vs expected {expected}",
            one.len()
        );
    }

    #[test]
    fn story_batch_is_deterministic_and_distinct() {
        let params = ScaleParams {
            users: 500,
            avg_degree: 4,
            stories: 10,
            votes_per_story: 20,
        };
        let a = story_batch(3, &params);
        assert_eq!(a, story_batch(3, &params));
        for voters in &a {
            let mut sorted: Vec<UserId> = voters.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), voters.len(), "duplicate voter");
        }
    }
}
