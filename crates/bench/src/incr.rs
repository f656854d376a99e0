//! The `incr_sweep` experiment: per-vote analytics throughput of the
//! [`IncrementalSweep`] state machine against the batch alternative.
//!
//! The live workload (ISSUE 6) is "a vote just arrived — refresh this
//! story's counters, features and verdict". Before the incremental
//! refactor the only way to do that was to re-sweep the story's whole
//! vote prefix from scratch on every arrival: O(k) fan-row streams for
//! the k-th vote, O(len²) per story. [`IncrementalSweep::apply_vote`]
//! does the same update in O(new-voter-fan-degree).
//!
//! Both paths run here over the same scaled graph
//! (`DIGG_SCALE_USERS` users, default one million, via
//! [`crate::scale::scale_edge_list`]) and the same deterministic story
//! batch, checkpointing after **every** vote: running cascade count,
//! influence (audience) and the Fig. 5 verdict. The checkpoint
//! checksums must agree exactly between the two paths — that equality
//! is the artifact's pass/fail flag — and the wall-times become
//! `scale` rows in `bench_summary.json` with the batch-vs-incremental
//! speedup (the acceptance bar is ≥ 10x at the default scale).

use crate::registry::{record_scale, Artifact, ScaleRecord};
use crate::scale::{scale_edge_list, ScaleParams};
use crate::timing::time_ms;
use des_core::par::worker_threads;
use des_core::StreamRng;
use digg_core::predictor::{fig5_predictor, InterestingnessPredictor};
use digg_core::IncrementalSweep;
use rand::Rng;
use social_graph::{GraphBuilder, SocialGraph, UserId};

/// Stream salt for the story-batch generator (distinct from the
/// `graph_scale` batch so the two experiments stay independent).
const STORY_STREAM: u64 = 0x0049_4e43_525f_5356; // "INCR_SV"

/// Per-vote checkpoint checksums: what both paths must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct Checkpoints {
    /// Sum of the running cascade count over every (story, prefix).
    pub cascade: u64,
    /// Sum of the running influence (audience) over every prefix.
    pub influence: u64,
    /// Number of prefixes with an extractable feature window.
    pub windows: u64,
    /// Number of those windows predicted interesting (Fig. 5 rule).
    pub interesting: u64,
}

/// The timing-free `incr_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct IncrSweepPayload {
    /// Users in the graph.
    pub users: usize,
    /// Deduplicated edges in the graph.
    pub edges: usize,
    /// Stories in the batch.
    pub stories: usize,
    /// Votes per story.
    pub votes_per_story: usize,
    /// Whether the incremental checkpoints matched the batch
    /// recompute exactly — the experiment's pass/fail condition.
    pub checkpoints_identical: bool,
    /// The agreed checksums.
    pub checkpoints: Checkpoints,
}

/// Deterministic story batch: voter lists of distinct users drawn from
/// per-story counter streams (thread- and order-invariant).
fn story_batch(seed: u64, params: &ScaleParams) -> Vec<Vec<UserId>> {
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

/// The incremental path: one `apply_vote` per arrival, O(1) feature
/// and verdict reads at every checkpoint.
pub fn incremental_checkpoints(
    graph: &SocialGraph,
    stories: &[Vec<UserId>],
    predictor: &InterestingnessPredictor,
) -> Checkpoints {
    let mut out = Checkpoints {
        cascade: 0,
        influence: 0,
        windows: 0,
        interesting: 0,
    };
    let mut incr = IncrementalSweep::new(graph);
    for voters in stories {
        incr.begin(graph);
        incr.reserve_votes(voters.len());
        for (k, &v) in voters.iter().enumerate() {
            // Touch a later voter's fan row so its offset and first
            // target line are in flight while this vote is applied;
            // the row fetch is a dependent DRAM+TLB chain that would
            // otherwise stall the absorb. Distance 8 suffices and
            // longer distances measure the same; `black_box` keeps
            // the touch from being optimised away.
            if let Some(&w) = voters.get(k + 8) {
                std::hint::black_box(graph.fans(w).first());
            }
            let applied = incr.apply_vote(graph, v);
            out.cascade += applied.cascade as u64;
            out.influence += applied.influence as u64;
            if let Some(interesting) = incr.verdict(predictor) {
                out.windows += 1;
                out.interesting += interesting as u64;
            }
        }
    }
    out
}

/// The batch path: on every vote arrival, re-sweep the story's whole
/// current prefix from scratch — the pre-refactor live-update cost.
pub fn batch_checkpoints(
    graph: &SocialGraph,
    stories: &[Vec<UserId>],
    predictor: &InterestingnessPredictor,
) -> Checkpoints {
    let mut out = Checkpoints {
        cascade: 0,
        influence: 0,
        windows: 0,
        interesting: 0,
    };
    let mut sweeper = IncrementalSweep::new(graph);
    for voters in stories {
        for k in 1..=voters.len() {
            let sweep = sweeper.sweep_story(graph, &voters[..k]);
            out.cascade += sweep.in_network_count_within(k) as u64;
            out.influence += sweep.influence_after(k) as u64;
            if let Some(f) = sweep.features() {
                out.windows += 1;
                out.interesting += predictor.predict_features(&f) as u64;
            }
        }
    }
    out
}

/// The `incr_sweep` standalone experiment.
pub fn run_incr_sweep(seed: u64) -> (Vec<Artifact>, usize) {
    let params = ScaleParams::from_env();
    let threads = worker_threads();
    let predictor = fig5_predictor();

    let edges = scale_edge_list(seed, params.users, params.avg_degree, threads);
    let mut b = GraphBuilder::new(params.users);
    b.extend_watches(edges.iter().copied());
    let graph = b.build_parallel(threads);
    drop(edges);

    let stories = story_batch(seed, &params);
    let total_votes = (params.stories * params.votes_per_story) as f64;

    let (incr, incr_ms) = time_ms(|| incremental_checkpoints(&graph, &stories, &predictor));
    let (batch, batch_ms) = time_ms(|| batch_checkpoints(&graph, &stories, &predictor));
    let checkpoints_identical = incr == batch;
    let speedup = batch_ms / incr_ms.max(1e-9);

    let payload = IncrSweepPayload {
        users: params.users,
        edges: graph.edge_count(),
        stories: params.stories,
        votes_per_story: params.votes_per_story,
        checkpoints_identical,
        checkpoints: incr,
    };

    record_scale(vec![
        ScaleRecord {
            name: "incr_sweep_apply".into(),
            users: params.users,
            edges: graph.edge_count(),
            wall_ms: incr_ms,
            per_sec: total_votes / (incr_ms / 1e3).max(1e-9),
            unit: "votes",
            speedup_vs_serial: Some(speedup),
        },
        ScaleRecord {
            name: "incr_sweep_batch_resweep".into(),
            users: params.users,
            edges: graph.edge_count(),
            wall_ms: batch_ms,
            per_sec: total_votes / (batch_ms / 1e3).max(1e-9),
            unit: "votes",
            speedup_vs_serial: None,
        },
    ]);

    let mut rendered = format!(
        "Incremental sweep harness ({} users, {} edges, {} stories x {} votes)\n",
        params.users, payload.edges, params.stories, params.votes_per_story
    );
    rendered.push_str(&format!(
        "incremental apply_vote: {incr_ms:.1} ms ({:.2}M votes/sec)\n",
        total_votes / (incr_ms / 1e3).max(1e-9) / 1e6
    ));
    rendered.push_str(&format!(
        "batch re-sweep per vote: {batch_ms:.1} ms ({:.2}M votes/sec)\n",
        total_votes / (batch_ms / 1e3).max(1e-9) / 1e6
    ));
    rendered.push_str(&format!(
        "speedup: {speedup:.1}x — checkpoints {}\n",
        if checkpoints_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    ));
    rendered.push_str(&format!(
        "checkpoints: cascade {} influence {} windows {} interesting {}\n",
        incr.cascade, incr.influence, incr.windows, incr.interesting
    ));

    (
        vec![Artifact::new("incr_sweep", rendered, &payload).with_ok(checkpoints_identical)],
        params.stories,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph_and_stories() -> (SocialGraph, Vec<Vec<UserId>>) {
        let users = 2_000;
        let edges = scale_edge_list(11, users, 6, 2);
        let mut b = GraphBuilder::new(users);
        b.extend_watches(edges.iter().copied());
        let g = b.build();
        let params = ScaleParams {
            users,
            avg_degree: 6,
            stories: 25,
            votes_per_story: 30,
        };
        (g, story_batch(11, &params))
    }

    #[test]
    fn incremental_and_batch_checkpoints_agree() {
        let (g, stories) = small_graph_and_stories();
        let p = fig5_predictor();
        let incr = incremental_checkpoints(&g, &stories, &p);
        let batch = batch_checkpoints(&g, &stories, &p);
        assert_eq!(incr, batch);
        // The batch is big enough to exercise every checkpoint kind.
        assert!(incr.cascade > 0, "no in-network votes in the batch");
        assert!(incr.influence > 0);
        assert_eq!(incr.windows, 25 * (30 - 10));
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
