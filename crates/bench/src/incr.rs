//! The `incr_sweep` experiment: per-vote analytics throughput of the
//! [`IncrementalSweep`] state machine against the batch alternative.
//!
//! The live workload (ISSUE 6) is "a vote just arrived — refresh this
//! story's counters, features and verdict". Before the incremental
//! refactor the only way to do that was to re-sweep the story's whole
//! vote prefix from scratch on every arrival: O(k) fan-row streams for
//! the k-th vote, O(len²) per story. [`IncrementalSweep::apply_votes`]
//! does the same update in O(new-voter-fan-degree).
//!
//! Both paths run here over the same scaled graph
//! (`DIGG_SCALE_USERS` users, default one million, via
//! [`crate::scale::scale_edge_list`]) and the same deterministic story
//! batch ([`crate::scale::story_batch`]), checkpointing after **every** vote: running cascade count,
//! influence (audience) and the Fig. 5 verdict. The checkpoint
//! checksums must agree exactly between the two paths — that equality
//! is the artifact's pass/fail flag — and the wall-times become
//! `scale` rows in `bench_summary.json` with the batch-vs-incremental
//! speedup (the acceptance bar is ≥ 10x at the default scale).
//!
//! Each path is timed over whole repeated passes until it has run for
//! at least 250 ms, and the row reports the mean per pass: at
//! CI's reduced scale one incremental pass takes a few milliseconds,
//! too short for one timing to hold `bench_gate`'s ratio band. Every
//! pass must return the same checkpoints, or the artifact fails.

use crate::registry::Artifact;
use crate::scale::{builder_from, scale_edge_list, story_batch, ScaleParams};
use crate::timing::stopwatch;
use des_core::par::worker_threads;
use digg_core::predictor::{fig5_predictor, InterestingnessPredictor};
use digg_core::IncrementalSweep;
use social_graph::{SocialGraph, UserId};

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
pub(crate) struct IncrSweepPayload {
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

/// One `scale` row of `bench_summary.json`: the throughput of one
/// `incr_sweep` path at a stated graph size. `bench_gate` compares the
/// ratio of the two rows against `results/bench_baseline.json`.
#[derive(serde::Serialize)]
struct ScaleRecord {
    /// Operation name (`incr_sweep_apply` or
    /// `incr_sweep_batch_resweep`).
    name: String,
    /// Users in the graph the operation ran against.
    users: usize,
    /// Edges in that graph.
    edges: usize,
    /// Mean wall time of one pass of the operation in milliseconds.
    wall_ms: f64,
    /// Throughput in `unit`s per second.
    per_sec: f64,
    /// What `per_sec` counts (`"votes"`).
    unit: &'static str,
    /// Speedup over the reference path of the same operation, when
    /// one exists.
    speedup_vs_serial: Option<f64>,
}

/// The `bench_summary.json` payload.
#[derive(serde::Serialize)]
struct BenchSummary {
    seed: u64,
    threads: usize,
    scale: Vec<ScaleRecord>,
}

/// Write `bench_summary.json` into `DIGG_RESULTS_DIR`, or the working
/// directory when it is unset. Only `incr_sweep` writes it, so another
/// experiment run later never clears its rows. The write is atomic:
/// a crash or a concurrent reader never sees a half-written summary.
fn write_bench_summary(summary: &BenchSummary) {
    let dir = std::env::var("DIGG_RESULTS_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("bench_summary.json");
    let _ = std::fs::create_dir_all(&dir);
    match serde_json::to_vec_pretty(summary) {
        Ok(json) => match crate::write_atomic(&path, &json) {
            Ok(()) => eprintln!("[digg-bench] wrote {}", path.display()),
            Err(e) => eprintln!("[digg-bench] cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("[digg-bench] cannot serialize bench summary: {e}"),
    }
}

/// The incremental path: each story's votes go through one
/// [`IncrementalSweep::apply_votes`] call, whose callback reads the
/// checkpoint and the verdict after every vote, O(1) each. Every
/// story's voter list is known before its first vote is applied, so
/// the call loads the fan rows of up to 63 later voters before it
/// reads a verdict: the verdicts are those of each prefix, but the
/// speed is that of votes arriving a whole story per call.
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
        incr.apply_votes(graph, voters, |incr, applied| {
            out.cascade += applied.cascade as u64;
            out.influence += applied.influence as u64;
            if let Some(interesting) = incr.verdict(predictor) {
                out.windows += 1;
                out.interesting += interesting as u64;
            }
        });
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

/// Wall time each path is repeated for before its mean pass time is
/// reported.
const MIN_TIMED_MS: f64 = 250.0;

/// Run `pass` whole, at least once and until the passes total
/// [`MIN_TIMED_MS`]. Returns the first pass's checkpoints, whether
/// every later pass returned the same, the mean milliseconds per pass
/// and the pass count.
fn time_passes(mut pass: impl FnMut() -> Checkpoints) -> (Checkpoints, bool, f64, u32) {
    let sw = stopwatch();
    let first = pass();
    let mut stable = true;
    let mut passes = 1u32;
    while sw.elapsed_ms() < MIN_TIMED_MS {
        stable &= pass() == first;
        passes += 1;
    }
    (first, stable, sw.elapsed_ms() / f64::from(passes), passes)
}

/// The `incr_sweep` standalone experiment.
pub(crate) fn run_incr_sweep(seed: u64) -> Vec<Artifact> {
    let params = ScaleParams::from_env();
    let threads = worker_threads();
    let predictor = fig5_predictor();

    let edges = scale_edge_list(seed, params.users, params.avg_degree, threads);
    let graph = builder_from(params.users, &edges).build_parallel(threads);
    drop(edges);

    let stories = story_batch(seed, &params);
    let total_votes = (params.stories * params.votes_per_story) as f64;

    let (incr, incr_stable, incr_ms, incr_passes) =
        time_passes(|| incremental_checkpoints(&graph, &stories, &predictor));
    let (batch, batch_stable, batch_ms, batch_passes) =
        time_passes(|| batch_checkpoints(&graph, &stories, &predictor));
    let checkpoints_identical = incr == batch;
    let repeats_identical = incr_stable && batch_stable;
    let speedup = batch_ms / incr_ms.max(1e-9);

    let payload = IncrSweepPayload {
        users: params.users,
        edges: graph.edge_count(),
        stories: params.stories,
        votes_per_story: params.votes_per_story,
        checkpoints_identical,
        checkpoints: incr,
    };

    let scale = vec![
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
    ];
    write_bench_summary(&BenchSummary {
        seed,
        threads,
        scale,
    });

    let mut rendered = format!(
        "Incremental sweep harness ({} users, {} edges, {} stories x {} votes)\n",
        params.users, payload.edges, params.stories, params.votes_per_story
    );
    rendered.push_str(&format!(
        "incremental apply_votes: {incr_ms:.1} ms/pass over {incr_passes} passes ({:.2}M votes/sec)\n",
        total_votes / (incr_ms / 1e3).max(1e-9) / 1e6
    ));
    rendered.push_str(&format!(
        "batch re-sweep per vote: {batch_ms:.1} ms/pass over {batch_passes} passes ({:.2}M votes/sec)\n",
        total_votes / (batch_ms / 1e3).max(1e-9) / 1e6
    ));
    rendered.push_str(&format!(
        "speedup: {speedup:.1}x — checkpoints {}{}\n",
        if checkpoints_identical {
            "identical"
        } else {
            "DIVERGED"
        },
        if repeats_identical {
            ""
        } else {
            ", repeated passes DIVERGED"
        }
    ));
    rendered.push_str(&format!(
        "checkpoints: cascade {} influence {} windows {} interesting {}\n",
        incr.cascade, incr.influence, incr.windows, incr.interesting
    ));

    vec![Artifact::new("incr_sweep", rendered, &payload)
        .with_ok(checkpoints_identical && repeats_identical)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 25 stories of `votes` votes each on a 2k-user graph.
    fn small_graph_and_stories(votes: usize) -> (SocialGraph, Vec<Vec<UserId>>) {
        let users = 2_000;
        let edges = scale_edge_list(11, users, 6, 2);
        let g = builder_from(users, &edges).build();
        let params = ScaleParams {
            users,
            avg_degree: 6,
            stories: 25,
            votes_per_story: votes,
        };
        (g, story_batch(11, &params))
    }

    #[test]
    fn incremental_and_batch_checkpoints_agree() {
        let p = fig5_predictor();
        // 30 votes fit in one 64-voter gather block; 63, 64, 65 and
        // 129 end just before, on and after a block edge.
        for votes in [30, 63, 64, 65, 129] {
            let (g, stories) = small_graph_and_stories(votes);
            let incr = incremental_checkpoints(&g, &stories, &p);
            let batch = batch_checkpoints(&g, &stories, &p);
            assert_eq!(incr, batch, "{votes} votes");
            // The batch is big enough to exercise every checkpoint kind.
            assert!(incr.cascade > 0, "no in-network votes in the batch");
            assert!(incr.influence > 0);
            assert_eq!(incr.windows, 25 * (votes as u64 - 10));
        }
    }

    #[test]
    fn repeated_passes_must_agree() {
        let fixed = Checkpoints {
            cascade: 1,
            influence: 2,
            windows: 3,
            interesting: 4,
        };
        let (first, stable, mean_ms, passes) = time_passes(|| fixed);
        assert_eq!(first, fixed);
        assert!(stable && passes > 1 && mean_ms >= 0.0);
        // A pass that drifts from the first fails the comparison.
        let mut n = 0;
        let (first, stable, _, _) = time_passes(|| {
            n += 1;
            Checkpoints {
                cascade: n,
                ..fixed
            }
        });
        assert_eq!(first.cascade, 1);
        assert!(!stable);
    }
}
