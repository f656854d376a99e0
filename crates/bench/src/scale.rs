//! The `graph_scale` experiment: the repo's first scale-trajectory
//! numbers (ISSUE 3 / ROADMAP north star).
//!
//! Builds a large fan/friend graph — `DIGG_SCALE_USERS` users
//! (default one million) at ~10 watch edges per user — three ways from
//! the same shuffled raw edge list: the serial
//! [`GraphBuilder::build`], the sharded
//! [`GraphBuilder::build_parallel`] at the worker fan-out, and the
//! sharded path pinned to one thread. The parallel results must be
//! **bit-identical** to the serial graph (that equality is the
//! artifact's pass/fail flag); the timings become `scale` rows in
//! `bench_summary.json` — build edges/sec, sweep votes/sec — plus a
//! `graph_build` baseline row with the serial-vs-parallel speedup.
//!
//! On top of the built graph the runner executes the paper's two
//! workload shapes: degree metrics (max fans / mean out-degree / top
//! user, the `fans1` machinery) and a batch of story sweeps through
//! [`digg_core::sweep_map`] — so votes/sec is measured against the
//! same CSR rows the analytics engine streams in production.
//!
//! The artifact payload is **timing-free and thread-invariant**
//! (equality verdict, degree summary, sweep checksums); rates live in
//! the rendered text and the summary records, like every other
//! experiment here.

use crate::baseline::BaselineRecord;
use crate::registry::{record_baselines, record_scale, Artifact, ScaleRecord};
use crate::timing::time_ms;
use des_core::par::worker_threads;
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
    /// (≥ 1,000 enforced so the harness always exercises the sharded
    /// path), one sweep story per 100 users within `[100, 10_000]`.
    pub fn from_env() -> ScaleParams {
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

/// The timing-free `graph_scale` artifact payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct GraphScalePayload {
    /// Users in the graph.
    pub users: usize,
    /// Raw (pre-dedup) edges fed to every builder.
    pub raw_edges: usize,
    /// Deduplicated edges in the built graph.
    pub edges: usize,
    /// Whether both parallel builds were bit-identical to the serial
    /// build — the experiment's pass/fail condition.
    pub parallel_identical: bool,
    /// Largest fan count (the paper's `fans1` for the top user).
    pub max_fans: usize,
    /// The user holding `max_fans`.
    pub top_user: u32,
    /// Mean out-degree of the built graph.
    pub mean_out_degree: f64,
    /// Total in-network votes across the sweep batch (checksum; also
    /// pins thread-invariance of the sweep results).
    pub in_network_votes: u64,
    /// Total final influence across the sweep batch (checksum).
    pub final_influence: u64,
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

/// Builder primed with the scale edge list (shared with `mmap_sweep`).
pub fn builder_from(users: usize, edges: &[(UserId, UserId)]) -> GraphBuilder {
    let mut b = GraphBuilder::new(users);
    b.extend_watches(edges.iter().copied());
    b
}

/// Batch story sweeps against any [`FanView`](social_graph::FanView)
/// graph — the in-memory CSR here, the mmap-backed
/// [`social_graph::GraphMap`] in `mmap_sweep` — returning the
/// `(in-network, influence)` checksums.
pub fn sweep_totals<G: social_graph::FanView + Sync>(
    graph: &G,
    stories: &[Vec<UserId>],
    threads: usize,
) -> (u64, u64) {
    // The fallible fan-out: a panicking shard surfaces as an
    // aggregated WorkerPanic naming the failed shards instead of
    // poisoning a join handle mid-batch.
    let per_story = digg_core::try_sweep_map(graph, stories, threads, |sw, voters| {
        let s = sw.sweep_story(graph, voters);
        (
            s.in_network_count_within(voters.len()) as u64,
            s.influence_after(voters.len()) as u64,
        )
    })
    .unwrap_or_else(|e| panic!("graph_scale sweep worker panicked: {e}"));
    per_story
        .into_iter()
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
}

/// The `graph_scale` standalone experiment.
pub fn run_graph_scale(seed: u64) -> (Vec<Artifact>, usize) {
    let params = ScaleParams::from_env();
    let threads = worker_threads();

    let (edges, gen_ms) =
        time_ms(|| scale_edge_list(seed, params.users, params.avg_degree, threads));
    let raw_edges = edges.len();

    // The same shuffled list through all three build paths.
    let (serial_graph, serial_ms) = time_ms(|| builder_from(params.users, &edges).build());
    let (par_graph, par_ms) =
        time_ms(|| builder_from(params.users, &edges).build_parallel(threads));
    let (par1_graph, par1_ms) = time_ms(|| builder_from(params.users, &edges).build_parallel(1));
    let parallel_identical = par_graph == serial_graph && par1_graph == serial_graph;
    drop(par1_graph);
    drop(serial_graph);
    drop(edges);
    let graph = par_graph;

    // Degree metrics: the fans1 machinery at scale.
    let ((max_fans, top_user, mean_out_degree), degree_ms) = time_ms(|| {
        let fans = social_graph::metrics::fan_counts(&graph);
        let (top, max) = fans
            .iter()
            .enumerate()
            .max_by_key(|&(i, &f)| (f, std::cmp::Reverse(i)))
            .map(|(i, &f)| (social_graph::UserId::from_index(i).0, f as usize))
            .unwrap_or((0, 0));
        let mean = graph.edge_count() as f64 / graph.user_count().max(1) as f64;
        (max, top, mean)
    });

    // Story sweeps: the paper's per-story analytics workload.
    let stories = story_batch(seed, &params);
    let total_votes = (params.stories * params.votes_per_story) as f64;
    let ((in_network_votes, final_influence), sweep_ms) =
        time_ms(|| sweep_totals(&graph, &stories, threads));
    let ((in1, fi1), sweep1_ms) = time_ms(|| sweep_totals(&graph, &stories, 1));
    let sweeps_invariant = (in1, fi1) == (in_network_votes, final_influence);

    let build_speedup = serial_ms / par_ms.max(1e-9);
    let payload = GraphScalePayload {
        users: params.users,
        raw_edges,
        edges: graph.edge_count(),
        parallel_identical,
        max_fans,
        top_user,
        mean_out_degree,
        in_network_votes,
        final_influence,
    };

    record_scale(vec![
        ScaleRecord {
            name: "graph_build_serial".into(),
            users: params.users,
            edges: raw_edges,
            wall_ms: serial_ms,
            per_sec: raw_edges as f64 / (serial_ms / 1e3).max(1e-9),
            unit: "edges",
            speedup_vs_serial: None,
        },
        ScaleRecord {
            name: "graph_build_parallel".into(),
            users: params.users,
            edges: raw_edges,
            wall_ms: par_ms,
            per_sec: raw_edges as f64 / (par_ms / 1e3).max(1e-9),
            unit: "edges",
            speedup_vs_serial: Some(build_speedup),
        },
        ScaleRecord {
            name: "story_sweeps".into(),
            users: params.users,
            edges: graph.edge_count(),
            wall_ms: sweep_ms,
            per_sec: total_votes / (sweep_ms / 1e3).max(1e-9),
            unit: "votes",
            speedup_vs_serial: Some(sweep1_ms / sweep_ms.max(1e-9)),
        },
    ]);
    record_baselines(vec![BaselineRecord::new(
        "graph_build",
        serial_ms,
        par_ms,
        par1_ms,
    )]);

    let mut rendered = format!(
        "Graph scale harness ({} users, {} raw edges, {} threads)\n",
        params.users, raw_edges, threads
    );
    rendered.push_str(&format!(
        "edge list generated in {gen_ms:.1} ms (sharded per-row streams)\n"
    ));
    rendered.push_str(&format!(
        "build: serial {serial_ms:.1} ms, parallel {par_ms:.1} ms ({build_speedup:.2}x), parallel@1t {par1_ms:.1} ms — {}\n",
        if parallel_identical { "bit-identical" } else { "DIVERGED" }
    ));
    rendered.push_str(&format!(
        "build rate: {:.2}M edges/sec parallel, {:.2}M edges/sec serial\n",
        raw_edges as f64 / (par_ms / 1e3).max(1e-9) / 1e6,
        raw_edges as f64 / (serial_ms / 1e3).max(1e-9) / 1e6,
    ));
    rendered.push_str(&format!(
        "graph: {} edges after dedup, mean out-degree {mean_out_degree:.2}, top user u{top_user} with {max_fans} fans ({degree_ms:.1} ms degree pass)\n",
        payload.edges
    ));
    rendered.push_str(&format!(
        "sweeps: {} stories x {} votes in {sweep_ms:.1} ms ({:.2}M votes/sec), {} in-network votes, influence checksum {} — {}\n",
        params.stories,
        params.votes_per_story,
        total_votes / (sweep_ms / 1e3).max(1e-9) / 1e6,
        in_network_votes,
        final_influence,
        if sweeps_invariant { "thread-invariant" } else { "DIVERGED" }
    ));

    let ok = parallel_identical && sweeps_invariant;
    (
        vec![Artifact::new("graph_scale", rendered, &payload).with_ok(ok)],
        params.stories,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ScaleParams {
        ScaleParams {
            users: 3_000,
            avg_degree: 6,
            stories: 40,
            votes_per_story: 25,
        }
    }

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
    fn sweep_totals_are_thread_invariant() {
        let p = small_params();
        let edges = scale_edge_list(9, p.users, p.avg_degree, 2);
        let g = builder_from(p.users, &edges).build_parallel(2);
        assert_eq!(g, builder_from(p.users, &edges).build());
        let stories = story_batch(9, &p);
        assert!(stories.iter().all(|s| s.len() == p.votes_per_story));
        let serial = sweep_totals(&g, &stories, 1);
        for threads in [2, 8] {
            assert_eq!(sweep_totals(&g, &stories, threads), serial);
        }
    }
}
