//! `live_1m`: per-vote analytics over cascade-shaped stories on a
//! one-million-user graph.
//!
//! Set-up is `build_parallel` of the graph, repeated for its mean. The
//! stories are cascades: after the submitter, each voter is with
//! probability [`FAN_SHARE`] a random fan of an earlier voter, and
//! otherwise a uniform user — spread through fan links, the regime the
//! paper's prediction depends on (about half the votes are in-network,
//! against ~0.05% with uniform voters). A pass feeds every story, in
//! [`BATCHES`] batches, through `incr::incremental_checkpoints`
//! (per-vote `apply_vote` plus the streaming Fig. 5 verdict) and then
//! through `scale::sweep_totals` on [`PASS_THREADS`] threads; a few
//! batches are swept again at `nproc` threads for the parallel
//! speed-up.

use crate::metrics::{mean, median, per_s, secs};
use crate::trace::{BENCH, CORE, GRAPH, ROOT};
use crate::{host, Ctx, PASS_THREADS};
use des_core::StreamRng;
use digg_bench::incr;
use digg_bench::scale;
use digg_core::predictor::fig5_predictor;
use rand::Rng;
use social_graph::io::write_graph_map;
use social_graph::{membership, FanBitset, GraphMap, SocialGraph, UserId};

/// Batches per pass.
pub const BATCHES: usize = 10;
/// Probability that a voter is drawn from the fans of earlier voters.
pub const FAN_SHARE: f64 = 0.5;
/// Stories whose incremental checkpoints are checked against the
/// re-sweep-every-vote reference.
const REFERENCE_STORIES: usize = 200;
/// Batches swept again at `nproc` threads, for the parallel speed-up.
const PAR_BATCHES: usize = 3;
/// Stories whose voters feed the membership-probe comparison.
const PROBE_STORIES: usize = 2_000;
/// Stream salt of the cascade generator.
const CASCADE_STREAM: u64 = 0x004c_4956_455f_4341; // "LIVE_CA"

/// Graph and story counts.
struct Size {
    users: usize,
    avg_degree: usize,
    stories: usize,
    votes: usize,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            users: 10_000,
            avg_degree: 10,
            stories: 2_000,
            votes: 100,
        }
    } else {
        Size {
            users: 1_000_000,
            avg_degree: 10,
            stories: 200_000,
            votes: 100,
        }
    }
}

/// Cascade-shaped voter lists of `votes` distinct users each, one
/// counter stream per story (so the lists do not depend on `threads`).
pub fn cascade_stories(
    graph: &SocialGraph,
    seed: u64,
    stories: usize,
    votes: usize,
    threads: usize,
) -> Vec<Vec<UserId>> {
    let users = graph.user_count();
    let ids: Vec<u64> = (0..stories as u64).collect();
    des_core::par_map(&ids, threads, |&i| {
        let mut rng = StreamRng::keyed(seed, &[CASCADE_STREAM, i]);
        let mut voters: Vec<UserId> = Vec::with_capacity(votes);
        voters.push(UserId::from_index(rng.random_range(0..users)));
        while voters.len() < votes {
            let earlier = voters[rng.random_range(0..voters.len())];
            let fans = graph.fans(earlier);
            let v = if rng.random_bool(FAN_SHARE) && !fans.is_empty() {
                fans[rng.random_range(0..fans.len())]
            } else {
                UserId::from_index(rng.random_range(0..users))
            };
            if !voters.contains(&v) {
                voters.push(v);
            }
        }
        voters
    })
}

/// In-network probes of every voter against its story's voter list:
/// hits counted by `probe`.
fn probe_hits(
    graph: &SocialGraph,
    stories: &[Vec<UserId>],
    mut probe: impl FnMut(&[UserId], &[UserId]) -> bool,
) -> u64 {
    stories
        .iter()
        .flat_map(|voters| voters.iter().map(move |&v| (v, voters)))
        .filter(|&(v, voters)| probe(graph.friends(v), voters))
        .count() as u64
}

/// Traced only: one serial build of the same edges, for the parallel
/// build's speed-up; it must equal the parallel build.
fn serial_build(
    ctx: &mut Ctx,
    users: usize,
    edges: &[(UserId, UserId)],
    graph: &SocialGraph,
    par_ms: f64,
) {
    let (serial, serial_ms) = ctx.trace.span(GRAPH, "build (serial)", || {
        scale::builder_from(users, edges).build()
    });
    let (same, _) = ctx
        .trace
        .span(BENCH, "check serial build", || serial == *graph);
    ctx.report
        .check("live_1m: serial build equals the parallel build", same);
    let r = &mut ctx.report;
    r.set("social-graph.build_serial_ms", serial_ms);
    r.set(
        "social-graph.par_build_speedup",
        serial_ms / par_ms.max(1e-9),
    );
}

/// Traced only: the graph as a mapped CSR. Write it, open it verified
/// and trusted, and sweep the pass's batches over the map; the totals
/// must equal the in-memory ones.
fn mapped_sweeps(
    ctx: &mut Ctx,
    graph: &SocialGraph,
    batches: &[&[Vec<UserId>]],
    want: &[(u64, u64)],
    sweep_ms: &[f64],
) {
    let path = ctx.tmp.join("graph.gmap");
    let tr = &mut ctx.trace;
    let (written, write_ms) = tr.span(GRAPH, "write_graph_map", || write_graph_map(graph, &path));
    let (map, open_ms) = tr.span(GRAPH, "GraphMap::open", || GraphMap::open(&path));
    let (trusted, trusted_ms) = tr.span(GRAPH, "GraphMap::open_trusted", || {
        GraphMap::open_trusted(&path)
    });
    drop(trusted);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    ctx.report
        .check("live_1m: write_graph_map succeeds", written.is_ok());
    ctx.report
        .check("live_1m: verified GraphMap::open succeeds", map.is_ok());
    let Ok(map) = map else {
        return;
    };
    let mut map_ms = Vec::new();
    let mut same = true;
    for (b, want) in batches.iter().zip(want) {
        let (totals, ms) = ctx.trace.span(CORE, "sweep_totals (map)", || {
            scale::sweep_totals(&map, b, PASS_THREADS)
        });
        same &= totals == *want;
        map_ms.push(ms);
    }
    ctx.report
        .check("live_1m: mapped sweep totals equal in-memory totals", same);
    let r = &mut ctx.report;
    r.set("social-graph.gmap_write_ms", write_ms);
    r.set("social-graph.gmap_open_ms", open_ms);
    r.set("social-graph.gmap_open_trusted_ms", trusted_ms);
    r.set("social-graph.gmap_bytes", bytes as f64);
    r.record("digg-core.sweep_map_ms", &map_ms);
    r.set(
        "social-graph.gmap_sweep_ratio",
        median(&map_ms) / median(sweep_ms).max(1e-9),
    );
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) {
    let z = size(ctx.smoke);
    let (seed, threads) = (ctx.seed, ctx.threads);
    let (edges, edge_gen_ms) = ctx.trace.span(BENCH, "scale_edge_list", || {
        scale::scale_edge_list(seed, z.users, z.avg_degree, threads)
    });

    let mut build_ms = Vec::new();
    let build = |ctx: &mut Ctx, build_ms: &mut Vec<f64>| {
        let (g, ms) = ctx.trace.span(GRAPH, "build_parallel", || {
            scale::builder_from(z.users, &edges).build_parallel(threads)
        });
        build_ms.push(ms);
        g
    };
    // Input generation is no part of the peak; the first build's is.
    host::reset_peak_rss();
    let mut graph = build(ctx, &mut build_ms);
    let setup_peak_mb = host::peak_rss_mb();
    // All set-ups run before the passes: the edge list is dropped after
    // them. At about 1 s each they use the set-up budget up there.
    while ctx.another_setup(&build_ms, false) {
        // One graph at a time.
        drop(graph);
        graph = build(ctx, &mut build_ms);
    }
    if ctx.trace.enabled() {
        serial_build(ctx, z.users, &edges, &graph, median(&build_ms));
    }
    host::reset_peak_rss();
    let raw_edges = edges.len();
    drop(edges);

    let (stories, voter_gen_ms) = ctx.trace.span(BENCH, "cascade_stories", || {
        cascade_stories(&graph, seed, z.stories, z.votes, threads)
    });
    let (predictor, _) = ctx.trace.span(CORE, "fig5_predictor", fig5_predictor);
    let batches: Vec<&[Vec<UserId>]> = stories.chunks(z.stories.div_ceil(BATCHES)).collect();
    let votes = |b: &[Vec<UserId>]| b.iter().map(Vec::len).sum::<usize>() as f64;

    let mut passes: Vec<f64> = Vec::new();
    let (mut apply_ms, mut sweep_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut windows, mut interesting, mut in_network) = (0, 0, 0);
    let mut first_totals = Vec::new();
    while ctx.another_pass(&passes) {
        let open = ctx.trace.open(ROOT, "pass");
        for b in &batches {
            let (cp, a_ms) = ctx.trace.span(CORE, "incremental_checkpoints", || {
                incr::incremental_checkpoints(&graph, b, &predictor)
            });
            let (totals, s_ms) = ctx.trace.span(CORE, "sweep_totals", || {
                scale::sweep_totals(&graph, b, PASS_THREADS)
            });
            if passes.is_empty() {
                windows += cp.windows;
                interesting += cp.interesting;
                in_network += totals.0;
                first_totals.push(totals);
            }
            apply_ms.push(a_ms);
            sweep_ms.push(s_ms);
            // The batch's whole vote path: per-vote apply, then the sweep.
            rates.push(per_s(votes(b), a_ms + s_ms));
        }
        passes.push(ctx.trace.close(open));
    }

    // Output checks: incremental checkpoints against the re-sweep
    // reference, and the sweep at `threads` against one thread.
    let head = &stories[..REFERENCE_STORIES.min(stories.len())];
    let (want, _) = ctx
        .trace
        .span(BENCH, "incr::batch_checkpoints (reference)", || {
            incr::batch_checkpoints(&graph, head, &predictor)
        });
    let (got, _) = ctx
        .trace
        .span(CORE, "incremental_checkpoints (reference stories)", || {
            incr::incremental_checkpoints(&graph, head, &predictor)
        });
    ctx.report.check(
        "live_1m: incremental checkpoints equal batch_checkpoints",
        got == want,
    );
    let mut par_ms = Vec::new();
    let mut same = true;
    for (b, want) in batches.iter().zip(&first_totals).take(PAR_BATCHES) {
        let (totals, ms) = ctx.trace.span(CORE, "sweep_totals (nproc threads)", || {
            scale::sweep_totals(&graph, b, threads)
        });
        same &= totals == *want;
        par_ms.push(ms);
    }
    ctx.report.check(
        "live_1m: sweep totals equal at 1 thread and at nproc threads",
        same,
    );
    // The input regime the workload exists for: about half the votes in
    // network, and verdicts that split rather than all agree.
    let in_network_frac = in_network as f64 / votes(&stories).max(1.0);
    let interesting_frac = interesting as f64 / (windows as f64).max(1.0);
    ctx.report.check(
        "live_1m: in-network share of votes within [0.4, 0.6]",
        (0.4..=0.6).contains(&in_network_frac),
    );
    ctx.report.check(
        "live_1m: Fig. 5 verdicts split (interesting share within [0.1, 0.9])",
        (0.1..=0.9).contains(&interesting_frac),
    );

    let edges_per_s: Vec<f64> = build_ms
        .iter()
        .map(|&ms| per_s(raw_edges as f64, ms))
        .collect();
    let vote_path_ms: f64 = apply_ms.iter().chain(&sweep_ms).sum();
    let pass_votes = votes(&stories) * passes.len() as f64;
    let (walls, builds) = (secs(&passes), secs(&build_ms));
    let r = &mut ctx.report;
    r.set("peak_rss_mb", setup_peak_mb.max(host::peak_rss_mb()));
    r.record_value("wall_s", mean(&walls), &walls);
    r.record_value("setup_s", mean(&builds), &builds);
    r.record_value("votes_per_s", per_s(pass_votes, vote_path_ms), &rates);
    r.set("bench.edge_gen_ms", edge_gen_ms);
    r.set("bench.voter_gen_ms", voter_gen_ms);
    r.record("social-graph.build_ms", &build_ms);
    r.record("social-graph.build_edges_per_s", &edges_per_s);
    r.record("digg-core.apply_ms", &apply_ms);
    r.set(
        "digg-core.apply_max_ms",
        apply_ms.iter().copied().fold(0.0, f64::max),
    );
    r.record("digg-core.sweep_ms", &sweep_ms);
    r.set(
        "des-core.par_speedup",
        median(&sweep_ms) / median(&par_ms).max(1e-9),
    );
    r.fact("digg-core.in_network_frac", in_network_frac);
    r.fact("digg-ml.interesting_frac", interesting_frac);

    if ctx.trace.enabled() {
        mapped_sweeps(ctx, &graph, &batches, &first_totals, &sweep_ms);
        let probe_set = &stories[..PROBE_STORIES.min(stories.len())];
        let probes = votes(probe_set);
        let (scalar, scalar_ms) = ctx.trace.span(GRAPH, "membership::is_fan_of_any", || {
            probe_hits(&graph, probe_set, membership::is_fan_of_any)
        });
        let mut scratch = FanBitset::new(z.users);
        let (bitset, bitset_ms) = ctx.trace.span(GRAPH, "membership::bitset_probe", || {
            probe_hits(&graph, probe_set, |row, cand| {
                membership::bitset_probe(row, cand, &mut scratch)
            })
        });
        ctx.report.check(
            "live_1m: scalar and bitset membership probes agree",
            scalar == bitset,
        );
        let r = &mut ctx.report;
        r.set(
            "social-graph.membership_scalar_probes_per_s",
            per_s(probes, scalar_ms),
        );
        r.set(
            "social-graph.membership_bitset_probes_per_s",
            per_s(probes, bitset_ms),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_network_share(graph: &SocialGraph, stories: &[Vec<UserId>]) -> f64 {
        let (in_network, _) = scale::sweep_totals(graph, stories, 2);
        let votes: usize = stories.iter().map(Vec::len).sum();
        in_network as f64 / votes as f64
    }

    #[test]
    fn cascade_voters_are_deterministic_and_half_in_network() {
        let users = 20_000;
        let edges = scale::scale_edge_list(3, users, 10, 2);
        let graph = scale::builder_from(users, &edges).build();

        let a = cascade_stories(&graph, 7, 300, 100, 2);
        assert_eq!(a, cascade_stories(&graph, 7, 300, 100, 1));
        assert_ne!(a, cascade_stories(&graph, 8, 300, 100, 2));
        for voters in &a {
            let mut d = voters.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 100, "duplicate voter");
        }
        let cascade = in_network_share(&graph, &a);
        assert!((0.4..=0.6).contains(&cascade), "cascade share {cascade}");

        let params = scale::ScaleParams {
            users,
            avg_degree: 10,
            stories: 300,
            votes_per_story: 100,
        };
        let uniform = in_network_share(&graph, &scale::story_batch(7, &params));
        assert!(uniform < 0.05, "uniform share {uniform}");
    }
}
