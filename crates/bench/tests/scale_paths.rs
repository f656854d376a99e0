//! The scale path's equivalence checks at the CI size (50,000 users,
//! ~10 watch edges each): `build()` and `build_parallel` give the same
//! CSR at every thread count, the batch sweep is thread-invariant on
//! both graph backings, the mmap-backed `GraphMap` serves exactly the
//! in-memory rows, and the two membership kernels agree on the mapped
//! rows.

use digg_bench::scale::{builder_from, scale_edge_list, story_batch, sweep_totals, ScaleParams};
use social_graph::io::write_graph_map;
use social_graph::{membership, FanBitset, FanView, GraphMap, SocialGraph, UserId};

const SEED: u64 = 2006;

fn params() -> ScaleParams {
    ScaleParams {
        users: 50_000,
        avg_degree: 10,
        stories: 500,
        votes_per_story: 100,
    }
}

/// Slice-for-slice comparison of every friend and fan row.
fn rows_identical(mem: &SocialGraph, map: &GraphMap) -> bool {
    FanView::user_count(mem) == map.user_count()
        && FanView::edge_count(mem) == map.edge_count()
        && (0..map.user_count()).all(|i| {
            let u = UserId::from_index(i);
            FanView::friends(mem, u) == map.friends(u) && FanView::fans(mem, u) == map.fans(u)
        })
}

/// Hits of one membership kernel over every (voter's friend row,
/// story voter list) pair: the candidate shape the incremental sweep's
/// in-network test sees.
fn membership_hits(
    map: &GraphMap,
    stories: &[Vec<UserId>],
    mut probe: impl FnMut(&[UserId], &[UserId]) -> bool,
) -> u64 {
    let mut hits = 0;
    for voters in stories {
        for &v in voters {
            hits += u64::from(probe(map.friends(v), voters));
        }
    }
    hits
}

#[test]
fn scale_paths_agree_at_ci_size() {
    let p = params();
    let edges = scale_edge_list(SEED, p.users, p.avg_degree, 2);
    let mem = builder_from(p.users, &edges).build();
    for threads in [1, 2, 8] {
        assert!(
            builder_from(p.users, &edges).build_parallel(threads) == mem,
            "build_parallel({threads}) differs from build()"
        );
    }

    let path = std::env::temp_dir().join(format!("digg-scale-paths-{}.gmap", std::process::id()));
    write_graph_map(&mem, &path).expect("write graph map");
    let map = GraphMap::open(&path).expect("open graph map");

    assert!(
        rows_identical(&mem, &map),
        "mapped rows differ from the CSR"
    );
    let other = builder_from(p.users, &edges[..edges.len() - 1]).build();
    assert_eq!(other.edge_count() + 1, mem.edge_count());
    assert!(
        !rows_identical(&other, &map),
        "row comparison missed a one-edge difference"
    );

    let stories = story_batch(SEED, &p);
    assert_eq!(stories.len(), p.stories);
    assert!(stories.iter().all(|s| s.len() == p.votes_per_story));
    let want = sweep_totals(&mem, &stories, 1);
    assert!(want.0 > 0 && want.1 > 0, "degenerate sweep batch: {want:?}");
    for threads in [1, 2, 8] {
        assert_eq!(
            sweep_totals(&mem, &stories, threads),
            want,
            "mem @ {threads}"
        );
        assert_eq!(
            sweep_totals(&map, &stories, threads),
            want,
            "map @ {threads}"
        );
    }

    let scalar = membership_hits(&map, &stories, membership::is_fan_of_any);
    let mut scratch = FanBitset::new(p.users);
    let bitset = membership_hits(&map, &stories, |row, cand| {
        membership::bitset_probe(row, cand, &mut scratch)
    });
    assert!(scalar > 0, "no membership hits");
    assert_eq!(scalar, bitset);

    drop(map);
    std::fs::remove_file(&path).ok();
}
