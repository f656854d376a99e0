//! Thread-invariance of the counting-sort CSR build: `build()` and
//! `build_parallel(t)` are one code path at one and at `t` row ranges,
//! so both are also checked against an independent oracle, the
//! deduplicated `(fan, watched)` pairs of a `BTreeSet` turned into
//! rows. Every case runs through both builder forms: an owned list
//! copied in by `extend_watches`, and the caller's list borrowed by
//! `GraphBuilder::from_edges`. Thread counts are passed explicitly —
//! `des_core::par::worker_threads` is the only env parser, and every
//! fan-out here takes the count as an argument.

use proptest::prelude::*;
use social_graph::{GraphBuilder, SocialGraph, UserId};
use std::collections::BTreeSet;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Edge lists with duplicates and self-loops over a modest id space
/// (self-loops exercise the build's drop path; duplicates exercise
/// the per-row dedup).
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..50, 0u32..50), 0..400)
}

fn user_edges(edges: &[(u32, u32)]) -> Vec<(UserId, UserId)> {
    edges.iter().map(|&(a, c)| (UserId(a), UserId(c))).collect()
}

/// An owned builder: the list copied in by `extend_watches`.
fn owned(edges: &[(UserId, UserId)]) -> GraphBuilder<'static> {
    let mut b = GraphBuilder::new(0);
    b.extend_watches(edges.iter().copied());
    b
}

/// Both builder forms over one list, named: owned and borrowed.
fn both_forms(edges: &[(UserId, UserId)]) -> [(&'static str, GraphBuilder<'_>); 2] {
    [
        ("owned", owned(edges)),
        ("borrowed", GraphBuilder::from_edges(0, edges)),
    ]
}

/// Check `graph` row by row against the oracle: the sorted,
/// deduplicated, loop-free pairs, read as friend rows and, swapped, as
/// fan rows.
fn assert_matches_oracle(graph: &SocialGraph, edges: &[(u32, u32)], what: &str) {
    let pairs: BTreeSet<(u32, u32)> = edges.iter().copied().filter(|&(a, c)| a != c).collect();
    // Self-loops are dropped before they grow the id space.
    let n = pairs
        .iter()
        .map(|&(a, c)| a.max(c) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut friends = vec![Vec::new(); n];
    let mut fans = vec![Vec::new(); n];
    // BTreeSet order is (fan, watched), so both row sets fill sorted.
    for &(a, c) in &pairs {
        friends[a as usize].push(UserId(c));
        fans[c as usize].push(UserId(a));
    }
    assert_eq!(graph.user_count(), n, "{what}: user count");
    assert_eq!(graph.edge_count(), pairs.len(), "{what}: edge count");
    for u in 0..n {
        let id = UserId::from_index(u);
        assert_eq!(graph.friends(id), &friends[u][..], "{what}: friends of {u}");
        assert_eq!(graph.fans(id), &fans[u][..], "{what}: fans of {u}");
    }
}

proptest! {
    #[test]
    fn parallel_build_equals_serial_build(edges in edges_strategy()) {
        let ids = user_edges(&edges);
        let serial = owned(&ids).build();
        for (form, b) in both_forms(&ids) {
            assert_matches_oracle(&b.build(), &edges, &format!("{form} build()"));
        }
        for threads in THREADS {
            for (form, b) in both_forms(&ids) {
                let parallel = b.build_parallel(threads);
                prop_assert_eq!(&parallel, &serial, "{} diverged at {} threads", form, threads);
            }
        }
    }
}

/// A 64-bit LCG, good enough to scatter edges around.
fn lcg(mut state: u64) -> impl FnMut() -> u32 {
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    }
}

/// A fixed-seed run big enough to clear the one-range cutoff (8,192
/// raw edges), so several ranges really scatter, dedup and compact.
#[test]
fn fixed_seed_large_build_is_bit_identical() {
    let mut next = lcg(0x2008_d166);
    let n = 5_000u32;
    let edges: Vec<(u32, u32)> = (0..60_000).map(|_| (next() % n, next() % n)).collect();
    let ids = user_edges(&edges);
    let serial = owned(&ids).build();
    assert!(
        serial.edge_count() > 50_000,
        "workload too small to be meaningful"
    );
    assert_matches_oracle(&serial, &edges, "build()");
    for threads in THREADS {
        for (form, b) in both_forms(&ids) {
            assert_eq!(
                b.build_parallel(threads),
                serial,
                "{form} parallel build diverged at {threads} threads"
            );
        }
    }
}

/// Hub-skewed and duplicate-heavy, above the one-range cutoff: a third
/// of the edges point at user 0, a third leave row 0 (which watches
/// everyone) and the rest point at users 1 to 7. Most pairs appear
/// three times, so ranges split unevenly and every range compacts.
#[test]
fn skewed_list_matches_the_oracle_at_every_thread_count() {
    let mut next = lcg(0x0bad_cafe);
    let n = 3_000u32;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 1..n {
        for _ in 0..3 {
            edges.push((i, 0));
            edges.push((0, i));
            edges.push((next() % n, i % 7 + 1));
        }
    }
    assert!(edges.len() > 1 << 13, "below the one-range cutoff");
    let ids = user_edges(&edges);
    for threads in THREADS {
        for (form, b) in both_forms(&ids) {
            let graph = b.build_parallel(threads);
            assert_matches_oracle(&graph, &edges, &format!("{form}, {threads} threads"));
        }
    }
}

/// A self-loop is dropped before it can grow the id space, also when
/// the build reads a borrowed list: user 9,000 appears only in a loop,
/// in a list above the one-range cutoff.
#[test]
fn borrowed_self_loop_does_not_grow_the_user_space() {
    let mut next = lcg(0x5e1f_100b);
    let n = 100u32;
    let mut edges: Vec<(u32, u32)> = (0..10_000).map(|_| (next() % n, next() % n)).collect();
    edges.insert(5_000, (9_000, 9_000));
    let ids = user_edges(&edges);
    for threads in THREADS {
        let graph = GraphBuilder::from_edges(n as usize, &ids).build_parallel(threads);
        assert_eq!(graph.user_count(), n as usize, "{threads} threads");
        assert_matches_oracle(&graph, &edges, &format!("{threads} threads"));
    }
}

/// `add_watch` and `extend_watches` on a borrowed builder copy the
/// list on write; the build then equals the owned build of the
/// borrowed edges plus the written ones.
#[test]
fn writing_to_a_borrowed_builder_copies_then_equals_the_owned_build() {
    let mut next = lcg(0xc0_e0_c0_e0);
    let mut edges: Vec<(u32, u32)> = (0..9_000).map(|_| (next() % 700, next() % 700)).collect();
    let ids = user_edges(&edges);
    let mut borrowed = GraphBuilder::from_edges(0, &ids);
    borrowed.add_watch(UserId(800), UserId(3));
    borrowed.extend_watches([(UserId(4), UserId(4)), (UserId(2), UserId(801))]);
    let graph = borrowed.build_parallel(2);
    edges.extend([(800, 3), (4, 4), (2, 801)]);
    assert_eq!(graph, owned(&user_edges(&edges)).build());
    assert_eq!(graph.user_count(), 802);
    assert_matches_oracle(&graph, &edges, "copied on write");
}
