//! Deterministic sharded CSR construction.
//!
//! [`GraphBuilder::build`](crate::GraphBuilder::build) finalises an
//! edge list with one global `sort_unstable` plus two serial
//! counting-sort passes — fine at the paper's ~17k users, serial
//! bottleneck at the ROADMAP's millions. This module runs the same
//! construction sharded across the `des_core::par` worker fan-out and
//! produces a [`SocialGraph`] **bit-identical** to the serial build at
//! any shard count:
//!
//! 1. **Shard by source row.** Rows `0..n` are split into contiguous
//!    ranges balanced by raw edge count (parallel per-chunk histogram →
//!    boundary walk). Each raw edge is routed to the shard owning its
//!    source row; per-chunk buckets are concatenated in chunk order.
//! 2. **Local sort + dedup.** Each shard sorts and deduplicates its
//!    edges independently. Because shards own *disjoint row ranges*,
//!    the concatenation of the per-shard sorted lists is exactly the
//!    globally sorted list, and every duplicate pair lands in the same
//!    shard — so per-shard dedup equals global dedup.
//! 3. **Offsets.** Per-shard row counts are written into disjoint
//!    regions of the offsets array ([`des_core::par::par_join`] over
//!    `split_at_mut` regions), then prefix-summed.
//! 4. **Scatter.** The friends view is a parallel copy of each shard's
//!    target column into its contiguous offsets region. The fans view
//!    re-buckets each shard's edges by *target* row range and scatters
//!    per target shard, visiting source shards in ascending order —
//!    the same global `(fan, watched)` scan order as the serial
//!    counting sort, so every fan row comes out in the identical
//!    ascending order.
//!
//! Determinism does not depend on the shard count: boundaries only
//! decide which worker computes which rows, never the row contents.
//! `tests/par_build.rs` pins `build() == build_parallel(t)` for
//! `t ∈ {1, 2, 8}` by proptest and at a fixed seed.

use crate::builder::CsrCapacityError;
use crate::graph::SocialGraph;
use crate::id::UserId;
use des_core::par::{chunk_size, par_join, par_map};

type Edge = (UserId, UserId);

/// Below this many raw edges the fan-out overhead dominates; fall back
/// to the serial path.
const MIN_PARALLEL_EDGES: usize = 1 << 13;

/// Effective shard count for a given raw edge count.
fn plan_shards(raw_edges: usize, threads: usize) -> usize {
    if raw_edges < MIN_PARALLEL_EDGES {
        1
    } else {
        threads.max(1)
    }
}

/// Row-range boundaries (length `parts + 1`, monotone, `0` to
/// `weights.len()`) splitting rows into `parts` contiguous ranges of
/// roughly equal total weight.
fn balance(weights: &[u64], parts: usize) -> Vec<usize> {
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    let mut acc = 0u64;
    let mut row = 0usize;
    for s in 1..parts {
        let target = total * s as u64 / parts as u64;
        while row < n && acc < target {
            acc += weights[row];
            row += 1;
        }
        bounds.push(row);
    }
    bounds.push(n);
    bounds
}

/// The reference serial construction (the body of the pre-PR-3
/// `GraphBuilder::build`): global sort + dedup, then two counting-sort
/// passes. [`build_parallel`] must reproduce this bit-for-bit.
pub(crate) fn serial(n: usize, mut edges: Vec<Edge>) -> Result<SocialGraph, CsrCapacityError> {
    edges.sort_unstable();
    edges.dedup();
    let m = edges.len();
    crate::builder::check_csr_capacity(m)?;

    // Friends view: edges are sorted by (fan, watched), so the target
    // column is already the concatenation of sorted rows.
    let mut friend_offsets = vec![0u32; n + 1];
    for &(a, _) in &edges {
        friend_offsets[a.index() + 1] += 1;
    }
    for i in 0..n {
        friend_offsets[i + 1] += friend_offsets[i];
    }
    let friend_targets: Vec<UserId> = edges.iter().map(|&(_, b)| b).collect();

    // Fans view: counting sort by target. Scanning edges in (a, b)
    // order writes each fan row's `a`s in ascending order, so rows
    // come out sorted without a second sort.
    let mut fan_offsets = vec![0u32; n + 1];
    for &(_, b) in &edges {
        fan_offsets[b.index() + 1] += 1;
    }
    for i in 0..n {
        fan_offsets[i + 1] += fan_offsets[i];
    }
    let mut cursor: Vec<u32> = fan_offsets[..n].to_vec();
    let mut fan_targets = vec![UserId(0); m];
    for &(a, b) in &edges {
        let slot = &mut cursor[b.index()];
        fan_targets[*slot as usize] = a;
        *slot += 1;
    }

    Ok(SocialGraph::from_csr(
        friend_offsets,
        friend_targets,
        fan_offsets,
        fan_targets,
    ))
}

/// Sharded construction from a raw edge list (duplicates allowed,
/// self-loops already dropped by `add_watch`). Bit-identical to
/// [`serial`] at any `threads`.
pub(crate) fn build_parallel(
    n: usize,
    edges: Vec<Edge>,
    threads: usize,
) -> Result<SocialGraph, CsrCapacityError> {
    let shards = plan_shards(edges.len(), threads);
    if shards <= 1 || n == 0 {
        return serial(n, edges);
    }

    // 1. Row boundaries balanced by raw per-row edge counts.
    let chunks: Vec<&[Edge]> = edges.chunks(chunk_size(edges.len(), shards)).collect();
    let hists: Vec<Vec<u32>> = par_map(&chunks, shards, |chunk| {
        let mut h = vec![0u32; n];
        for &(a, _) in *chunk {
            h[a.index()] += 1;
        }
        h
    });
    let mut row_weight = vec![0u64; n];
    for h in &hists {
        for (w, &c) in row_weight.iter_mut().zip(h) {
            *w += c as u64;
        }
    }
    drop(hists);
    let bounds = balance(&row_weight, shards);
    drop(row_weight);
    let shard_of = shard_map(&bounds, n);

    // 2. Bucket raw edges by source shard (chunk order preserved),
    //    then sort + dedup each shard independently.
    let buckets: Vec<Vec<Vec<Edge>>> = par_map(&chunks, shards, |chunk| {
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); shards];
        for &e in *chunk {
            out[shard_of[e.0.index()] as usize].push(e);
        }
        out
    });
    drop(chunks);
    drop(edges);
    let parts = transpose(buckets, shards);
    let shard_edges: Vec<Vec<Edge>> = par_map(&parts, shards, |parts| {
        let mut v: Vec<Edge> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            v.extend_from_slice(p);
        }
        v.sort_unstable();
        v.dedup();
        v
    });
    drop(parts);

    assemble(n, &shard_edges, &bounds)
}

/// Row → owning shard lookup table.
fn shard_map(bounds: &[usize], n: usize) -> Vec<u16> {
    let mut map = vec![0u16; n];
    for s in 0..bounds.len() - 1 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the shard count is bounded by worker_threads(), far below u16::MAX"
        )]
        map[bounds[s]..bounds[s + 1]].fill(s as u16);
    }
    map
}

/// Regroup per-chunk buckets into per-shard part lists, preserving
/// chunk order within each shard.
fn transpose(buckets: Vec<Vec<Vec<Edge>>>, shards: usize) -> Vec<Vec<Vec<Edge>>> {
    let mut parts: Vec<Vec<Vec<Edge>>> = (0..shards).map(|_| Vec::new()).collect();
    for chunk_buckets in buckets {
        for (s, b) in chunk_buckets.into_iter().enumerate() {
            parts[s].push(b);
        }
    }
    parts
}

/// Build both CSR views from per-source-shard sorted, deduplicated
/// edge lists. `bounds` are the source-row shard boundaries.
fn assemble(
    n: usize,
    shard_edges: &[Vec<Edge>],
    bounds: &[usize],
) -> Result<SocialGraph, CsrCapacityError> {
    let shards = shard_edges.len();
    let m: usize = shard_edges.iter().map(Vec::len).sum();
    crate::builder::check_csr_capacity(m)?;

    // 3. Friends offsets: per-shard counts into disjoint regions of the
    //    offsets array (counts for row r live at index r + 1), then one
    //    serial prefix sum.
    let mut friend_offsets = vec![0u32; n + 1];
    {
        let mut tasks = Vec::with_capacity(shards);
        let mut rest: &mut [u32] = &mut friend_offsets[1..];
        for s in 0..shards {
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            let (region, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let edges = &shard_edges[s];
            tasks.push(move || {
                for &(a, _) in edges {
                    region[a.index() - lo] += 1;
                }
            });
        }
        par_join(tasks);
    }
    for i in 0..n {
        friend_offsets[i + 1] += friend_offsets[i];
    }

    // 4a. Friends scatter: each shard's target column is copied into
    //     its contiguous region, already in globally sorted order.
    let mut friend_targets = vec![UserId(0); m];
    {
        let mut tasks = Vec::with_capacity(shards);
        let mut rest: &mut [UserId] = &mut friend_targets;
        for edges in shard_edges {
            let (region, tail) = rest.split_at_mut(edges.len());
            rest = tail;
            tasks.push(move || {
                for (slot, &(_, b)) in region.iter_mut().zip(edges) {
                    *slot = b;
                }
            });
        }
        par_join(tasks);
    }

    // 4b. Fans offsets: per-shard target histograms merged serially.
    let fan_hists: Vec<Vec<u32>> = par_map(shard_edges, shards, |edges| {
        let mut h = vec![0u32; n];
        for &(_, b) in edges {
            h[b.index()] += 1;
        }
        h
    });
    let mut fan_counts = vec![0u32; n];
    for h in &fan_hists {
        for (c, &x) in fan_counts.iter_mut().zip(h) {
            *c += x;
        }
    }
    drop(fan_hists);
    let mut fan_offsets = vec![0u32; n + 1];
    for i in 0..n {
        fan_offsets[i + 1] = fan_offsets[i] + fan_counts[i];
    }

    // 4c. Fans scatter: bucket each source shard's edges by target
    //     shard (order preserved), then each target shard replays the
    //     serial counting sort over its own rows, visiting source
    //     shards in ascending order — the exact global (a, b) scan
    //     order, so every fan row is written in the same sequence as
    //     the serial build.
    let tbounds = balance(
        &fan_counts.iter().map(|&c| c as u64).collect::<Vec<_>>(),
        shards,
    );
    drop(fan_counts);
    let tshard_of = shard_map(&tbounds, n);
    let tbuckets: Vec<Vec<Vec<Edge>>> = par_map(shard_edges, shards, |edges| {
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); shards];
        for &e in edges {
            out[tshard_of[e.1.index()] as usize].push(e);
        }
        out
    });
    let tparts = transpose(tbuckets, shards);

    let mut fan_targets = vec![UserId(0); m];
    {
        let mut tasks = Vec::with_capacity(shards);
        let mut rest: &mut [UserId] = &mut fan_targets;
        for s in 0..shards {
            let (tlo, thi) = (tbounds[s], tbounds[s + 1]);
            let base = fan_offsets[tlo];
            let len = (fan_offsets[thi] - base) as usize;
            let (region, tail) = rest.split_at_mut(len);
            rest = tail;
            let offsets = &fan_offsets;
            let parts = &tparts[s];
            tasks.push(move || {
                let mut cursor: Vec<u32> = offsets[tlo..thi].iter().map(|&o| o - base).collect();
                for part in parts {
                    for &(a, b) in part {
                        let slot = &mut cursor[b.index() - tlo];
                        region[*slot as usize] = a;
                        *slot += 1;
                    }
                }
            });
        }
        par_join(tasks);
    }

    Ok(SocialGraph::from_csr(
        friend_offsets,
        friend_targets,
        fan_offsets,
        fan_targets,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_is_monotone_and_covers_rows() {
        let w = vec![5u64, 0, 0, 9, 1, 1, 1, 20, 0, 2];
        for parts in 1..6 {
            let b = balance(&w, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), w.len());
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn balance_handles_empty_and_zero_weights() {
        assert_eq!(balance(&[], 3), vec![0, 0, 0, 0]);
        let b = balance(&[0, 0, 0], 2);
        assert_eq!(*b.last().unwrap(), 3);
    }

    #[test]
    fn shard_map_matches_bounds() {
        let map = shard_map(&[0, 2, 2, 5], 5);
        assert_eq!(map, vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn parallel_matches_serial_on_a_skewed_list() {
        // Hub-heavy: most edges target row 0, many duplicates.
        let mut edges: Vec<Edge> = Vec::new();
        for i in 1..40u32 {
            for _ in 0..3 {
                edges.push((UserId(i), UserId(0)));
                edges.push((UserId(0), UserId(i % 7 + 1)));
            }
        }
        let expect = serial(40, edges.clone()).unwrap();
        for threads in [1, 2, 3, 8] {
            assert_eq!(build_parallel(40, edges.clone(), threads).unwrap(), expect);
        }
    }
}
