//! CSR construction by counting sort, split across row ranges.
//!
//! [`GraphBuilder::build`](crate::GraphBuilder::build) and
//! [`GraphBuilder::build_parallel`](crate::GraphBuilder::build_parallel)
//! are this one function, at one row range and at `threads` ranges.
//! It reads the builder's edge list in place, owned or borrowed, and
//! every pass runs on every range:
//!
//! 1. **Count.** One task per chunk of the raw list counts the
//!    non-loop edges per source row and notes the largest non-loop id.
//!    Self-loops are dropped and the id space grows here, once. The
//!    merged counts are the rows' `usize` starts in a scatter buffer.
//! 2. **Friends view.** Split the rows into ranges of about equal raw
//!    edge count. Each range task ([`par_join`] over `split_at_mut`
//!    regions of the buffer) reads the whole raw list, writes the
//!    targets of its own rows into their slots, then sorts and
//!    deduplicates each row in place, packs the rows to the front of
//!    its region and counts each kept target for its fan row. A serial
//!    compaction closes the gaps the duplicates left between ranges.
//! 3. **Fans view.** The merged fan counts are the fan rows' starts.
//!    The same range scatter over the friends CSR read in source
//!    order: every fan row receives its fans in ascending order, so it
//!    comes out sorted with no second sort.
//!
//! A CSR whose rows are sorted and duplicate-free is canonical: the
//! edge set alone fixes it. Chunks and ranges only decide which worker
//! counts or writes what, so the graph is bit-identical at any thread
//! count. The price is that every range task reads the whole input
//! list; the tasks share no buffer, so nothing is copied per task.

use crate::builder::{check_csr_capacity, CsrCapacityError};
use crate::graph::SocialGraph;
use crate::id::UserId;
use des_core::par::par_join;
use std::borrow::Cow;

type Edge = (UserId, UserId);

/// Below this many raw edges one range does all the work: the
/// fan-out would cost more than it saves.
const MIN_PARALLEL_EDGES: usize = 1 << 13;

/// Build both CSR views of at least `n` users from a raw edge list
/// (duplicates and self-loops allowed; an out-of-range endpoint of a
/// non-loop edge grows the user set) with `threads` row-range tasks.
pub(crate) fn build(
    n: usize,
    edges: Cow<'_, [Edge]>,
    threads: usize,
) -> Result<SocialGraph, CsrCapacityError> {
    let ranges = if edges.len() < MIN_PARALLEL_EDGES {
        1
    } else {
        threads.max(1)
    };

    // 1. Count: drop self-loops, grow the id space, row starts.
    let (n, starts) = count_rows(n, &edges, ranges);

    // 2. Friends view: scatter by source row, then sort and dedup
    //    each row, packed to the front of its range's region, and
    //    count the kept targets per fan row.
    let bounds = split_rows(&starts, ranges);
    let mut friend_targets = vec![UserId(0); starts[n]];
    let raw = &*edges;
    let done = scatter_ranges(
        &starts,
        &bounds,
        &mut friend_targets,
        || raw.iter().copied().filter(|&(a, b)| a != b),
        |rows, region| {
            // A fan row holds at most one fan per other user: `u32`
            // counts.
            let mut fans = vec![0u32; n + 1];
            let lens = dedup_rows(rows, region, &mut fans);
            (lens, fans)
        },
    );
    drop(edges);
    let (row_lens, fan_counts): (Vec<_>, Vec<_>) = done.into_iter().unzip();
    let mut ends = Vec::with_capacity(n + 1);
    let mut m = 0;
    ends.push(m);
    for (lens, &lo) in row_lens.iter().zip(&bounds) {
        let packed: usize = lens.iter().sum();
        // Nothing moves until a range has dropped a duplicate.
        if starts[lo] != m {
            friend_targets.copy_within(starts[lo]..starts[lo] + packed, m);
        }
        for &len in lens {
            m += len;
            ends.push(m);
        }
    }
    drop(row_lens);
    drop(starts);
    friend_targets.truncate(m);
    friend_targets.shrink_to_fit();
    let friend_offsets = to_offsets(&ends)?;
    drop(ends);

    // 3. Fans view: scatter the friends CSR by target row. Reading it
    //    in source order fills every fan row in ascending order.
    let starts = merge_starts(n, fan_counts);
    let bounds = split_rows(&starts, ranges);
    let mut fan_targets = vec![UserId(0); m];
    let (fo, ft) = (&friend_offsets, &friend_targets);
    scatter_ranges(
        &starts,
        &bounds,
        &mut fan_targets,
        || {
            (0u32..).zip(fo.windows(2)).flat_map(move |(a, w)| {
                ft[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(move |&b| (b, UserId(a)))
            })
        },
        |_, _| (),
    );
    let fan_offsets = to_offsets(&starts)?;

    Ok(SocialGraph::from_csr(
        friend_offsets,
        friend_targets,
        fan_offsets,
        fan_targets,
    ))
}

/// The user count (`n`, grown past the largest id of any non-loop
/// edge) and the row starts (`n + 1` entries) of the non-loop edges'
/// source rows, counted by one task per chunk of `edges`. A chunk
/// holds at most `u32::MAX` edges, so its counts fit `u32`.
fn count_rows(n: usize, edges: &[Edge], chunks: usize) -> (usize, Vec<usize>) {
    let size = edges.len().div_ceil(chunks).clamp(1, u32::MAX as usize);
    let tasks: Vec<_> = edges
        .chunks(size)
        .map(|chunk| {
            move || {
                // Counts indexed by row + 1, grown as ids appear.
                let mut counts = vec![0u32; n + 1];
                let mut users = 0;
                for &(a, b) in chunk {
                    if a == b {
                        continue;
                    }
                    let (a, b) = (a.index(), b.index());
                    users = users.max(a.max(b) + 1);
                    if counts.len() <= a + 1 {
                        counts.resize(a + 2, 0);
                    }
                    counts[a + 1] += 1;
                }
                (users, counts)
            }
        })
        .collect();
    let (users, counts): (Vec<usize>, Vec<_>) = par_join(tasks).into_iter().unzip();
    let n = users.into_iter().fold(n, usize::max);
    (n, merge_starts(n, counts))
}

/// Row starts (`n + 1` entries) from per-task counts indexed by
/// row + 1, none longer than `n + 1`.
fn merge_starts(n: usize, counts: Vec<Vec<u32>>) -> Vec<usize> {
    let mut starts = vec![0usize; n + 1];
    for c in counts {
        for (s, k) in starts.iter_mut().zip(c) {
            *s += k as usize;
        }
    }
    for i in 0..n {
        starts[i + 1] += starts[i];
    }
    starts
}

/// Row bounds (`parts + 1` entries, monotone, `0` to `n`) splitting
/// the rows of `starts` into `parts` ranges of about equal edge count.
fn split_rows(starts: &[usize], parts: usize) -> Vec<usize> {
    let n = starts.len() - 1;
    let total = starts[n];
    let mut bounds: Vec<usize> = (0..parts)
        .map(|s| starts.partition_point(|&p| p < total * s / parts).min(n))
        .collect();
    bounds.push(n);
    bounds
}

/// One task per row range of `bounds`. Each reads every `(row, value)`
/// pair of `pairs()` and writes the values of its own rows, in input
/// order, into their slots of `out` (row `r` owns
/// `out[starts[r]..starts[r + 1]]`). Then it calls `finish` with its
/// rows' starts (`starts[lo..=hi]`) and its region of `out`. Returns
/// the `finish` results in range order.
fn scatter_ranges<I, R>(
    starts: &[usize],
    bounds: &[usize],
    out: &mut [UserId],
    pairs: impl Fn() -> I + Sync,
    finish: impl Fn(&[usize], &mut [UserId]) -> R + Sync,
) -> Vec<R>
where
    I: Iterator<Item = Edge>,
    R: Send,
{
    let (pairs, finish) = (&pairs, &finish);
    let mut tasks = Vec::with_capacity(bounds.len() - 1);
    let mut rest = out;
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let rows = &starts[lo..=hi];
        let (region, tail) = rest.split_at_mut(rows[rows.len() - 1] - rows[0]);
        rest = tail;
        tasks.push(move || {
            let mut cursor: Vec<usize> = rows[..rows.len() - 1]
                .iter()
                .map(|&p| p - rows[0])
                .collect();
            pairs().for_each(|(row, value)| {
                if let Some(c) = cursor.get_mut(row.index().wrapping_sub(lo)) {
                    region[*c] = value;
                    *c += 1;
                }
            });
            // Free the cursors before `finish` allocates its own
            // per-row array: the build's working memory is bounded.
            drop(cursor);
            finish(rows, region)
        });
    }
    par_join(tasks)
}

/// Sort and deduplicate every row of a range (`rows` are its starts),
/// packing the rows to the front of `region`, and count each kept
/// target in `fans` (indexed by target + 1). Returns the packed row
/// lengths.
fn dedup_rows(rows: &[usize], region: &mut [UserId], fans: &mut [u32]) -> Vec<usize> {
    let base = rows[0];
    let mut kept = 0;
    rows.windows(2)
        .map(|w| {
            let row = w[0] - base..w[1] - base;
            region[row.clone()].sort_unstable();
            let first = kept;
            for i in row {
                let v = region[i];
                if kept == first || region[kept - 1] != v {
                    region[kept] = v;
                    kept += 1;
                    fans[v.index() + 1] += 1;
                }
            }
            kept - first
        })
        .collect()
}

/// `u32` CSR offsets from `usize` row starts, failing when the edge
/// count does not fit the offset space.
fn to_offsets(starts: &[usize]) -> Result<Vec<u32>, CsrCapacityError> {
    let m = starts[starts.len() - 1];
    check_csr_capacity(m)?;
    starts
        .iter()
        .map(|&p| u32::try_from(p).map_err(|_| CsrCapacityError { edges: m }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rows_is_monotone_and_covers_rows() {
        let edges: Vec<Edge> = [0, 0, 3, 3, 3, 7, 7, 7, 7, 9]
            .into_iter()
            .map(|a| (UserId(a), UserId((a + 1) % 10)))
            .collect();
        let (n, starts) = count_rows(10, &edges, 1);
        assert_eq!(n, 10);
        for parts in 1..6 {
            let b = split_rows(&starts, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!((b[0], b[parts]), (0, 10));
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(split_rows(&[0], 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn count_rows_drops_loops_and_grows_ids_at_any_chunking() {
        let edges: Vec<Edge> = [(1, 2), (1, 2), (6, 6), (0, 4), (2, 1), (9, 9), (3, 0)]
            .into_iter()
            .map(|(a, b)| (UserId(a), UserId(b)))
            .collect();
        for chunks in 1..9 {
            let (n, starts) = count_rows(3, &edges, chunks);
            assert_eq!(n, 5, "{chunks} chunks");
            assert_eq!(starts, vec![0, 1, 3, 4, 5, 5], "{chunks} chunks");
        }
        assert_eq!(count_rows(2, &[], 3), (2, vec![0, 0, 0]));
    }

    #[test]
    fn dedup_rows_packs_sorted_unique_rows() {
        let mut region: Vec<UserId> = [3, 1, 3, 2, 2, 5, 4, 4].into_iter().map(UserId).collect();
        let mut fans = vec![0; 7];
        let lens = dedup_rows(&[10, 13, 13, 18], &mut region, &mut fans);
        assert_eq!(lens, vec![2, 0, 3]);
        assert_eq!(fans, vec![0, 0, 1, 1, 1, 1, 1]);
        let ids: Vec<u32> = region[..5].iter().map(|u| u.0).collect();
        assert_eq!(ids, vec![1, 3, 2, 4, 5]);
    }
}
