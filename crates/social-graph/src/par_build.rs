//! CSR construction by counting sort, split across row ranges.
//!
//! [`GraphBuilder::build`](crate::GraphBuilder::build) and
//! [`GraphBuilder::build_parallel`](crate::GraphBuilder::build_parallel)
//! are this one function, at one row range and at `threads` ranges:
//!
//! 1. **Friends view.** Count raw edges per source row; the prefix
//!    sums are the rows' `usize` starts in a scatter buffer. Split the
//!    rows into ranges of about equal raw edge count. Each range task
//!    ([`par_join`] over `split_at_mut` regions of the buffer) reads
//!    the whole raw list, writes the targets of its own rows into
//!    their slots, then sorts and deduplicates each row in place and
//!    packs the rows to the front of its region. A serial compaction
//!    closes the gaps the duplicates left between ranges.
//! 2. **Fans view.** The same range scatter over the friends CSR read
//!    in source order: every fan row receives its fans in ascending
//!    order, so it comes out sorted with no second sort.
//!
//! A CSR whose rows are sorted and duplicate-free is canonical: the
//! edge set alone fixes it. Ranges only decide which worker writes
//! which rows, so the graph is bit-identical at any thread count.
//! The price is that every range task reads the whole input list;
//! the tasks share no buffer, so nothing is copied per task.

use crate::builder::{check_csr_capacity, CsrCapacityError};
use crate::graph::SocialGraph;
use crate::id::UserId;
use des_core::par::par_join;

type Edge = (UserId, UserId);

/// Below this many raw edges one range does all the work: the
/// fan-out would cost more than it saves.
const MIN_PARALLEL_EDGES: usize = 1 << 13;

/// Build both CSR views of `n` users from a raw edge list (duplicates
/// allowed, self-loops already dropped by `add_watch`) with `threads`
/// row-range tasks.
pub(crate) fn build(
    n: usize,
    edges: Vec<Edge>,
    threads: usize,
) -> Result<SocialGraph, CsrCapacityError> {
    let ranges = if edges.len() < MIN_PARALLEL_EDGES {
        1
    } else {
        threads.max(1)
    };

    // 1. Friends view: scatter by source row, then sort and dedup
    //    each row, packed to the front of its range's region.
    let starts = row_starts(n, edges.iter().map(|e| e.0));
    let bounds = split_rows(&starts, ranges);
    let mut friend_targets = vec![UserId(0); edges.len()];
    let row_lens = scatter_ranges(
        &starts,
        &bounds,
        &mut friend_targets,
        || edges.iter().copied(),
        dedup_rows,
    );
    drop(edges);
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
    drop(starts);
    friend_targets.truncate(m);
    friend_targets.shrink_to_fit();
    let friend_offsets = to_offsets(&ends)?;
    drop(ends);

    // 2. Fans view: scatter the friends CSR by target row. Reading it
    //    in source order fills every fan row in ascending order.
    let starts = row_starts(n, friend_targets.iter().copied());
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

/// Row starts (`n + 1` entries) of the rows `keys` fall in.
fn row_starts(n: usize, keys: impl Iterator<Item = UserId>) -> Vec<usize> {
    let mut starts = vec![0usize; n + 1];
    for k in keys {
        starts[k.index() + 1] += 1;
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
/// packing the rows to the front of `region`. Returns the packed row
/// lengths.
fn dedup_rows(rows: &[usize], region: &mut [UserId]) -> Vec<usize> {
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
        let starts = row_starts(
            10,
            [0, 0, 3, 3, 3, 7, 7, 7, 7, 9]
                .into_iter()
                .map(UserId::from_index),
        );
        for parts in 1..6 {
            let b = split_rows(&starts, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!((b[0], b[parts]), (0, 10));
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(split_rows(&[0], 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn dedup_rows_packs_sorted_unique_rows() {
        let mut region: Vec<UserId> = [3, 1, 3, 2, 2, 5, 4, 4].into_iter().map(UserId).collect();
        let lens = dedup_rows(&[10, 13, 13, 18], &mut region);
        assert_eq!(lens, vec![2, 0, 3]);
        let ids: Vec<u32> = region[..5].iter().map(|u| u.0).collect();
        assert_eq!(ids, vec![1, 3, 2, 4, 5]);
    }
}
