//! Per-story fan-out: the batch path of the story-analytics engine.
//!
//! Experiments hold one [`IncrementalSweep`] per worker thread and
//! stream stories through it with
//! [`IncrementalSweep::sweep_story`]; [`sweep_map`] and
//! [`try_sweep_map`] hand each worker its engine and keep the output
//! in item order, so results are identical at any thread count.

use crate::incremental::IncrementalSweep;
use social_graph::FanView;

use des_core::par::{try_par_map_with, WorkerPanic};

/// Fallible [`sweep_map`]: identical chunking, per-thread engines and
/// output order, but a panic inside a worker is caught per shard —
/// every other shard still runs to completion and the failures come
/// back aggregated as one [`WorkerPanic`] naming each failed shard's
/// item range. With no panic the result is bit-identical to
/// [`sweep_map`] at any thread count.
///
/// This is [`try_par_map_with`] with a per-worker [`IncrementalSweep`]:
/// the engine is epoch-stamped scratch, so reusing it across a
/// shard's stories cannot leak state between items — the precondition
/// that keeps `try_par_map_with` thread-count invariant.
pub fn try_sweep_map<G, T, R, F>(
    graph: &G,
    items: &[T],
    threads: usize,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    G: FanView + Sync,
    T: Sync,
    R: Send,
    F: Fn(&mut IncrementalSweep, &T) -> R + Sync,
{
    try_par_map_with(items, threads, || IncrementalSweep::new(graph), f)
}

/// [`des_core::par::par_map`] handing each worker thread its own
/// [`IncrementalSweep`] sized for `graph` — the batch path for
/// per-story analytics: one voter walk per story, one scratch buffer
/// per thread, zero per-story allocation.
///
/// Layered on [`try_sweep_map`]: a worker panic (a bug in `f`) is
/// re-raised here with the aggregated shard report.
pub fn sweep_map<G, T, R, F>(graph: &G, items: &[T], threads: usize, f: F) -> Vec<R>
where
    G: FanView + Sync,
    T: Sync,
    R: Send,
    F: Fn(&mut IncrementalSweep, &T) -> R + Sync,
{
    match try_sweep_map(graph, items, threads, f) {
        Ok(out) => out,
        // digg-lint: allow(no-lib-unwrap) — infallible-layer contract: re-raise the aggregated WorkerPanic for fail-fast callers
        Err(e) => panic!("worker thread panicked: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des_core::par::{par_fold, par_map, worker_threads};
    use social_graph::{GraphBuilder, SocialGraph, UserId};

    /// Fans: 0 <- {1, 2, 3}; 4 <- {5, 6}; 1 <- {2}.
    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(7);
        for f in [1, 2, 3] {
            b.add_watch(UserId(f), UserId(0));
        }
        for f in [5, 6] {
            b.add_watch(UserId(f), UserId(4));
        }
        b.add_watch(UserId(2), UserId(1));
        b.build()
    }

    type Series = (Vec<bool>, Vec<u32>, Vec<u32>);

    fn sweep(sw: &mut IncrementalSweep, g: &SocialGraph, voters: &[UserId]) -> Series {
        let s = sw.sweep_story(g, voters);
        (
            s.flags().to_vec(),
            s.cascade().to_vec(),
            s.influence().to_vec(),
        )
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        let items: Vec<u64> = (0..103).collect();
        let serial = par_map(&items, 1, |&x| x * x + 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |&x| x * x + 1), serial);
        }
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn sweep_map_matches_serial_sweeps() {
        let g = graph();
        let stories: Vec<Vec<UserId>> = vec![
            vec![UserId(0), UserId(1), UserId(4)],
            vec![UserId(4), UserId(5)],
            vec![UserId(0)],
            vec![],
            vec![UserId(2), UserId(0), UserId(1), UserId(3)],
        ];
        let mut engine = IncrementalSweep::new(&g);
        let serial: Vec<Series> = stories.iter().map(|v| sweep(&mut engine, &g, v)).collect();
        for threads in [1, 2, 8] {
            let par = sweep_map(&g, &stories, threads, |sw, v| sweep(sw, &g, v));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn try_sweep_map_is_bit_identical_without_panics() {
        let g = graph();
        let stories: Vec<Vec<UserId>> = (0..11)
            .map(|i| vec![UserId(i % 7), UserId((i + 1) % 7)])
            .collect();
        let serial = sweep_map(&g, &stories, 1, |sw, v| sweep(sw, &g, v));
        for threads in [1, 2, 8] {
            let fallible = try_sweep_map(&g, &stories, threads, |sw, v| sweep(sw, &g, v));
            assert_eq!(fallible.as_ref().ok(), Some(&serial), "threads={threads}");
        }
    }

    #[test]
    fn try_sweep_map_isolates_a_poisoned_story() {
        let g = graph();
        let stories: Vec<Vec<UserId>> = (0..24)
            .map(|i| vec![UserId(i % 7), UserId((i + 1) % 7)])
            .collect();
        for threads in [1, 2, 8] {
            let err = try_sweep_map(&g, &stories, threads, |sw, v| {
                if v[0] == UserId(5) && v[1] == UserId(6) {
                    panic!("poisoned story");
                }
                sweep(sw, &g, v)
            })
            .unwrap_err();
            assert!(!err.failed.is_empty());
            assert!(err.to_string().contains("poisoned story"));
            // Item 5 (and 12, 19) are the poisoned ones; every failed
            // shard must actually contain one of them.
            for s in &err.failed {
                assert!((s.start..s.start + s.len).any(|i| i % 7 == 5));
            }
        }
    }

    #[test]
    fn par_fold_merges_in_chunk_order() {
        let items: Vec<u32> = (0..57).collect();
        let serial: Vec<u32> = items.clone();
        for threads in [1, 2, 5, 16] {
            let folded = par_fold(
                &items,
                threads,
                Vec::new,
                |acc: &mut Vec<u32>, &x| acc.push(x),
                |acc, part| acc.extend(part),
            );
            assert_eq!(folded, serial, "threads={threads}");
        }
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }
}
