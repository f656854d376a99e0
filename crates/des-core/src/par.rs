//! Deterministic thread fan-out for batch work: the analytics sweeps
//! and the scenario runners share this one implementation, and every
//! caller imports it from here.
//!
//! [`par_join`] is the one function that spawns threads: one scoped
//! thread per task, results in task order. The slice fan-outs are
//! chunkings of it — items are split into contiguous chunks of
//! [`chunk_size`], one task per chunk, and per-chunk outputs are
//! recombined **in chunk order** — so results are bit-identical at any
//! thread count and `DIGG_THREADS` is a pure throughput knob.
//!
//! A worker panic is a bug: it is re-raised on the calling thread once
//! every worker has been joined (DESIGN.md §12).

/// Worker-thread count for batch fan-out: the `DIGG_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism.
///
/// Results never depend on this value — see [`par_map`] — so it is a
/// pure throughput knob. This is the single parser of `DIGG_THREADS`
/// in the workspace.
pub fn worker_threads() -> usize {
    std::env::var("DIGG_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// How many items each worker chunk gets: `ceil(n / threads)`, at
/// least 1.
pub fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1)).max(1)
}

/// Deterministic heterogeneous fan-out: run each closure on its own
/// scoped thread and return the results **in task order**. This is the
/// primitive behind every other fan-out here and behind the parallel
/// CSR scatter in `social-graph`: the caller splits one output buffer
/// into disjoint `&mut` regions with `split_at_mut`, moves each region
/// into a task, and `par_join` runs the per-region writes concurrently
/// without any unsafe aliasing.
///
/// With zero or one task everything runs inline on the current thread.
/// A task panic is re-raised here once the scope has joined every
/// worker.
pub fn par_join<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if tasks.len() <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the one fan-out primitive: every other fan-out in the workspace goes through it"
    )]
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.into_iter().map(|f| scope.spawn(f)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    #[expect(
        clippy::expect_used,
        reason = "a worker panic is a bug in the task: fail fast on the caller's thread"
    )]
    let results = joined
        .into_iter()
        .map(|r| r.expect("worker thread panicked"))
        .collect();
    results
}

/// Deterministic parallel map: `out[i] == f(&items[i])` regardless of
/// `threads`. [`par_map_with`] with no per-worker state.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), t| f(t))
}

/// [`par_map`] with per-worker state: one [`par_join`] task per
/// [`chunk_size`] chunk, each calling `init` once on its own thread and
/// threading the state through its items in order; the chunk outputs
/// are concatenated in chunk order. Because chunk boundaries depend
/// only on `(items.len(), threads)`, results are bit-identical at any
/// thread count *provided* `f`'s output does not depend on the state's
/// history — the intended use is reusable scratch (e.g.
/// `digg_core::IncrementalSweep`), not accumulators.
pub fn par_map_with<S, T, R, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let (init, f) = (&init, &f);
    let tasks: Vec<_> = items
        .chunks(chunk_size(items.len(), threads))
        .map(|part| {
            move || {
                let mut state = init();
                part.iter().map(|t| f(&mut state, t)).collect::<Vec<R>>()
            }
        })
        .collect();
    let mut parts = par_join(tasks).into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve_exact(items.len() - out.len());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Deterministic parallel fold: one [`par_join`] task per
/// [`chunk_size`] chunk folds its items into an accumulator from
/// `make`, and the chunk accumulators are merged **in chunk order**
/// into the first one with `merge` — so any order-sensitive
/// accumulator still produces thread-count-independent results.
pub fn par_fold<T, A, F, M>(
    items: &[T],
    threads: usize,
    make: impl Fn() -> A + Sync,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    F: Fn(&mut A, &T) + Sync,
    M: Fn(&mut A, A),
{
    let (make, fold) = (&make, &fold);
    let tasks: Vec<_> = items
        .chunks(chunk_size(items.len(), threads))
        .map(|part| {
            move || {
                let mut acc = make();
                for t in part {
                    fold(&mut acc, t);
                }
                acc
            }
        })
        .collect();
    let mut parts = par_join(tasks).into_iter();
    let mut out = parts.next().unwrap_or_else(make);
    for part in parts {
        merge(&mut out, part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn chunk_size_covers_all_items() {
        for n in 0..40usize {
            for threads in 1..10usize {
                let c = chunk_size(n, threads);
                assert!(c >= 1);
                assert!(c * threads >= n, "n={n} threads={threads} chunk={c}");
            }
        }
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |x| x * x), serial);
        }
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn par_join_returns_in_task_order() {
        let tasks: Vec<_> = (0..9u64).map(|i| move || i * 10).collect();
        assert_eq!(
            par_join(tasks),
            (0..9u64).map(|i| i * 10).collect::<Vec<_>>()
        );
        assert_eq!(par_join(Vec::<fn() -> u64>::new()), Vec::<u64>::new());
        assert_eq!(par_join(vec![|| 7u64]), vec![7]);
    }

    #[test]
    fn par_join_tasks_may_own_disjoint_regions() {
        let mut buf = vec![0u32; 10];
        let (lo, hi) = buf.split_at_mut(4);
        par_join(vec![
            Box::new(move || lo.fill(1)) as Box<dyn FnOnce() + Send>,
            Box::new(move || hi.fill(2)),
        ]);
        assert_eq!(buf, [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn par_map_with_builds_state_per_shard_and_keeps_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|x| x + 1000).collect();
        for threads in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let out = par_map_with(
                &items,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64 // per-worker scratch: items seen in this shard
                },
                |seen, x| {
                    *seen += 1;
                    x + 1000
                },
            );
            assert_eq!(out, serial);
            // One state per shard, at most one shard per thread, at
            // least one shard total.
            let n = inits.load(Ordering::Relaxed);
            assert!(n >= 1 && n <= threads, "threads={threads} inits={n}");
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn par_map_still_fails_fast_on_worker_panic() {
        let items: Vec<u64> = (0..32).collect();
        par_map(&items, 4, |&x| {
            if x == 5 {
                panic!("bug in f");
            }
            x
        });
    }

    #[test]
    fn par_fold_preserves_chunk_order() {
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.clone();
        for threads in [1, 2, 5, 16] {
            let folded = par_fold(
                &items,
                threads,
                Vec::new,
                |acc, &x| acc.push(x),
                |acc, part| acc.extend(part),
            );
            assert_eq!(folded, serial);
        }
    }
}
