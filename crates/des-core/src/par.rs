//! Deterministic thread fan-out for batch work: the analytics sweeps
//! and the scenario runners share this one implementation, and every
//! caller imports it from here.
//!
//! Items are split into contiguous chunks, one scoped thread per
//! chunk, and per-chunk outputs are recombined **in chunk order** — so
//! results are bit-identical at any thread count and `DIGG_THREADS` is
//! a pure throughput knob.
//!
//! Two API layers share the same chunking (see DESIGN.md §12):
//!
//! * the **fallible** layer — [`try_par_map`] / [`try_par_join`] —
//!   catches a panic inside any worker shard, still drains every other
//!   shard to completion, and reports the failures as one aggregated
//!   [`WorkerPanic`] naming each failed shard and its item range;
//! * the **infallible** layer — [`par_map`] / [`par_join`] /
//!   [`par_fold`] — is built on top and simply re-panics with the
//!   aggregated message, preserving the original fail-fast contract
//!   for callers that treat a worker panic as a bug.
//!
//! Batch drivers that must survive one poisoned work item (the
//! scenario-sweep runner, the degradation harness) route through the
//! fallible layer so a single panicking scenario fails that scenario,
//! not the whole batch.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// One worker shard that panicked during a fallible fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicShard {
    /// Index of the shard among the shards of the fan-out.
    pub shard: usize,
    /// Index of the shard's first item in the input slice (the task
    /// index for [`try_par_join`]).
    pub start: usize,
    /// Number of items the shard owned.
    pub len: usize,
    /// The panic payload, rendered (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub message: String,
}

/// Aggregated failure of a fallible fan-out: every shard ran to
/// completion or unwound, and these are the ones that unwound. The
/// successful shards' outputs are discarded — reproducing them is
/// cheap and deterministic, and a partial result would be too easy to
/// mistake for a complete one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Total shards the fan-out ran.
    pub shards: usize,
    /// The shards that panicked, in shard order.
    pub failed: Vec<PanicShard>,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} worker shards panicked:",
            self.failed.len(),
            self.shards
        )?;
        for s in &self.failed {
            write!(
                f,
                " [shard {} items {}..{}: {}]",
                s.shard,
                s.start,
                s.start + s.len,
                s.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a panic payload: `&str` and `String` payloads verbatim,
/// anything else a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one shard under `catch_unwind`, building the shard's worker
/// state with `init` first.
///
/// `AssertUnwindSafe` is sound here because a panicking shard's state
/// and output vector are dropped during the unwind and never observed,
/// and the fan-out as a whole returns `Err` — callers never see state
/// from a shard that did not complete.
fn run_shard<S, T, R>(
    part: &[T],
    init: &(impl Fn() -> S + Sync),
    f: &(impl Fn(&mut S, &T) -> R + Sync),
) -> Result<Vec<R>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut state = init();
        part.iter().map(|t| f(&mut state, t)).collect()
    }))
    .map_err(|p| panic_message(p.as_ref()))
}

/// Fallible [`par_map`]: identical chunking and output order, but a
/// panic inside a worker is caught per shard. Every other shard still
/// runs to completion (work is drained, not abandoned), and the error
/// aggregates all failed shards with their item ranges.
///
/// With no panic the result is bit-identical to [`par_map`] at any
/// thread count.
pub fn try_par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_par_map_with(items, threads, || (), |(), t| f(t))
}

/// [`try_par_map`] with per-worker state: each shard calls `init`
/// once on its own thread and threads the state through its items in
/// order. Because shard boundaries depend only on `(items.len(),
/// threads)` and outputs are concatenated in chunk order, results are
/// bit-identical at any thread count *provided* `f`'s output does not
/// depend on the state's history — the intended use is reusable
/// scratch (e.g. `digg_core::IncrementalSweep`), not accumulators.
pub fn try_par_map_with<S, T, R, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let chunk = chunk_size(items.len(), threads);
    if chunk >= items.len() {
        return run_shard(items, &init, &f).map_err(|message| WorkerPanic {
            shards: 1,
            failed: vec![PanicShard {
                shard: 0,
                start: 0,
                len: items.len(),
                message,
            }],
        });
    }
    std::thread::scope(|scope| {
        let f = &f;
        let init = &init;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || run_shard(part, init, f)))
            .collect();
        let shards = handles.len();
        let mut out = Vec::with_capacity(items.len());
        let mut failed = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            // The shard closure catches panics itself; `join` can only
            // report one if the unwind escaped `catch_unwind`.
            let res = h.join().unwrap_or_else(|p| Err(panic_message(p.as_ref())));
            match res {
                Ok(part) => out.extend(part),
                Err(message) => failed.push(PanicShard {
                    shard: i,
                    start: i * chunk,
                    len: chunk.min(items.len() - i * chunk),
                    message,
                }),
            }
        }
        if failed.is_empty() {
            Ok(out)
        } else {
            Err(WorkerPanic { shards, failed })
        }
    })
}

/// Deterministic parallel map: `out[i] == f(&items[i])` regardless of
/// `threads`. Items are split into contiguous chunks, one scoped
/// thread per chunk, and per-chunk outputs are concatenated in chunk
/// order — bit-identical results at any thread count.
///
/// Layered on [`try_par_map`]: a worker panic (a bug in `f`) is
/// re-raised here with the aggregated shard report.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match try_par_map(items, threads, f) {
        Ok(out) => out,
        // digg-lint: allow(no-lib-unwrap) — infallible-layer contract: re-raise the aggregated WorkerPanic for fail-fast callers
        Err(e) => panic!("worker thread panicked: {e}"),
    }
}

/// Deterministic parallel fold: each contiguous chunk is folded on its
/// own thread into an accumulator from `make`, and the per-chunk
/// accumulators are merged **in chunk order** with `merge` — so any
/// order-sensitive accumulator still produces thread-count-independent
/// results.
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
    let chunk = chunk_size(items.len(), threads);
    if chunk >= items.len() {
        let mut acc = make();
        for t in items {
            fold(&mut acc, t);
        }
        return acc;
    }
    std::thread::scope(|scope| {
        let fold = &fold;
        let make = &make;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut acc = make();
                    for t in part {
                        fold(&mut acc, t);
                    }
                    acc
                })
            })
            .collect();
        let mut out = make();
        for h in handles {
            // digg-lint: allow(no-lib-unwrap) — fold has no fallible layer: a worker panic propagates fail-fast by design
            merge(&mut out, h.join().expect("worker thread panicked"));
        }
        out
    })
}

/// Deterministic heterogeneous fan-out: run each closure on its own
/// scoped thread and return the results **in task order**. This is the
/// primitive behind the parallel CSR scatter in `social-graph`: the
/// caller splits one output buffer into disjoint `&mut` regions with
/// `split_at_mut`, moves each region into a task, and `par_join` runs
/// the per-region writes concurrently without any unsafe aliasing.
///
/// With zero or one task (or when the caller asked for one thread via
/// a single task) everything runs inline on the current thread.
///
/// Layered on [`try_par_join`]: a task panic is re-raised here with
/// the aggregated shard report.
pub fn par_join<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    match try_par_join(tasks) {
        Ok(out) => out,
        // digg-lint: allow(no-lib-unwrap) — infallible-layer contract: re-raise the aggregated WorkerPanic for fail-fast callers
        Err(e) => panic!("worker thread panicked: {e}"),
    }
}

/// Fallible [`par_join`]: each task runs on its own scoped thread (one
/// shard per task) under `catch_unwind`; a panicking task does not
/// stop the others, and all failures come back aggregated as one
/// [`WorkerPanic`] whose `start` is the task index.
///
/// With no panic the result is bit-identical to [`par_join`].
pub fn try_par_join<T, F>(tasks: Vec<F>) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let shards = tasks.len();
    let collect = |results: Vec<Result<T, String>>| {
        let mut out = Vec::with_capacity(shards);
        let mut failed = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(message) => failed.push(PanicShard {
                    shard: i,
                    start: i,
                    len: 1,
                    message,
                }),
            }
        }
        if failed.is_empty() {
            Ok(out)
        } else {
            Err(WorkerPanic { shards, failed })
        }
    };
    let run_task = |f: F| catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()));
    if shards <= 1 {
        return collect(tasks.into_iter().map(run_task).collect());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|f| scope.spawn(move || run_task(f)))
            .collect();
        collect(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| Err(panic_message(p.as_ref()))))
                .collect(),
        )
    })
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
    fn try_par_map_matches_par_map_when_nothing_panics() {
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 8] {
            assert_eq!(try_par_map(&items, threads, |x| x * 3), Ok(serial.clone()));
        }
    }

    #[test]
    fn try_par_map_with_builds_state_per_shard_and_keeps_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|x| x + 1000).collect();
        for threads in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let out = try_par_map_with(
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
            assert_eq!(out, Ok(serial.clone()));
            // One state per shard, at most one shard per thread, at
            // least one shard total.
            let n = inits.load(Ordering::Relaxed);
            assert!(n >= 1 && n <= threads, "threads={threads} inits={n}");
        }
    }

    #[test]
    fn try_par_map_isolates_a_poisoned_shard() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 2, 8] {
            let err = try_par_map(&items, threads, |&x| {
                if x == 17 {
                    panic!("poisoned item {x}");
                }
                x
            })
            .unwrap_err();
            assert_eq!(err.failed.len(), 1, "one shard holds item 17");
            let shard = &err.failed[0];
            assert!((shard.start..shard.start + shard.len).contains(&17));
            assert!(shard.message.contains("poisoned item 17"));
            assert!(err.to_string().contains("poisoned item 17"));
            assert!(err.shards >= err.failed.len());
        }
    }

    #[test]
    fn try_par_join_drains_surviving_tasks() {
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("task two down")),
            Box::new(|| 3),
        ];
        let err = try_par_join(tasks).unwrap_err();
        assert_eq!(err.shards, 3);
        assert_eq!(err.failed.len(), 1);
        assert_eq!(err.failed[0].start, 1);
        assert!(err.failed[0].message.contains("task two down"));
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
    fn panic_message_renders_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(s.as_ref()), "<non-string panic payload>");
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
