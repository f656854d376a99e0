//! Deterministic discrete-event kernel shared by the simulation crates.
//!
//! Three small, orthogonal pieces:
//!
//! - [`queue`] — an [`EventQueue`] keyed by `(time, class, seq)`, with
//!   stable FIFO tie-breaking among equal timestamps (`class` encodes a
//!   fixed intra-timestamp phase order, `seq` is a monotone insertion
//!   counter): a ring of per-time buckets found through an occupancy
//!   bitmap, plus a far heap for times outside the ring's window.
//!   Events are scheduled and popped, never cancelled or moved.
//! - [`rng`] — [`StreamRng`], a counter-based splitmix64 generator.
//!   Each logical entity (a story, an edge, a browsing session) derives
//!   its own stream from `(seed, salts…)`, so the draws it consumes are
//!   a pure function of its identity, independent of how events from
//!   different entities interleave in the queue.
//! - [`par`] — the deterministic `std::thread::scope` fan-out used by
//!   every batch path in the workspace ([`par_map`], [`par_fold`],
//!   [`par_join`] for heterogeneous tasks over disjoint `&mut`
//!   regions, [`worker_threads`] honouring `DIGG_THREADS`): contiguous
//!   chunks, outputs recombined in task order, bit-identical results
//!   at any thread count. The fallible layer ([`try_par_map`],
//!   [`try_par_join`]) catches per-shard panics, drains the remaining
//!   shards, and aggregates the failures into a [`WorkerPanic`] so
//!   batch drivers can fail one poisoned work item instead of the
//!   whole batch.
//!
//! `digg-sim` runs the platform simulator on this kernel and is the
//! queue's only user; the analytics fan-out in `digg-core` and the
//! scenario-sweep runner share the one [`par`] implementation.

pub mod par;
pub mod queue;
pub mod rng;

pub use par::{
    chunk_size, panic_message, par_fold, par_join, par_map, try_par_join, try_par_map,
    worker_threads, PanicShard, WorkerPanic,
};
pub use queue::{Event, EventQueue};
pub use rng::StreamRng;
