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
//!   every batch path in the workspace: [`par_join`](par::par_join), the one function
//!   that spawns threads (one per task, results in task order), and its
//!   chunkings [`par_map`], [`par_map_with`](par::par_map_with) (one
//!   `init()` state per chunk) and [`par_fold`](par::par_fold), plus
//!   [`worker_threads`](par::worker_threads) honouring `DIGG_THREADS`. Contiguous chunks, outputs recombined in chunk
//!   order, bit-identical results at any thread count; a worker panic
//!   is re-raised on the caller once every worker has joined.
//!
//! `digg-sim` runs the platform simulator on this kernel and is the
//! queue's only user; the analytics fan-out in `digg-core` and the
//! scenario-sweep runner share the one [`par`] implementation.

// Library code returns typed errors and converts integers checked
// (DESIGN.md §13); test builds are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation
    )
)]

pub mod par;
pub mod queue;
pub mod rng;

pub use par::par_map;
pub use queue::EventQueue;
pub use rng::StreamRng;
