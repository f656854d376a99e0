//! # social-graph
//!
//! Directed social-graph substrate with Digg's friend/fan semantics.
//!
//! On Digg (paper §3): "The friendship relationship is asymmetric.
//! When user A lists user B as a friend, user A is able to watch the
//! activity of B but not vice versa. We call A the fan of B." In graph
//! terms we store a *watch* edge `A -> B`; then
//!
//! * the **friends** of `A` are the out-neighbours of `A`
//!   (users `A` watches), and
//! * the **fans** of `B` are the in-neighbours of `B`
//!   (users watching `B`).
//!
//! A story a user submits or votes on becomes visible to that user's
//! fans through the Friends interface, so information flows *against*
//! the watch edges: from `B` to its fans.
//!
//! Modules:
//!
//! * [`id`] — compact user identifiers.
//! * [`graph`] — immutable CSR [`SocialGraph`] with O(log d) edge
//!   queries and contiguous adjacency rows.
//! * [`builder`] — incremental construction and deduplication, with a
//!   serial finaliser ([`GraphBuilder::build`]) and a sharded parallel
//!   one ([`GraphBuilder::build_parallel`], bit-identical output; see
//!   the `par_build` module and DESIGN.md §11).
//! * [`bitset`] — [`FanBitset`], the one user-set scratch: one bit
//!   per user with an O(1) epoch-bump clear for per-story sweeps,
//!   cache-resident at millions of users.
//! * [`membership`] — the stateless fan-membership kernel over sorted
//!   CSR rows: a per-candidate binary search and a bitset probe
//!   (DESIGN.md §16.1).
//! * [`view`] — [`FanView`], the read-only adjacency trait that lets
//!   the sweep engines run unchanged over in-memory or mmap-backed
//!   graphs.
//! * [`mmap`] — [`GraphMap`], the versioned, checksummed, 64-byte-
//!   aligned on-disk CSR snapshot mapped read-only into memory (O(1)
//!   load, out-of-core sweeps; the crate's single `unsafe` module).
//! * [`metrics`] — degree sequences, reciprocity, density, clustering.
//! * [`temporal`] — dated fan links and as-of-date snapshot
//!   reconstruction (the paper's Feb-2008 → June-2006 procedure).
//! * [`generators`] — Erdős–Rényi and configuration-model random
//!   graphs.
//! * [`io`] — graph persistence: the serde form datasets ship, checked
//!   on read, and the [`GraphMap`] entry points.

// `deny`, not `forbid`: the one memory-mapping module ([`mmap`])
// carries a scoped `#[allow(unsafe_code)]`, and digg-lint's
// no-unchecked-mmap rule enforces that no other module in the
// workspace does.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod builder;
pub mod generators;
pub mod graph;
pub mod id;
pub mod io;
pub mod membership;
pub mod metrics;
pub mod mmap;
pub(crate) mod par_build;
pub mod temporal;
pub mod view;

pub use bitset::FanBitset;
pub use builder::{CsrCapacityError, GraphBuilder};
pub use graph::SocialGraph;
pub use id::UserId;
pub use mmap::{GraphMap, GraphMapError};
pub use view::FanView;
