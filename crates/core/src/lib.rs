//! # digg-core
//!
//! The paper's contribution, as a library: analysis of social voting
//! patterns and early prediction of story interestingness from where
//! the initial votes come from (Lerman & Galstyan, WOSN'08).
//!
//! Central definitions (paper §4.1):
//!
//! * a vote is **in-network** when the voter is a fan of the submitter
//!   or of any previous voter — the story could have reached them
//!   through the Friends interface;
//! * a story's **cascade** (size) after `n` votes is the number of
//!   in-network votes among the first `n` votes not counting the
//!   submitter;
//! * a story's **influence** is the number of users who can see it
//!   through the Friends interface — the union of the fans of
//!   everyone who has voted so far.
//!
//! And the headline result (§5): the early cascade anticorrelates with
//! final popularity. Stories that spread mainly *through* the
//! submitter's neighbourhood stall once they face the general
//! audience; stories recruited from outside it keep growing. A C4.5
//! tree over `(v10, fans1)` predicts "interesting" (> 520 final votes)
//! after only ten votes, beating the platform's own promotion
//! decision on precision.
//!
//! Modules:
//!
//! * [`incremental`] — the story-analytics engine
//!   ([`IncrementalSweep`]) every analysis and experiment routes
//!   through: in-network flags (the cascade), Friends-interface
//!   visibility (the influence), features and verdict, updated in
//!   O(new-voter-fan-degree) per vote; a batch sweep of a finished
//!   story is [`IncrementalSweep::sweep_story`], and [`sweep_map`]
//!   fans stories out with one engine per worker chunk. The generic
//!   fan-out primitives (`worker_threads`, `par_map`, `par_join`, …)
//!   are `des_core::par`'s; callers import them from there.
//! * [`table`] — one [`StoryTable`] per dataset: each story swept once,
//!   truncated once to the widest window a reader needs, into the
//!   columns Fig. 3, Fig. 4, the training table, the §5.2 holdout and
//!   the ablations read.
//! * [`features`] — the `(v6, v10, v20, fans1)` feature vector.
//! * [`spread`] — two-mechanism spread diagnostics (interest-based vs
//!   network-based).
//! * [`predictor`] — the trained predictor plus the paper's published
//!   Fig. 5 rule.
//! * [`pipeline`] — train-and-holdout evaluation (§5.2), including
//!   the comparison against the promoter.
//! * [`experiments`] — one module per paper figure / in-text
//!   statistic, producing printable, serializable results.

#![warn(missing_docs)]
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

pub mod experiments;
pub mod features;
pub mod incremental;
pub mod pipeline;
pub mod predictor;
pub mod spread;
pub mod table;

pub use features::INTERESTINGNESS_THRESHOLD;
pub use incremental::{sweep_map, IncrementalSweep};
pub use table::StoryTable;
