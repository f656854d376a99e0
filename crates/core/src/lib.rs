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
//!   story is [`IncrementalSweep::sweep_story`].
//! * [`story_metrics`] — the deterministic per-story fan-out
//!   ([`sweep_map`]) that hands each worker thread one engine. The
//!   generic fan-out primitives (`worker_threads`, `par_map`,
//!   `try_par_map`, …) are `des_core::par`'s; callers import them
//!   from there.
//! * [`features`] — `(v6, v10, v20, fans1)` extraction, dataset
//!   assembly for the learner.
//! * [`spread`] — two-mechanism spread diagnostics (interest-based vs
//!   network-based).
//! * [`predictor`] — the trained predictor plus the paper's published
//!   Fig. 5 rule.
//! * [`pipeline`] — train-and-holdout evaluation (§5.2), including
//!   the comparison against the promoter.
//! * [`experiments`] — one module per paper figure / in-text
//!   statistic, producing printable, serializable results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod features;
pub mod incremental;
pub mod pipeline;
pub mod predictor;
pub mod spread;
pub mod story_metrics;

pub use features::{FanCoverage, StoryFeatures, INTERESTINGNESS_THRESHOLD};
pub use incremental::{IncrementalSweep, VoteApplied};
pub use pipeline::{run_pipeline, run_pipeline_with_coverage, PipelineConfig, PipelineCoverage};
pub use predictor::InterestingnessPredictor;
pub use story_metrics::{sweep_map, try_sweep_map};
