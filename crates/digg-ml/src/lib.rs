//! # digg-ml
//!
//! A from-scratch C4.5-style decision-tree learner, reproducing the
//! modelling machinery of the paper's §5.2: "We trained a C4.5 (J48)
//! decision tree classifier on 207 stories … Each story had three
//! attributes: number of in-network votes within the first ten votes
//! (v10), number of users watching the submitter (fans1) and a boolean
//! attribute indicating whether the story was interesting."
//!
//! Implemented here, with the same semantics as Quinlan's C4.5 /
//! Weka's J48 for the feature subset the paper uses (numeric
//! attributes, binary class):
//!
//! * binary threshold splits on numeric attributes, candidate
//!   thresholds at midpoints of adjacent distinct values;
//! * split selection by **gain ratio** among splits with at least
//!   average information gain;
//! * **pessimistic error pruning** with confidence factor 0.25
//!   (C4.5's upper confidence bound on the leaf error rate);
//! * stratified **k-fold cross-validation** (the paper's "10-fold
//!   validation … correctly classifies 174 of the examples");
//! * confusion-matrix evaluation (TP/TN/FP/FN, precision/recall) for
//!   the §5.2 holdout comparison against Digg's promoter.
//!
//! Modules: [`data`], [`entropy`], [`tree`], [`c45`], [`prune`],
//! [`crossval`] (the one fold loop: [`crossval::cross_validate`] takes
//! a per-fold fit closure, so every learner is cross-validated on the
//! same stratified folds), [`metrics`] (the confusion matrix; a
//! classifier scores a dataset through
//! [`Classifier::evaluate`](baselines::Classifier::evaluate)),
//! [`baselines`] and [`ensemble`] (bagged trees — a modern extension
//! beyond the paper's single J48). The
//! per-vote verdict is a fresh [`DecisionTree::predict`](tree::DecisionTree::predict) walk: the
//! paper's tree has depth ≤ 3 on two attributes.

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

pub mod baselines;
pub mod c45;
pub mod crossval;
pub mod data;
pub mod ensemble;
pub mod entropy;
pub mod metrics;
pub mod prune;
pub mod tree;

pub use data::{Instance, MlDataset};
pub use metrics::ConfusionMatrix;
