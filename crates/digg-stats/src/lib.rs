//! # digg-stats
//!
//! Statistics substrate for the Digg social-voting reproduction.
//!
//! The paper's analysis pipeline is built almost entirely from
//! elementary statistics: histograms of vote counts (Fig. 2a),
//! per-user activity counts (Fig. 2b), median-and-spread
//! summaries grouped by a key (Fig. 4), and heavy-tailed samplers for
//! the synthetic platform population. This crate provides all of those
//! from scratch so the workspace has no external statistics
//! dependencies.
//!
//! Modules:
//!
//! * [`descriptive`] — means, variances, medians, quantiles, trimmed
//!   ranges.
//! * [`histogram`] — fixed-width binning and exact integer counts, as
//!   used by Figs. 2–3.
//! * [`distributions`] — samplers for bounded discrete power laws,
//!   log-normal, exponential and Pareto variates.
//! * [`fit`] — discrete power-law maximum-likelihood fitting
//!   (Clauset-style) used to check generated degree sequences.
//! * [`correlation`] — Pearson and Spearman coefficients.
//! * [`sampling`] — alias-method weighted sampling and reservoir
//!   sampling.
//! * [`binstats`] — grouped summaries keyed by an integer (the Fig. 4
//!   "median and width of the distribution per in-network-vote count").
//! * [`bootstrap`] — percentile-bootstrap confidence intervals for the
//!   reported medians and fractions.
//! * [`timeseries`] — cumulative vote series helpers (Fig. 1).
//! * [`ascii`] — terminal rendering of histograms and scatter plots for
//!   the example binaries.

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

pub mod ascii;
pub mod binstats;
pub mod bootstrap;
pub mod correlation;
pub mod descriptive;
pub mod distributions;
pub mod fit;
pub mod histogram;
pub mod sampling;
pub mod timeseries;
