//! # digg-stats
//!
//! Statistics substrate for the Digg social-voting reproduction.
//!
//! The paper's analysis pipeline is built almost entirely from
//! elementary statistics: histograms of vote counts (Fig. 2a),
//! log-binned activity distributions (Fig. 2b), median-and-spread
//! summaries grouped by a key (Fig. 4), and heavy-tailed samplers for
//! the synthetic platform population. This crate provides all of those
//! from scratch so the workspace has no external statistics
//! dependencies.
//!
//! Modules:
//!
//! * [`descriptive`] — means, variances, medians, quantiles, summaries.
//! * [`histogram`] — fixed-width and logarithmic (multiplicative)
//!   binning, the two histogram styles used by Figs. 2–3.
//! * [`ccdf`] — empirical CDF / complementary CDF.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod binstats;
pub mod bootstrap;
pub mod ccdf;
pub mod correlation;
pub mod descriptive;
pub mod distributions;
pub mod fit;
pub mod histogram;
pub mod sampling;
pub mod timeseries;

pub use binstats::GroupedSummary;
pub use ccdf::Ecdf;
pub use descriptive::Summary;
pub use histogram::{Histogram, LogHistogram};
