//! # digg-sim
//!
//! A discrete-event simulator of the Digg social news platform as it
//! operated in June 2006, built as the data substrate for reproducing
//! Lerman & Galstyan, *Analysis of Social Voting Patterns on Digg*
//! (WOSN'08).
//!
//! The original study consumed a proprietary scrape of digg.com; the
//! site in that form no longer exists. This crate substitutes a
//! mechanistic simulation of everything the paper describes about the
//! platform (§3, "Digg's functionality"):
//!
//! * users submit 1–2 stories per minute into an **upcoming queue**
//!   displayed in reverse chronological order, 15 to the page;
//! * a **promotion algorithm** (details secret; observed boundary: no
//!   front-page story with fewer than 43 votes, no queue story with
//!   more than 42) moves stories to the **front page** within 24 hours
//!   of submission;
//! * users vary enormously in activity; **top users** submit and vote
//!   disproportionately and have larger social networks;
//! * the **Friends interface** shows users the stories their friends
//!   submitted or dugg in the preceding 48 hours — the social channel
//!   through which interest spreads;
//! * stories are also discovered *independently* of the network: by
//!   browsing the front page and upcoming queue, and through external
//!   "Digg it" buttons on news sites and blogs.
//!
//! The last two bullets realise the paper's two proposed spread
//! mechanisms (§5.1): *network-based* spread through fans, and
//! *interest-based* spread from independent seeds. The anticorrelation
//! between early in-network votes and final popularity — the paper's
//! central finding — **emerges** from this machinery rather than being
//! painted onto generated data: well-connected submitters can push a
//! mediocre story past the promotion threshold through their fans
//! alone, but the story then stalls in front of the general audience,
//! while a story by a poorly connected submitter only survives the
//! queue if its intrinsic appeal recruits independent voters.
//!
//! Module map:
//!
//! * [`time`] — simulation clock (minutes).
//! * [`config`] — every behavioural rate, in one documented struct.
//! * [`story`] — stories, votes, vote channels, story lifecycle.
//! * [`population`] — users, activity levels, and the fan graph.
//! * [`queue`] / [`frontpage`] — the two story listings.
//! * [`promotion`] — the promotion rule, one `match` on
//!   [`config::PromoterKind`] (threshold and the Sept-2006 "digging
//!   diversity" variant).
//! * [`decay`] — novelty decay and page-position attention.
//! * [`engine`] — the simulator: one event-driven engine on the
//!   `des-core` kernel, with exponential-gap arrivals (idle minutes
//!   cost nothing) and per-entity RNG streams.
//! * `exposure` — the engine's Friends-interface dedup: one bitset
//!   row per story of the `(fan, story)` pairs already offered.
//! * [`sweep`] — scenario-sweep cells (`ScenarioSpec` → `ScenarioRun`).
//! * [`supervisor`] — the one sweep driver: a `specs x seeds` grid
//!   sharded in-process or across checkpointing worker subprocesses.
//! * [`metrics`] — counters for calibration and tests.
//! * [`scenario`] — the calibrated June-2006 configuration.

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

pub mod config;
pub mod decay;
pub mod engine;
mod exposure;
pub mod frontpage;
pub mod metrics;
pub mod population;
pub mod promotion;
pub mod queue;
pub mod scenario;
pub mod story;
pub mod supervisor;
pub mod sweep;
pub mod time;

pub use config::SimConfig;
pub use engine::{Kernel, Sim};
pub use population::Population;
pub use story::StoryId;
pub use time::Minute;
