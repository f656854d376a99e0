//! # digg-data
//!
//! The dataset layer of the reproduction: everything between the
//! simulated platform ([`digg_sim`]) and the analyses
//! (`digg-core`).
//!
//! The paper's data artifact (§3.1–3.2) has a very particular shape,
//! and its quirks constrain the analysis code, so we reproduce the
//! *collection methodology*, not just the data:
//!
//! * On June 30 2006 the authors scraped **~200 of the most recently
//!   promoted stories** from the front page — story title, submitter,
//!   submission time and the voter list **in chronological order but
//!   without per-vote timestamps** — plus **900 stories from the
//!   upcoming queue** submitted in the same period.
//! * In February 2008 they **augmented** this with each story's final
//!   vote count.
//! * The social network came in two pieces: a June-2006 snapshot of
//!   the **top-1020 users**, and a Feb-2008 scrape of the fans of the
//!   other 15,000+ voters, **reconstructed** to June 2006 by dropping
//!   fans who joined Digg later (link-creation dates were not
//!   available, so links created after June 2006 by early joiners are
//!   erroneously kept — an unavoidable bias we reproduce and measure).
//!
//! Modules:
//!
//! * [`model`] — the scraped records.
//! * [`scrape`] — the fidelity-limited observer of a running
//!   simulation.
//! * [`synth`] — end-to-end calibrated dataset generation
//!   (simulate → scrape → run on → augment).
//! * [`io`] — JSON serialization of datasets.
//! * [`validate`] — dataset invariants (the 43/42 promotion boundary
//!   and friends).
//! * [`faults`] — deterministic scrape-fault injection
//!   ([`faults::FaultPlan`]): the failure modes real collection hits,
//!   driven by per-entity [`des_core::StreamRng`] streams.
//! * [`ingest`] — strict/lenient ingestion of a deserialized dataset:
//!   strict ingestion returns a typed error listing every violation;
//!   lenient ingestion repairs or quarantines bad records and reports
//!   a [`ingest::DegradationReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod ingest;
pub mod io;
pub mod model;
pub mod scrape;
pub mod synth;
pub mod validate;

pub use faults::{ChaosPlan, FaultLog, FaultPlan, RetryPolicy};
pub use ingest::{DegradationReport, QuarantinedRecord};
pub use model::{DiggDataset, SampleSource, StoryRecord};
pub use synth::{synthesize, SynthConfig, Synthesis};
