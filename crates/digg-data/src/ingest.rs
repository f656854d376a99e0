//! Strict and lenient dataset ingestion.
//!
//! [`crate::io`] deserializes bytes; this module decides what to do
//! when the deserialized dataset is *wrong*. Two modes:
//!
//! * **Strict** ([`ingest_strict`]) — any [`crate::validate`]
//!   violation aborts ingestion with [`DataError::Invalid`] carrying
//!   the full violation list. For pipelines that must only ever see
//!   pristine data.
//! * **Lenient** ([`ingest_lenient`]) — malformed records are
//!   **repaired** where the fix is unambiguous (duplicate voters
//!   deduplicated keep-first, displaced submitters moved back to the
//!   front, out-of-range voters dropped, under-running final vote
//!   counts cleared, a stale Top Users list re-sorted) and
//!   **quarantined** where it is not (promotion-boundary violations:
//!   a front-page record below the threshold cannot be told apart from
//!   a mislabeled queue record). Every action is tagged with the rule
//!   id from the [`crate::validate`] taxonomy that motivated it, and
//!   ingestion returns a [`DegradationReport`] instead of aborting on
//!   the first bad record.
//!
//! The repair order matters and is fixed: per record, out-of-range
//! voters are dropped first, then duplicates, then the submitter is
//! restored to the front, then the final-vote count is checked —
//! so the boundary decision (quarantine) is made on the *repaired*
//! voter list, and a record is never quarantined for a violation a
//! repair would have fixed. The lenient output always passes
//! [`crate::validate::validate`] (see the round-trip proptest in
//! `tests/fault_roundtrip.rs`).

use crate::model::{DiggDataset, SampleSource, StoryRecord};
use crate::validate::{self, Violation};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Errors from dataset ingestion.
#[derive(Debug)]
pub enum DataError {
    /// The dataset deserialized but violates structural invariants
    /// (strict mode only; lenient mode repairs or quarantines
    /// instead).
    Invalid(Vec<Violation>),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Invalid(v) => {
                write!(f, "dataset violates {} invariant(s)", v.len())?;
                if let Some(first) = v.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DataError {}

/// One record the lenient ingester refused to keep, with the rule that
/// condemned it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QuarantinedRecord {
    /// The condemned story.
    pub story: u32,
    /// Which sample it came from.
    pub source: SampleSource,
    /// Rule id from the [`crate::validate`] taxonomy.
    pub rule: String,
    /// Human-readable details.
    pub detail: String,
}

/// What lenient ingestion did to a dataset: the ledger of kept,
/// repaired and quarantined records, per-rule counts, and the
/// `fan-coverage` measurement.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DegradationReport {
    /// Records in the input (front page + upcoming).
    pub records_seen: usize,
    /// Records in the output.
    pub records_kept: usize,
    /// Records that needed at least one repair (and were kept).
    pub records_repaired: usize,
    /// Records dropped, with reasons.
    pub quarantined: Vec<QuarantinedRecord>,
    /// Individual repairs applied, keyed by the rule id that motivated
    /// each (e.g. `no-duplicate-voters` → number of duplicate entries
    /// removed, `submitter-first` → submitters restored to the front).
    /// Repairs applied to a record that was *later* quarantined are
    /// still counted — every observable degradation lands under
    /// exactly one rule id, here or in [`DegradationReport::quarantined`].
    pub repairs_by_rule: BTreeMap<String, usize>,
    /// Was the Top Users list re-sorted (`top-users-sorted` repair)?
    pub top_users_resorted: bool,
    /// The `fan-coverage` measurement: fraction of
    /// distinct voters with at least one observed fan link
    /// (`crate::validate::fan_coverage`).
    pub fan_coverage: f64,
}

impl DegradationReport {
    /// Repairs recorded under one rule id.
    pub fn repairs(&self, rule: &str) -> usize {
        self.repairs_by_rule.get(rule).copied().unwrap_or(0)
    }

    /// Did ingestion change anything at all?
    pub fn any_degradation(&self) -> bool {
        !self.quarantined.is_empty() || !self.repairs_by_rule.is_empty() || self.top_users_resorted
    }
}

/// Strict ingestion of an in-memory dataset: identity on valid data,
/// [`DataError::Invalid`] otherwise.
pub fn ingest_strict(ds: DiggDataset, threshold: usize) -> Result<DiggDataset, DataError> {
    let violations = validate::validate(&ds, threshold);
    if violations.is_empty() {
        Ok(ds)
    } else {
        Err(DataError::Invalid(violations))
    }
}

/// Lenient ingestion of an in-memory dataset: repair what is
/// unambiguous, quarantine what is not, and report. The returned
/// dataset passes [`crate::validate::validate`].
pub fn ingest_lenient(ds: DiggDataset, threshold: usize) -> (DiggDataset, DegradationReport) {
    let mut report = DegradationReport {
        records_seen: ds.front_page.len() + ds.upcoming.len(),
        ..DegradationReport::default()
    };
    let user_count = ds.network.user_count();
    let front_page = ingest_records(ds.front_page, threshold, user_count, &mut report);
    let upcoming = ingest_records(ds.upcoming, threshold, user_count, &mut report);
    report.records_kept = front_page.len() + upcoming.len();

    // A stale Top Users list (published before the fan lists were
    // re-fetched) is re-derived from the network actually observed.
    let top_users = if is_sorted_by_fans(&ds.network, &ds.top_users) {
        ds.top_users
    } else {
        report.top_users_resorted = true;
        *report
            .repairs_by_rule
            .entry(validate::TOP_USERS_SORTED.to_string())
            .or_insert(0) += 1;
        ds.network
            .users_by_fans_desc()
            .into_iter()
            .take(ds.top_users.len())
            .collect()
    };

    let out = DiggDataset {
        scraped_at: ds.scraped_at,
        front_page,
        upcoming,
        network: ds.network,
        top_users,
    };
    report.fan_coverage = validate::fan_coverage(&out);
    (out, report)
}

fn is_sorted_by_fans(network: &social_graph::SocialGraph, top: &[social_graph::UserId]) -> bool {
    top.windows(2)
        .all(|w| network.fan_count(w[0]) >= network.fan_count(w[1]))
}

fn ingest_records(
    records: Vec<StoryRecord>,
    threshold: usize,
    user_count: usize,
    report: &mut DegradationReport,
) -> Vec<StoryRecord> {
    let mut out = Vec::with_capacity(records.len());
    for mut r in records {
        let mut repaired = false;
        let mut repair = |report: &mut DegradationReport, rule: &str, n: usize| {
            repaired = true;
            *report.repairs_by_rule.entry(rule.to_string()).or_insert(0) += n;
        };

        // 1. Out-of-range voters cannot be mapped to the observed
        //    network; drop them.
        let before = r.voters.len();
        r.voters.retain(|v| v.index() < user_count);
        if r.voters.len() < before {
            repair(report, validate::VOTERS_IN_NETWORK, before - r.voters.len());
        }

        // 2. Duplicate voters: keep the first occurrence (the earliest
        //    vote is the real one; later copies are fetch artifacts).
        let before = r.voters.len();
        let mut seen = BTreeSet::new();
        r.voters.retain(|&v| seen.insert(v));
        if r.voters.len() < before {
            repair(
                report,
                validate::NO_DUPLICATE_VOTERS,
                before - r.voters.len(),
            );
        }

        // 3. Submitter first. A displaced submitter is moved back; a
        //    missing in-range submitter is restored (their submission
        //    *is* a vote); an out-of-range submitter condemns the
        //    record — it cannot be attributed within the network.
        if r.voters.first() != Some(&r.submitter) {
            if r.submitter.index() >= user_count {
                report.quarantined.push(QuarantinedRecord {
                    story: r.story.0,
                    source: r.source,
                    rule: validate::SUBMITTER_FIRST.to_string(),
                    detail: format!(
                        "story {} submitter {} outside the scraped network",
                        r.story, r.submitter
                    ),
                });
                continue;
            }
            if let Some(pos) = r.voters.iter().position(|&v| v == r.submitter) {
                r.voters.remove(pos);
            }
            r.voters.insert(0, r.submitter);
            repair(report, validate::SUBMITTER_FIRST, 1);
        }

        // 4. Final votes below the (repaired) scraped count: the
        //    augmentation pass is untrustworthy for this record; clear
        //    it rather than keep a contradiction.
        if let Some(fin) = r.final_votes {
            if (fin as usize) < r.voters.len() {
                r.final_votes = None;
                repair(report, validate::FINAL_NOT_BELOW_SCRAPED, 1);
            }
        }

        // 5. Promotion boundary, judged on the repaired list. No
        //    repair exists: a short front-page record is
        //    indistinguishable from a mislabeled queue record.
        let (rule, bad) = match r.source {
            SampleSource::FrontPage => (validate::BOUNDARY_FP, r.voters.len() < threshold),
            SampleSource::Upcoming => (validate::BOUNDARY_UP, r.voters.len() >= threshold),
        };
        if bad {
            report.quarantined.push(QuarantinedRecord {
                story: r.story.0,
                source: r.source,
                rule: rule.to_string(),
                detail: format!(
                    "story {} has {} votes after repair (threshold {threshold})",
                    r.story,
                    r.voters.len()
                ),
            });
            continue;
        }

        if repaired {
            report.records_repaired += 1;
        }
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, SocialGraph, UserId};

    fn record(id: u32, voters: Vec<u32>, source: SampleSource, fin: Option<u32>) -> StoryRecord {
        StoryRecord {
            story: StoryId(id),
            submitter: UserId(voters[0]),
            submitted_at: Minute(0),
            voters: voters.into_iter().map(UserId).collect(),
            source,
            final_votes: fin,
        }
    }

    fn dataset(front: Vec<StoryRecord>, upcoming: Vec<StoryRecord>) -> DiggDataset {
        let mut b = GraphBuilder::new(10);
        b.add_watch(UserId(1), UserId(0));
        DiggDataset {
            scraped_at: Minute(100),
            front_page: front,
            upcoming,
            network: b.build(),
            top_users: vec![UserId(0)],
        }
    }

    #[test]
    fn strict_passes_clean_data_through() {
        let ds = dataset(
            vec![record(0, vec![0, 1, 2], SampleSource::FrontPage, Some(5))],
            vec![record(1, vec![3, 4], SampleSource::Upcoming, None)],
        );
        let out = ingest_strict(ds.clone(), 3).unwrap();
        assert_eq!(out.front_page, ds.front_page);
        assert_eq!(out.upcoming, ds.upcoming);
    }

    #[test]
    fn strict_rejects_bad_data_with_typed_error() {
        let ds = dataset(
            vec![record(0, vec![0, 1, 1], SampleSource::FrontPage, None)],
            vec![],
        );
        let DataError::Invalid(v) = ingest_strict(ds, 1).unwrap_err();
        assert!(v.iter().any(|x| x.rule == "no-duplicate-voters"));
    }

    #[test]
    fn lenient_dedups_keep_first() {
        let ds = dataset(
            vec![record(
                0,
                vec![0, 1, 1, 2, 1],
                SampleSource::FrontPage,
                None,
            )],
            vec![],
        );
        let (out, report) = ingest_lenient(ds, 1);
        assert_eq!(
            out.front_page[0].voters,
            vec![UserId(0), UserId(1), UserId(2)]
        );
        assert_eq!(report.repairs("no-duplicate-voters"), 2);
        assert_eq!(report.records_repaired, 1);
        assert!(validate::validate(&out, 1).is_empty());
    }

    #[test]
    fn lenient_restores_displaced_submitter() {
        let mut r = record(0, vec![0, 1, 2], SampleSource::FrontPage, None);
        r.voters.swap(0, 1); // head reorder: [1, 0, 2]
        let ds = dataset(vec![r], vec![]);
        let (out, report) = ingest_lenient(ds, 1);
        assert_eq!(
            out.front_page[0].voters,
            vec![UserId(0), UserId(1), UserId(2)]
        );
        assert_eq!(report.repairs("submitter-first"), 1);
    }

    #[test]
    fn lenient_quarantines_boundary_violations() {
        let ds = dataset(
            vec![record(0, vec![0, 1], SampleSource::FrontPage, None)],
            vec![record(1, vec![2, 3, 4, 5], SampleSource::Upcoming, None)],
        );
        let (out, report) = ingest_lenient(ds, 3);
        assert!(out.front_page.is_empty());
        assert!(out.upcoming.is_empty());
        let rules: Vec<&str> = report.quarantined.iter().map(|q| q.rule.as_str()).collect();
        assert_eq!(rules, ["promotion-boundary-fp", "promotion-boundary-up"]);
        assert_eq!(report.records_kept, 0);
    }

    #[test]
    fn lenient_drops_out_of_range_voters_and_clears_bad_finals() {
        let ds = dataset(
            vec![record(
                0,
                vec![0, 1, 2, 99],
                SampleSource::FrontPage,
                Some(2),
            )],
            vec![],
        );
        let (out, report) = ingest_lenient(ds, 1);
        assert_eq!(
            out.front_page[0].voters,
            vec![UserId(0), UserId(1), UserId(2)]
        );
        // final 2 < 3 scraped even after the out-of-range drop.
        assert_eq!(out.front_page[0].final_votes, None);
        assert_eq!(report.repairs("voters-in-network"), 1);
        assert_eq!(report.repairs("final-not-below-scraped"), 1);
        assert!(validate::validate(&out, 1).is_empty());
    }

    #[test]
    fn lenient_resorts_stale_top_users() {
        let mut ds = dataset(
            vec![record(0, vec![0, 1], SampleSource::FrontPage, None)],
            vec![],
        );
        ds.top_users = vec![UserId(2), UserId(0)]; // 0 has a fan, 2 has none
        let (out, report) = ingest_lenient(ds, 1);
        assert!(report.top_users_resorted);
        assert_eq!(out.top_users.len(), 2);
        assert_eq!(out.top_users[0], UserId(0));
        assert!(validate::validate(&out, 1).is_empty());
    }

    #[test]
    fn quarantines_record_with_unattributable_submitter() {
        let mut r = record(0, vec![0, 1], SampleSource::FrontPage, None);
        r.submitter = UserId(99); // outside the 10-user network
        let ds = dataset(vec![r], vec![]);
        let (out, report) = ingest_lenient(ds, 1);
        assert!(out.front_page.is_empty());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].rule, "submitter-first");
    }

    #[test]
    fn report_serializes() {
        let ds = dataset(
            vec![record(0, vec![0, 1, 1], SampleSource::FrontPage, None)],
            vec![],
        );
        let (_, report) = ingest_lenient(ds, 1);
        let json = serde_json::to_string(&report).unwrap();
        let back: DegradationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn empty_network_has_full_coverage_report() {
        let ds = DiggDataset {
            scraped_at: Minute(0),
            front_page: vec![],
            upcoming: vec![],
            network: SocialGraph::empty(0),
            top_users: vec![],
        };
        let (_, report) = ingest_lenient(ds, 1);
        assert_eq!(report.fan_coverage, 1.0);
        assert!(!report.any_degradation());
    }
}
