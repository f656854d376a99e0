//! Dataset invariants.
//!
//! The paper reports several hard facts about its dataset; a valid
//! synthetic dataset must satisfy the structural ones exactly and the
//! statistical ones within tolerance. [`validate`] checks the
//! structural set and returns every violation (empty = valid).

use crate::model::{DiggDataset, SampleSource};
use std::collections::BTreeMap;

// The rule ids [`validate`] emits; lenient ingestion reuses them
// verbatim as repair/quarantine reasons.
pub(crate) const BOUNDARY_FP: &str = "promotion-boundary-fp";
pub(crate) const BOUNDARY_UP: &str = "promotion-boundary-up";
pub(crate) const SUBMITTER_FIRST: &str = "submitter-first";
pub(crate) const NO_DUPLICATE_VOTERS: &str = "no-duplicate-voters";
pub(crate) const FINAL_NOT_BELOW_SCRAPED: &str = "final-not-below-scraped";
pub(crate) const VOTERS_IN_NETWORK: &str = "voters-in-network";
pub(crate) const TOP_USERS_SORTED: &str = "top-users-sorted";

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule (stable identifier, see [`validate`]).
    pub rule: &'static str,
    /// Human-readable details.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Check the structural invariants:
///
/// * `promotion-boundary-fp` — every front-page record has at least
///   `threshold` scraped votes (paper: no front-page story below 43);
/// * `promotion-boundary-up` — every upcoming record has fewer than
///   `threshold` scraped votes (paper: none above 42 in the queue);
/// * `submitter-first` — each voter list starts with the submitter;
/// * `no-duplicate-voters` — no voter appears twice on one story
///   (every duplicated voter is reported, once each, with its
///   occurrence count);
/// * `final-not-below-scraped` — augmented totals never undercut the
///   scraped count;
/// * `voters-in-network` — every voter id exists in the scraped
///   network's user range;
/// * `top-users-sorted` — the Top Users list is ordered by fan count.
pub fn validate(ds: &DiggDataset, threshold: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    for r in ds.all_records() {
        let id = r.story;
        match r.source {
            SampleSource::FrontPage => {
                if r.voters.len() < threshold {
                    out.push(Violation {
                        rule: BOUNDARY_FP,
                        detail: format!(
                            "front-page story {id} scraped with only {} votes (< {threshold})",
                            r.voters.len()
                        ),
                    });
                }
            }
            SampleSource::Upcoming => {
                if r.voters.len() >= threshold {
                    out.push(Violation {
                        rule: BOUNDARY_UP,
                        detail: format!(
                            "queue story {id} scraped with {} votes (>= {threshold})",
                            r.voters.len()
                        ),
                    });
                }
            }
        }
        if r.voters.first() != Some(&r.submitter) {
            out.push(Violation {
                rule: SUBMITTER_FIRST,
                detail: format!("story {id} voter list does not start with its submitter"),
            });
        }
        // Report *every* duplicated voter on the story (not just the
        // first), each once, with its occurrence count — in first-seen
        // order so output is deterministic.
        let mut counts: BTreeMap<social_graph::UserId, usize> = BTreeMap::new();
        let mut order = Vec::new();
        for &v in &r.voters {
            let c = counts.entry(v).or_insert(0);
            *c += 1;
            if *c == 2 {
                order.push(v);
            }
            if v.index() >= ds.network.user_count() {
                out.push(Violation {
                    rule: VOTERS_IN_NETWORK,
                    detail: format!("story {id} voter {v} outside the scraped network"),
                });
            }
        }
        for v in order {
            out.push(Violation {
                rule: NO_DUPLICATE_VOTERS,
                detail: format!(
                    "story {id} has duplicate voter {v} ({} occurrences)",
                    counts[&v]
                ),
            });
        }
        if let Some(fin) = r.final_votes {
            if (fin as usize) < r.voters.len() {
                out.push(Violation {
                    rule: FINAL_NOT_BELOW_SCRAPED,
                    detail: format!(
                        "story {id} final votes {fin} below scraped {}",
                        r.voters.len()
                    ),
                });
            }
        }
    }
    for w in ds.top_users.windows(2) {
        if ds.network.fan_count(w[0]) < ds.network.fan_count(w[1]) {
            out.push(Violation {
                rule: TOP_USERS_SORTED,
                detail: format!("{} ranked above {} with fewer fans", w[0], w[1]),
            });
            break;
        }
    }
    out
}

/// Fraction of distinct voters (across both samples) with at least one
/// observed fan link in the scraped network. On a lossy scrape —
/// dropped or partial fan lists — this falls below its clean-scrape
/// value; the lenient loader reports it so downstream consumers see
/// *how much* network the analyses actually stand on.
pub(crate) fn fan_coverage(ds: &DiggDataset) -> f64 {
    let mut voters: Vec<_> = ds
        .all_records()
        .flat_map(|r| r.voters.iter().copied())
        .filter(|v| v.index() < ds.network.user_count())
        .collect();
    voters.sort_unstable();
    voters.dedup();
    if voters.is_empty() {
        return 1.0;
    }
    let covered = voters
        .iter()
        .filter(|&&v| ds.network.fan_count(v) > 0)
        .count();
    covered as f64 / voters.len() as f64
}

/// Statistical summary used by the calibration report and tests.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DatasetStats {
    /// Front-page records.
    pub front_page_stories: usize,
    /// Upcoming records.
    pub upcoming_stories: usize,
    /// Distinct voters across both samples.
    pub distinct_voters: usize,
    /// Fraction of augmented front-page stories with < 500 final
    /// votes (paper: ≈0.2).
    pub fp_below_500: f64,
    /// Fraction with > 1500 final votes (paper: ≈0.2).
    pub fp_above_1500: f64,
    /// Fraction of front-page stories submitted by users with fewer
    /// than 10 fans (paper §4.1: slightly more than half).
    pub fp_poorly_connected_submitters: f64,
}

/// Compute the summary.
pub fn stats(ds: &DiggDataset) -> DatasetStats {
    let finals: Vec<f64> = ds
        .front_page
        .iter()
        .filter_map(|r| r.final_votes)
        .map(f64::from)
        .collect();
    let frac = |pred: &dyn Fn(f64) -> bool| {
        if finals.is_empty() {
            0.0
        } else {
            finals.iter().filter(|&&v| pred(v)).count() as f64 / finals.len() as f64
        }
    };
    let poorly = if ds.front_page.is_empty() {
        0.0
    } else {
        ds.front_page
            .iter()
            .filter(|r| ds.network.fan_count(r.submitter) < 10)
            .count() as f64
            / ds.front_page.len() as f64
    };
    DatasetStats {
        front_page_stories: ds.front_page.len(),
        upcoming_stories: ds.upcoming.len(),
        distinct_voters: ds.distinct_voters(),
        fp_below_500: frac(&|v| v < 500.0),
        fp_above_1500: frac(&|v| v > 1500.0),
        fp_poorly_connected_submitters: poorly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StoryRecord;
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
        DiggDataset {
            scraped_at: Minute(100),
            front_page: front,
            upcoming,
            network: SocialGraph::empty(10),
            top_users: vec![],
        }
    }

    #[test]
    fn clean_dataset_validates() {
        let ds = dataset(
            vec![record(0, vec![0, 1, 2], SampleSource::FrontPage, Some(5))],
            vec![record(1, vec![3, 4], SampleSource::Upcoming, None)],
        );
        assert!(validate(&ds, 3).is_empty());
    }

    #[test]
    fn boundary_violations_detected() {
        let ds = dataset(
            vec![record(0, vec![0, 1], SampleSource::FrontPage, None)],
            vec![record(1, vec![2, 3, 4], SampleSource::Upcoming, None)],
        );
        let v = validate(&ds, 3);
        assert!(v.iter().any(|x| x.rule == "promotion-boundary-fp"));
        assert!(v.iter().any(|x| x.rule == "promotion-boundary-up"));
    }

    #[test]
    fn submitter_and_duplicate_rules() {
        let mut bad = record(0, vec![0, 1, 1], SampleSource::FrontPage, None);
        bad.submitter = UserId(9);
        let ds = dataset(vec![bad], vec![]);
        let v = validate(&ds, 1);
        assert!(v.iter().any(|x| x.rule == "submitter-first"));
        assert!(v.iter().any(|x| x.rule == "no-duplicate-voters"));
    }

    #[test]
    fn all_duplicate_voters_reported_once_each() {
        // Voter 1 appears 3×, voter 2 appears 2×: both reported, each
        // exactly once, with occurrence counts.
        let ds = dataset(
            vec![record(
                0,
                vec![0, 1, 1, 2, 1, 2],
                SampleSource::FrontPage,
                None,
            )],
            vec![],
        );
        let v: Vec<_> = validate(&ds, 1)
            .into_iter()
            .filter(|x| x.rule == "no-duplicate-voters")
            .collect();
        assert_eq!(v.len(), 2);
        assert!(v[0].detail.contains("voter u1 (3 occurrences)"));
        assert!(v[1].detail.contains("voter u2 (2 occurrences)"));
    }

    #[test]
    fn fan_coverage_counts_voters_with_fans() {
        let mut g = GraphBuilder::new(4);
        g.add_watch(UserId(1), UserId(0)); // user 0 has a fan
        let ds = DiggDataset {
            scraped_at: Minute(0),
            front_page: vec![record(0, vec![0, 1], SampleSource::FrontPage, None)],
            upcoming: vec![],
            network: g.build(),
            top_users: vec![],
        };
        // Voters {0, 1}; only 0 has a fan.
        assert_eq!(fan_coverage(&ds), 0.5);
    }

    #[test]
    fn final_votes_rule() {
        let ds = dataset(
            vec![record(0, vec![0, 1, 2], SampleSource::FrontPage, Some(2))],
            vec![],
        );
        let v = validate(&ds, 3);
        assert!(v.iter().any(|x| x.rule == "final-not-below-scraped"));
        assert!(v[0].to_string().contains('['));
    }

    #[test]
    fn out_of_range_voters_detected() {
        let ds = dataset(
            vec![record(0, vec![0, 99], SampleSource::FrontPage, None)],
            vec![],
        );
        let v = validate(&ds, 1);
        assert!(v.iter().any(|x| x.rule == "voters-in-network"));
    }

    #[test]
    fn top_user_ordering_checked() {
        let mut g = GraphBuilder::new(3);
        g.add_watch(UserId(1), UserId(0)); // user 0 has one fan
        let network = g.build();
        let ds = DiggDataset {
            scraped_at: Minute(0),
            front_page: vec![],
            upcoming: vec![],
            network,
            top_users: vec![UserId(2), UserId(0)], // wrong order
        };
        let v = validate(&ds, 1);
        assert!(v.iter().any(|x| x.rule == "top-users-sorted"));
    }

    #[test]
    fn stats_fractions() {
        let ds = dataset(
            vec![
                record(0, vec![0, 1, 2], SampleSource::FrontPage, Some(100)),
                record(1, vec![1, 2, 3], SampleSource::FrontPage, Some(2000)),
            ],
            vec![record(2, vec![4], SampleSource::Upcoming, None)],
        );
        let s = stats(&ds);
        assert_eq!(s.front_page_stories, 2);
        assert_eq!(s.upcoming_stories, 1);
        assert_eq!(s.distinct_voters, 5);
        assert_eq!(s.fp_below_500, 0.5);
        assert_eq!(s.fp_above_1500, 0.5);
        // Empty network: every submitter has 0 fans (< 10).
        assert_eq!(s.fp_poorly_connected_submitters, 1.0);
    }
}
