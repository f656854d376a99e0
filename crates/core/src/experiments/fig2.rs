//! Fig. 2 — "Statistics of story and user activity".
//!
//! (a) Histogram of final votes received by front-page stories.
//! Paper: ~20% below ~500 votes, ~20% above 1500, range to ~4000.
//!
//! (b) Log-log histogram of the number of stories each user submitted
//! and voted on, over the scraped sample. Paper: both heavy-tailed,
//! submissions steeper than votes.

use des_core::par::{par_fold, worker_threads};
use digg_data::DiggDataset;
use digg_stats::descriptive::{fraction_above, fraction_below};
use digg_stats::histogram::{integer_counts, Histogram};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fig. 2(a) data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2aResult {
    /// Bin edges width (votes).
    pub bin_width: f64,
    /// `(bin_center, stories)` series.
    pub series: Vec<(f64, u64)>,
    /// Stories with known finals.
    pub stories: usize,
    /// Fraction below 500 votes (paper ≈ 0.2).
    pub below_500: f64,
    /// Fraction above 1500 votes (paper ≈ 0.2).
    pub above_1500: f64,
    /// Maximum final vote count.
    pub max_votes: u32,
}

/// Fig. 2(b) data: exact `(activity x, #users with x)` point clouds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2bResult {
    /// Submissions point cloud.
    pub submissions: Vec<(u64, u64)>,
    /// Votes point cloud.
    pub votes: Vec<(u64, u64)>,
    /// Fraction of users who voted on exactly one story (paper: "most
    /// of the users voted on only one story").
    pub single_vote_users: f64,
    /// Maximum votes by one user.
    pub max_votes_by_user: u64,
}

/// Run Fig. 2(a) over the front-page sample.
pub fn run_a(ds: &DiggDataset, bins: usize, max: f64) -> Fig2aResult {
    let finals: Vec<f64> = ds
        .front_page
        .iter()
        .filter_map(|r| r.final_votes)
        .map(f64::from)
        .collect();
    let hist = Histogram::of(0.0, max, bins, &finals);
    Fig2aResult {
        bin_width: hist.bin_width(),
        series: hist.series(),
        stories: finals.len(),
        below_500: fraction_below(&finals, 500.0),
        above_1500: fraction_above(&finals, 1500.0),
        // Max over the original integer counts — no float round-trip.
        max_votes: ds
            .front_page
            .iter()
            .filter_map(|r| r.final_votes)
            .max()
            .unwrap_or(0),
    }
}

/// Per-user `(submissions, votes)` tallies, accumulated across worker
/// threads. Counter addition commutes, so the merged tallies are
/// thread-count independent by construction. HashMap is safe here
/// (determinism audit, DESIGN.md §13): everything that reaches the
/// serialized artifact flows through [`integer_counts`], which
/// re-sorts into a `BTreeMap`, or through order-independent integer
/// max/count reductions.
type Activity = (HashMap<u32, u64>, HashMap<u32, u64>);

/// Fan per-story activity counting out over `threads` workers, with
/// `record` charging one story to the accumulator.
fn count_activity<T: Sync>(
    items: &[T],
    threads: usize,
    record: impl Fn(&mut Activity, &T) + Sync,
) -> Activity {
    par_fold(
        items,
        threads,
        || (HashMap::new(), HashMap::new()),
        record,
        |acc, part| {
            for (u, c) in part.0 {
                *acc.0.entry(u).or_insert(0) += c;
            }
            for (u, c) in part.1 {
                *acc.1.entry(u).or_insert(0) += c;
            }
        },
    )
}

/// Assemble the figure from the per-user tallies.
fn result_from((submissions, votes): Activity) -> Fig2bResult {
    let sub_counts: Vec<u64> = submissions.values().copied().collect();
    let vote_counts: Vec<u64> = votes.values().copied().collect();
    let single = if vote_counts.is_empty() {
        0.0
    } else {
        vote_counts.iter().filter(|&&c| c == 1).count() as f64 / vote_counts.len() as f64
    };
    Fig2bResult {
        submissions: integer_counts(&sub_counts).into_iter().collect(),
        votes: integer_counts(&vote_counts).into_iter().collect(),
        single_vote_users: single,
        max_votes_by_user: vote_counts.iter().copied().max().unwrap_or(0),
    }
}

/// Run Fig. 2(b) over all scraped records (front page + upcoming, as
/// the paper counted activity over its sample).
pub fn run_b(ds: &DiggDataset) -> Fig2bResult {
    run_b_with(ds, worker_threads())
}

/// [`run_b`] with an explicit worker-thread count.
pub fn run_b_with(ds: &DiggDataset, threads: usize) -> Fig2bResult {
    let records: Vec<_> = ds.all_records().collect();
    result_from(count_activity(&records, threads, |(subs, votes), r| {
        *subs.entry(r.submitter.0).or_insert(0) += 1;
        // Post-submitter voters (the submitter's implicit vote counts
        // as a submission, not a vote, in the paper's Fig. 2b).
        for v in r.voters.iter().skip(1) {
            *votes.entry(v.0).or_insert(0) += 1;
        }
    }))
}

/// Fig. 2(b) over the full simulation record instead of the scraped
/// sample. The paper's activity plot spans the site's lifetime (its
/// Top Users list counted all 15,000+ front-page submissions ever
/// made); the few-day scraped window alone caps per-user counts at a
/// handful.
pub fn run_b_sim(sim: &digg_sim::Sim) -> Fig2bResult {
    run_b_sim_with(sim, worker_threads())
}

/// [`run_b_sim`] with an explicit worker-thread count.
pub fn run_b_sim_with(sim: &digg_sim::Sim, threads: usize) -> Fig2bResult {
    result_from(count_activity(
        sim.stories(),
        threads,
        |(subs, votes), s| {
            *subs.entry(s.submitter.0).or_insert(0) += 1;
            for v in s.votes.iter().skip(1) {
                *votes.entry(v.user.0).or_insert(0) += 1;
            }
        },
    ))
}

impl Fig2aResult {
    /// Render the histogram plus the headline fractions.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fig 2a: final votes of {} front-page stories\n  <500: {:.2} (paper ~0.20)   >1500: {:.2} (paper ~0.20)   max: {}\n",
            self.stories, self.below_500, self.above_1500, self.max_votes
        );
        let max_count = self
            .series
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        for &(center, count) in &self.series {
            let bar = "#".repeat((count as f64 / max_count as f64 * 40.0).round() as usize);
            out.push_str(&format!("  {:>6.0} |{:<40}| {}\n", center, bar, count));
        }
        out
    }
}

impl Fig2bResult {
    /// Render both log-log point clouds.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 2b: per-user activity (log-log)\n");
        out.push_str(&format!(
            "  single-vote users: {:.2}   max votes by one user: {}\n",
            self.single_vote_users, self.max_votes_by_user
        ));
        out.push_str("  votes:\n");
        let pts: Vec<(f64, f64)> = self
            .votes
            .iter()
            .map(|&(x, c)| (x as f64, c as f64))
            .collect();
        out.push_str(&digg_stats::ascii::loglog_scatter(&pts, 60, 14));
        out.push_str("  submissions:\n");
        let pts: Vec<(f64, f64)> = self
            .submissions
            .iter()
            .map(|&(x, c)| (x as f64, c as f64))
            .collect();
        out.push_str(&digg_stats::ascii::loglog_scatter(&pts, 60, 14));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::{SampleSource, StoryRecord};
    use digg_sim::{Minute, StoryId};
    use social_graph::{SocialGraph, UserId};

    fn rec(id: u32, submitter: u32, voters: Vec<u32>, fin: Option<u32>) -> StoryRecord {
        StoryRecord {
            story: StoryId(id),
            submitter: UserId(submitter),
            submitted_at: Minute(0),
            voters: voters.into_iter().map(UserId).collect(),
            source: SampleSource::FrontPage,
            final_votes: fin,
        }
    }

    fn ds() -> DiggDataset {
        DiggDataset {
            scraped_at: Minute(10),
            front_page: vec![
                rec(0, 1, vec![1, 2, 3], Some(100)),
                rec(1, 1, vec![1, 2, 4], Some(700)),
                rec(2, 5, vec![5, 2], Some(2000)),
                rec(3, 6, vec![6, 7], None), // unaugmented: excluded from 2a
            ],
            upcoming: vec![rec(4, 8, vec![8, 2], None)],
            network: SocialGraph::empty(10),
            top_users: vec![],
        }
    }

    #[test]
    fn fig2a_fractions_and_bins() {
        let r = run_a(&ds(), 8, 4000.0);
        assert_eq!(r.stories, 3);
        assert!((r.below_500 - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.above_1500 - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.max_votes, 2000);
        assert_eq!(r.series.len(), 8);
        let total: u64 = r.series.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3);
        assert!(r.render().contains("Fig 2a"));
    }

    #[test]
    fn fig2b_counts_activity() {
        let r = run_b(&ds());
        // Submitters: 1 (x2), 5, 6, 8 -> counts {1: 3 users, 2: 1 user}.
        assert_eq!(r.submissions, vec![(1, 3), (2, 1)]);
        // Voters (excluding submitter-first votes): 2 voted 4x,
        // 3,4,7 once each... plus 2 in upcoming.
        let votes: std::collections::HashMap<u64, u64> = r.votes.iter().copied().collect();
        assert_eq!(votes[&1], 3); // users 3, 4, 7
        assert_eq!(votes[&4], 1); // user 2
        assert_eq!(r.max_votes_by_user, 4);
        assert!((r.single_vote_users - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fig2b_render_smoke() {
        let text = run_b(&ds()).render();
        assert!(text.contains("Fig 2b"));
        assert!(text.contains("single-vote users"));
    }

    #[test]
    fn fig2b_artifact_bytes_are_run_and_thread_invariant() {
        // Determinism audit regression (DESIGN.md §13): the per-user
        // tallies accumulate in HashMaps, whose iteration order
        // differs per instance. The serialized artifact must not —
        // every run, at any thread count, must produce identical
        // bytes.
        let dataset = ds();
        let reference = serde_json::to_string(&run_b_with(&dataset, 1)).expect("serializable");
        for threads in [1, 2, 7] {
            for _ in 0..3 {
                let bytes =
                    serde_json::to_string(&run_b_with(&dataset, threads)).expect("serializable");
                assert_eq!(bytes, reference, "threads={threads}");
            }
        }
    }
}
