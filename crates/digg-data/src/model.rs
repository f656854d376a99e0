//! Scraped records.

use digg_sim::{Minute, StoryId};
use serde::{Deserialize, Serialize};
use social_graph::{SocialGraph, UserId};

/// Where a record was collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SampleSource {
    /// Scraped from the front page (promoted before the scrape).
    FrontPage,
    /// Scraped from the upcoming queue (not yet promoted at scrape
    /// time; may have been promoted afterwards).
    Upcoming,
}

/// One scraped story, with exactly the fields the paper's scrape had.
///
/// Note what is *absent*: per-vote timestamps (votes are in
/// chronological order only), the story's latent quality, and the
/// channel through which each vote arrived. Analyses must work from
/// the order of names and the social network alone, as the paper did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoryRecord {
    /// Platform identifier of the story.
    pub story: StoryId,
    /// Submitting user ("name of the submitter").
    pub submitter: UserId,
    /// Submission time ("time the story was submitted").
    pub submitted_at: Minute,
    /// Voters in chronological order, "with submitter's name appearing
    /// first on the list".
    pub voters: Vec<UserId>,
    /// Which listing the record came from.
    pub source: SampleSource,
    /// Final vote count from the later augmentation pass (`None`
    /// until augmented).
    pub final_votes: Option<u32>,
}

impl StoryRecord {
    /// Votes visible at scrape time.
    pub fn scraped_votes(&self) -> usize {
        self.voters.len()
    }

    /// The paper's interestingness label: more than `threshold`
    /// (default 520) final votes. `None` when not augmented.
    pub fn is_interesting(&self, threshold: u32) -> Option<bool> {
        self.final_votes.map(|v| v > threshold)
    }
}

/// The assembled dataset: the two story samples plus the reconstructed
/// June-2006 social network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiggDataset {
    /// When the story samples were scraped.
    pub scraped_at: Minute,
    /// Most recently promoted stories (paper: ~200).
    pub front_page: Vec<StoryRecord>,
    /// Newest upcoming-queue stories (paper: 900).
    pub upcoming: Vec<StoryRecord>,
    /// The social network *as reconstructed by the scraper*: fans who
    /// joined after the study window removed, but late-created links
    /// by early joiners erroneously retained (the paper's §3.2 bias).
    pub network: SocialGraph,
    /// Users ranked by fan count under `network`, best first (the
    /// paper's Top Users list; it used the top 1020).
    pub top_users: Vec<UserId>,
}

impl DiggDataset {
    /// All records (front page then upcoming).
    pub fn all_records(&self) -> impl Iterator<Item = &StoryRecord> {
        self.front_page.iter().chain(self.upcoming.iter())
    }

    /// Number of distinct users appearing as voters anywhere in the
    /// dataset (paper: "over 16,600 distinct users").
    pub fn distinct_voters(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for r in self.all_records() {
            for &v in &r.voters {
                seen.insert(v);
            }
        }
        seen.len()
    }

    /// Rank (1-based) of each user in the Top Users list, or `None`
    /// if beyond the list length used at construction.
    pub fn rank_of(&self, user: UserId) -> Option<usize> {
        self.top_users
            .iter()
            .position(|&u| u == user)
            .map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(voters: Vec<u32>, fin: Option<u32>) -> StoryRecord {
        StoryRecord {
            story: StoryId(0),
            submitter: UserId(voters[0]),
            submitted_at: Minute(10),
            voters: voters.into_iter().map(UserId).collect(),
            source: SampleSource::FrontPage,
            final_votes: fin,
        }
    }

    #[test]
    fn interestingness_threshold_is_strict() {
        let r = record(vec![0], Some(520));
        assert_eq!(r.is_interesting(520), Some(false));
        let r = record(vec![0], Some(521));
        assert_eq!(r.is_interesting(520), Some(true));
        let r = record(vec![0], None);
        assert_eq!(r.is_interesting(520), None);
    }

    #[test]
    fn distinct_voters_dedup_across_samples() {
        let ds = DiggDataset {
            scraped_at: Minute(100),
            front_page: vec![record(vec![0, 1, 2], Some(600))],
            upcoming: vec![record(vec![1, 3], None)],
            network: SocialGraph::empty(4),
            top_users: vec![UserId(2), UserId(0)],
        };
        assert_eq!(ds.distinct_voters(), 4);
        assert_eq!(ds.rank_of(UserId(2)), Some(1));
        assert_eq!(ds.rank_of(UserId(3)), None);
    }

    #[test]
    fn serde_roundtrip() {
        let ds = DiggDataset {
            scraped_at: Minute(5),
            front_page: vec![record(vec![0, 1], Some(10))],
            upcoming: vec![],
            network: SocialGraph::empty(2),
            top_users: vec![UserId(0)],
        };
        let json = serde_json::to_string(&ds).unwrap();
        let ds2: DiggDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(ds.front_page, ds2.front_page);
        assert_eq!(ds.top_users, ds2.top_users);
    }
}
