//! Early-vote features (paper §5.2).
//!
//! "Each story had three attributes: number of in-network votes within
//! the first ten votes (v10), number of users watching the submitter
//! (fans1) and a boolean attribute indicating whether the story was
//! interesting … if it received more than 520 votes."
//!
//! A finished story's features are a [`StoryRow`](crate::table::StoryRow)'s;
//! a story still taking votes has the per-vote engine's
//! ([`IncrementalSweep::features`](crate::IncrementalSweep::features)).

use serde::{Deserialize, Serialize};

/// The paper's interestingness threshold (final votes must *exceed*
/// this). Chosen in §5.1 footnote 3: the 500-vote knee of Fig. 2(a),
/// raised to 520 to keep two borderline stories unambiguous.
pub const INTERESTINGNESS_THRESHOLD: u32 = 520;

/// Early-vote features of one story.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoryFeatures {
    /// In-network votes within the first 6 post-submitter votes.
    pub v6: usize,
    /// In-network votes within the first 10 (the tree's main input).
    pub v10: usize,
    /// In-network votes within the first 20.
    pub v20: usize,
    /// Fans of the submitter.
    pub fans1: usize,
    /// Votes visible when the features were computed.
    pub scraped_votes: usize,
}

/// The paper's `v_n` read off a cumulative cascade series (entry `k`
/// counts the in-network votes among the first `k + 1` post-submitter
/// votes): in-network votes among the first `n`, all of them if the
/// series is shorter.
pub(crate) fn in_network_within(cascade: &[u32], n: usize) -> usize {
    match n.min(cascade.len()) {
        0 => 0,
        m => cascade[m - 1] as usize,
    }
}

impl StoryFeatures {
    /// The features of a story with `voters` voters (submitter
    /// included), its cumulative cascade series and its submitter's
    /// fan count. `None` until the paper's minimum observation window
    /// of 10 post-submitter votes is in.
    pub(crate) fn of(cascade: &[u32], fans1: usize, voters: usize) -> Option<StoryFeatures> {
        (voters > 10).then(|| StoryFeatures {
            v6: in_network_within(cascade, 6),
            v10: in_network_within(cascade, 10),
            v20: in_network_within(cascade, 20),
            fans1,
            scraped_votes: voters,
        })
    }

    /// The learner's attribute vector, aligned with
    /// `StoryFeatures::attribute_names`. A fixed-size array: the
    /// per-vote verdict path calls this once per arrival, so it must
    /// not heap-allocate.
    pub fn values(&self) -> [f64; 2] {
        [self.v10 as f64, self.fans1 as f64]
    }

    /// Attribute names for the paper's model.
    pub(crate) fn attribute_names() -> Vec<&'static str> {
        vec!["v10", "fans1"]
    }
}
