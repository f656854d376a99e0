//! Simulation observability counters.
//!
//! Used by calibration tests (does the run reproduce the paper's
//! in-text statistics?) and by the ablation benches.

use digg_snapshot::{ByteReader, ByteWriter, Codec, SnapshotError};
use serde::{Deserialize, Serialize};

/// Aggregate counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Stories submitted.
    pub submissions: u64,
    /// Stories promoted to the front page.
    pub promotions: u64,
    /// Stories expired from the queue unpromoted.
    pub expirations: u64,
    /// Votes cast through the Friends interface.
    pub votes_friends: u64,
    /// Votes cast from front-page browsing.
    pub votes_frontpage: u64,
    /// Votes cast from upcoming-queue browsing.
    pub votes_upcoming: u64,
    /// Votes cast through external discovery.
    pub votes_external: u64,
    /// Friends-interface entries a fan will see: the exposure coin
    /// came up.
    pub exposures_scheduled: u64,
    /// Exposures that fired: entries whose vote coin also came up,
    /// the only ones queued. Each casts a Friends vote unless the fan
    /// voted on the story meanwhile.
    pub exposures_fired: u64,
    /// Minutes simulated.
    pub minutes: u64,
}

impl SimMetrics {
    /// Total votes across channels (excluding submitters' implicit
    /// votes, which are counted as submissions).
    pub fn total_votes(&self) -> u64 {
        self.votes_friends + self.votes_frontpage + self.votes_upcoming + self.votes_external
    }

    /// Fraction of votes that came through the Friends interface.
    pub fn social_vote_fraction(&self) -> f64 {
        let t = self.total_votes();
        if t == 0 {
            return 0.0;
        }
        self.votes_friends as f64 / t as f64
    }

    /// Submissions per simulated day.
    pub fn submissions_per_day(&self) -> f64 {
        if self.minutes == 0 {
            return 0.0;
        }
        self.submissions as f64 * 1440.0 / self.minutes as f64
    }

    /// Promotions per simulated day.
    pub fn promotions_per_day(&self) -> f64 {
        if self.minutes == 0 {
            return 0.0;
        }
        self.promotions as f64 * 1440.0 / self.minutes as f64
    }
}

impl Codec for SimMetrics {
    fn encode(&self, out: &mut ByteWriter) {
        for v in [
            self.submissions,
            self.promotions,
            self.expirations,
            self.votes_friends,
            self.votes_frontpage,
            self.votes_upcoming,
            self.votes_external,
            self.exposures_scheduled,
            self.exposures_fired,
            self.minutes,
        ] {
            out.put_u64(v);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<SimMetrics, SnapshotError> {
        Ok(SimMetrics {
            submissions: r.get_u64()?,
            promotions: r.get_u64()?,
            expirations: r.get_u64()?,
            votes_friends: r.get_u64()?,
            votes_frontpage: r.get_u64()?,
            votes_upcoming: r.get_u64()?,
            votes_external: r.get_u64()?,
            exposures_scheduled: r.get_u64()?,
            exposures_fired: r.get_u64()?,
            minutes: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let m = SimMetrics {
            votes_friends: 30,
            votes_frontpage: 50,
            votes_upcoming: 10,
            votes_external: 10,
            ..Default::default()
        };
        assert_eq!(m.total_votes(), 100);
        assert!((m.social_vote_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rates_handle_zero_minutes() {
        let m = SimMetrics::default();
        assert_eq!(m.submissions_per_day(), 0.0);
        assert_eq!(m.promotions_per_day(), 0.0);
        assert_eq!(m.social_vote_fraction(), 0.0);
    }

    #[test]
    fn per_day_scaling() {
        let m = SimMetrics {
            submissions: 100,
            promotions: 10,
            minutes: 720, // half a day
            ..Default::default()
        };
        assert_eq!(m.submissions_per_day(), 200.0);
        assert_eq!(m.promotions_per_day(), 20.0);
    }
}
