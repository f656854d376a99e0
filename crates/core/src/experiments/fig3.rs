//! Fig. 3 — "Spread of interest in stories".
//!
//! (a) Histogram of story *influence* (users who can see the story
//! through the Friends interface) at submission, after 10 votes, and
//! after 20 votes. Paper checkpoints: slightly more than half the
//! stories are submitted by users with fewer than ten fans; after 10
//! votes almost half the stories are visible to at least 200 users;
//! after 30 votes every story is visible to at least ten users.
//!
//! (b) Histogram of *cascade size* (in-network votes) within the first
//! 10, 20 and 30 votes. Paper checkpoints: 30% of stories have at
//! least half of their first 10 votes in-network; 28% have ≥10
//! in-network within 20 votes; 36% have ≥10 within 30.

use crate::story_metrics::sweep_map;
use des_core::par::worker_threads;
use digg_data::DiggDataset;
use digg_stats::histogram::Histogram;
use serde::{Deserialize, Serialize};

/// One checkpoint's histogram plus raw values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Label, e.g. "after 10 votes".
    pub label: String,
    /// Raw per-story values.
    pub values: Vec<u64>,
    /// `(bin_center, count)` series.
    pub series: Vec<(f64, u64)>,
}

impl Checkpoint {
    fn new(label: &str, values: Vec<u64>, lo: f64, hi: f64, bins: usize) -> Checkpoint {
        let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let hist = Histogram::of(lo, hi, bins, &floats);
        Checkpoint {
            label: label.to_string(),
            values,
            series: hist.series(),
        }
    }

    /// Fraction of stories with value at least `x`.
    pub fn fraction_at_least(&self, x: u64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v >= x).count() as f64 / self.values.len() as f64
    }

    /// Fraction with value strictly below `x`.
    pub fn fraction_below(&self, x: u64) -> f64 {
        1.0 - self.fraction_at_least(x)
    }
}

/// Fig. 3(a): influence checkpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3aResult {
    /// At submission / after 10 votes / after 20 votes.
    pub checkpoints: Vec<Checkpoint>,
    /// Fraction of stories whose submitter has < 10 fans
    /// (paper: slightly over half).
    pub poorly_connected_submitters: f64,
    /// Fraction visible to ≥ 200 users after ten votes (paper: almost
    /// half).
    pub visible_200_after_10: f64,
}

/// Fig. 3(b): cascade checkpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3bResult {
    /// After 10 / 20 / 30 votes.
    pub checkpoints: Vec<Checkpoint>,
    /// Fraction with ≥ 5 in-network among the first 10 votes
    /// (paper: 0.30).
    pub half_in_network_at_10: f64,
    /// Fraction with ≥ 10 in-network within 20 votes (paper: 0.28).
    pub ten_in_network_at_20: f64,
    /// Fraction with ≥ 10 in-network within 30 votes (paper: 0.36).
    pub ten_in_network_at_30: f64,
}

/// Run Fig. 3(a) over the front-page sample.
pub fn run_a(ds: &DiggDataset) -> Fig3aResult {
    run_a_with(ds, worker_threads())
}

/// [`run_a`] with an explicit worker-thread count. One sweep per story
/// yields all three influence checkpoints (the trajectory is a prefix
/// property, so later voters cannot change an earlier checkpoint).
pub fn run_a_with(ds: &DiggDataset, threads: usize) -> Fig3aResult {
    let g = &ds.network;
    let rows = sweep_map(g, &ds.front_page, threads, |sw, r| {
        // Checkpoints are prefix properties: voters beyond the last
        // checkpoint (submitter + 20) cannot change them.
        let s = sw.sweep_story(g, &r.voters[..r.voters.len().min(21)]);
        // Paper counts "after it received ten votes": submitter + 10.
        (
            s.influence_after(1) as u64,
            s.influence_after(11) as u64,
            s.influence_after(21) as u64,
        )
    });
    let mut at_submission = Vec::with_capacity(rows.len());
    let mut after_10 = Vec::with_capacity(rows.len());
    let mut after_20 = Vec::with_capacity(rows.len());
    for (a, b, c) in rows {
        at_submission.push(a);
        after_10.push(b);
        after_20.push(c);
    }
    let poorly = if ds.front_page.is_empty() {
        0.0
    } else {
        ds.front_page
            .iter()
            .filter(|r| g.fan_count(r.submitter) < 10)
            .count() as f64
            / ds.front_page.len() as f64
    };
    let ck10 = Checkpoint::new("after 10 votes", after_10, 0.0, 1400.0, 28);
    let visible = ck10.fraction_at_least(200);
    Fig3aResult {
        checkpoints: vec![
            Checkpoint::new("at submission", at_submission, 0.0, 1400.0, 28),
            ck10,
            Checkpoint::new("after 20 votes", after_20, 0.0, 1400.0, 28),
        ],
        poorly_connected_submitters: poorly,
        visible_200_after_10: visible,
    }
}

/// Run Fig. 3(b) over the front-page sample.
pub fn run_b(ds: &DiggDataset) -> Fig3bResult {
    run_b_with(ds, worker_threads())
}

/// [`run_b`] with an explicit worker-thread count. One sweep per story
/// yields all three cascade windows.
pub fn run_b_with(ds: &DiggDataset, threads: usize) -> Fig3bResult {
    let g = &ds.network;
    let rows = sweep_map(g, &ds.front_page, threads, |sw, r| {
        // In-network flags only look backwards: the first 30
        // post-submitter votes are decided by voters[..31].
        let s = sw.sweep_story(g, &r.voters[..r.voters.len().min(31)]);
        (
            s.in_network_count_within(10) as u64,
            s.in_network_count_within(20) as u64,
            s.in_network_count_within(30) as u64,
        )
    });
    let mut at_10 = Vec::with_capacity(rows.len());
    let mut at_20 = Vec::with_capacity(rows.len());
    let mut at_30 = Vec::with_capacity(rows.len());
    for (a, b, c) in rows {
        at_10.push(a);
        at_20.push(b);
        at_30.push(c);
    }
    let c10 = Checkpoint::new("after 10 votes", at_10, 0.0, 26.0, 26);
    let c20 = Checkpoint::new("after 20 votes", at_20, 0.0, 26.0, 26);
    let c30 = Checkpoint::new("after 30 votes", at_30, 0.0, 26.0, 26);
    let half10 = c10.fraction_at_least(5);
    let ten20 = c20.fraction_at_least(10);
    let ten30 = c30.fraction_at_least(10);
    Fig3bResult {
        checkpoints: vec![c10, c20, c30],
        half_in_network_at_10: half10,
        ten_in_network_at_20: ten20,
        ten_in_network_at_30: ten30,
    }
}

/// Render each checkpoint's non-empty bins as a bar chart, labelling
/// a bin by `bin_label(center)`.
fn render_checkpoints(
    checkpoints: &[Checkpoint],
    width: usize,
    bin_label: fn(f64) -> f64,
) -> String {
    let mut out = String::new();
    for ck in checkpoints {
        out.push_str(&format!("  {}\n", ck.label));
        let max = ck.series.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
        for &(center, count) in &ck.series {
            if count == 0 {
                continue;
            }
            let bar = "#".repeat((count as f64 / max as f64 * width as f64).round() as usize);
            out.push_str(&format!(
                "    {:>6.0} |{:<width$}| {}\n",
                bin_label(center),
                bar,
                count
            ));
        }
    }
    out
}

impl Fig3aResult {
    /// Render histograms and headline fractions.
    pub fn render(&self) -> String {
        format!(
            "Fig 3a: story influence\n  submitters with <10 fans: {:.2} (paper: ~0.5+)\n  visible to >=200 users after 10 votes: {:.2} (paper: ~0.5)\n{}",
            self.poorly_connected_submitters,
            self.visible_200_after_10,
            render_checkpoints(&self.checkpoints, 40, |center| center)
        )
    }
}

impl Fig3bResult {
    /// Render histograms and headline fractions.
    pub fn render(&self) -> String {
        format!(
            "Fig 3b: cascade sizes\n  >=5 of first 10 in-network: {:.2} (paper 0.30)\n  >=10 within 20 votes: {:.2} (paper 0.28)\n  >=10 within 30 votes: {:.2} (paper 0.36)\n{}",
            self.half_in_network_at_10,
            self.ten_in_network_at_20,
            self.ten_in_network_at_30,
            // Unit-width bins have x.5 centres, which `{:.0}` rounds
            // half to even (bin [1,2) would print as 2); label each
            // bin by its integer lower edge instead.
            render_checkpoints(&self.checkpoints, 40, f64::floor)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::{SampleSource, StoryRecord};
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, UserId};

    fn ds() -> DiggDataset {
        let mut b = GraphBuilder::new(600);
        // Submitter 0 has 300 fans (500 is far enough): users 100..400.
        for f in 100..400 {
            b.add_watch(UserId(f), UserId(0));
        }
        // Submitter 1 has 2 fans.
        b.add_watch(UserId(2), UserId(1));
        b.add_watch(UserId(3), UserId(1));
        let network = b.build();
        let rec = |id: u32, submitter: u32, voters: Vec<u32>| StoryRecord {
            story: StoryId(id),
            submitter: UserId(submitter),
            submitted_at: Minute(0),
            voters: voters.into_iter().map(UserId).collect(),
            source: SampleSource::FrontPage,
            final_votes: Some(100),
        };
        // Story A: top submitter, fans vote -> big cascade & influence.
        let mut va = vec![0];
        va.extend(100..120);
        // Story B: poorly connected, outsiders vote.
        let mut vb = vec![1];
        vb.extend(450..470);
        DiggDataset {
            scraped_at: Minute(100),
            front_page: vec![rec(0, 0, va), rec(1, 1, vb)],
            upcoming: vec![],
            network,
            top_users: vec![UserId(0)],
        }
    }

    #[test]
    fn influence_checkpoints_ordered_by_votes() {
        let r = run_a(&ds());
        assert_eq!(r.checkpoints.len(), 3);
        // Story A at submission: 300 fans visible.
        assert_eq!(r.checkpoints[0].values[0], 300);
        // Story B at submission: 2 fans.
        assert_eq!(r.checkpoints[0].values[1], 2);
        // Half the stories have poorly connected submitters.
        assert_eq!(r.poorly_connected_submitters, 0.5);
        // Story A visible to >=200 after 10 votes (fans shrink as
        // they vote but remain ~290).
        assert_eq!(r.visible_200_after_10, 0.5);
        assert!(r.render().contains("Fig 3a"));
    }

    #[test]
    fn cascade_checkpoints_count_in_network() {
        let r = run_b(&ds());
        // Story A: all 20 voters are fans of the submitter.
        assert_eq!(r.checkpoints[0].values[0], 10);
        assert_eq!(r.checkpoints[1].values[0], 20);
        // Story B: no fan relationships.
        assert_eq!(r.checkpoints[0].values[1], 0);
        assert_eq!(r.half_in_network_at_10, 0.5);
        assert_eq!(r.ten_in_network_at_20, 0.5);
        assert!(r.render().contains("Fig 3b"));
    }

    #[test]
    fn cascade_bin_labels_are_unique_and_increasing() {
        // One story per cascade size 0..26 fills every unit-width bin.
        let ck = Checkpoint::new("all sizes", (0..26).collect(), 0.0, 26.0, 26);
        let r = Fig3bResult {
            checkpoints: vec![ck],
            half_in_network_at_10: 0.0,
            ten_in_network_at_20: 0.0,
            ten_in_network_at_30: 0.0,
        };
        let labels: Vec<u64> = r
            .render()
            .lines()
            .filter_map(|line| line.split_once(" |"))
            .map(|(label, _)| label.trim().parse().unwrap())
            .collect();
        assert_eq!(labels, (0..26).collect::<Vec<u64>>());
    }

    #[test]
    fn checkpoint_fractions() {
        let ck = Checkpoint::new("t", vec![1, 5, 10], 0.0, 20.0, 4);
        assert!((ck.fraction_at_least(5) - 2.0 / 3.0).abs() < 1e-12);
        assert!((ck.fraction_below(5) - 1.0 / 3.0).abs() < 1e-12);
        let empty = Checkpoint::new("t", vec![], 0.0, 20.0, 4);
        assert_eq!(empty.fraction_at_least(1), 0.0);
    }
}
