//! §3 in-text statistics.
//!
//! The paper anchors its platform description with several hard
//! numbers; this experiment reproduces each one from the synthesized
//! dataset / simulation:
//!
//! * "1-2 new submissions every minute" / "more than 1500 daily";
//! * "we did not see any front-page stories with fewer than 43 votes,
//!   nor … any stories in the upcoming queue with more than 42";
//! * "information about votes from over 16,600 distinct users"
//!   (population-scaled at our 25k-user scale);
//! * "the top 3% of the users were responsible for 35% of the
//!   submissions" (within the top-1000 users' front-page stories);
//! * top users "tended to have more friends and fans than other
//!   users".

use digg_data::synth::Synthesis;
use digg_data::validate::{stats, validate, DatasetStats, Violation};
use serde::{Deserialize, Serialize};

/// The reproduced in-text statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InTextResult {
    /// Mean submissions per minute across the run (paper: 1-2).
    pub submissions_per_minute: f64,
    /// Submissions per day (paper: > 1500).
    pub submissions_per_day: f64,
    /// Promotions per day.
    pub promotions_per_day: f64,
    /// Minimum scraped votes over front-page records (paper: 43).
    pub min_front_page_votes: usize,
    /// Maximum scraped votes over upcoming records (paper: 42).
    pub max_upcoming_votes: usize,
    /// Minimum votes any story had *at the moment of promotion*
    /// (ground truth; the platform's boundary, paper: 43).
    pub min_votes_at_promotion: usize,
    /// Distinct voters in the dataset (paper: 16,600 at ~8x our
    /// population scale).
    pub distinct_voters: usize,
    /// Share of top-1000-user front-page submissions held by the top
    /// 3% of those users (paper: 0.35).
    pub top3_submission_share: f64,
    /// Dataset-level shape statistics.
    pub dataset: DatasetStats,
    /// 95% bootstrap CI for the fraction of front-page stories below
    /// 500 final votes.
    pub below_500_ci: Option<(f64, f64)>,
    /// 95% bootstrap CI for the fraction above 1500.
    pub above_1500_ci: Option<(f64, f64)>,
    /// Structural violations (must be empty).
    pub violations: Vec<String>,
}

/// Run the experiment.
pub fn run(synthesis: &Synthesis, promotion_threshold: usize) -> InTextResult {
    run_with(
        synthesis,
        promotion_threshold,
        des_core::par::worker_threads(),
    )
}

/// [`run`] with an explicit worker-thread count (per-story ground
/// truth scans fan out; every aggregate is merged in story order).
pub fn run_with(synthesis: &Synthesis, promotion_threshold: usize, threads: usize) -> InTextResult {
    let ds = &synthesis.dataset;
    let m = synthesis.sim.metrics();
    let min_fp = ds
        .front_page
        .iter()
        .map(|r| r.voters.len())
        .min()
        .unwrap_or(0);
    let max_up = ds
        .upcoming
        .iter()
        .map(|r| r.voters.len())
        .max()
        .unwrap_or(0);
    let min_at_promotion = des_core::par::par_map(synthesis.sim.stories(), threads, |s| {
        let t = s.promoted_at()?;
        Some(s.votes.iter().filter(|v| v.at <= t).count())
    })
    .into_iter()
    .flatten()
    .min()
    .unwrap_or(0);

    // Top-1000 concentration: submissions on the front page by the
    // top-1000 ranked users, share held by the top 3% (top 30).
    // HashMap is safe here (determinism audit, DESIGN.md §13): it is
    // only probed by key in `top_users` rank order; the integer sums
    // below are iteration-order independent.
    let mut sub_counts: std::collections::HashMap<u32, usize> = Default::default();
    for r in &ds.front_page {
        sub_counts
            .entry(r.submitter.0)
            .and_modify(|c| *c += 1)
            .or_insert(1);
    }
    let top1000: Vec<u32> = ds.top_users.iter().take(1000).map(|u| u.0).collect();
    let top30: std::collections::HashSet<u32> = top1000.iter().take(30).copied().collect();
    let total_by_top1000: usize = top1000.iter().filter_map(|u| sub_counts.get(u)).sum();
    let by_top30: usize = top30.iter().filter_map(|u| sub_counts.get(u)).sum();
    let top3_share = if total_by_top1000 == 0 {
        0.0
    } else {
        by_top30 as f64 / total_by_top1000 as f64
    };

    let violations: Vec<String> = validate(ds, promotion_threshold)
        .into_iter()
        .map(|v: Violation| v.to_string())
        .collect();

    // Sampling uncertainty of the headline fractions (the paper's
    // ~200-story sample carries real noise; so does ours).
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1);
    let finals: Vec<f64> = ds
        .front_page
        .iter()
        .filter_map(|r| r.final_votes)
        .map(f64::from)
        .collect();
    let mut ci = |pred: &dyn Fn(f64) -> bool| {
        let ind: Vec<f64> = finals
            .iter()
            .map(|&v| if pred(v) { 1.0 } else { 0.0 })
            .collect();
        digg_stats::bootstrap::fraction_ci(&mut rng, &ind, 1000, 0.95).map(|i| (i.lo, i.hi))
    };
    let below_500_ci = ci(&|v| v < 500.0);
    let above_1500_ci = ci(&|v| v > 1500.0);

    InTextResult {
        submissions_per_minute: m.submissions as f64 / m.minutes.max(1) as f64,
        submissions_per_day: m.submissions_per_day(),
        promotions_per_day: m.promotions_per_day(),
        min_front_page_votes: min_fp,
        max_upcoming_votes: max_up,
        min_votes_at_promotion: min_at_promotion,
        distinct_voters: ds.distinct_voters(),
        top3_submission_share: top3_share,
        dataset: stats(ds),
        below_500_ci,
        above_1500_ci,
        violations,
    }
}

impl InTextResult {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        format!(
            "In-text statistics (paper section 3)\n  submissions/minute: {:.2} (paper 1-2)\n  submissions/day: {:.0} (paper >1500)\n  promotions/day: {:.1}\n  min front-page votes at scrape: {} (paper: none below 43)\n  max upcoming votes: {} (paper 42)\n  min votes at promotion (ground truth): {} (paper boundary 43)\n  distinct voters: {} (paper 16,600 at ~8x population)\n  top-3% share of top-1000 front-page submissions: {:.2} (paper 0.35)\n  fp below 500 votes: {:.2} {} (paper ~0.20)   above 1500: {:.2} {} (paper ~0.20)\n  poorly connected fp submitters: {:.2} (paper ~0.5+)\n  structural violations: {}\n",
            self.submissions_per_minute,
            self.submissions_per_day,
            self.promotions_per_day,
            self.min_front_page_votes,
            self.max_upcoming_votes,
            self.min_votes_at_promotion,
            self.distinct_voters,
            self.top3_submission_share,
            self.dataset.fp_below_500,
            fmt_ci(self.below_500_ci),
            self.dataset.fp_above_1500,
            fmt_ci(self.above_1500_ci),
            self.dataset.fp_poorly_connected_submitters,
            if self.violations.is_empty() {
                "none".to_string()
            } else {
                format!("{:?}", self.violations)
            },
        )
    }
}

fn fmt_ci(ci: Option<(f64, f64)>) -> String {
    match ci {
        Some((lo, hi)) => format!("[{lo:.2}, {hi:.2}]"),
        None => "[-]".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::scrape::ScrapeConfig;
    use digg_data::synth::{synthesize_with, SynthConfig};
    use digg_sim::population::{Population, PopulationConfig};
    use digg_sim::time::DAY;
    use digg_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn intext_runs_on_toy_synthesis() {
        let cfg = SynthConfig {
            seed: 4,
            scrape: ScrapeConfig {
                front_page_stories: 20,
                upcoming_stories: 60,
                top_users: 100,
                network_cutoff: 1000,
                network_scraped: 1600,
                ..ScrapeConfig::default()
            },
            min_promotions: 10,
            min_scrape_days: 0,
            saturation_days: 1,
            max_minutes: 3 * DAY,
        };
        let sim_cfg = SimConfig::toy(4);
        let mut rng = StdRng::seed_from_u64(4);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(sim_cfg.users));
        let synthesis = synthesize_with(&cfg, sim_cfg, pop);
        let r = run(&synthesis, 10); // toy promotion threshold
        assert!(r.submissions_per_minute > 0.0);
        assert!(
            r.min_front_page_votes >= 10,
            "boundary: {}",
            r.min_front_page_votes
        );
        assert!(r.max_upcoming_votes < 10);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        assert!(r.distinct_voters > 0);
        assert!(r.render().contains("In-text statistics"));
    }
}
