//! Fig. 1 — "Time series of the number of votes, since submission,
//! received by randomly chosen front-page stories."
//!
//! The expected shape: slow accrual in the upcoming queue, a sharp
//! rate increase at promotion, then saturation over a few days. This
//! experiment uses simulator ground truth for vote times — the paper's
//! own Fig. 1 required time-resolved data its main dataset lacked.

use digg_sim::story::StoryStatus;
use digg_sim::time::DAY;
use digg_sim::Sim;
use digg_stats::sampling::reservoir;
use digg_stats::timeseries::CumulativeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One story's curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoryCurve {
    /// Story id (for cross-referencing).
    pub story: u32,
    /// Minutes from submission to promotion.
    pub promoted_after: u64,
    /// Cumulative votes sampled every `step` minutes.
    pub values: Vec<u64>,
    /// Sampling step (minutes). Stored as the integer it is produced
    /// from ([`Fig1Params::step`]) so sample indexing is exact.
    pub step: u64,
}

impl StoryCurve {
    /// Index of the sample taken at or immediately after minute `t`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a sample index into this curve's in-memory series"
    )]
    fn index_at(&self, t: u64) -> usize {
        (t / self.step.max(1)) as usize
    }

    /// Vote count at promotion time.
    pub(crate) fn votes_at_promotion(&self) -> u64 {
        let idx = self.index_at(self.promoted_after);
        self.values
            .get(idx)
            .copied()
            .unwrap_or_else(|| self.values.last().copied().unwrap_or(0))
    }
}

/// The figure's data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Result {
    /// Sampled story curves.
    pub curves: Vec<StoryCurve>,
    /// Observation horizon (minutes since each story's submission).
    pub horizon: u64,
}

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Params {
    /// How many promoted stories to sample.
    pub stories: usize,
    /// Horizon in minutes (paper plots ~5000).
    pub horizon: u64,
    /// Sampling step in minutes.
    pub step: u64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for Fig1Params {
    fn default() -> Fig1Params {
        Fig1Params {
            stories: 6,
            horizon: 5_000,
            step: 20,
            seed: 1,
        }
    }
}

/// Run the experiment: sample promoted stories old enough to be
/// observed over the full horizon and build their cumulative curves.
pub fn run(sim: &Sim, params: &Fig1Params) -> Fig1Result {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let now = sim.now();
    let eligible = sim.stories().iter().filter(|s| {
        matches!(s.status, StoryStatus::FrontPage(_)) && now.since(s.submitted_at) >= params.horizon
    });
    let sample = reservoir(&mut rng, eligible, params.stories);
    let curves = sample
        .into_iter()
        .map(|s| {
            let times: Vec<f64> = s
                .votes
                .iter()
                .map(|v| v.at.since(s.submitted_at) as f64)
                .collect();
            let series =
                CumulativeSeries::from_events(&times, params.step as f64, params.horizon as f64);
            let promoted_after = s
                .promoted_at()
                .map(|t| t.since(s.submitted_at))
                .unwrap_or(0);
            StoryCurve {
                story: s.id.0,
                promoted_after,
                values: series.values,
                step: params.step,
            }
        })
        .collect();
    Fig1Result {
        curves,
        horizon: params.horizon,
    }
}

impl Fig1Result {
    /// The shape checks the paper describes: the post-promotion vote
    /// rate exceeds the queue-phase rate for the given curve.
    pub fn promotion_accelerates(&self, curve: &StoryCurve) -> bool {
        let idx = curve.index_at(curve.promoted_after);
        if idx == 0 || idx + 1 >= curve.values.len() {
            return false;
        }
        let pre_rate = curve.values[idx] as f64 / curve.promoted_after.max(1) as f64;
        // Rate over the 6 hours after promotion.
        let post_window = curve.index_at(6 * 60);
        let end = (idx + post_window).min(curve.values.len() - 1);
        let post_votes = curve.values[end] - curve.values[idx];
        let post_rate = post_votes as f64 / ((end - idx) as u64 * curve.step).max(1) as f64;
        post_rate > pre_rate
    }

    /// Render sparkline curves plus summary rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fig 1: cumulative votes over {} minutes since submission\n",
            self.horizon
        ));
        for c in &self.curves {
            let floats: Vec<f64> = c.values.iter().map(|&v| v as f64).collect();
            out.push_str(&format!(
                "story {:>6} promoted@{:>5}m votes@promo {:>3} final {:>5}  {}\n",
                c.story,
                c.promoted_after,
                c.votes_at_promotion(),
                c.values.last().unwrap_or(&0),
                digg_stats::ascii::sparkline(&floats),
            ));
        }
        out
    }

    /// Fraction of a story's final votes accrued in its first
    /// post-promotion day, averaged over curves (Wu–Huberman style
    /// decay check).
    pub fn mean_first_day_fraction(&self) -> Option<f64> {
        let mut fractions = Vec::new();
        for c in &self.curves {
            let fin = *c.values.last()? as f64;
            if fin == 0.0 {
                continue;
            }
            let idx = c.index_at(c.promoted_after + DAY);
            let at = c.values.get(idx).copied().unwrap_or(*c.values.last()?) as f64;
            fractions.push(at / fin);
        }
        digg_stats::descriptive::mean(&fractions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_sim::population::{Population, PopulationConfig};
    use digg_sim::SimConfig;

    fn sim() -> Sim {
        let cfg = SimConfig::toy(31);
        let mut rng = StdRng::seed_from_u64(31);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
        let mut s = Sim::new(cfg, pop);
        s.run(2200);
        s
    }

    #[test]
    fn curves_are_monotone_and_sampled() {
        let s = sim();
        let params = Fig1Params {
            stories: 4,
            horizon: 1000,
            step: 10,
            seed: 2,
        };
        let r = run(&s, &params);
        assert!(!r.curves.is_empty(), "no eligible promoted stories");
        for c in &r.curves {
            assert!(c.values.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(c.values.len(), 101);
            // Promotion happened within the toy queue lifetime.
            assert!(c.promoted_after <= 12 * 60);
        }
    }

    #[test]
    fn promotion_acceleration_detector() {
        // Deterministic curve: 1 vote / 20 min while queued (10
        // steps), then 5 votes / step after promotion at t=200.
        let mut values = Vec::new();
        let mut v = 0u64;
        for i in 0..60 {
            v += if i < 10 { 1 } else { 5 };
            values.push(v);
        }
        let fast = StoryCurve {
            story: 1,
            promoted_after: 200,
            values: values.clone(),
            step: 20,
        };
        // Flat curve: same rate throughout.
        let flat = StoryCurve {
            story: 2,
            promoted_after: 200,
            values: (1..=60).collect(),
            step: 20,
        };
        let r = Fig1Result {
            curves: vec![fast.clone(), flat.clone()],
            horizon: 1200,
        };
        assert!(r.promotion_accelerates(&fast));
        assert!(!r.promotion_accelerates(&flat));
        // The sample at the promotion step already includes the first
        // fast-phase increment (values are sampled at step ends).
        assert_eq!(fast.votes_at_promotion(), 15);
        // The calibrated-scenario integration test asserts the
        // acceleration on real simulator output; the toy scenario
        // promotes too quickly for the queue phase to be visible.
    }

    #[test]
    fn render_contains_each_story() {
        let s = sim();
        let r = run(&s, &Fig1Params::default());
        let text = r.render();
        for c in &r.curves {
            assert!(text.contains(&format!("story {:>6}", c.story)));
        }
    }

    #[test]
    fn deterministic_sampling() {
        let s = sim();
        let a = run(&s, &Fig1Params::default());
        let b = run(&s, &Fig1Params::default());
        let ids_a: Vec<u32> = a.curves.iter().map(|c| c.story).collect();
        let ids_b: Vec<u32> = b.curves.iter().map(|c| c.story).collect();
        assert_eq!(ids_a, ids_b);
    }
}
