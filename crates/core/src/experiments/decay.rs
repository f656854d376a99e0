//! Post-promotion attention decay — the Wu & Huberman check.
//!
//! The paper's §2 positions its contribution against Wu & Huberman
//! (ref \[24\]), who found that "interest in a story peaks when the
//! story first hits the front page, and then decays with time, with a
//! half-life of about a day." The simulator *encodes* a novelty decay
//! constant; this experiment verifies that the observable — the decay
//! of the post-promotion vote rate across the promoted population —
//! actually comes out at the Wu–Huberman scale once queue dynamics,
//! page sinking and social amplification are all in play.

use digg_sim::story::StoryStatus;
use digg_sim::time::DAY;
use digg_sim::Sim;
use digg_stats::correlation::linear_fit;
use serde::{Deserialize, Serialize};

/// The experiment's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecayResult {
    /// Stories analysed (promoted, with ≥ `min_age` of observation).
    pub stories: usize,
    /// Per-story half-life of post-promotion votes, in minutes.
    pub half_lives: Vec<f64>,
    /// Median half-life in days (Wu–Huberman: ≈ 1).
    pub median_half_life_days: f64,
    /// Aggregate votes per hour in each hour after promotion
    /// (hour index = position).
    pub hourly_rate: Vec<f64>,
    /// Exponential time-constant (minutes) fitted to the aggregate
    /// rate curve by log-linear regression.
    pub fitted_tau_minutes: Option<f64>,
}

/// Run the experiment over every story promoted at least
/// `min_observation` minutes before the end of the run.
pub fn run(sim: &Sim, min_observation: u64, horizon_hours: usize) -> DecayResult {
    run_with(
        sim,
        min_observation,
        horizon_hours,
        des_core::par::worker_threads(),
    )
}

/// [`run`] with an explicit worker-thread count: per-story vote scans
/// fan out, aggregates are merged in story order.
pub fn run_with(
    sim: &Sim,
    min_observation: u64,
    horizon_hours: usize,
    threads: usize,
) -> DecayResult {
    let now = sim.now();
    // Per promoted story: its half-life (when defined) and the
    // post-promotion vote offsets in minutes.
    let per_story = des_core::par::par_map(sim.stories(), threads, |s| {
        let StoryStatus::FrontPage(promoted) = s.status else {
            return None;
        };
        if now.since(promoted) < min_observation {
            return None;
        }
        let post: Vec<u64> = s
            .votes
            .iter()
            .filter(|v| v.at > promoted)
            .map(|v| v.at.since(promoted))
            .collect();
        let half_life = if post.len() >= 4 {
            // Time to accumulate half of the post-promotion votes.
            let mut sorted = post.clone();
            sorted.sort_unstable();
            let half_idx = sorted.len().div_ceil(2) - 1;
            Some(sorted[half_idx] as f64)
        } else {
            None
        };
        Some((half_life, post))
    });
    let mut half_lives = Vec::new();
    let mut hourly = vec![0u64; horizon_hours];
    let mut stories = 0usize;
    for (half_life, post) in per_story.into_iter().flatten() {
        stories += 1;
        half_lives.extend(half_life);
        for dt in post {
            let h = (dt / 60) as usize;
            if h < horizon_hours {
                hourly[h] += 1;
            }
        }
    }
    let hourly_rate: Vec<f64> = hourly
        .iter()
        .map(|&c| c as f64 / stories.max(1) as f64)
        .collect();
    // Log-linear fit over the strictly positive part of the curve.
    let pts: Vec<(f64, f64)> = hourly_rate
        .iter()
        .enumerate()
        .filter(|&(_, &r)| r > 0.0)
        .map(|(h, &r)| (h as f64 * 60.0 + 30.0, r.ln()))
        .collect();
    let fitted_tau_minutes = if pts.len() >= 3 {
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        linear_fit(&xs, &ys)
            .map(|(_, slope)| -1.0 / slope)
            .filter(|t| t.is_finite() && *t > 0.0)
    } else {
        None
    };
    let median_half_life_days = digg_stats::descriptive::median(&half_lives)
        .map(|m| m / DAY as f64)
        .unwrap_or(f64::NAN);
    DecayResult {
        stories,
        half_lives,
        median_half_life_days,
        hourly_rate,
        fitted_tau_minutes,
    }
}

impl DecayResult {
    /// Render the summary plus the hourly rate sparkline.
    pub fn render(&self) -> String {
        format!(
            "Post-promotion decay (Wu-Huberman check, {} stories)\n  median half-life: {:.2} days (Wu-Huberman: ~1 day)\n  fitted exponential tau: {} minutes (configured novelty tau 2076 before page sinking)\n  votes/hour after promotion: {}\n",
            self.stories,
            self.median_half_life_days,
            self.fitted_tau_minutes
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "n/a".into()),
            digg_stats::ascii::sparkline(&self.hourly_rate),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_sim::population::{Population, PopulationConfig};
    use digg_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sim() -> Sim {
        let cfg = SimConfig::toy(51);
        let mut rng = StdRng::seed_from_u64(51);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
        let mut s = digg_sim::Sim::new(cfg, pop);
        s.run(2400);
        s
    }

    #[test]
    fn decay_runs_on_toy_sim() {
        let s = sim();
        let r = run(&s, 600, 24);
        assert!(r.stories > 0, "no promoted stories observed long enough");
        assert_eq!(r.hourly_rate.len(), 24);
        assert!(!r.half_lives.is_empty());
        // Half-lives are positive and bounded by the observation span.
        assert!(r.half_lives.iter().all(|&h| h > 0.0 && h < 2400.0));
        assert!(r.render().contains("half-life"));
    }

    #[test]
    fn rate_decays_overall() {
        let s = sim();
        let r = run(&s, 900, 15);
        // Early rate should exceed late rate (the toy config decays
        // with tau = 600 min).
        let early: f64 = r.hourly_rate[..3].iter().sum();
        let late: f64 = r.hourly_rate[10..13].iter().sum();
        assert!(early > late, "no decay: early {early:.2} vs late {late:.2}");
    }

    #[test]
    fn empty_sim_is_handled() {
        let cfg = SimConfig::toy(52);
        let mut rng = StdRng::seed_from_u64(52);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
        let s = digg_sim::Sim::new(cfg, pop); // never run
        let r = run(&s, 0, 10);
        assert_eq!(r.stories, 0);
        assert!(r.median_half_life_days.is_nan());
        assert_eq!(r.fitted_tau_minutes, None);
    }
}
