//! Calibrated scenarios.
//!
//! [`june2006`] reproduces, at 1/8 population scale, the observables
//! the paper reports for Digg's Technology section in June 2006:
//!
//! * 1–2 submissions per minute (≥ 1500/day);
//! * promotion boundary at 43 votes, decided within 24 h;
//! * tens of promotions per day, so a few days of simulation yield
//!   the ~200-story front-page sample;
//! * final-vote histogram of promoted stories with ≈20 % below 500
//!   votes and ≈20 % above 1500 (Fig. 2a);
//! * heavy-tailed per-user activity (top 3 % ≈ 35 % of submissions)
//!   and fan counts correlated with activity (§3.1–3.2).
//!
//! The calibration test in `tests/calibration.rs` asserts the emergent
//! statistics; the constants below are inputs, not the claim.

use crate::config::{PromoterKind, SimConfig};
use crate::population::{Population, PopulationConfig};
use crate::time::{DAY, HOUR};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Promotion threshold observed in the paper's dataset.
pub const PROMOTION_THRESHOLD: usize = 43;

/// The population scale of the calibrated scenario. The real site had
/// a few hundred thousand registered users in mid-2006 and the paper
/// observed ~16,600 distinct voters; we simulate 25,000 users, which
/// keeps every experiment laptop-fast while preserving all
/// distributional shapes. Absolute counts that scale with population
/// (distinct voters) are compared after scaling by this note.
pub(crate) const JUNE2006_USERS: usize = 25_000;

/// Population parameters for the June-2006 scenario.
pub fn june2006_population_config() -> PopulationConfig {
    PopulationConfig {
        users: JUNE2006_USERS,
        // Top-3% activity share ≈ 35% (paper §3).
        activity_alpha: 1.08,
        max_activity: 300.0,
        // Fans grow super-linearly with activity: the paper's scatter
        // shows top users dominating both axes.
        fans_gamma: 1.25,
        // Sub-linear: top users submit disproportionately but not in
        // proportion to their (very heavy-tailed) activity — the real
        // top-1000 supplied a large share of *front page* stories yet
        // a small share of the 1500+ daily submissions.
        submit_exponent: 0.6,
        // Sub-linear: hub users vote a lot, but not 300x a casual
        // user — most of a story's early voters are ordinary users,
        // which keeps story influence after ten votes in the paper's
        // observed range (Fig. 3a).
        browse_exponent: 0.55,
        mean_friends: 6.0,
        max_friends: 1_000,
        // Users joined over roughly 600 days of Digg's existence
        // before the study window.
        join_horizon: 600,
    }
}

/// Simulator parameters for the June-2006 scenario.
pub fn june2006(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        // §3: "1-2 new submissions every minute".
        submissions_per_minute: 1.5,
        // Story appeal mixture: a thin stream of broadly interesting
        // stories (promoted on merit, go on to 1500+ votes) over a
        // bulk of niche material.
        high_quality_fraction: 0.012,
        high_quality_skill: 0.06,
        skill_activity_ref: 150.0,
        niche_quality_mu: -2.2,
        niche_quality_sigma: 0.6,
        broad_quality_min: 0.55,
        // Digg removed unpromoted stories from the queue after 24 h.
        queue_lifetime: DAY,
        page_size: 15,
        promoter: PromoterKind::Threshold {
            min_votes: PROMOTION_THRESHOLD,
        },
        // Front-page traffic: calibrated against mean promoted-story
        // vote totals (Fig. 2a). ~60 sessions/minute sitewide.
        frontpage_sessions_per_minute: 60.0,
        frontpage_vote_prob: 0.045,
        // Wu & Huberman: novelty half-life about a day.
        novelty_tau: 2076.0,
        // §4: browsing the queue is "unmanageable to most users".
        upcoming_sessions_per_minute: 18.0,
        upcoming_vote_prob: 0.05,
        page_stop_prob: 0.35,
        // Independent interest-driven discovery: a quality-1 story
        // draws ~0.04 external votes/minute (≈58/day) while fresh.
        external_rate: 0.03,
        external_window: 2 * DAY,
        // Friends interface: exposure within hours, 48 h lifetime.
        fan_exposure_prob: 0.9,
        attention_ref: 2.0,
        feed_dilution: 1.0,
        submitted_dilution: 0.3,
        fan_exposure_delay_mean: 2.0 * HOUR as f64,
        feed_lifetime: 2 * DAY,
        // Fans back their friends' own submissions loyally (the
        // social-browsing effect that powers top users' promotions)…
        friend_vote_submitted: 0.135,
        // …but vote on stories friends merely dugg at interest-driven
        // rates, keeping vote-triggered cascades subcritical (most
        // recommendation chains terminate after a few steps; paper
        // refs [12, 23]).
        friend_vote_base: 0.03,
        friend_vote_quality_slope: 0.05,
        users: JUNE2006_USERS,
    }
}

/// The post-controversy variant: identical to [`june2006`] except the
/// promotion algorithm discounts in-network votes ("unique digging
/// diversity of the individuals digging the story", Sept 2006). Used
/// by the ABL2 ablation and the `promotion_audit` example.
pub fn september2006(seed: u64) -> SimConfig {
    SimConfig {
        promoter: PromoterKind::Diversity {
            min_weighted: PROMOTION_THRESHOLD as f64,
            in_network_weight: 0.4,
        },
        ..june2006(seed)
    }
}

/// Build the June-2006 population deterministically from a seed.
pub fn june2006_population(seed: u64) -> Population {
    let mut rng = StdRng::seed_from_u64(seed);
    Population::generate(&mut rng, &june2006_population_config())
}

/// A reduced-scale variant (~1/5 of the calibrated scenario) for
/// integration tests that need realistic shapes but not the full
/// sample sizes. Rates that are *per story* are unchanged; population
/// and traffic shrink together so per-story vote totals stay in the
/// same bands.
pub fn june2006_small(seed: u64) -> (SimConfig, Population) {
    let mut cfg = june2006(seed);
    cfg.users = 5_000;
    cfg.frontpage_sessions_per_minute = 12.0;
    cfg.upcoming_sessions_per_minute = 1.5;
    cfg.submissions_per_minute = 0.5;
    let mut pcfg = june2006_population_config();
    pcfg.users = cfg.users;
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::generate(&mut rng, &pcfg);
    (cfg, pop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn june2006_config_is_valid() {
        assert_eq!(june2006(1).validate(), Ok(()));
    }

    #[test]
    fn small_variant_is_valid() {
        let (cfg, pop) = june2006_small(1);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.users, pop.len());
    }

    #[test]
    fn september_variant_swaps_only_the_promoter() {
        let june = june2006(4);
        let sept = september2006(4);
        assert!(matches!(sept.promoter, PromoterKind::Diversity { .. }));
        assert_eq!(sept.validate(), Ok(()));
        // Everything else identical.
        let mut sept_as_june = sept;
        sept_as_june.promoter = june.promoter;
        assert_eq!(sept_as_june, june);
    }

    #[test]
    fn population_has_top_user_concentration() {
        // Use the small variant: same generative process, faster.
        let (_, pop) = june2006_small(3);
        let share = crate::population::tests::top_activity_share(&pop, 0.03);
        assert!(
            share > 0.2,
            "top-3% activity share {share} too diffuse for the paper's 35%"
        );
    }
}
