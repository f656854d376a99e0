//! Property-based tests for the platform simulator: invariants that
//! must hold for any configuration the validator accepts.

use digg_sim::config::PromoterKind;
use digg_sim::population::{Population, PopulationConfig};
use digg_sim::{Sim, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random-but-valid toy configurations.
fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        any::<u64>(),
        0.05..0.5f64, // submissions per minute
        0.0..0.5f64,  // high quality fraction
        3usize..60,   // promotion threshold
        0.0..0.1f64,  // external rate
        0.0..0.4f64,  // friend vote base
        1.0..20.0f64, // frontpage sessions
    )
        .prop_map(|(seed, subs, hq, min_votes, ext, fvb, fps)| {
            let mut cfg = SimConfig::toy(seed);
            cfg.submissions_per_minute = subs;
            cfg.high_quality_fraction = hq;
            cfg.promoter = PromoterKind::Threshold { min_votes };
            cfg.external_rate = ext;
            cfg.friend_vote_base = fvb;
            cfg.friend_vote_quality_slope = 0.1;
            cfg.frontpage_sessions_per_minute = fps;
            cfg
        })
}

fn run_sim(cfg: SimConfig, minutes: u64) -> Sim {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF00D);
    let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
    let mut sim = Sim::new(cfg, pop);
    sim.run(minutes);
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_config_upholds_core_invariants(cfg in config_strategy()) {
        prop_assert_eq!(cfg.validate(), Ok(()));
        let min_votes = match cfg.promoter {
            PromoterKind::Threshold { min_votes } => min_votes,
            PromoterKind::Diversity { .. } => unreachable!(),
        };
        let queue_lifetime = cfg.queue_lifetime;
        let sim = run_sim(cfg, 400);

        // Bookkeeping: stories vector matches the submission counter.
        prop_assert_eq!(sim.metrics().submissions as usize, sim.stories().len());

        let mut promotions = 0u64;
        let mut expirations = 0u64;
        for s in sim.stories() {
            // Votes unique per user, chronological, submitter first.
            let mut users: Vec<_> = s.votes.iter().map(|v| v.user).collect();
            prop_assert_eq!(users[0], s.submitter);
            prop_assert!(s.votes.iter().zip(s.votes.iter().skip(1)).all(|(a, b)| a.at <= b.at));
            users.sort_unstable();
            let n = users.len();
            users.dedup();
            prop_assert_eq!(users.len(), n, "duplicate voters on {}", s.id);

            // No vote precedes submission.
            prop_assert!(s.votes.iter().all(|v| v.at >= s.submitted_at));

            match s.status {
                digg_sim::story::StoryStatus::FrontPage(t) => {
                    promotions += 1;
                    // Promotion happened within the queue window and
                    // at exactly the threshold vote.
                    prop_assert!(t.since(s.submitted_at) <= queue_lifetime);
                    let at_promo = s.votes.iter().filter(|v| v.at <= t).count();
                    prop_assert!(at_promo >= min_votes);
                }
                digg_sim::story::StoryStatus::Expired(t) => {
                    expirations += 1;
                    prop_assert!(t.since(s.submitted_at) >= queue_lifetime);
                }
                digg_sim::story::StoryStatus::Upcoming => {
                    // Still-queued stories are below the threshold.
                    prop_assert!(s.vote_count() < min_votes);
                }
            }
        }
        prop_assert_eq!(promotions, sim.metrics().promotions);
        prop_assert_eq!(expirations, sim.metrics().expirations);

        // Channel metrics sum to the votes recorded on stories
        // (excluding the submitters' implicit votes).
        let story_votes: u64 = sim
            .stories()
            .iter()
            .map(|s| s.vote_count() as u64 - 1)
            .sum();
        prop_assert_eq!(sim.metrics().total_votes(), story_votes);

        // Front page and queue listings agree with story status.
        for (id, _) in sim.front_page().all() {
            prop_assert!(sim.story(id).is_front_page());
        }
        for id in sim.upcoming_queue().all() {
            prop_assert!(sim.story(id).is_upcoming());
        }
    }

    #[test]
    fn determinism_across_identical_runs(cfg in config_strategy()) {
        let a = run_sim(cfg.clone(), 200);
        let b = run_sim(cfg, 200);
        prop_assert_eq!(a.metrics(), b.metrics());
        for (x, y) in a.stories().iter().zip(b.stories()) {
            prop_assert_eq!(&x.votes, &y.votes);
            prop_assert_eq!(x.quality, y.quality);
        }
    }

    #[test]
    fn zero_rate_channels_stay_silent(seed in any::<u64>()) {
        let mut cfg = SimConfig::toy(seed);
        cfg.external_rate = 0.0;
        cfg.upcoming_sessions_per_minute = 0.0;
        cfg.frontpage_sessions_per_minute = 0.0;
        cfg.fan_exposure_prob = 0.0;
        let sim = run_sim(cfg, 300);
        prop_assert_eq!(sim.metrics().total_votes(), 0);
        prop_assert_eq!(sim.metrics().promotions, 0);
    }

    #[test]
    fn submissions_scale_with_rate(seed in any::<u64>()) {
        let mut lo_cfg = SimConfig::toy(seed);
        lo_cfg.submissions_per_minute = 0.05;
        let mut hi_cfg = SimConfig::toy(seed);
        hi_cfg.submissions_per_minute = 1.0;
        let lo = run_sim(lo_cfg, 600);
        let hi = run_sim(hi_cfg, 600);
        prop_assert!(hi.metrics().submissions > lo.metrics().submissions);
    }
}
