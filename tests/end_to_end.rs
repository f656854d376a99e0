//! Cross-crate integration tests: the full pipeline at reduced scale.
//!
//! These use [`digg_data::synth::synthesize_small`] — the same
//! generative process as the calibrated scenario at 1/5 population and
//! traffic — so they run in seconds while still exercising every layer:
//! population → simulator → scraper → features → learner → evaluation.

use digg_core::experiments::{fig2, fig3, fig4};
use digg_core::features::INTERESTINGNESS_THRESHOLD;
use digg_core::{IncrementalSweep, StoryTable};
use digg_data::scrape::ScrapeConfig;
use digg_data::synth::{synthesize_small, SynthConfig, Synthesis};
use digg_data::validate;
use digg_sim::scenario::PROMOTION_THRESHOLD;
use digg_sim::story::VoteChannel;
use digg_sim::time::DAY;
use std::sync::OnceLock;

/// One shared reduced-scale synthesis for all tests in this file.
fn synthesis() -> &'static Synthesis {
    static CELL: OnceLock<Synthesis> = OnceLock::new();
    CELL.get_or_init(|| {
        let cfg = SynthConfig {
            seed: 2006,
            scrape: ScrapeConfig {
                front_page_stories: 80,
                upcoming_stories: 300,
                top_users: 300,
                ..ScrapeConfig::default()
            },
            min_promotions: 80,
            min_scrape_days: 2,
            saturation_days: 3,
            max_minutes: 30 * DAY,
        };
        synthesize_small(&cfg)
    })
}

#[test]
fn dataset_satisfies_structural_invariants() {
    let ds = &synthesis().dataset;
    let violations = validate::validate(ds, PROMOTION_THRESHOLD);
    assert!(violations.is_empty(), "violations: {violations:?}");
    assert!(!ds.front_page.is_empty());
    assert!(!ds.upcoming.is_empty());
}

#[test]
fn promotion_boundary_is_exactly_43_at_promotion() {
    let sim = &synthesis().sim;
    let mut min_at_promo = usize::MAX;
    for s in sim.stories() {
        if let Some(t) = s.promoted_at() {
            let votes = s.votes.iter().filter(|v| v.at <= t).count();
            assert!(
                votes >= PROMOTION_THRESHOLD,
                "story {} promoted at {votes}",
                s.id
            );
            min_at_promo = min_at_promo.min(votes);
        }
    }
    assert_eq!(
        min_at_promo, PROMOTION_THRESHOLD,
        "the binding constraint should be the threshold itself"
    );
}

#[test]
fn friends_channel_votes_are_in_network_under_ground_truth() {
    // A Friends-interface vote means the voter was a fan of the
    // submitter or an earlier voter — it must be flagged in-network by
    // the cascade analysis when run on the TRUE graph. (The scraped
    // graph can only add spurious edges, never remove true ones at
    // this scenario's cutoff.)
    let synthesis = synthesis();
    let truth = &synthesis.sim.population().graph;
    let mut checked = 0;
    let mut sweep = IncrementalSweep::new(truth);
    for s in synthesis.sim.stories().iter().take(400) {
        let voters = s.voters_chronological();
        let flags = sweep.sweep_story(truth, &voters).flags();
        for (k, v) in s.votes.iter().enumerate().skip(1) {
            if v.channel == VoteChannel::Friends {
                assert!(
                    flags[k - 1],
                    "friends-channel vote not in-network: story {} vote {k}",
                    s.id
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "too few friends votes checked: {checked}");
}

#[test]
fn scraped_network_contains_ground_truth() {
    let synthesis = synthesis();
    let truth = &synthesis.sim.population().graph;
    let scraped = &synthesis.dataset.network;
    for (a, b) in truth.edges() {
        assert!(scraped.watches(a, b), "true edge {a}->{b} lost in scrape");
    }
    assert!(scraped.edge_count() >= truth.edge_count());
    // The measured bias accounts for the difference (a few excess
    // links can collide with existing edges and dedup away).
    let delta = scraped.edge_count() - truth.edge_count();
    assert!(delta <= synthesis.network_excess_links);
    assert!(
        delta * 10 >= synthesis.network_excess_links * 9,
        "delta {delta} vs excess {}",
        synthesis.network_excess_links
    );
}

#[test]
fn upcoming_stories_do_get_promoted_after_the_scrape() {
    let synthesis = synthesis();
    let promoted_later = synthesis
        .dataset
        .upcoming
        .iter()
        .filter(|r| synthesis.sim.story(r.story).is_front_page())
        .count();
    assert!(
        promoted_later > 0,
        "the 5.2 holdout depends on post-scrape promotions"
    );
}

#[test]
fn final_votes_exceed_scraped_votes_for_promoted_upcoming() {
    let ds = &synthesis().dataset;
    for r in &ds.upcoming {
        let fin = r.final_votes.expect("augmented") as usize;
        assert!(fin >= r.voters.len());
    }
}

#[test]
fn fig4_inverse_relationship_holds_at_small_scale() {
    let ds = &synthesis().dataset;
    let result = fig4::run(ds);
    let p10 = &result.panels[1];
    let rho = p10.spearman.expect("enough stories");
    assert!(
        rho < -0.2,
        "expected a negative v10/final correlation, got {rho}"
    );
}

#[test]
fn fig3_cascades_grow_with_vote_window() {
    let ds = &synthesis().dataset;
    let b = fig3::run_b(ds);
    // Later windows can only add in-network votes.
    let means: Vec<f64> = b
        .checkpoints
        .iter()
        .map(|c| c.values.iter().sum::<u64>() as f64 / c.values.len().max(1) as f64)
        .collect();
    assert!(
        means[0] <= means[1] && means[1] <= means[2],
        "means {means:?}"
    );
}

#[test]
fn fig2a_histogram_covers_all_stories() {
    let ds = &synthesis().dataset;
    let a = fig2::run_a(ds, 10, 2500.0);
    assert_eq!(a.stories, ds.front_page.len());
    // No front-page story finishes below the promotion threshold.
    let min_final = ds
        .front_page
        .iter()
        .filter_map(|r| r.final_votes)
        .min()
        .unwrap();
    assert!(
        min_final as usize >= PROMOTION_THRESHOLD,
        "min final {min_final}"
    );
}

#[test]
fn training_set_has_both_classes() {
    let ds = &synthesis().dataset;
    let training = StoryTable::build(ds, 2).training_set(INTERESTINGNESS_THRESHOLD);
    assert!(
        training.len() >= 50,
        "only {} trainable stories",
        training.len()
    );
    let pos = training.positives();
    assert!(
        pos > 0 && pos < training.len(),
        "degenerate labels: {pos}/{}",
        training.len()
    );
}

#[test]
fn distinct_voters_are_a_large_user_fraction() {
    let ds = &synthesis().dataset;
    let voters = ds.distinct_voters();
    // The paper saw 16.6k distinct voters; at our reduced scale the
    // sample should still engage a sizeable share of the population.
    assert!(voters > 1000, "only {voters} distinct voters");
}
