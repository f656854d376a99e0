//! End-to-end calibrated dataset generation.
//!
//! [`synthesize`] runs the full June-2006 pipeline:
//!
//! 1. generate the population and run the platform long enough for the
//!    front page to hold the required sample of promoted stories;
//! 2. scrape the story samples and the social network
//!    (June-30-2006 equivalent);
//! 3. keep simulating until votes saturate (paper: "after a few days,
//!    the story's vote count saturates");
//! 4. augment the records with final vote counts
//!    (February-2008 equivalent).
//!
//! The returned [`Synthesis`] keeps the finished simulator alongside
//! the dataset, so tests and ablations can compare the scraper's view
//! against ground truth (true network, latent qualities, vote
//! channels) — comparisons the original authors could not make.

use crate::model::DiggDataset;
use crate::scrape::{augment_final_votes, ScrapeConfig};
use digg_sim::scenario;
use digg_sim::time::DAY;
use digg_sim::{Sim, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters for dataset synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Seed for the whole pipeline (population, platform, scraper).
    pub seed: u64,
    /// Scrape parameters.
    pub scrape: ScrapeConfig,
    /// Keep simulating until at least this many stories are promoted
    /// (and at least `min_scrape_day` days have passed) before
    /// scraping.
    pub min_promotions: usize,
    /// Earliest scrape day (gives the queue time to reach steady
    /// state).
    pub min_scrape_days: u64,
    /// Days to continue after the scrape before augmenting final
    /// votes (votes saturate after a few days).
    pub saturation_days: u64,
    /// Hard cap on total simulated minutes (guards against a
    /// mis-calibrated config never reaching `min_promotions`).
    pub max_minutes: u64,
}

impl SynthConfig {
    /// The full-scale June-2006 pipeline.
    pub fn june2006(seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            scrape: ScrapeConfig::default(),
            min_promotions: 220,
            min_scrape_days: 3,
            saturation_days: 4,
            max_minutes: 30 * DAY,
        }
    }

    /// A small variant for integration tests (uses
    /// [`scenario::june2006_small`] traffic).
    pub fn small(seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            scrape: ScrapeConfig {
                front_page_stories: 60,
                upcoming_stories: 200,
                top_users: 300,
                ..ScrapeConfig::default()
            },
            min_promotions: 60,
            min_scrape_days: 2,
            saturation_days: 3,
            max_minutes: 30 * DAY,
        }
    }
}

/// A synthesized dataset plus the ground truth it was scraped from.
pub struct Synthesis {
    /// The scraper's view (what the paper had).
    pub dataset: DiggDataset,
    /// The finished simulation (what the paper could not see).
    pub sim: Sim,
    /// Spurious links the network reconstruction kept (§3.2 bias),
    /// measured against ground truth.
    pub network_excess_links: usize,
}

/// Run the pipeline with the calibrated June-2006 scenario.
pub fn synthesize(cfg: &SynthConfig) -> Synthesis {
    let sim_cfg = scenario::june2006(cfg.seed);
    let pop = scenario::june2006_population(cfg.seed ^ 0x9E37_79B9);
    synthesize_with(cfg, sim_cfg, pop)
}

/// Run the pipeline with the reduced-scale scenario (for tests).
pub fn synthesize_small(cfg: &SynthConfig) -> Synthesis {
    let (sim_cfg, pop) = scenario::june2006_small(cfg.seed);
    synthesize_with(cfg, sim_cfg, pop)
}

/// Run the pipeline over an arbitrary scenario.
pub fn synthesize_with(
    cfg: &SynthConfig,
    sim_cfg: SimConfig,
    pop: digg_sim::Population,
) -> Synthesis {
    let mut sim = Sim::new(sim_cfg, pop);
    // Phase 1: run to scrape condition.
    sim.run(cfg.min_scrape_days * DAY);
    while (sim.metrics().promotions as usize) < cfg.min_promotions && sim.now().0 < cfg.max_minutes
    {
        sim.run(60);
    }
    // Phase 2: scrape.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5C4A_9E11);
    let (front_page, upcoming) = crate::scrape::scrape_stories(&sim, &cfg.scrape);
    let (network, excess) = crate::scrape::scrape_network(&sim, &cfg.scrape, &mut rng);
    let top_users: Vec<_> = network
        .users_by_fans_desc()
        .into_iter()
        .take(cfg.scrape.top_users)
        .collect();
    let mut dataset = DiggDataset {
        scraped_at: sim.now(),
        front_page,
        upcoming,
        network,
        top_users,
    };
    // Phase 3: saturate.
    sim.run(cfg.saturation_days * DAY);
    // Phase 4: augment.
    augment_final_votes(&sim, &mut dataset.front_page);
    augment_final_votes(&sim, &mut dataset.upcoming);
    Synthesis {
        dataset,
        sim,
        network_excess_links: excess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SampleSource;
    use digg_sim::population::{Population, PopulationConfig};

    /// A miniature synthesis over the toy scenario: exercises all four
    /// phases quickly.
    fn tiny() -> Synthesis {
        let cfg = SynthConfig {
            seed: 5,
            scrape: ScrapeConfig {
                front_page_stories: 10,
                upcoming_stories: 30,
                top_users: 50,
                network_cutoff: 1000,
                network_scraped: 1600,
                ..ScrapeConfig::default()
            },
            min_promotions: 5,
            min_scrape_days: 0,
            saturation_days: 1,
            max_minutes: 3 * DAY,
        };
        let sim_cfg = digg_sim::SimConfig::toy(5);
        let mut rng = StdRng::seed_from_u64(5);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(sim_cfg.users));
        synthesize_with(&cfg, sim_cfg, pop)
    }

    #[test]
    fn pipeline_produces_augmented_samples() {
        let out = tiny();
        assert!(!out.dataset.front_page.is_empty());
        for r in out.dataset.all_records() {
            assert!(r.final_votes.is_some(), "augmentation missed a record");
            let fin = r.final_votes.unwrap() as usize;
            assert!(fin >= r.voters.len());
        }
    }

    #[test]
    fn front_page_precedes_scrape_and_upcoming_is_fresh() {
        let out = tiny();
        let scraped_at = out.dataset.scraped_at;
        for r in &out.dataset.front_page {
            assert_eq!(r.source, SampleSource::FrontPage);
            assert!(r.submitted_at <= scraped_at);
        }
        for r in &out.dataset.upcoming {
            assert_eq!(r.source, SampleSource::Upcoming);
            // Queue lifetime bound: nothing older than 24h (toy: 12h).
            assert!(scraped_at.since(r.submitted_at) <= 12 * 60 + 1);
        }
    }

    #[test]
    fn some_upcoming_stories_get_promoted_after_scrape() {
        let out = tiny();
        let promoted_later = out
            .dataset
            .upcoming
            .iter()
            .filter(|r| out.sim.story(r.story).is_front_page())
            .count();
        // The holdout experiment depends on this phenomenon; the toy
        // scenario promotes readily so it must occur.
        assert!(
            promoted_later > 0,
            "no upcoming story was promoted after the scrape"
        );
    }

    #[test]
    fn ground_truth_is_retained() {
        let out = tiny();
        assert!(out.sim.stories().len() >= out.dataset.front_page.len());
        // The reconstruction bias was measured.
        assert!(out.network_excess_links > 0);
    }
}
