//! The scraper: a fidelity-limited observer of a running simulation.
//!
//! Everything here deliberately sees *less* than the simulator knows,
//! matching the paper's collection limits:
//!
//! * voter lists are taken in order, timestamps dropped;
//! * story quality and vote channels are invisible;
//! * the social network is read through the join-date reconstruction
//!   of [`social_graph::temporal`], including its one-sided bias.

use crate::model::{SampleSource, StoryRecord};
use digg_sim::Sim;
use rand::Rng;
use social_graph::temporal::Day;
use social_graph::SocialGraph;

/// Scrape parameters, mirroring §3.1–3.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrapeConfig {
    /// How many recently promoted stories to take (paper: ~200).
    pub front_page_stories: usize,
    /// How many newest queue stories to take (paper: 900).
    pub upcoming_stories: usize,
    /// Length of the Top Users list (paper: 1020).
    pub top_users: usize,
    /// The study cutoff day for network reconstruction ("June 30,
    /// 2006").
    pub network_cutoff: Day,
    /// The later day the fan lists are actually scraped ("February
    /// 2008").
    pub network_scraped: Day,
    /// Fraction of extra watch links created between cutoff and scrape
    /// (network growth the reconstruction must undo), relative to the
    /// existing edge count.
    pub post_cutoff_growth: f64,
    /// Of the growth links, the fraction whose fan had already joined
    /// before the cutoff. Only these survive the join-date filter and
    /// bias the reconstruction; the rest come from users who joined
    /// later (Digg's user base grew ~10x over 2006-2008) and are
    /// correctly dropped.
    pub growth_from_pre_cutoff_fans: f64,
}

impl Default for ScrapeConfig {
    fn default() -> ScrapeConfig {
        ScrapeConfig {
            front_page_stories: 200,
            upcoming_stories: 900,
            top_users: 1020,
            network_cutoff: 600,
            network_scraped: 1200,
            // "Many of these users acquired new fans between June 2006
            // and February 2008": the network roughly doubled…
            post_cutoff_growth: 1.0,
            // …but mostly through newly joined users, whom the
            // join-date reconstruction removes again.
            growth_from_pre_cutoff_fans: 0.15,
        }
    }
}

/// Capture the two story samples at the simulation's current time.
/// Voter lists are cloned as of *now*; final votes are left
/// unaugmented.
pub fn scrape_stories(sim: &Sim, cfg: &ScrapeConfig) -> (Vec<StoryRecord>, Vec<StoryRecord>) {
    let front: Vec<StoryRecord> = sim
        .front_page()
        .most_recent(cfg.front_page_stories)
        .into_iter()
        .map(|id| {
            let s = sim.story(id);
            StoryRecord {
                story: s.id,
                submitter: s.submitter,
                submitted_at: s.submitted_at,
                voters: s.voters_chronological(),
                source: SampleSource::FrontPage,
                final_votes: None,
            }
        })
        .collect();
    let upcoming: Vec<StoryRecord> = sim
        .upcoming_queue()
        .all()
        .into_iter()
        .take(cfg.upcoming_stories)
        .map(|id| {
            let s = sim.story(id);
            StoryRecord {
                story: s.id,
                submitter: s.submitter,
                submitted_at: s.submitted_at,
                voters: s.voters_chronological(),
                source: SampleSource::Upcoming,
                final_votes: None,
            }
        })
        .collect();
    (front, upcoming)
}

/// Fill `final_votes` from the simulation's (later) state — the
/// paper's February-2008 augmentation pass.
pub fn augment_final_votes(sim: &Sim, records: &mut [StoryRecord]) {
    for r in records {
        // Saturating, not truncating: a count beyond u32::MAX (never
        // reachable with a u32-id population) pins instead of wrapping.
        r.final_votes = Some(
            sim.story(r.story)
                .vote_count()
                .try_into()
                .unwrap_or(u32::MAX),
        );
    }
}

/// Reconstruct the study-window social network the way the paper did:
/// export the (grown) network as dated fan lists, then keep only fans
/// who joined by the cutoff.
///
/// Returns `(reconstructed, excess_links)` where `excess_links` counts
/// the links the reconstruction keeps that did not exist at the
/// cutoff (the §3.2 bias; the paper could not measure this, we can).
pub fn scrape_network<R: Rng + ?Sized>(
    sim: &Sim,
    cfg: &ScrapeConfig,
    rng: &mut R,
) -> (SocialGraph, usize) {
    let pop = sim.population();
    // Dated fan lists as of the late scrape: true study-window edges…
    let mut temporal = pop.to_temporal(rng, cfg.network_cutoff);
    // …plus growth after the cutoff: new links among existing users,
    // some from users who joined before the cutoff (these are the
    // ones the join-date filter cannot remove).
    let n = pop.len();
    let extra = (pop.graph.edge_count() as f64 * cfg.post_cutoff_growth) as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < extra && guard < extra * 20 {
        guard += 1;
        let fan = social_graph::UserId::from_index(rng.random_range(0..n));
        let watched = social_graph::UserId::from_index(rng.random_range(0..n));
        if fan == watched {
            continue;
        }
        let created = rng.random_range(cfg.network_cutoff + 1..=cfg.network_scraped);
        // Most growth comes from users who joined after the cutoff;
        // the scraper sees only the fan's join date, so we record the
        // date of the (late-joining) account behind the link.
        let fan_joined = if rng.random::<f64>() < cfg.growth_from_pre_cutoff_fans {
            pop.join_day[fan.index()]
        } else {
            rng.random_range(cfg.network_cutoff + 1..=created.max(cfg.network_cutoff + 1))
        };
        temporal.add_link(watched, fan, fan_joined, created);
        added += 1;
    }
    let excess = temporal.reconstruction_excess(cfg.network_cutoff);
    (temporal.snapshot(cfg.network_cutoff), excess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_sim::population::{Population, PopulationConfig};
    use digg_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_sim(minutes: u64) -> Sim {
        let cfg = SimConfig::toy(77);
        let mut rng = StdRng::seed_from_u64(77);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
        let mut sim = Sim::new(cfg, pop);
        sim.run(minutes);
        sim
    }

    fn toy_scrape_cfg() -> ScrapeConfig {
        ScrapeConfig {
            front_page_stories: 20,
            upcoming_stories: 50,
            top_users: 100,
            // The toy population joins over 1000 days; place the study
            // cutoff after everyone has joined so the ground-truth
            // graph is fully active during the simulated window.
            network_cutoff: 1000,
            network_scraped: 1600,
            ..ScrapeConfig::default()
        }
    }

    #[test]
    fn story_samples_respect_limits_and_sources() {
        let sim = toy_sim(900);
        let cfg = toy_scrape_cfg();
        let (fp, up) = scrape_stories(&sim, &cfg);
        assert!(fp.len() <= 20);
        assert!(!fp.is_empty(), "toy sim should promote something");
        assert!(up.len() <= 50);
        assert!(fp.iter().all(|r| r.source == SampleSource::FrontPage));
        assert!(up.iter().all(|r| r.source == SampleSource::Upcoming));
        // No timestamps leak: the records only carry orders.
        for r in fp.iter().chain(&up) {
            assert_eq!(r.voters[0], r.submitter);
            assert!(r.final_votes.is_none());
        }
    }

    #[test]
    fn augmentation_fills_final_votes_monotonically() {
        let mut sim = toy_sim(600);
        let cfg = toy_scrape_cfg();
        let (mut fp, _) = scrape_stories(&sim, &cfg);
        let scraped_counts: Vec<usize> = fp.iter().map(|r| r.voters.len()).collect();
        sim.run(600);
        augment_final_votes(&sim, &mut fp);
        for (r, &scraped) in fp.iter().zip(&scraped_counts) {
            let fin = r.final_votes.unwrap() as usize;
            assert!(fin >= scraped, "votes cannot decrease");
        }
    }

    #[test]
    fn network_reconstruction_is_superset_of_truth() {
        let sim = toy_sim(60);
        let cfg = toy_scrape_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let (recon, excess) = scrape_network(&sim, &cfg, &mut rng);
        let truth = &sim.population().graph;
        // Every true edge survives reconstruction (all users joined
        // before the cutoff in the toy population).
        for (a, b) in truth.edges() {
            assert!(recon.watches(a, b), "true edge {a}->{b} lost");
        }
        // The bias is real and measured.
        assert!(excess > 0, "expected some spurious late links");
        assert!(recon.edge_count() >= truth.edge_count());
    }
}
