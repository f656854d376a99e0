//! Thread-count invariance of the ported experiments: on a fixed
//! toy synthesis, the story table (which Fig. 3, Fig. 4, the training
//! table and the holdout read) and every experiment that fans out on
//! its own must serialize byte-identically at 1, 2 and 8 worker
//! threads. The parallel fan-out is a throughput knob, never a
//! semantics knob.

use digg_core::experiments::{decay, fig2, intext, scatter};
use digg_core::StoryTable;
use digg_data::scrape::ScrapeConfig;
use digg_data::synth::{synthesize_with, SynthConfig, Synthesis};
use digg_sim::population::{Population, PopulationConfig};
use digg_sim::time::DAY;
use digg_sim::SimConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toy_synthesis() -> Synthesis {
    let cfg = SynthConfig {
        seed: 7,
        scrape: ScrapeConfig {
            front_page_stories: 30,
            upcoming_stories: 80,
            top_users: 120,
            network_cutoff: 1000,
            network_scraped: 1600,
            ..ScrapeConfig::default()
        },
        min_promotions: 15,
        min_scrape_days: 0,
        saturation_days: 1,
        max_minutes: 3 * DAY,
    };
    let sim_cfg = SimConfig::toy(7);
    let mut rng = StdRng::seed_from_u64(7);
    let pop = Population::generate(&mut rng, &PopulationConfig::toy(sim_cfg.users));
    synthesize_with(&cfg, sim_cfg, pop)
}

#[test]
fn experiment_outputs_are_byte_identical_at_1_2_8_threads() {
    let synthesis = toy_synthesis();
    let ds = &synthesis.dataset;
    let outputs = |threads: usize| -> Vec<String> {
        vec![
            serde_json::to_string(&StoryTable::build(ds, threads)).unwrap(),
            serde_json::to_string(&fig2::run_b_with(ds, threads)).unwrap(),
            serde_json::to_string(&fig2::run_b_sim_with(&synthesis.sim, threads)).unwrap(),
            serde_json::to_string(&scatter::run_with(ds, 50, threads)).unwrap(),
            serde_json::to_string(&intext::run_with(&synthesis, 10, threads)).unwrap(),
            serde_json::to_string(&decay::run_with(&synthesis.sim, 600, 24, threads)).unwrap(),
        ]
    };
    let base = outputs(1);
    for threads in [2usize, 8] {
        let got = outputs(threads);
        for (i, (a, b)) in base.iter().zip(&got).enumerate() {
            assert_eq!(a, b, "experiment #{i} differs at {threads} threads");
        }
    }
}
