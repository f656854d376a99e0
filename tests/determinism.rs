//! Reproducibility: every layer is a pure function of its seed.

use digg_data::io;
use digg_data::scrape::ScrapeConfig;
use digg_data::synth::{synthesize_small, SynthConfig};
use digg_sim::population::{Population, PopulationConfig};
use digg_sim::time::DAY;
use rand::rngs::StdRng;
use rand::SeedableRng;
use social_graph::generators;

fn small_cfg(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        scrape: ScrapeConfig {
            front_page_stories: 30,
            upcoming_stories: 100,
            top_users: 100,
            ..ScrapeConfig::default()
        },
        min_promotions: 20,
        min_scrape_days: 1,
        saturation_days: 1,
        max_minutes: 10 * DAY,
    }
}

#[test]
fn synthesis_is_deterministic_per_seed() {
    let a = synthesize_small(&small_cfg(77));
    let b = synthesize_small(&small_cfg(77));
    let ja = io::to_json(&a.dataset).unwrap();
    let jb = io::to_json(&b.dataset).unwrap();
    assert_eq!(ja, jb, "same seed must give byte-identical datasets");
}

#[test]
fn different_seeds_differ() {
    let a = synthesize_small(&small_cfg(1));
    let b = synthesize_small(&small_cfg(2));
    assert_ne!(
        io::to_json(&a.dataset).unwrap(),
        io::to_json(&b.dataset).unwrap()
    );
}

#[test]
fn dataset_json_roundtrip_preserves_everything() {
    let s = synthesize_small(&small_cfg(5));
    let json = io::to_json(&s.dataset).unwrap();
    let back = io::from_json(&json).unwrap();
    assert_eq!(s.dataset.front_page, back.front_page);
    assert_eq!(s.dataset.upcoming, back.upcoming);
    assert_eq!(s.dataset.top_users, back.top_users);
    assert_eq!(s.dataset.network, back.network);
    assert_eq!(s.dataset.scraped_at, back.scraped_at);
}

#[test]
fn population_generation_is_deterministic() {
    let cfg = PopulationConfig::toy(500);
    let a = Population::generate(&mut StdRng::seed_from_u64(9), &cfg);
    let b = Population::generate(&mut StdRng::seed_from_u64(9), &cfg);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.activity, b.activity);
    assert_eq!(a.join_day, b.join_day);
}

#[test]
fn graph_generators_are_deterministic() {
    let e1 = generators::erdos_renyi(&mut StdRng::seed_from_u64(4), 500, 0.01);
    let e2 = generators::erdos_renyi(&mut StdRng::seed_from_u64(4), 500, 0.01);
    assert_eq!(e1, e2);
}
