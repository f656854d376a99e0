//! ABL4 and ABL5 at toy scale: each graph variant keeps the
//! population's user count, `rewired` never exceeds the friend counts
//! it was asked for, `er` matches the site graph's mean degree, the
//! grid's rows (ABL4 and ABL5 alike) are byte-identical at the worker
//! counts `DIGG_THREADS=1`, `2` and `8` would select (passed as a
//! plain `threads` argument: mutating the process environment from
//! tests is racy), rate 0 is the fault plan's identity and the top
//! rate degrades the scrape.

use digg_bench::ablations::{network_grid, GraphVariant, FAULT_RATES};
use digg_data::scrape::ScrapeConfig;
use digg_data::synth::SynthConfig;
use digg_sim::population::{Population, PopulationConfig};
use digg_sim::time::DAY;
use digg_sim::SimConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use social_graph::metrics::mean_degree;

fn toy_scenario(seed: u64) -> (SynthConfig, SimConfig, Population) {
    let cfg = SynthConfig {
        seed,
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
    let sim_cfg = SimConfig::toy(seed);
    let pop = Population::generate(
        &mut StdRng::seed_from_u64(seed),
        &PopulationConfig::toy(sim_cfg.users),
    );
    (cfg, sim_cfg, pop)
}

#[test]
fn variants_keep_users_and_degrees() {
    let (_, _, pop) = toy_scenario(5);
    let site = &pop.graph;
    for v in GraphVariant::ALL {
        assert_eq!(v.graph(site, 5).user_count(), site.user_count(), "{v:?}");
    }
    assert_eq!(&GraphVariant::Site.graph(site, 5), site);
    let rewired = GraphVariant::Rewired.graph(site, 5);
    for u in site.users() {
        assert!(rewired.friend_count(u) <= site.friend_count(u), "{u}");
    }
    let (er, want) = (
        mean_degree(&GraphVariant::Er.graph(site, 5)),
        mean_degree(site),
    );
    assert!((er - want).abs() <= 0.1 * want, "er {er} vs site {want}");
}

#[test]
fn grid_rows_are_thread_invariant() {
    let json = |threads| {
        serde_json::to_string(&network_grid(&[5, 6], threads, toy_scenario))
            .expect("rows serialize")
    };
    let base = json(1);
    for (i, v) in GraphVariant::ALL.iter().enumerate() {
        assert_eq!(
            base.matches(&format!("\"graph\":\"{}\"", v.name())).count(),
            2,
            "{i}"
        );
    }
    // Two site cells, one ABL5 row per rate each.
    assert_eq!(base.matches("\"rate\":").count(), 2 * FAULT_RATES.len());
    for threads in [2, 8] {
        assert_eq!(base, json(threads), "diverged at {threads} threads");
    }
}

#[test]
fn observation_rows_span_identity_to_loss() {
    let (_, rows) = network_grid(&[5], 2, toy_scenario);
    let rates: Vec<f64> = rows.iter().map(|r| r.rate).collect();
    assert_eq!(rates, FAULT_RATES);
    // Rate 0: the fault plan is the identity. No story was lost to a
    // failed fetch (every record seen was kept or quarantined by
    // ingest) and every fan link survived.
    let clean = &rows[0];
    assert_eq!(
        clean.records_kept + clean.records_quarantined,
        clean.records_seen,
        "{clean:?}"
    );
    assert_eq!(clean.fan_link_coverage, 1.0);
    // The top rate degrades the scrape.
    let worst = rows.last().expect("rows");
    assert!(worst.fan_link_coverage < 1.0, "{worst:?}");
    assert!(
        worst.records_kept < worst.records_seen || worst.records_repaired > 0,
        "the top fault rate left the scrape untouched: {worst:?}"
    );
}
