//! Dataset IO tour: synthesize a dataset, validate it, save it to
//! JSON and CSV, reload it, and re-run an analysis on the loaded copy.
//!
//! ```sh
//! cargo run --release --example dataset_io [seed] [out_dir]
//! ```
//!
//! This is the workflow a downstream user follows to generate a
//! reusable synthetic Digg dataset once and analyse it many times
//! without re-simulating.

use digg_core::experiments::fig4;
use digg_data::scrape::ScrapeConfig;
use digg_data::synth::{synthesize_small, SynthConfig};
use digg_data::{io, validate};
use digg_sim::scenario::PROMOTION_THRESHOLD;
use digg_sim::time::DAY;
use std::path::PathBuf;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2006);
    let out_dir: PathBuf = std::env::args()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);

    println!("== synthesize ==");
    let cfg = SynthConfig {
        seed,
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
    let synthesis = synthesize_small(&cfg);
    let ds = &synthesis.dataset;
    println!(
        "   {} front-page / {} upcoming stories, {} users, {} edges",
        ds.front_page.len(),
        ds.upcoming.len(),
        ds.network.user_count(),
        ds.network.edge_count()
    );

    println!("== validate ==");
    let violations = validate::validate(ds, PROMOTION_THRESHOLD);
    println!(
        "   {} structural violations{}",
        violations.len(),
        if violations.is_empty() {
            " (clean)"
        } else {
            ""
        }
    );
    for v in violations.iter().take(5) {
        println!("   {v}");
    }
    let stats = validate::stats(ds);
    println!(
        "   {} distinct voters; fp <500: {:.2}, >1500: {:.2}",
        stats.distinct_voters, stats.fp_below_500, stats.fp_above_1500
    );

    println!("== save ==");
    let json_path = out_dir.join(format!("digg-dataset-{seed}.json"));
    let csv_path = out_dir.join(format!("digg-dataset-{seed}.csv"));
    io::save(ds, &json_path).expect("write json");
    std::fs::write(&csv_path, io::to_csv(ds)).expect("write csv");
    let json_kb = std::fs::metadata(&json_path)
        .map(|m| m.len() / 1024)
        .unwrap_or(0);
    println!("   {} ({json_kb} KiB)", json_path.display());
    println!("   {}", csv_path.display());

    println!("== reload and re-analyse ==");
    let loaded = io::load(&json_path).expect("read json");
    assert_eq!(loaded.front_page, ds.front_page, "lossless roundtrip");
    let panel = &fig4::run(&loaded).panels[1];
    println!(
        "   Fig-4 panel from the loaded copy: {} stories, spearman(v10, final) = {}",
        panel.stories,
        panel
            .spearman
            .map(|r| format!("{r:.3}"))
            .unwrap_or_else(|| "n/a".into())
    );

    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&csv_path).ok();
    println!("   (temporary files removed)");
}
