//! Cascade explorer: how interest in individual stories spreads
//! through the fan network.
//!
//! ```sh
//! cargo run --release --example cascade_explorer [seed]
//! ```
//!
//! For a handful of simulated stories this prints, vote by vote,
//! whether each vote came from inside the network (a fan of a prior
//! voter — the paper's cascade definition), the story's influence
//! trajectory, and the resulting spread-mode classification; then the
//! population-level Fig. 3 style histograms.

use digg_core::spread::{self, SpreadMode};
use digg_core::{IncrementalSweep, StoryTable};
use digg_data::scrape::ScrapeConfig;
use digg_data::synth::{synthesize_small, SynthConfig};
use digg_sim::time::DAY;
use digg_stats::ascii;
use digg_stats::histogram::Histogram;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let cfg = SynthConfig {
        seed,
        scrape: ScrapeConfig {
            front_page_stories: 60,
            upcoming_stories: 200,
            top_users: 200,
            ..ScrapeConfig::default()
        },
        min_promotions: 60,
        min_scrape_days: 2,
        saturation_days: 2,
        max_minutes: 30 * DAY,
    };
    let synthesis = synthesize_small(&cfg);
    let ds = &synthesis.dataset;
    let g = &ds.network;
    let mut sweep = IncrementalSweep::new(g);

    println!("== per-story spread anatomy (first 3 front-page stories) ==");
    for r in ds.front_page.iter().take(3) {
        let s = sweep.sweep_story(g, &r.voters);
        let trace: String = s
            .flags()
            .iter()
            .take(30)
            .map(|&f| if f { 'N' } else { '.' })
            .collect();
        let profile = spread::profile(g, &r.voters, 10);
        let mode = match profile.mode(0.6) {
            SpreadMode::NetworkDriven => "network-driven (narrow community)",
            SpreadMode::InterestDriven => "interest-driven (broad appeal)",
            SpreadMode::Mixed => "mixed",
        };
        println!(
            "story {:>5} by {} ({} fans): final votes {:?}",
            r.story.0,
            r.submitter,
            g.fan_count(r.submitter),
            r.final_votes,
        );
        println!("  votes  (N = in-network, . = independent): {trace}");
        println!(
            "  first-10 profile: {}/{} in-network, longest run {}, mode: {mode}",
            profile.in_network, profile.votes, profile.longest_network_run
        );
        let floats: Vec<f64> = s
            .influence()
            .iter()
            .take(40)
            .map(|&v| f64::from(v))
            .collect();
        println!(
            "  influence trajectory (users who can see it): {}",
            ascii::sparkline(&floats)
        );
    }

    println!("\n== population view: early in-network votes vs final votes ==");
    let mut lo = Vec::new();
    let mut hi = Vec::new();
    for r in StoryTable::build(ds, 1)
        .front_page
        .iter()
        .filter(|r| r.has_window(10))
    {
        let Some(fin) = r.final_votes else { continue };
        let v10 = r.in_network_within(10);
        if v10 <= 2 {
            lo.push(f64::from(fin));
        } else if v10 >= 6 {
            hi.push(f64::from(fin));
        }
    }
    let med = |v: &[f64]| digg_stats::descriptive::median(v).unwrap_or(f64::NAN);
    println!(
        "median final votes: v10<=2 -> {:.0} ({} stories)   v10>=6 -> {:.0} ({} stories)",
        med(&lo),
        lo.len(),
        med(&hi),
        hi.len()
    );
    println!("(the paper's claim: the second number is much smaller)");

    println!("\n== final-vote histogram of front-page stories ==");
    let finals: Vec<f64> = ds
        .front_page
        .iter()
        .filter_map(|r| r.final_votes)
        .map(f64::from)
        .collect();
    let h = Histogram::of(0.0, 2500.0, 10, &finals);
    print!("{}", ascii::histogram_bars(&h, 40));
}
