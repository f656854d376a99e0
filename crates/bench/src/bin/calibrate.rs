//! Calibration probe: run the June-2006 scenario and print the
//! emergent statistics next to the paper's targets.
//!
//! Usage: `calibrate [seed] [days]`

use digg_sim::engine::queue_boundary_violations;
use digg_sim::scenario;
use digg_sim::story::StoryStatus;
use digg_sim::time::DAY;
use digg_sim::Sim;
use std::collections::BTreeSet;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2006);
    let days: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);

    let cfg = scenario::june2006(seed);
    let pop = scenario::june2006_population(seed ^ 0x9E37);
    let mut sim = Sim::new(cfg, pop);

    let t0 = digg_bench::timing::stopwatch();
    sim.run(days * DAY);
    eprintln!("simulated {days} days in {:.1?}", t0.elapsed());

    let m = sim.metrics();
    println!("minutes simulated      {}", m.minutes);
    println!(
        "submissions            {} ({:.0}/day)",
        m.submissions,
        m.submissions_per_day()
    );
    println!(
        "promotions             {} ({:.1}/day)",
        m.promotions,
        m.promotions_per_day()
    );
    println!("expirations            {}", m.expirations);
    println!(
        "votes: friends {} fp {} upcoming {} external {} (social {:.2})",
        m.votes_friends,
        m.votes_frontpage,
        m.votes_upcoming,
        m.votes_external,
        m.social_vote_fraction()
    );
    println!(
        "queue boundary violations {}",
        queue_boundary_violations(&sim)
    );

    // Distinct voters.
    let mut voters: BTreeSet<_> = BTreeSet::new();
    for s in sim.stories() {
        for v in &s.votes {
            voters.insert(v.user);
        }
    }
    println!("distinct voters        {}", voters.len());

    // Promoted stories that have had >= 2 days to saturate.
    let horizon = sim.now();
    let mature: Vec<_> = sim
        .stories()
        .iter()
        .filter(|s| match s.status {
            StoryStatus::FrontPage(t) => horizon.since(t) >= 2 * DAY,
            _ => false,
        })
        .collect();
    println!("mature promoted stories {}", mature.len());
    if mature.is_empty() {
        return;
    }
    let mut finals: Vec<f64> = mature.iter().map(|s| s.vote_count() as f64).collect();
    finals.sort_by(f64::total_cmp);
    let pct = |q: f64| finals[((finals.len() - 1) as f64 * q) as usize];
    println!(
        "final votes: min {} p10 {} p25 {} p50 {} p75 {} p90 {} max {}",
        pct(0.0),
        pct(0.1),
        pct(0.25),
        pct(0.5),
        pct(0.75),
        pct(0.9),
        pct(1.0)
    );
    let below500 = finals.iter().filter(|&&v| v < 500.0).count() as f64 / finals.len() as f64;
    let above1500 = finals.iter().filter(|&&v| v > 1500.0).count() as f64 / finals.len() as f64;
    println!("fraction <500 {below500:.2} (target 0.2)  >1500 {above1500:.2} (target 0.2)");

    // Early in-network votes vs final votes (Fig. 4 shape).
    let graph = &sim.population().graph;
    let mut lo_in: Vec<f64> = Vec::new(); // finals with v10 <= 3
    let mut hi_in: Vec<f64> = Vec::new(); // finals with v10 >= 7
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for s in &mature {
        let voters = s.voters_chronological();
        if voters.len() < 11 {
            continue;
        }
        let mut innet = 0u64;
        for k in 1..=10 {
            let prior = &voters[..k];
            if graph.is_fan_of_any(voters[k], prior) {
                innet += 1;
            }
        }
        xs.push(innet as f64);
        ys.push(s.vote_count() as f64);
        if innet <= 3 {
            lo_in.push(s.vote_count() as f64);
        } else if innet >= 7 {
            hi_in.push(s.vote_count() as f64);
        }
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::NAN
        } else {
            v[v.len() / 2]
        }
    };
    let (mut lo, mut hi) = (lo_in, hi_in);
    println!(
        "median final votes: v10<=3 -> {:.0} (n={})   v10>=7 -> {:.0} (n={})",
        med(&mut lo),
        lo.len(),
        med(&mut hi),
        hi.len()
    );
    if let Some(r) = digg_stats::correlation::spearman(&xs, &ys) {
        println!("spearman(v10, final) = {r:.3} (paper: strongly negative)");
    }

    // Submitter fan count of promoted stories (top-user dominance).
    let top100: BTreeSet<_> = sim.population().ranking()[..100].iter().copied().collect();
    let by_top = mature
        .iter()
        .filter(|s| top100.contains(&s.submitter))
        .count();
    println!(
        "mature promoted by top-100 submitters: {} / {}",
        by_top,
        mature.len()
    );
}
