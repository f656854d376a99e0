//! `june2006`: the full reproduction at one seed, assembled from public
//! calls so that every layer is timed on its own.
//!
//! Set-up is the population plus `Sim::new`. A pass is everything
//! after it: simulate to the scrape condition, scrape, simulate to
//! saturation, augment final votes, round-trip the dataset through JSON
//! and strict ingest, then every figure, the in-text statistics, Fig. 5
//! (C4.5 with 10-fold CV), the holdout prediction and the rendering of
//! every result. The simulation phases are `synthesize_with`'s, in its
//! order and with its seeds; a test holds the two equal. `votes_per_s`
//! is the votes cast inside `Sim::run` over the time spent there; the
//! simulator runs in six-hour segments, whose rates are its samples.

use crate::metrics::{mean, per_s, secs};
use crate::trace::{Trace, CORE, DATA, ML, ROOT, SIM};
use crate::{host, Ctx};
use digg_core::experiments::{decay, fig1, fig2, fig3, fig4, fig5, intext, prediction, scatter};
use digg_core::pipeline::PipelineConfig;
use digg_data::ingest::ingest_strict;
use digg_data::scrape::{augment_final_votes, scrape_network, scrape_stories};
use digg_data::{io, DiggDataset, SynthConfig, Synthesis};
use digg_ml::c45::C45Params;
use digg_sim::scenario::{self, PROMOTION_THRESHOLD};
use digg_sim::time::DAY;
use digg_sim::{Population, Sim, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The scenario for a seed: synthesis parameters, simulator config and
/// population. Smoke runs use the reduced-scale scenario.
fn scenario(seed: u64, smoke: bool) -> (SynthConfig, SimConfig, Population) {
    if smoke {
        let (cfg, pop) = scenario::june2006_small(seed);
        (SynthConfig::small(seed), cfg, pop)
    } else {
        // The population seed salt is `synthesize`'s.
        (
            SynthConfig::june2006(seed),
            scenario::june2006(seed),
            scenario::june2006_population(seed ^ 0x9E37_79B9),
        )
    }
}

/// Simulated time per timed `Sim::run` segment: long runs are split so
/// that `votes_per_s` has many samples, whose tail is reported.
/// Splitting changes nothing simulated (`Sim::run` drains exactly the
/// events due in its window).
const SEGMENT_MINUTES: u64 = 6 * 60;

/// What the simulation phases of one pass did.
#[derive(Default)]
pub struct SimPhases {
    /// Wall time inside `Sim::run`, ms.
    pub run_ms: f64,
    /// Votes cast inside `Sim::run`.
    pub run_votes: u64,
    /// Wall time inside the scraper (samples, network, augment), ms.
    pub scrape_ms: f64,
    /// Votes per second of every `Sim::run` segment that cast votes.
    pub segment_rates: Vec<f64>,
}

impl SimPhases {
    /// Advance `sim` by `minutes` in timed segments of at most
    /// [`SEGMENT_MINUTES`].
    fn run(&mut self, trace: &mut Trace, sim: &mut Sim, minutes: u64) {
        let mut left = minutes;
        while left > 0 {
            let step = left.min(SEGMENT_MINUTES);
            let before = sim.metrics().total_votes();
            let (_, ms) = trace.span(SIM, "Sim::run", || sim.run(step));
            let votes = sim.metrics().total_votes() - before;
            if votes > 0 {
                self.segment_rates.push(per_s(votes as f64, ms));
            }
            self.run_ms += ms;
            self.run_votes += votes;
            left -= step;
        }
    }
}

/// `synthesize_with`'s four phases, each call a span: simulate to the
/// scrape condition, scrape, simulate to saturation, augment.
pub fn synthesize_traced(
    trace: &mut Trace,
    cfg: &SynthConfig,
    mut sim: Sim,
) -> (Synthesis, SimPhases) {
    let mut phases = SimPhases::default();
    phases.run(trace, &mut sim, cfg.min_scrape_days * DAY);
    while (sim.metrics().promotions as usize) < cfg.min_promotions && sim.now().0 < cfg.max_minutes
    {
        phases.run(trace, &mut sim, 60);
    }
    let ((mut dataset, excess), scrape_ms) = trace.span(DATA, "scrape", || {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5C4A_9E11);
        let (front_page, upcoming) = scrape_stories(&sim, &cfg.scrape);
        let (network, excess) = scrape_network(&sim, &cfg.scrape, &mut rng);
        let top_users = network
            .users_by_fans_desc()
            .into_iter()
            .take(cfg.scrape.top_users)
            .collect();
        let dataset = DiggDataset {
            scraped_at: sim.now(),
            front_page,
            upcoming,
            network,
            top_users,
        };
        (dataset, excess)
    });
    phases.run(trace, &mut sim, cfg.saturation_days * DAY);
    let (_, augment_ms) = trace.span(DATA, "augment_final_votes", || {
        augment_final_votes(&sim, &mut dataset.front_page);
        augment_final_votes(&sim, &mut dataset.upcoming);
    });
    phases.scrape_ms = scrape_ms + augment_ms;
    let synthesis = Synthesis {
        dataset,
        sim,
        network_excess_links: excess,
    };
    (synthesis, phases)
}

/// Per-pass layer times, ms.
#[derive(Default)]
struct Pass {
    wall_ms: f64,
    sim: SimPhases,
    votes: u64,
    events: u64,
    io_ms: f64,
    json_bytes: usize,
    ingest_ms: f64,
    figures_ms: f64,
    intext_ms: f64,
    fig5_ms: f64,
    prediction_ms: f64,
    render_ms: f64,
}

/// One pass on a freshly set-up simulator. Failed checks end the pass
/// early; the run then reports failure.
fn pass(ctx: &mut Ctx, cfg: &SynthConfig, sim: Sim) -> Pass {
    let mut p = Pass::default();
    let tr = &mut ctx.trace;
    let (synth, phases) = synthesize_traced(tr, cfg, sim);
    p.sim = phases;
    p.votes = synth.sim.metrics().total_votes();
    p.events = synth.sim.events_fired();
    let Synthesis {
        dataset,
        sim,
        network_excess_links,
    } = synth;

    let (json, to_ms) = tr.span(DATA, "io::to_json", || io::to_json(&dataset));
    drop(dataset);
    let Ok(json) = json else {
        ctx.report.check("june2006: io::to_json succeeds", false);
        return p;
    };
    p.json_bytes = json.len();
    let (back, from_ms) = tr.span(DATA, "io::from_json", || io::from_json(&json));
    drop(json);
    p.io_ms = to_ms + from_ms;
    let Ok(back) = back else {
        ctx.report.check("june2006: io::from_json succeeds", false);
        return p;
    };
    let (ingested, ingest_ms) = tr.span(DATA, "ingest_strict", || {
        ingest_strict(back, PROMOTION_THRESHOLD)
    });
    p.ingest_ms = ingest_ms;
    ctx.report
        .check("june2006: ingest_strict returns Ok", ingested.is_ok());
    let Ok(dataset) = ingested else {
        return p;
    };
    let s = Synthesis {
        dataset,
        sim,
        network_excess_links,
    };
    let ds = &s.dataset;

    let (f1, a) = tr.span(CORE, "fig1::run", || {
        fig1::run(&s.sim, &fig1::Fig1Params::default())
    });
    let (f2a, b) = tr.span(CORE, "fig2::run_a", || fig2::run_a(ds, 16, 4000.0));
    let (f2b, c) = tr.span(CORE, "fig2::run_b", || fig2::run_b(ds));
    let (f2l, d) = tr.span(CORE, "fig2::run_b_sim", || fig2::run_b_sim(&s.sim));
    let (f3a, e) = tr.span(CORE, "fig3::run_a", || fig3::run_a(ds));
    let (f3b, f) = tr.span(CORE, "fig3::run_b", || fig3::run_b(ds));
    let (f4, g) = tr.span(CORE, "fig4::run", || fig4::run(ds));
    let (sc, h) = tr.span(CORE, "scatter::run", || scatter::run(ds, 100));
    let (dc, i) = tr.span(CORE, "decay::run", || decay::run(&s.sim, 2 * DAY, 72));
    p.figures_ms = a + b + c + d + e + f + g + h + i;

    let (it, intext_ms) = tr.span(CORE, "intext::run", || intext::run(&s, PROMOTION_THRESHOLD));
    p.intext_ms = intext_ms;
    let (f5, fig5_ms) = tr.span(ML, "fig5::run", || {
        fig5::run(ds, &C45Params::default(), 0x1e12)
    });
    p.fig5_ms = fig5_ms;
    let (pr, prediction_ms) = tr.span(CORE, "prediction::run", || {
        prediction::run(&s, &PipelineConfig::default())
    });
    p.prediction_ms = prediction_ms;

    let (rendered, render_ms) = tr.span(CORE, "render", || {
        let mut out = vec![
            f1.render(),
            f2a.render(),
            f2b.render(),
            f2l.render(),
            f3a.render(),
            f3b.render(),
            f4.render(),
            sc.render(),
            dc.render(),
            it.render(),
        ];
        out.extend(f5.as_ref().map(fig5::Fig5Result::render));
        out.extend(pr.as_ref().map(prediction::PredictionResult::render));
        out.iter().map(String::len).sum::<usize>()
    });
    black_box(rendered);
    p.render_ms = render_ms;

    let report = &mut ctx.report;
    report.check(
        "june2006: intext reports no violations",
        it.violations.is_empty(),
    );
    report.check("june2006: fig5 returns Some", f5.is_some());
    report.check("june2006: prediction returns Some", pr.is_some());
    p
}

/// One timed set-up: the population and `Sim::new`.
fn set_up(
    ctx: &mut Ctx,
    setup_ms: &mut Vec<f64>,
    population_ms: &mut Vec<f64>,
) -> (SynthConfig, Sim) {
    let ((cfg, sim_cfg, pop), pop_ms) = ctx
        .trace
        .span(SIM, "population", || scenario(ctx.seed, ctx.smoke));
    let (sim, new_ms) = ctx.trace.span(SIM, "Sim::new", || Sim::new(sim_cfg, pop));
    population_ms.push(pop_ms);
    setup_ms.push(pop_ms + new_ms);
    (cfg, sim)
}

/// Run the workload: passes, each on a fresh set-up.
pub fn run(ctx: &mut Ctx) {
    let mut setup_ms = Vec::new();
    let mut population_ms = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    // The peak of a run with one pass: later passes also hold what the
    // allocator kept from earlier ones (a second pass raises the peak
    // from about 253 to 307 MB).
    let mut peak_rss_mb = 0.0;
    while ctx.another_pass(&walls) {
        // Before the first pass, set-up repeats for its own mean;
        // only the last one is simulated.
        let (mut cfg, mut sim) = set_up(ctx, &mut setup_ms, &mut population_ms);
        while passes.is_empty() && ctx.another_setup(&setup_ms, false) {
            (cfg, sim) = set_up(ctx, &mut setup_ms, &mut population_ms);
        }
        let start = ctx.trace.open(ROOT, "pass");
        let mut p = pass(ctx, &cfg, sim);
        p.wall_ms = ctx.trace.close(start);
        if passes.is_empty() {
            peak_rss_mb = host::peak_rss_mb();
        }
        walls.push(p.wall_ms);
        passes.push(p);
    }
    while ctx.another_setup(&setup_ms, true) {
        set_up(ctx, &mut setup_ms, &mut population_ms);
    }

    let each = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let rates: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.sim.segment_rates.iter().copied())
        .collect();
    let run_votes: f64 = each(|p| p.sim.run_votes as f64).iter().sum();
    let run_ms: f64 = each(|p| p.sim.run_ms).iter().sum();
    let (walls, setups) = (each(|p| p.wall_ms / 1e3), secs(&setup_ms));
    let r = &mut ctx.report;
    r.set("peak_rss_mb", peak_rss_mb);
    r.record_value("wall_s", mean(&walls), &walls);
    r.record_value("setup_s", mean(&setups), &setups);
    r.record_value("votes_per_s", per_s(run_votes, run_ms), &rates);
    r.record("digg-sim.population_ms", &population_ms);
    r.record("digg-sim.run_ms", &each(|p| p.sim.run_ms));
    // Every pass simulates the same seed, so the first pass stands for all.
    r.fact("digg-sim.votes", passes[0].votes as f64);
    r.fact("digg-sim.events", passes[0].events as f64);
    r.record("digg-data.scrape_ms", &each(|p| p.sim.scrape_ms));
    r.record("digg-data.io_ms", &each(|p| p.io_ms));
    r.record("digg-data.json_bytes", &each(|p| p.json_bytes as f64));
    r.record("digg-data.ingest_ms", &each(|p| p.ingest_ms));
    r.record("digg-core.figures_ms", &each(|p| p.figures_ms));
    r.record("digg-core.intext_ms", &each(|p| p.intext_ms));
    r.record("digg-core.prediction_ms", &each(|p| p.prediction_ms));
    r.record("digg-core.render_ms", &each(|p| p.render_ms));
    r.record("digg-ml.fig5_ms", &each(|p| p.fig5_ms));
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::scrape::ScrapeConfig;
    use digg_data::synth::synthesize_with;
    use digg_sim::population::PopulationConfig;

    #[test]
    fn phase_split_matches_synthesize_with() {
        // The toy scenario of digg-data's own synthesis tests.
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
        let setup = || {
            let sim_cfg = SimConfig::toy(5);
            let mut rng = StdRng::seed_from_u64(5);
            let pop = Population::generate(&mut rng, &PopulationConfig::toy(sim_cfg.users));
            (sim_cfg, pop)
        };
        let (sim_cfg, pop) = setup();
        let want = synthesize_with(&cfg, sim_cfg, pop);
        let (sim_cfg, pop) = setup();
        let mut trace = Trace::new(true);
        let (got, phases) = synthesize_traced(&mut trace, &cfg, Sim::new(sim_cfg, pop));

        assert_eq!(
            io::to_json(&got.dataset).unwrap(),
            io::to_json(&want.dataset).unwrap()
        );
        assert_eq!(got.sim.metrics(), want.sim.metrics());
        assert_eq!(got.sim.now(), want.sim.now());
        assert_eq!(got.network_excess_links, want.network_excess_links);
        assert!(phases.run_ms > 0.0);
        assert!(!phases.segment_rates.is_empty());
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name).collect();
        // The day of saturation alone is four six-hour segments.
        assert!(names.iter().filter(|&&n| n == "Sim::run").count() >= 4);
        assert_eq!(names.iter().filter(|&&n| n != "Sim::run").count(), 2);
    }
}
