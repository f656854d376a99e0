//! Ablation experiments (DESIGN.md ABL1–ABL5).
//!
//! * `feature_ablation` — which early features carry the signal
//!   (v10 alone vs fans1 alone vs both vs extended vs a Digg-style
//!   vote-count feature).
//! * `window_sweep` — prediction accuracy as the observation window
//!   grows (the paper's claim that 6–10 votes already suffice while
//!   Digg waits for ~40).
//! * `promotion_ablation` — pre- vs post-Sept-2006 promoter (raw
//!   threshold vs diversity-weighted) and its effect on front-page
//!   composition.
//! * [`network_grid`] — the future-work §6 question on the simulator
//!   itself: the june2006 pipeline over the robustness seed band on
//!   the site's fan graph, a rewired copy and an Erdős–Rényi graph.
//!   Its `site` rows are the `robustness` artifact. Each `site` cell
//!   also re-observes its scrape through [`FaultPlan::degraded`] at
//!   every [`FAULT_RATES`] rate (ABL5, observation loss): how far do
//!   the headline results survive a lossy scrape?

use des_core::{par_map, StreamRng};
use digg_core::experiments::fig3::Fig3bResult;
use digg_core::experiments::{fig4, prediction};
use digg_core::features::StoryFeatures;
use digg_core::pipeline::PipelineConfig;
use digg_core::predictor::{self, Fit};
use digg_core::table::{StoryTable, DEPTH};
use digg_core::IncrementalSweep;
use digg_data::faults::FaultPlan;
use digg_data::ingest::ingest_lenient;
use digg_data::synth::{synthesize_with, SynthConfig, Synthesis};
use digg_data::{validate, DiggDataset};
use digg_ml::baselines::{Classifier, GaussianNb, MajorityClass};
use digg_ml::c45::{train, C45Params};
use digg_ml::crossval::cross_validate;
use digg_ml::data::{Instance, MlDataset};
use digg_ml::ensemble::BaggedTrees;
use digg_sim::config::PromoterKind;
use digg_sim::scenario::PROMOTION_THRESHOLD;
use digg_sim::time::DAY;
use digg_sim::{scenario, Population, Sim, SimConfig};
use digg_stats::descriptive::{mean, std_dev};
use serde::Serialize;
use social_graph::generators::{configuration_model, erdos_renyi};
use social_graph::SocialGraph;

// ------------------------------------------------------------- ABL1

/// One feature-set's cross-validated accuracy.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct FeatureRow {
    /// Feature-set label.
    pub features: String,
    /// Stories used.
    pub stories: usize,
    /// 10-fold CV accuracy.
    pub cv_accuracy: f64,
}

/// ABL1: train on the front-page sample with different feature sets.
pub(crate) fn feature_ablation(table: &StoryTable, threshold: u32, seed: u64) -> Vec<FeatureRow> {
    let stories: Vec<(StoryFeatures, bool)> = table.labelled(threshold).collect();
    type Extractor = fn(&StoryFeatures) -> Vec<f64>;
    let sets: [(&str, Extractor, Vec<&str>); 5] = [
        ("v10 only", |f| vec![f.v10 as f64], vec!["v10"]),
        ("fans1 only", |f| vec![f.fans1 as f64], vec!["fans1"]),
        (
            "v10 + fans1 (paper)",
            |f| f.values().to_vec(),
            vec!["v10", "fans1"],
        ),
        (
            "v6 + v10 + v20 + fans1",
            |f| vec![f.v6 as f64, f.v10 as f64, f.v20 as f64, f.fans1 as f64],
            vec!["v6", "v10", "v20", "fans1"],
        ),
        (
            "scraped vote count (Digg-style)",
            |f| vec![f.scraped_votes as f64],
            vec!["votes"],
        ),
    ];
    let mut rows: Vec<FeatureRow> = sets
        .into_iter()
        .map(|(name, extract, attrs)| {
            let mut ml = MlDataset::new(attrs);
            for (f, label) in &stories {
                ml.push(Instance::new(extract(f), *label));
            }
            FeatureRow {
                features: name.to_string(),
                stories: ml.len(),
                cv_accuracy: c45_cv_accuracy(&ml, seed),
            }
        })
        .collect();
    // Model baseline: Gaussian naive Bayes on the paper's features —
    // does the tree's interaction structure earn its keep over an
    // independence assumption?
    let ml = table.training_set(threshold);
    // Folds where either class is absent from training fall back to
    // the majority class.
    let nb = cross_validate(&ml, 10, seed, |t, _| -> Box<dyn Classifier> {
        match GaussianNb::fit(t) {
            Some(nb) => Box::new(nb),
            None => Box::new(MajorityClass::fit(t)),
        }
    });
    rows.push(FeatureRow {
        features: "gaussian NB over v10 + fans1".to_string(),
        stories: ml.len(),
        cv_accuracy: nb.accuracy(),
    });
    let bagged = cross_validate(&ml, 10, seed, |t, f| {
        BaggedTrees::train(t, &C45Params::default(), 25, seed ^ f as u64)
    });
    rows.push(FeatureRow {
        features: "bagged C4.5 (25 trees) over v10 + fans1".to_string(),
        stories: ml.len(),
        cv_accuracy: bagged.accuracy(),
    });
    rows
}

/// 10-fold stratified CV accuracy of a default C4.5 tree.
fn c45_cv_accuracy(ml: &MlDataset, seed: u64) -> f64 {
    cross_validate(ml, 10, seed, |t, _| train(t, &C45Params::default())).accuracy()
}

/// Render ABL1.
pub(crate) fn render_feature_ablation(rows: &[FeatureRow]) -> String {
    let mut out =
        String::from("ABL1: feature ablation (10-fold CV accuracy on the front-page sample)\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<34} n={:<4} accuracy {:.3}\n",
            r.features, r.stories, r.cv_accuracy
        ));
    }
    out
}

// ------------------------------------------------------------- ABL3

/// One observation window's result.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct WindowRow {
    /// Votes observed before predicting.
    pub window: usize,
    /// Qualifying stories.
    pub stories: usize,
    /// CV accuracy using (v_window, fans1).
    pub cv_accuracy: f64,
}

/// ABL3: how early is the signal available? Paper: 6–10 votes; Digg
/// itself waits for roughly 40, the story table's [`DEPTH`].
pub(crate) fn window_sweep(table: &StoryTable, threshold: u32, seed: u64) -> Vec<WindowRow> {
    [2usize, 4, 6, 10, 20, 30, DEPTH]
        .iter()
        .map(|&w| {
            let mut ml = MlDataset::new(vec!["v_w", "fans1"]);
            for r in table.front_page.iter().filter(|r| r.has_window(w)) {
                let Some(label) = r.is_interesting(threshold) else {
                    continue;
                };
                ml.push(Instance::new(
                    vec![r.in_network_within(w) as f64, r.fans1 as f64],
                    label,
                ));
            }
            let acc = if ml.len() >= 4 {
                c45_cv_accuracy(&ml, seed)
            } else {
                0.0
            };
            WindowRow {
                window: w,
                stories: ml.len(),
                cv_accuracy: acc,
            }
        })
        .collect()
}

/// Render ABL3.
pub(crate) fn render_window_sweep(rows: &[WindowRow]) -> String {
    let mut out =
        String::from("ABL3: observation-window sweep (v_w + fans1, 10-fold CV accuracy)\n");
    for r in rows {
        out.push_str(&format!(
            "  first {:>2} votes: n={:<4} accuracy {:.3}\n",
            r.window, r.stories, r.cv_accuracy
        ));
    }
    out
}

// ------------------------------------------------------------- ABL2

/// One promoter's front-page composition.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct PromoterRow {
    /// Promoter name.
    pub promoter: String,
    /// Promotions over the run.
    pub promotions: u64,
    /// Fraction of promoted stories submitted by the top-100 users
    /// (by fans).
    pub top100_share: f64,
    /// Mean in-network votes within the first 10 among promoted
    /// stories.
    pub mean_v10: f64,
}

/// ABL2: run the reduced-scale scenario under the pre-Sept-2006
/// threshold promoter and under the diversity-weighted variant, and
/// compare front-page composition. Each run simulates `days` days.
pub(crate) fn promotion_ablation(seed: u64, days: u64) -> Vec<PromoterRow> {
    let kinds = [
        ("threshold (pre-2006-09)", scenario::june2006(seed).promoter),
        (
            "diversity (post-2006-09)",
            scenario::september2006(seed).promoter,
        ),
    ];
    kinds
        .into_iter()
        .map(|(name, kind)| {
            let (mut cfg, pop) = scenario::june2006_small(seed);
            cfg.promoter = kind;
            let ranking = pop.ranking();
            let top100: std::collections::BTreeSet<_> = ranking.into_iter().take(100).collect();
            let graph = pop.graph.clone();
            let mut sim = Sim::new(cfg, pop);
            sim.run(days * DAY);
            let promoted: Vec<_> = sim.stories().iter().filter(|s| s.is_front_page()).collect();
            let top_share = if promoted.is_empty() {
                0.0
            } else {
                promoted
                    .iter()
                    .filter(|s| top100.contains(&s.submitter))
                    .count() as f64
                    / promoted.len() as f64
            };
            let mut sweep = IncrementalSweep::new(&graph);
            let v10s: Vec<f64> = promoted
                .iter()
                .map(|s| {
                    let voters = s.voters_chronological();
                    sweep
                        .sweep_story(&graph, &voters)
                        .in_network_count_within(10) as f64
                })
                .collect();
            PromoterRow {
                promoter: name.to_string(),
                promotions: sim.metrics().promotions,
                top100_share: top_share,
                mean_v10: digg_stats::descriptive::mean(&v10s).unwrap_or(0.0),
            }
        })
        .collect()
}

/// Render ABL2.
pub(crate) fn render_promotion_ablation(rows: &[PromoterRow]) -> String {
    let mut out = String::from(
        "ABL2: promotion algorithm (reduced-scale scenario)\n  the diversity rule discounts in-network votes, so network-driven stories need broader support\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<26} promotions {:<5} top-100 share {:.2}  mean v10 {:.2}\n",
            r.promoter, r.promotions, r.top100_share, r.mean_v10
        ));
    }
    out
}

// ------------------------------------------------------------- ABL4

/// The robustness seed band: `2006 + 101·i` for `i` in `0..4`.
pub(crate) const SEED_BAND: [u64; 4] = [2006, 2107, 2208, 2309];

/// Stream salt of the variant-graph draws.
const VARIANT_STREAM: u64 = 0xAB14;

/// The fan graph an ABL4 cell simulates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphVariant {
    /// The population's own graph, unchanged.
    Site,
    /// [`configuration_model`] over the site graph's per-user friend
    /// counts, targets weighted by its realised fan counts. The site
    /// graph is itself a configuration-model draw, so this re-draws
    /// the wiring; it does not remove clustering.
    Rewired,
    /// [`erdos_renyi`] with the site graph's user count and mean
    /// degree.
    Er,
}

impl GraphVariant {
    /// Every variant, in grid order.
    pub const ALL: [GraphVariant; 3] =
        [GraphVariant::Site, GraphVariant::Rewired, GraphVariant::Er];

    /// Artifact label.
    pub fn name(self) -> &'static str {
        match self {
            GraphVariant::Site => "site",
            GraphVariant::Rewired => "rewired",
            GraphVariant::Er => "er",
        }
    }

    /// This variant of `site`, drawn from a stream keyed by `seed` and
    /// the variant.
    pub fn graph(self, site: &SocialGraph, seed: u64) -> SocialGraph {
        let mut rng = StreamRng::keyed(seed, &[VARIANT_STREAM, self as u64]);
        match self {
            GraphVariant::Site => site.clone(),
            GraphVariant::Rewired => {
                let friends: Vec<usize> = site.users().map(|u| site.friend_count(u)).collect();
                let fans: Vec<f64> = site.users().map(|u| site.fan_count(u) as f64).collect();
                configuration_model(&mut rng, &friends, &fans)
            }
            GraphVariant::Er => {
                let n = site.user_count() as f64;
                let p = site.edge_count() as f64 / (n * (n - 1.0)).max(1.0);
                erdos_renyi(&mut rng, site.user_count(), p.min(1.0))
            }
        }
    }
}

/// The headline metrics of one seed's pipeline run (the `robustness`
/// artifact's row).
#[derive(Debug, Clone, Serialize)]
pub struct SeedRow {
    /// Scenario seed.
    pub seed: u64,
    /// Fig. 4: Spearman correlation of v10 with final votes.
    pub spearman_v10: f64,
    /// Fig. 5: 10-fold CV accuracy of the C4.5 tree.
    pub cv_accuracy: f64,
    /// Fig. 3b: share of stories with half their first 10 votes
    /// in-network.
    pub cascade_half_at_10: f64,
    /// §5.2: holdout stories.
    pub holdout_stories: usize,
    /// §5.2: the promoter's precision on the holdout.
    pub digg_precision: Option<f64>,
    /// §5.2: the classifier's precision on the promoted holdout.
    pub classifier_precision: Option<f64>,
    /// Whether the classifier beats the promoter.
    pub classifier_beats_digg: Option<bool>,
}

/// One ABL4 cell: a seed's june2006 pipeline on one graph variant.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkRow {
    /// Graph variant ([`GraphVariant::name`]).
    pub graph: &'static str,
    /// Largest fan count of the simulated graph.
    pub max_fans: usize,
    /// Simulated day of the scrape.
    pub scrape_day: u64,
    /// Fig. 5 training stories.
    pub training_stories: usize,
    /// Share of the training stories labelled interesting.
    pub interesting_share: f64,
    /// True share of all votes cast through the Friends interface.
    pub friends_share: f64,
    /// Share of front-page stories above 1500 final votes.
    pub fp_above_1500: f64,
    /// The seed's headline metrics.
    pub pipeline: SeedRow,
}

/// The headline metrics of `ds`, "the platform promoted it" read from
/// `sim`'s ground truth, plus the one fit of the paper's model they
/// came from (its CV feeds the row, its tree scores the holdout). The
/// ABL4 row and every ABL5 row go through this one function, so a
/// rate-0 ABL5 row equal to its `robustness` row compares two outputs
/// of one code path.
fn headline(seed: u64, ds: &DiggDataset, sim: &Sim) -> (SeedRow, Option<Fit>) {
    // The grid already fans out over cells, so each cell's table
    // builds serially.
    let table = StoryTable::build(ds, 1);
    let cfg = PipelineConfig::default();
    let fit = predictor::fit(&table, &cfg);
    let pred = fit
        .as_ref()
        .and_then(|fit| prediction::score(ds, &table, sim, &cfg, fit));
    let row = SeedRow {
        seed,
        spearman_v10: fig4::panel(&table, 10).spearman.unwrap_or(f64::NAN),
        cv_accuracy: fit.as_ref().map_or(f64::NAN, |f| f.cv.accuracy()),
        cascade_half_at_10: Fig3bResult::from_table(&table).half_in_network_at_10,
        holdout_stories: pred.as_ref().map_or(0, |p| p.pipeline.holdout_stories),
        digg_precision: pred.as_ref().and_then(|p| p.pipeline.digg_precision()),
        classifier_precision: pred
            .as_ref()
            .and_then(|p| p.pipeline.classifier_precision()),
        classifier_beats_digg: pred.as_ref().and_then(|p| p.classifier_beats_digg()),
    };
    (row, fit)
}

/// Run one cell: synthesize with `pop`'s graph replaced by `variant`,
/// then extract the headline metrics. A `site` cell also returns its
/// ABL5 rows, one per [`FAULT_RATES`] rate.
fn network_cell(
    cfg: &SynthConfig,
    sim_cfg: SimConfig,
    mut pop: Population,
    variant: GraphVariant,
) -> (NetworkRow, Vec<ObservationRow>) {
    pop.graph = variant.graph(&pop.graph, cfg.seed);
    let max_fans = pop.graph.users().map(|u| pop.graph.fan_count(u)).max();
    let synthesis = synthesize_with(cfg, sim_cfg, pop);
    let ds = &synthesis.dataset;
    let (pipeline, fit) = headline(cfg.seed, ds, &synthesis.sim);
    let (friends, votes) = synthesis
        .sim
        .stories()
        .iter()
        .fold((0, 0), |(friends, votes), s| {
            let (f, p, u, e) = s.channel_breakdown();
            (friends + f, votes + f + p + u + e)
        });
    let row = NetworkRow {
        graph: variant.name(),
        max_fans: max_fans.unwrap_or(0),
        scrape_day: ds.scraped_at.0 / DAY,
        training_stories: fit.as_ref().map_or(0, |f| f.training_stories),
        interesting_share: fit.as_ref().map_or(f64::NAN, |f| {
            f.positives as f64 / f.training_stories.max(1) as f64
        }),
        friends_share: friends as f64 / votes.max(1) as f64,
        fp_above_1500: validate::stats(ds).fp_above_1500,
        pipeline,
    };
    let observation = match variant {
        GraphVariant::Site => FAULT_RATES
            .iter()
            .map(|&rate| observation_row(&synthesis, cfg.seed, rate))
            .collect(),
        _ => Vec::new(),
    };
    (row, observation)
}

/// ABL4: every [`GraphVariant`] × `seeds` cell, variant-major, fanned
/// out over `threads` workers (rows are identical at any count).
/// `build(seed)` builds a cell's synthesis config, platform config
/// and population. Returns the ABL4 rows and the ABL5 rows of the
/// `site` cells (seed-major, then rate).
pub fn network_grid<F>(
    seeds: &[u64],
    threads: usize,
    build: F,
) -> (Vec<NetworkRow>, Vec<ObservationRow>)
where
    F: Fn(u64) -> (SynthConfig, SimConfig, Population) + Sync,
{
    let cells: Vec<(GraphVariant, u64)> = GraphVariant::ALL
        .iter()
        .flat_map(|&v| seeds.iter().map(move |&s| (v, s)))
        .collect();
    let out = par_map(&cells, threads, |&(variant, seed)| {
        let (cfg, sim_cfg, pop) = build(seed);
        network_cell(&cfg, sim_cfg, pop, variant)
    });
    let (rows, observation): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    (rows, observation.into_iter().flatten().collect())
}

// ------------------------------------------------------------- ABL5

/// The scrape-fault rates of ABL5 ([`FaultPlan::degraded`]); rate 0
/// is the clean scrape.
pub const FAULT_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// ABL5: one seed's scrape re-observed through a lossy scraper at one
/// fault rate, then ingested leniently.
#[derive(Debug, Clone, Serialize)]
pub struct ObservationRow {
    /// Injected fault rate.
    pub rate: f64,
    /// Records in the clean scrape.
    pub records_seen: usize,
    /// Records surviving fetch failures and lenient ingestion.
    pub records_kept: usize,
    /// Records lenient ingestion quarantined.
    pub records_quarantined: usize,
    /// Kept records lenient ingestion repaired.
    pub records_repaired: usize,
    /// Share of fan links the faulted scrape kept.
    pub fan_link_coverage: f64,
    /// The headline metrics of the ingested dataset.
    pub pipeline: SeedRow,
}

/// Inject [`FaultPlan::degraded`]`(rate, seed)` into `synthesis`'s
/// scrape, ingest it leniently at the promoter's vote boundary, and
/// extract the headline metrics.
fn observation_row(synthesis: &Synthesis, seed: u64, rate: f64) -> ObservationRow {
    // The diversity rule has no raw-vote boundary; the grid's
    // scenarios all use a threshold promoter.
    let boundary = match synthesis.sim.config().promoter {
        PromoterKind::Threshold { min_votes } => min_votes,
        PromoterKind::Diversity { .. } => PROMOTION_THRESHOLD,
    };
    let (faulted, log) = FaultPlan::degraded(rate, seed).apply(&synthesis.dataset);
    let (ds, report) = ingest_lenient(faulted, boundary);
    ObservationRow {
        rate,
        records_seen: report.records_seen + log.fetch_failed_stories,
        records_kept: report.records_kept,
        records_quarantined: report.quarantined.len(),
        records_repaired: report.records_repaired,
        fan_link_coverage: log.fan_link_coverage(),
        pipeline: headline(seed, &ds, &synthesis.sim).0,
    }
}

/// Whether every seed of `site` has a rate-0 ABL5 row whose metrics
/// serialize identically to its `robustness` row.
pub(crate) fn clean_rows_match(site: &[SeedRow], rows: &[ObservationRow]) -> bool {
    let json = |r: &SeedRow| serde_json::to_string(r).ok();
    site.iter().all(|s| {
        rows.iter()
            .any(|r| r.rate == 0.0 && r.pipeline.seed == s.seed && json(&r.pipeline) == json(s))
    })
}

/// Mean and sample standard deviation of the finite values.
fn mean_sd(xs: impl Iterator<Item = f64>) -> (f64, f64) {
    let xs: Vec<f64> = xs.filter(|x| x.is_finite()).collect();
    (
        mean(&xs).unwrap_or(f64::NAN),
        std_dev(&xs).unwrap_or(f64::NAN),
    )
}

/// Render ABL5: per rate, mean±sd over the seeds, and the sign of
/// each seed's Spearman in seed order.
pub(crate) fn render_observation(rows: &[ObservationRow], clean_rows_match: bool) -> String {
    let mut out = String::from(
        "ABL5: observation loss (FaultPlan::degraded at each rate, lenient ingest, june2006 pipeline, robustness seed band; mean±sd over seeds)\n\
         \x20 rate    kept/seen quar  repaired  fan links      spearman        CV-acc  holdout  P(digg)  P(clf)  spearman sign by seed\n",
    );
    for rate in FAULT_RATES {
        let cell: Vec<&ObservationRow> = rows.iter().filter(|r| r.rate == rate).collect();
        let of = |f: &dyn Fn(&ObservationRow) -> f64| mean_sd(cell.iter().map(|r| f(r)));
        let mean_of = |f: &dyn Fn(&ObservationRow) -> f64| of(f).0;
        let kept_seen = format!(
            "{:.0}/{:.0}",
            mean_of(&|r| r.records_kept as f64),
            mean_of(&|r| r.records_seen as f64)
        );
        let (ms, ss) = of(&|r| r.pipeline.spearman_v10);
        let (mc, sc) = of(&|r| r.pipeline.cv_accuracy);
        let signs: String = cell
            .iter()
            .map(|r| match r.pipeline.spearman_v10 {
                x if x < 0.0 => '-',
                x if x > 0.0 => '+',
                _ => '?',
            })
            .collect();
        out.push_str(&format!(
            "  {rate:<5.2} {kept_seen:>11} {:>4.2} {:>9.1}  {:>9.3}  {ms:>6.3}±{ss:<5.3}  {mc:>6.3}±{sc:<5.3}  {:>7.1}  {:>7.2}  {:>6.2}  {signs}\n",
            mean_of(&|r| r.records_quarantined as f64),
            mean_of(&|r| r.records_repaired as f64),
            mean_of(&|r| r.fan_link_coverage),
            mean_of(&|r| r.pipeline.holdout_stories as f64),
            mean_of(&|r| r.pipeline.digg_precision.unwrap_or(f64::NAN)),
            mean_of(&|r| r.pipeline.classifier_precision.unwrap_or(f64::NAN)),
        ));
    }
    out.push_str(&format!(
        "  rate 0 equals the robustness row at every seed: {clean_rows_match}\n"
    ));
    out
}

fn fmt_opt<T>(x: Option<T>, f: impl Fn(T) -> String) -> String {
    x.map(f).unwrap_or_else(|| "-".into())
}

/// Render the `robustness` artifact from the `site` rows' metrics.
pub(crate) fn render_robustness(rows: &[SeedRow]) -> String {
    let mut out = String::from(
        "Seed robustness (paper targets: spearman<0, CV 0.841, cascade 0.30, clf>digg)\n",
    );
    out.push_str("  seed   spearman  CV-acc  cascade@10  holdout  P(digg)  P(clf)  clf wins\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<6} {:>8.3}  {:>6.3}  {:>10.2}  {:>7}  {:>7}  {:>6}  {}\n",
            r.seed,
            r.spearman_v10,
            r.cv_accuracy,
            r.cascade_half_at_10,
            r.holdout_stories,
            fmt_opt(r.digg_precision, |x| format!("{x:.2}")),
            fmt_opt(r.classifier_precision, |x| format!("{x:.2}")),
            fmt_opt(r.classifier_beats_digg, |b| b.to_string()),
        ));
    }
    let col = |f: &dyn Fn(&SeedRow) -> f64| mean_sd(rows.iter().map(f));
    let (ms, ss) = col(&|r| r.spearman_v10);
    let (mc, sc) = col(&|r| r.cv_accuracy);
    let (mh, sh) = col(&|r| r.cascade_half_at_10);
    out.push_str(&format!(
        "  mean±sd: spearman {ms:.3}±{ss:.3}  CV {mc:.3}±{sc:.3}  cascade@10 {mh:.2}±{sh:.2}\n"
    ));
    out
}

/// Render ABL4.
pub(crate) fn render_network(rows: &[NetworkRow]) -> String {
    let mut out = String::from(
        "ABL4: fan-graph shape on the simulator (june2006 pipeline, robustness seed band)\n\
         \x20 site: the population's own graph\n\
         \x20 rewired: configuration model over site's friend counts, targets weighted by its fan counts\n\
         \x20   (site is itself such a draw, so this re-draws the wiring; it does not remove clustering)\n\
         \x20 er: Erdos-Renyi with site's user count and mean degree\n\
         \x20 graph    seed  max fans  day  spearman  CV-acc    n  interesting  cascade@10  Friends  fp>1500  holdout  P(digg)  P(clf)  clf wins\n",
    );
    let one_class = |r: &NetworkRow| r.interesting_share == 0.0 || r.interesting_share == 1.0;
    for r in rows {
        let p = &r.pipeline;
        out.push_str(&format!(
            "  {:<8} {:<5} {:>9}  {:>3}  {:>8.3}  {:>6.3}{} {:>3}  {:>11.2}  {:>10.2}  {:>7.3}  {:>7.2}  {:>7}  {:>7}  {:>6}  {}\n",
            r.graph,
            p.seed,
            r.max_fans,
            r.scrape_day,
            p.spearman_v10,
            p.cv_accuracy,
            if one_class(r) { "*" } else { " " },
            r.training_stories,
            r.interesting_share,
            p.cascade_half_at_10,
            r.friends_share,
            r.fp_above_1500,
            p.holdout_stories,
            fmt_opt(p.digg_precision, |x| format!("{x:.2}")),
            fmt_opt(p.classifier_precision, |x| format!("{x:.2}")),
            fmt_opt(p.classifier_beats_digg, |b| b.to_string()),
        ));
    }
    for v in GraphVariant::ALL {
        let of = |f: &dyn Fn(&NetworkRow) -> f64| {
            mean_sd(rows.iter().filter(|r| r.graph == v.name()).map(f)).0
        };
        out.push_str(&format!(
            "  mean {:<8} max fans {:>5.0}  spearman {:>6.3}  cascade@10 {:.2}  Friends {:.3}  fp>1500 {:.2}\n",
            v.name(),
            of(&|r| r.max_fans as f64),
            of(&|r| r.pipeline.spearman_v10),
            of(&|r| r.pipeline.cascade_half_at_10),
            of(&|r| r.friends_share),
            of(&|r| r.fp_above_1500),
        ));
    }
    if rows.iter().any(one_class) {
        out.push_str(
            "  * every training story has the same label, so CV accuracy is trivially 1.000, not skill\n",
        );
    }
    out
}
