//! Ablation experiments (DESIGN.md ABL1–ABL4).
//!
//! * [`feature_ablation`] — which early features carry the signal
//!   (v10 alone vs fans1 alone vs both vs extended vs a Digg-style
//!   vote-count feature).
//! * [`window_sweep`] — prediction accuracy as the observation window
//!   grows (the paper's claim that 6–10 votes already suffice while
//!   Digg waits for ~40).
//! * [`promotion_ablation`] — pre- vs post-Sept-2006 promoter (raw
//!   threshold vs diversity-weighted) and its effect on front-page
//!   composition.
//! * [`epidemics_ablation`] — the future-work §6 program: epidemic
//!   thresholds on ER vs scale-free graphs; cascade invasion delay on
//!   modular graphs.
//! * [`observation_ablation`] — scrape fidelity: how robust are the
//!   Fig. 4 correlation and the classifier when the analysis network
//!   is only partially observed (missed fan-list pages)?

use digg_core::features::has_enough_votes;
use digg_core::IncrementalSweep;
use digg_data::DiggDataset;
use digg_ml::c45::C45Params;
use digg_ml::crossval::cross_validate;
use digg_ml::data::{Instance, MlDataset};
use digg_sim::scenario;
use digg_sim::time::DAY;
use digg_sim::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

// ------------------------------------------------------------- ABL1

/// One feature-set's cross-validated accuracy.
#[derive(Debug, Clone, Serialize)]
pub struct FeatureRow {
    /// Feature-set label.
    pub features: String,
    /// Stories used.
    pub stories: usize,
    /// 10-fold CV accuracy.
    pub cv_accuracy: f64,
}

/// ABL1: train on the front-page sample with different feature sets.
pub fn feature_ablation(ds: &DiggDataset, threshold: u32, seed: u64) -> Vec<FeatureRow> {
    let g = &ds.network;
    let mut sweep = IncrementalSweep::new(g);
    // Collect per-story raw features once.
    struct Raw {
        v6: f64,
        v10: f64,
        v20: f64,
        fans1: f64,
        scraped: f64,
        label: bool,
    }
    let raws: Vec<Raw> = ds
        .front_page
        .iter()
        .filter(|r| has_enough_votes(&r.voters, 10))
        .filter_map(|r| {
            let label = r.is_interesting(threshold)?;
            let s = sweep.sweep_story(g, &r.voters);
            Some(Raw {
                v6: s.in_network_count_within(6) as f64,
                v10: s.in_network_count_within(10) as f64,
                v20: s.in_network_count_within(20) as f64,
                fans1: g.fan_count(r.submitter) as f64,
                scraped: r.voters.len() as f64,
                label,
            })
        })
        .collect();
    type Extractor = Box<dyn Fn(&Raw) -> Vec<f64>>;
    let sets: Vec<(&str, Extractor, Vec<&str>)> = vec![
        ("v10 only", Box::new(|r: &Raw| vec![r.v10]), vec!["v10"]),
        (
            "fans1 only",
            Box::new(|r: &Raw| vec![r.fans1]),
            vec!["fans1"],
        ),
        (
            "v10 + fans1 (paper)",
            Box::new(|r: &Raw| vec![r.v10, r.fans1]),
            vec!["v10", "fans1"],
        ),
        (
            "v6 + v10 + v20 + fans1",
            Box::new(|r: &Raw| vec![r.v6, r.v10, r.v20, r.fans1]),
            vec!["v6", "v10", "v20", "fans1"],
        ),
        (
            "scraped vote count (Digg-style)",
            Box::new(|r: &Raw| vec![r.scraped]),
            vec!["votes"],
        ),
    ];
    let mut rows: Vec<FeatureRow> = sets
        .into_iter()
        .map(|(name, extract, attrs)| {
            let mut ml = MlDataset::new(attrs);
            for r in &raws {
                ml.push(Instance::new(extract(r), r.label));
            }
            let cv = cross_validate(&ml, &C45Params::default(), 10.min(ml.len()).max(2), seed);
            FeatureRow {
                features: name.to_string(),
                stories: ml.len(),
                cv_accuracy: cv.accuracy(),
            }
        })
        .collect();
    // Model baseline: Gaussian naive Bayes on the paper's features —
    // does the tree's interaction structure earn its keep over an
    // independence assumption?
    let mut ml = MlDataset::new(vec!["v10", "fans1"]);
    for r in &raws {
        ml.push(Instance::new(vec![r.v10, r.fans1], r.label));
    }
    rows.push(FeatureRow {
        features: "gaussian NB over v10 + fans1".to_string(),
        stories: ml.len(),
        cv_accuracy: nb_cv_accuracy(&ml, 10.min(ml.len()).max(2), seed),
    });
    rows.push(FeatureRow {
        features: "bagged C4.5 (25 trees) over v10 + fans1".to_string(),
        stories: ml.len(),
        cv_accuracy: bagging_cv_accuracy(&ml, 10.min(ml.len()).max(2), seed),
    });
    rows
}

/// Stratified-CV accuracy of a 25-tree bagged ensemble.
fn bagging_cv_accuracy(ml: &MlDataset, k: usize, seed: u64) -> f64 {
    use digg_ml::baselines::Classifier;
    use digg_ml::crossval::stratified_folds;
    use digg_ml::ensemble::BaggedTrees;
    use digg_ml::ConfusionMatrix;
    let fold = stratified_folds(ml, k, seed);
    let mut pooled = ConfusionMatrix::default();
    for f in 0..k {
        let train_idx: Vec<usize> = (0..ml.len()).filter(|i| fold[*i] != f).collect();
        let test_idx: Vec<usize> = (0..ml.len()).filter(|i| fold[*i] == f).collect();
        if test_idx.is_empty() || train_idx.is_empty() {
            continue;
        }
        let bag = BaggedTrees::train(
            &ml.subset(&train_idx),
            &C45Params::default(),
            25,
            seed ^ f as u64,
        );
        pooled.merge(&bag.evaluate(&ml.subset(&test_idx)));
    }
    pooled.accuracy()
}

/// Stratified-CV accuracy of Gaussian naive Bayes (folds shared with
/// the C4.5 runs via the same seed). Folds where either class is
/// absent from training fall back to the majority class.
fn nb_cv_accuracy(ml: &MlDataset, k: usize, seed: u64) -> f64 {
    use digg_ml::baselines::{Classifier, GaussianNb, MajorityClass};
    use digg_ml::crossval::stratified_folds;
    use digg_ml::ConfusionMatrix;
    let fold = stratified_folds(ml, k, seed);
    let mut pooled = ConfusionMatrix::default();
    for f in 0..k {
        let train_idx: Vec<usize> = (0..ml.len()).filter(|i| fold[*i] != f).collect();
        let test_idx: Vec<usize> = (0..ml.len()).filter(|i| fold[*i] == f).collect();
        if test_idx.is_empty() || train_idx.is_empty() {
            continue;
        }
        let train = ml.subset(&train_idx);
        let test = ml.subset(&test_idx);
        let cm = match GaussianNb::fit(&train) {
            Some(nb) => nb.evaluate(&test),
            None => MajorityClass::fit(&train).evaluate(&test),
        };
        pooled.merge(&cm);
    }
    pooled.accuracy()
}

/// Render ABL1.
pub fn render_feature_ablation(rows: &[FeatureRow]) -> String {
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
pub struct WindowRow {
    /// Votes observed before predicting.
    pub window: usize,
    /// Qualifying stories.
    pub stories: usize,
    /// CV accuracy using (v_window, fans1).
    pub cv_accuracy: f64,
}

/// ABL3: how early is the signal available? Paper: 6–10 votes; Digg
/// itself waits for roughly 40.
pub fn window_sweep(ds: &DiggDataset, threshold: u32, seed: u64) -> Vec<WindowRow> {
    let g = &ds.network;
    let mut sweep = IncrementalSweep::new(g);
    [2usize, 4, 6, 10, 20, 30, 40]
        .iter()
        .map(|&w| {
            let mut ml = MlDataset::new(vec!["v_w", "fans1"]);
            for r in &ds.front_page {
                if !has_enough_votes(&r.voters, w) {
                    continue;
                }
                let Some(label) = r.is_interesting(threshold) else {
                    continue;
                };
                ml.push(Instance::new(
                    vec![
                        sweep.sweep_story(g, &r.voters).in_network_count_within(w) as f64,
                        g.fan_count(r.submitter) as f64,
                    ],
                    label,
                ));
            }
            let acc = if ml.len() >= 4 {
                cross_validate(&ml, &C45Params::default(), 10.min(ml.len()).max(2), seed).accuracy()
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
pub fn render_window_sweep(rows: &[WindowRow]) -> String {
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
pub struct PromoterRow {
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
pub fn promotion_ablation(seed: u64, days: u64) -> Vec<PromoterRow> {
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
            let top100: std::collections::HashSet<_> = ranking.into_iter().take(100).collect();
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
pub fn render_promotion_ablation(rows: &[PromoterRow]) -> String {
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

// ------------------------------------------------------------- ABL5

/// One partial-observation level.
#[derive(Debug, Clone, Serialize)]
pub struct ObservationRow {
    /// Fraction of watch edges visible to the analysis.
    pub edge_fraction: f64,
    /// Spearman correlation between v10 (computed on the partial
    /// network) and final votes.
    pub spearman_v10: f64,
    /// 10-fold CV accuracy of the (v10, fans1) tree on the partial
    /// network.
    pub cv_accuracy: f64,
}

/// ABL5: recompute the headline analyses against increasingly
/// incomplete networks. The paper's network was itself a partial
/// observation (crawled fan lists); this quantifies how much fidelity
/// the conclusions actually need.
pub fn observation_ablation(ds: &DiggDataset, threshold: u32, seed: u64) -> Vec<ObservationRow> {
    use digg_core::features::build_training_set;
    use digg_stats::correlation::spearman;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB15);
    [1.0f64, 0.8, 0.6, 0.4, 0.2]
        .iter()
        .map(|&p| {
            let net = social_graph::sampling::subsample_edges(&mut rng, &ds.network, p);
            // Fig. 4 correlation under the partial network.
            let mut sweep = IncrementalSweep::new(&net);
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for r in &ds.front_page {
                if !has_enough_votes(&r.voters, 10) {
                    continue;
                }
                let Some(fin) = r.final_votes else { continue };
                xs.push(
                    sweep
                        .sweep_story(&net, &r.voters)
                        .in_network_count_within(10) as f64,
                );
                ys.push(f64::from(fin));
            }
            let rho = spearman(&xs, &ys).unwrap_or(f64::NAN);
            // Classifier under the partial network.
            let (ml, kept) = build_training_set(&ds.front_page, &net, threshold);
            let acc = if kept.len() >= 10 {
                cross_validate(&ml, &C45Params::default(), 10, seed).accuracy()
            } else {
                f64::NAN
            };
            ObservationRow {
                edge_fraction: p,
                spearman_v10: rho,
                cv_accuracy: acc,
            }
        })
        .collect()
}

/// Render ABL5.
pub fn render_observation_ablation(rows: &[ObservationRow]) -> String {
    let mut out = String::from(
        "ABL5: scrape fidelity (analyses recomputed on partially observed networks)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:>3.0}% of edges observed: spearman(v10, final) {:>6.3}   CV accuracy {:.3}\n",
            r.edge_fraction * 100.0,
            r.spearman_v10,
            r.cv_accuracy
        ));
    }
    out
}

// ------------------------------------------------------------- ABL4

/// Epidemic-threshold comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct EpidemicsRow {
    /// Substrate name.
    pub graph: String,
    /// Mean-field threshold `<k>/<k^2>`.
    pub mean_field: f64,
    /// Smallest swept beta with majority outbreaks.
    pub empirical: Option<f64>,
}

/// ABL4a: epidemic thresholds on ER vs scale-free graphs of equal
/// mean degree.
pub fn epidemics_ablation(seed: u64, n: usize) -> Vec<EpidemicsRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = 3usize;
    let graphs = vec![
        (
            "erdos-renyi <k>=6".to_string(),
            social_graph::generators::erdos_renyi(&mut rng, n, 2.0 * m as f64 / n as f64),
        ),
        (
            "preferential attachment m=3".to_string(),
            social_graph::generators::preferential_attachment(&mut rng, n, m, 1.0),
        ),
    ];
    let betas = [0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.24];
    graphs
        .into_iter()
        .map(|(name, g)| {
            let mf = digg_epidemics::threshold::mean_field_threshold(&g).unwrap_or(f64::NAN);
            let pts = digg_epidemics::threshold::sweep(&mut rng, &g, &betas, 1.0, 40, 0.05);
            EpidemicsRow {
                graph: name,
                mean_field: mf,
                empirical: digg_epidemics::threshold::empirical_threshold(&pts, 0.01),
            }
        })
        .collect()
}

/// ABL4b: cascade invasion delay on a modular graph.
#[derive(Debug, Clone, Serialize)]
pub struct ModularCascadeRow {
    /// Activation threshold phi.
    pub phi: f64,
    /// Home-community saturation.
    pub home_saturation: f64,
    /// Step the cascade first entered the second community (`None`
    /// = contained).
    pub invasion_step: Option<u32>,
}

/// ABL4b: sweep the activation threshold on a two-community graph.
pub fn modular_cascade_ablation(seed: u64, n: usize) -> Vec<ModularCascadeRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = social_graph::generators::modular(&mut rng, n, 2, 0.2, 0.01);
    let blocks = digg_epidemics::cascade_model::block_members(n, 2);
    [0.05f64, 0.1, 0.15, 0.2, 0.3, 0.4]
        .iter()
        .map(|&phi| {
            let seeds = &blocks[0][..(n / 20).max(1)];
            let out = digg_epidemics::cascade_model::run(&g, seeds, phi, 500);
            ModularCascadeRow {
                phi,
                home_saturation: out.saturation(&blocks[0]),
                invasion_step: out.invasion_time(&blocks[1]),
            }
        })
        .collect()
}

/// Render ABL4.
pub fn render_epidemics(thresholds: &[EpidemicsRow], cascades: &[ModularCascadeRow]) -> String {
    let mut out = String::from(
        "ABL4: network structure and spreading (paper section 6 future work)\n  epidemic thresholds (SIR, gamma=1):\n",
    );
    for r in thresholds {
        out.push_str(&format!(
            "    {:<30} mean-field {:.4}  empirical {}\n",
            r.graph,
            r.mean_field,
            r.empirical
                .map(|b| format!("{b:.3}"))
                .unwrap_or_else(|| ">0.24".into()),
        ));
    }
    out.push_str("  threshold cascades on a 2-community modular graph:\n");
    for r in cascades {
        out.push_str(&format!(
            "    phi {:.2}: home saturation {:.2}, second community invaded at {}\n",
            r.phi,
            r.home_saturation,
            r.invasion_step
                .map(|t| format!("step {t}"))
                .unwrap_or_else(|| "never".into()),
        ));
    }
    out
}
