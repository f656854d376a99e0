//! Seed-robustness sweep: run the full pipeline across several seeds
//! and report the headline metrics' spread, demonstrating that the
//! reproduction is not a single lucky draw.
//!
//! Usage: `robustness [n_seeds]` (default 4, the seed band behind the
//! committed `results/robustness.{txt,json}`; each seed costs one full
//! june2006 synthesis plus its analyses, ~5 s in a release build).

use digg_core::experiments::{fig3, fig4, fig5, prediction};
use digg_core::pipeline::PipelineConfig;
use digg_data::synth::{synthesize, SynthConfig};
use digg_ml::c45::C45Params;
use digg_stats::descriptive::{mean, std_dev};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct SeedRow {
    seed: u64,
    spearman_v10: f64,
    cv_accuracy: f64,
    cascade_half_at_10: f64,
    holdout_stories: usize,
    digg_precision: Option<f64>,
    classifier_precision: Option<f64>,
    classifier_beats_digg: Option<bool>,
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let mut rows: Vec<SeedRow> = Vec::new();
    for seed in 0..n {
        let seed = 2006 + seed * 101;
        eprintln!("[robustness] seed {seed}…");
        let synthesis = synthesize(&SynthConfig::june2006(seed));
        let ds = &synthesis.dataset;
        let f4 = fig4::run_panel(ds, 10);
        let f3 = fig3::run_b(ds);
        let f5 = fig5::run(ds, &C45Params::default(), 0x1e12);
        let pred = prediction::run(&synthesis, &PipelineConfig::default());
        rows.push(SeedRow {
            seed,
            spearman_v10: f4.spearman.unwrap_or(f64::NAN),
            cv_accuracy: f5.as_ref().map(|r| r.cv_accuracy()).unwrap_or(f64::NAN),
            cascade_half_at_10: f3.half_in_network_at_10,
            holdout_stories: pred
                .as_ref()
                .map(|p| p.pipeline.holdout_stories)
                .unwrap_or(0),
            digg_precision: pred.as_ref().and_then(|p| p.pipeline.digg_precision()),
            classifier_precision: pred
                .as_ref()
                .and_then(|p| p.pipeline.classifier_precision()),
            classifier_beats_digg: pred.as_ref().and_then(|p| p.classifier_beats_digg()),
        });
    }

    let mut out = String::from(
        "Seed robustness (paper targets: spearman<0, CV 0.841, cascade 0.30, clf>digg)\n",
    );
    out.push_str("  seed   spearman  CV-acc  cascade@10  holdout  P(digg)  P(clf)  clf wins\n");
    for r in &rows {
        out.push_str(&format!(
            "  {:<6} {:>8.3}  {:>6.3}  {:>10.2}  {:>7}  {:>7}  {:>6}  {}\n",
            r.seed,
            r.spearman_v10,
            r.cv_accuracy,
            r.cascade_half_at_10,
            r.holdout_stories,
            r.digg_precision
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.classifier_precision
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.classifier_beats_digg
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".into()),
        ));
    }
    let col = |f: &dyn Fn(&SeedRow) -> f64| -> (f64, f64) {
        let xs: Vec<f64> = rows.iter().map(f).filter(|x| x.is_finite()).collect();
        (
            mean(&xs).unwrap_or(f64::NAN),
            std_dev(&xs).unwrap_or(f64::NAN),
        )
    };
    let (ms, ss) = col(&|r| r.spearman_v10);
    let (mc, sc) = col(&|r| r.cv_accuracy);
    let (mh, sh) = col(&|r| r.cascade_half_at_10);
    out.push_str(&format!(
        "  mean±sd: spearman {ms:.3}±{ss:.3}  CV {mc:.3}±{sc:.3}  cascade@10 {mh:.2}±{sh:.2}\n"
    ));
    digg_bench::emit("robustness", &out, &rows);
}
