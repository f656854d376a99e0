//! §5.2 — predicting interestingness on the upcoming-queue holdout.
//!
//! Paper: of 900 upcoming stories, keep those submitted by top users
//! (rank ≤ 100) with at least 10 votes — 48 stories. The classifier
//! scores TP=4 TN=32 FP=11 FN=1. On the 14 stories Digg promoted, only
//! 5 proved interesting (P = 0.36); of the classifier's 7 positives
//! among them, 4 proved interesting (P = 0.57).

use crate::pipeline::{run_pipeline, PipelineConfig, PipelineResult};
use digg_data::synth::Synthesis;
use serde::{Deserialize, Serialize};

/// The experiment's result: the pipeline output plus paper targets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionResult {
    /// Full pipeline output.
    pub pipeline: PipelineResult,
}

impl PredictionResult {
    /// Did the classifier beat the promoter on precision over the
    /// promoted subset (the paper's headline comparison)?
    pub fn classifier_beats_digg(&self) -> Option<bool> {
        Some(self.pipeline.classifier_precision()? > self.pipeline.digg_precision()?)
    }

    /// Render the §5.2 table.
    pub fn render(&self) -> String {
        let p = &self.pipeline;
        format!(
            "Prediction (paper 5.2)\n  training stories: {} (paper 207)\n  10-fold CV: {}/{} correct (paper 174/207)\n  holdout stories: {} (paper 48)\n  holdout: {} (paper TP=4 TN=32 FP=11 FN=1)\n  promoted by platform: {} of which interesting {} -> precision {} (paper 14, 5, 0.36)\n  classifier positives on promoted: {} of which interesting {} -> precision {} (paper 7, 4, 0.57)\n  tree:\n{}",
            p.training_stories,
            p.cv_correct,
            p.cv_correct + p.cv_errors,
            p.holdout_stories,
            p.holdout,
            p.digg_promoted,
            p.digg_promoted_interesting,
            p.digg_precision()
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            p.classifier_positive_on_promoted,
            p.classifier_correct_on_promoted,
            p.classifier_precision()
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            p.tree_text
                .lines()
                .map(|l| format!("    {l}\n"))
                .collect::<String>(),
        )
    }
}

/// Run §5.2 over a synthesis, taking "the platform promoted it" from
/// simulator ground truth (the paper observed it from Digg's front
/// page in its Feb-2008 pass).
pub fn run(synthesis: &Synthesis, cfg: &PipelineConfig) -> Option<PredictionResult> {
    let sim = &synthesis.sim;
    let pipeline = run_pipeline(&synthesis.dataset, cfg, &|record| {
        sim.story(record.story).is_front_page()
    })?;
    Some(PredictionResult { pipeline })
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::scrape::ScrapeConfig;
    use digg_data::synth::{synthesize_with, SynthConfig};
    use digg_sim::population::{Population, PopulationConfig};
    use digg_sim::time::DAY;
    use digg_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_synthesis() -> Synthesis {
        let cfg = SynthConfig {
            seed: 9,
            scrape: ScrapeConfig {
                front_page_stories: 40,
                upcoming_stories: 120,
                top_users: 150,
                network_cutoff: 1000,
                network_scraped: 1600,
                ..ScrapeConfig::default()
            },
            min_promotions: 20,
            min_scrape_days: 0,
            saturation_days: 1,
            max_minutes: 3 * DAY,
        };
        let sim_cfg = SimConfig::toy(9);
        let mut rng = StdRng::seed_from_u64(9);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(sim_cfg.users));
        synthesize_with(&cfg, sim_cfg, pop)
    }

    #[test]
    fn prediction_runs_on_toy_synthesis() {
        let s = toy_synthesis();
        // The toy platform promotes at 10 votes and almost everything
        // is "interesting" by vote count quickly; loosen the pipeline
        // filters so a holdout exists.
        let cfg = PipelineConfig {
            threshold: 30,
            top_user_rank: 150,
            min_votes: 3,
            cv_folds: 5,
            ..PipelineConfig::default()
        };
        let Some(result) = run(&s, &cfg) else {
            // Small toy runs may legitimately produce no holdout; the
            // full-scale integration test covers the real path.
            return;
        };
        let p = &result.pipeline;
        assert!(p.training_stories > 0);
        assert_eq!(
            p.holdout.total(),
            p.holdout_stories,
            "confusion matrix accounts for every holdout story"
        );
        assert!(p.digg_promoted <= p.holdout_stories);
        assert!(p.classifier_positive_on_promoted <= p.digg_promoted);
        assert!(result.render().contains("Prediction"));
    }
}
