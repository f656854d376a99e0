//! Criterion benches over the ablation kernels: the diversity
//! promoter's weighted-vote computation (the expensive part of the
//! post-Sept-2006 rule) and the feature-ablation and window-sweep CVs.
//! The full ablation tables come from the `ablations` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use digg_bench::ablations::{feature_ablation, window_sweep};
use digg_bench::shared_synthesis;
use digg_core::features::INTERESTINGNESS_THRESHOLD;
use digg_sim::promotion::DiversityPromoter;
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let synthesis = shared_synthesis();
    let ds = &synthesis.dataset;

    c.bench_function("abl1_feature_ablation", |b| {
        b.iter(|| black_box(feature_ablation(ds, INTERESTINGNESS_THRESHOLD, 1)))
    });

    c.bench_function("abl3_window_sweep", |b| {
        b.iter(|| black_box(window_sweep(ds, INTERESTINGNESS_THRESHOLD, 1)))
    });

    // ABL2 kernel: the diversity promoter's weighted vote sum over a
    // 43-vote story (quadratic in votes; runs on every queue vote).
    let story = synthesis
        .sim
        .stories()
        .iter()
        .find(|s| s.vote_count() >= 43)
        .expect("some story has 43 votes");
    let rule = DiversityPromoter {
        min_weighted: 43.0,
        in_network_weight: 0.4,
    };
    let graph = &synthesis.sim.population().graph;
    c.bench_function("abl2_diversity_weighted_votes", |b| {
        b.iter(|| black_box(rule.weighted_votes(story, graph)))
    });
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_ablations
}
criterion_main!(ablations);
