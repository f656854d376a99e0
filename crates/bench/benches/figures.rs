//! Criterion benches timing the analysis that regenerates each paper
//! figure. The expensive June-2006 synthesis happens once per process
//! (`shared_synthesis`); what is timed here is the figure analysis
//! itself, i.e. the cost a user pays to re-derive a figure from an
//! existing dataset.
//!
//! The printed figure artifacts themselves come from
//! `experiments <name>`; see DESIGN.md §4.

use criterion::{criterion_group, criterion_main, Criterion};
use digg_bench::shared_synthesis;
use digg_core::experiments::{decay, fig1, fig2, fig3, fig4, fig5, prediction, scatter};
use digg_core::pipeline::PipelineConfig;
use digg_ml::c45::C45Params;
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let synthesis = shared_synthesis();
    let ds = &synthesis.dataset;

    c.bench_function("fig1_vote_timeseries", |b| {
        b.iter(|| black_box(fig1::run(&synthesis.sim, &fig1::Fig1Params::default())))
    });

    c.bench_function("fig2a_vote_histogram", |b| {
        b.iter(|| black_box(fig2::run_a(ds, 16, 4000.0)))
    });

    c.bench_function("fig2b_activity_histogram", |b| {
        b.iter(|| black_box(fig2::run_b(ds)))
    });

    c.bench_function("fig3a_influence", |b| b.iter(|| black_box(fig3::run_a(ds))));

    c.bench_function("fig3b_cascades", |b| b.iter(|| black_box(fig3::run_b(ds))));

    c.bench_function("fig4_innetwork_vs_final", |b| {
        b.iter(|| black_box(fig4::run(ds)))
    });

    c.bench_function("fig5_tree_training_cv", |b| {
        b.iter(|| black_box(fig5::run(ds, &C45Params::default(), 0x1e12)))
    });

    c.bench_function("prediction_holdout", |b| {
        b.iter(|| black_box(prediction::run(synthesis, &PipelineConfig::default())))
    });

    c.bench_function("user_scatter", |b| {
        b.iter(|| black_box(scatter::run(ds, 100)))
    });

    c.bench_function("decay_wu_huberman", |b| {
        b.iter(|| black_box(decay::run(&synthesis.sim, 2 * digg_sim::time::DAY, 72)))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_figures
}
criterion_main!(figures);
