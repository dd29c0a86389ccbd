//! Criterion benchmarks of each pipeline stage, measured on the small test
//! world. Every stage maps to a step of the paper's methodology:
//! dataset construction (§III, Table I), graph construction (§IV-A),
//! refinement (§IV-B), detection (§IV-C/D, Fig. 2), characterization (§V,
//! Table II / Figs. 3–7) and profitability (§VI, Table III).
//!
//! Besides timing each step in isolation, `bench_staged_pipeline` runs the
//! staged driver end to end and prints the per-stage `StageMetrics` wall
//! times the pipeline records about itself.

use criterion::{criterion_group, criterion_main, Criterion};
use washtrade::{
    characterize::characterize,
    dataset::Dataset,
    detect::Detector,
    parallel::Executor,
    pipeline::{analyze_with, AnalysisInput, AnalysisOptions},
    profit::{analyze_resales, analyze_rewards},
    refine::Refiner,
    report,
    txgraph::NftGraph,
};

fn bench_pipeline_stages(c: &mut Criterion) {
    let world = bench_suite::build_small_world(1);
    let mut group = c.benchmark_group("pipeline_stages");
    let serial = Executor::new(1);
    let all_cores = Executor::default();

    group.bench_function("table1_dataset_build", |b| {
        b.iter(|| Dataset::build(&world.chain, &world.directory, &serial))
    });

    let dataset = Dataset::build(&world.chain, &world.directory, &serial);
    group.bench_function("sec4a_graph_construction", |b| {
        b.iter(|| NftGraph::from_dataset(&dataset, &all_cores))
    });

    // The graph table is NftKey-indexed: no keyed map is needed anywhere.
    let graphs = NftGraph::from_dataset(&dataset, &all_cores);
    group.bench_function("sec4b_refinement", |b| {
        b.iter(|| {
            Refiner::new(&world.chain, &world.labels, &dataset.interner).refine(&graphs, &all_cores)
        })
    });

    let (candidates, _) =
        Refiner::new(&world.chain, &world.labels, &dataset.interner).refine(&graphs, &all_cores);
    group.bench_function("fig2_detection", |b| {
        b.iter(|| {
            Detector::new(&world.chain, &world.labels, &dataset.interner).detect(
                &candidates,
                &graphs,
                &all_cores,
            )
        })
    });

    let detection = Detector::new(&world.chain, &world.labels, &dataset.interner).detect(
        &candidates,
        &graphs,
        &all_cores,
    );
    group.bench_function("table2_fig3to7_characterization", |b| {
        b.iter(|| {
            let table1 = dataset.marketplace_volumes(&world.directory, &world.oracle, &serial);
            characterize(
                &detection.confirmed,
                &dataset,
                &table1,
                &world.directory,
                &world.oracle,
                &serial,
            )
        })
    });

    group.bench_function("table3_reward_profitability", |b| {
        b.iter(|| {
            analyze_rewards(
                &detection.confirmed,
                &world.chain,
                &world.directory,
                &world.oracle,
                &dataset.interner,
                &serial,
            )
        })
    });

    group.bench_function("sec6b_resale_profitability", |b| {
        b.iter(|| {
            analyze_resales(
                &detection.confirmed,
                &world.chain,
                &world.directory,
                &world.oracle,
                &graphs,
                &dataset.interner,
                &serial,
            )
        })
    });

    group.finish();
}

/// The staged driver end to end, at one thread and at all cores, followed by
/// the per-stage `StageMetrics` breakdown of a representative run.
fn bench_staged_pipeline(c: &mut Criterion) {
    let world = bench_suite::build_small_world(1);
    let input = AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    };
    let mut group = c.benchmark_group("staged_pipeline");
    group.bench_function("end_to_end_1_thread", |b| {
        b.iter(|| analyze_with(input, AnalysisOptions::single_threaded()))
    });
    group.bench_function("end_to_end_all_cores", |b| {
        b.iter(|| analyze_with(input, AnalysisOptions::default()))
    });
    group.finish();

    let report = analyze_with(input, AnalysisOptions::default());
    println!("{}", report::render_stage_metrics(&report.stage_metrics));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline_stages, bench_staged_pipeline
}
criterion_main!(benches);
