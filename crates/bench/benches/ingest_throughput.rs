//! Ingest-throughput scale sweep: the three-phase (parallel decode →
//! serial reconcile → parallel splice) dataset build, measured over world
//! size × thread count.
//!
//! Every sweep point is verified: the built dataset must be bit-identical to
//! the per-log reference ([`Dataset::apply_entries`] over every transfer log
//! of the chain), and the end-to-end `AnalysisReport` must render
//! byte-identically at every thread count before any timing is recorded.
//!
//! The measured pass merges an `ingest` section into `BENCH_results.json`:
//!
//! ```json
//! "ingest": {
//!   "host_threads": …, "thread_counts": [1, 2, 4, 8],
//!   "worlds": [ { "scale": …, "transfers": …, "blocks": …,
//!                 "report_identical_across_threads": true,
//!                 "runs": [ { "threads": …, "wall_ns": …, "decode_ns": …,
//!                             "commit_ns": …, "reconcile_ns": …,
//!                             "shards": …, "transfers_per_sec": … }, … ],
//!                 "commit_scaling": [ { "threads": …, "commit_ns": …,
//!                                       "speedup_vs_serial_commit": …,
//!                                       "efficiency": … }, … ] }, … ],
//!   "scaling_efficiency": …
//! }
//! ```
//!
//! `commit_scaling` is the commit-phase thread-scaling curve: at each thread
//! count, the commit's speedup over the same world's single-thread (fully
//! serial) commit, and that speedup divided by the thread count
//! (`efficiency`, 1.0 = perfect scaling). The section-level
//! `scaling_efficiency` is the large world's efficiency at 8 threads — the
//! headline number for how well the parallel commit saturates cores.

use std::time::Instant;

use bench_suite::input_of;
use bench_suite::json::Json;
use bench_suite::results::{merge_section, results_path};
use criterion::{criterion_group, Criterion};
use ethsim::BlockNumber;
use washtrade::dataset::Dataset;
use washtrade::ingest::IngestMetrics;
use washtrade::parallel::Executor;
use washtrade::pipeline::{analyze_with, AnalysisOptions};
use washtrade::report::render_deterministic;
use workload::WorldScale;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Criterion timings on the small sweep world: the sharded path at one and
/// at eight threads.
fn bench_ingest_throughput(c: &mut Criterion) {
    let world = bench_suite::build_sized_world(WorldScale::Small);

    let mut group = c.benchmark_group("ingest_throughput");
    group.bench_function("three_phase_1_thread", |b| {
        let executor = Executor::new(1);
        b.iter(|| Dataset::build(&world.chain, &world.directory, &executor).transfer_count())
    });
    group.bench_function("three_phase_8_threads", |b| {
        let executor = Executor::new(8);
        b.iter(|| Dataset::build(&world.chain, &world.directory, &executor).transfer_count())
    });
    group.finish();
}

/// Best-of-three instrumented build, so one scheduler hiccup cannot distort
/// the recorded trajectory.
fn measure_build(world: &workload::World, executor: &Executor) -> (u64, IngestMetrics, Dataset) {
    let mut best: Option<(u64, IngestMetrics, Dataset)> = None;
    for _ in 0..3 {
        let started = Instant::now();
        let mut dataset = Dataset::default();
        let (_, metrics) = dataset.ingest_blocks(
            &world.chain,
            &world.directory,
            BlockNumber(0),
            world.chain.current_block_number(),
            executor,
        );
        let wall_ns = started.elapsed().as_nanos() as u64;
        if best.as_ref().is_none_or(|(fastest, _, _)| wall_ns < *fastest) {
            best = Some((wall_ns, metrics, dataset));
        }
    }
    best.expect("three runs happened")
}

/// The per-log reference dataset: every transfer log of the chain applied
/// to an empty dataset through [`Dataset::apply_entries`].
fn per_log_reference(world: &workload::World) -> Dataset {
    let mut dataset = Dataset::default();
    dataset.apply_entries(
        &world.chain,
        &world.directory,
        &world.chain.logs(&Dataset::transfer_filter()),
    );
    dataset
}

/// The sweep: world size × thread count, every point equality-checked,
/// recorded into the `ingest` section of `BENCH_results.json`.
fn record_results() {
    let mut worlds = Vec::new();
    let mut scaling_headline: Option<f64> = None;

    for scale in WorldScale::ALL {
        let world = bench_suite::build_sized_world(scale);
        let input = input_of(&world);
        let blocks = world.chain.current_block_number().0 + 1;

        let reference = per_log_reference(&world);

        // End-to-end determinism gate: the full report must render
        // byte-identically at every swept thread count.
        let baseline_report = render_deterministic(&analyze_with(
            input,
            AnalysisOptions { threads: 1, collect_metrics: false },
        ));

        let mut runs = Vec::new();
        // (threads, commit_ns) per run, for the commit-phase scaling curve.
        let mut commit_points: Vec<(usize, u64)> = Vec::new();
        for threads in THREAD_COUNTS {
            let executor = Executor::new(threads);
            let (wall_ns, metrics, dataset) = measure_build(&world, &executor);
            assert_eq!(
                dataset,
                reference,
                "{} at {threads} threads: sharded ingest diverged from the per-log reference",
                scale.label()
            );
            let report = render_deterministic(&analyze_with(
                input,
                AnalysisOptions { threads, collect_metrics: false },
            ));
            assert_eq!(
                report,
                baseline_report,
                "{} at {threads} threads: end-to-end report is not byte-identical",
                scale.label()
            );

            let mut run = Json::object();
            run.set("threads", Json::Int(threads as i64));
            run.set("wall_ns", Json::Int(wall_ns as i64));
            run.set("decode_ns", Json::Int(metrics.decode_ns as i64));
            run.set("commit_ns", Json::Int(metrics.commit_ns as i64));
            run.set("reconcile_ns", Json::Int(metrics.reconcile_ns as i64));
            run.set("shards", Json::Int(metrics.shards as i64));
            commit_points.push((threads, metrics.commit_ns));
            run.set(
                "transfers_per_sec",
                Json::Float(metrics.appended as f64 / (wall_ns.max(1) as f64 / 1e9)),
            );
            runs.push(run);
        }

        // Commit-phase thread-scaling curve: speedup of each run's commit
        // over this world's single-thread (fully serial) commit, and the
        // per-thread efficiency of that speedup.
        let serial_commit_ns =
            commit_points.iter().find(|(threads, _)| *threads == 1).map(|(_, ns)| *ns).unwrap_or(0);
        let mut commit_scaling = Vec::new();
        for &(threads, commit_ns) in &commit_points {
            let speedup = serial_commit_ns as f64 / commit_ns.max(1) as f64;
            let efficiency = speedup / threads as f64;
            if scale == WorldScale::Large && threads == 8 {
                scaling_headline = Some(efficiency);
            }
            let mut point = Json::object();
            point.set("threads", Json::Int(threads as i64));
            point.set("commit_ns", Json::Int(commit_ns as i64));
            point.set("speedup_vs_serial_commit", Json::Float(speedup));
            point.set("efficiency", Json::Float(efficiency));
            commit_scaling.push(point);
        }

        let mut entry = Json::object();
        entry.set("scale", Json::Str(scale.label().to_string()));
        entry.set("transfers", Json::Int(reference.transfer_count() as i64));
        entry.set("raw_events", Json::Int(reference.raw_transfer_events as i64));
        entry.set("blocks", Json::Int(blocks as i64));
        entry.set("report_identical_across_threads", Json::Bool(true));
        entry.set("runs", Json::Arr(runs));
        entry.set("commit_scaling", Json::Arr(commit_scaling));
        worlds.push(entry);
        println!(
            "ingest sweep {}: {} transfers verified identical across threads {:?}",
            scale.label(),
            reference.transfer_count(),
            THREAD_COUNTS
        );
    }

    let mut section = Json::object();
    section.set(
        "host_threads",
        Json::Int(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as i64),
    );
    section.set(
        "thread_counts",
        Json::Arr(THREAD_COUNTS.iter().map(|t| Json::Int(*t as i64)).collect()),
    );
    section.set("seed", Json::Int(bench_suite::SWEEP_SEED as i64));
    section.set("worlds", Json::Arr(worlds));
    section.set(
        "scaling_efficiency",
        Json::Float(scaling_headline.expect("the sweep covers large at 8 threads")),
    );

    let path = results_path();
    merge_section(&path, "ingest", section).expect("write BENCH_results.json");
    println!("ingest sweep recorded in {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest_throughput
}

fn main() {
    benches();
    record_results();
}
