//! The measured session: the untraced pass that times only the top-level
//! public calls, and the traced pass that times each layer's public
//! functions from outside the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use washtrade::pipeline::{analyze_with, standard_stages, AnalysisContext, AnalysisOptions};
use washtrade::Executor;
use washtrade_serve::{CacheConfig, Query, QueryService, Response, Served};
use washtrade_stream::{
    BlockCursor, IncrementalDataset, IncrementalGraphs, StreamAnalyzer, StreamOptions,
};

use crate::record::{peak_rss_mb, Kind, Record};
use crate::stats::{grouped_quantile, median};
use crate::workload::{same_analysis, Setup, BURST_REPEATS};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// `Executor::map` calls timed for `parallel.fanout_us`.
const FANOUT_CALLS: usize = 500;
/// Share of a traced run spent on alternating untraced and traced rounds;
/// the rest goes to the single-thread and recording-off probes.
const TRACED_ROUND_SHARE: f64 = 0.6;

/// Samples of the top-level calls.
#[derive(Debug, Default)]
struct EndToEnd {
    study_s: Vec<f64>,
    catchup_s: Vec<f64>,
    /// Epoch wall times, one vector per stream pass.
    epoch_ms: Vec<Vec<f64>>,
    /// Query latencies, one vector per stream pass.
    query_us: Vec<Vec<f64>>,
    /// Time in top-level calls per round (studies plus catch-up).
    round_s: Vec<f64>,
}

/// Samples of the layer functions, taken by the traced pass.
#[derive(Debug, Default)]
struct Layers {
    stage_ms: BTreeMap<&'static str, Vec<f64>>,
    stage_items: BTreeMap<&'static str, Vec<f64>>,
    batch_unattributed_ms: Vec<f64>,
    apply_span_ms: Vec<f64>,
    graph_sync_ms: Vec<f64>,
    reassemble_ms: Vec<f64>,
    live_other_ms: Vec<f64>,
    dirty_fraction: Vec<f64>,
    stream_unattributed_ms: Vec<f64>,
    build_ms: Vec<f64>,
    /// Per pass: activity records resolved afresh over records published.
    rebuilt_ratio: Vec<f64>,
    variant_us: BTreeMap<&'static str, Vec<f64>>,
    uncached_us: Vec<f64>,
    hit_rate: Vec<f64>,
    misses_per_publish: Vec<f64>,
    round_s: Vec<f64>,
}

/// Run the workload for `seconds` and fill `record`: end-to-end rows from
/// the untraced pass, plus per-layer rows when `trace` is set.
pub fn run(setup: &Setup, setup_s: &[f64], seconds: f64, trace: bool, record: &mut Record) {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    if trace {
        let rounds_end = started + budget.mul_f64(TRACED_ROUND_SHARE);
        loop {
            untraced_round(setup, record, &mut e2e);
            traced_round(setup, record, &mut layers);
            if Instant::now() >= rounds_end {
                break;
            }
        }
    } else {
        loop {
            untraced_round(setup, record, &mut e2e);
            if started.elapsed() >= budget {
                break;
            }
        }
    }

    record.add(Kind::EndToEnd, "setup_s", "s", setup_s);
    record.add(Kind::EndToEnd, "study_s", "s", &e2e.study_s);
    record.add(Kind::EndToEnd, "catchup_s", "s", &e2e.catchup_s);
    add_percentile(record, "epoch_p50_ms", "ms", 1e-6, &e2e.epoch_ms, 0.5);
    // p75 is the highest percentile of a 48-epoch pass with ten epochs
    // beyond it; a pass p90 rests on five and follows host stalls.
    add_percentile(record, "epoch_p75_ms", "ms", 1e-6, &e2e.epoch_ms, 0.75);
    add_percentile(record, "query_p50_us", "us", 1e-3, &e2e.query_us, 0.5);
    add_percentile(record, "query_p99_us", "us", 1e-3, &e2e.query_us, 0.99);
    if trace {
        layer_rows(setup, &layers, &e2e, record);
        probes(setup, record, started + budget);
    }
    record.add(Kind::EndToEnd, "peak_rss_mb", "MiB", &[peak_rss_mb()]);
}

/// The per-layer rows of the traced rounds.
fn layer_rows(setup: &Setup, l: &Layers, e2e: &EndToEnd, record: &mut Record) {
    for (stage, layer) in STAGE_LAYERS {
        record.add(Kind::PerLayer, &format!("{layer}.ms"), "ms", &l.stage_ms[stage]);
        record.add(Kind::PerLayer, &format!("{layer}.items"), "count", &l.stage_items[stage]);
    }
    record.add(Kind::PerLayer, "batch.unattributed_ms", "ms", &l.batch_unattributed_ms);
    record.add(Kind::PerLayer, "incremental.apply_span_ms", "ms", &l.apply_span_ms);
    record.add(Kind::PerLayer, "incremental.graph_sync_ms", "ms", &l.graph_sync_ms);
    record.add(Kind::PerLayer, "live.reassemble_ms", "ms", &l.reassemble_ms);
    record.add(Kind::PerLayer, "live.other_ms", "ms", &l.live_other_ms);
    record.add(Kind::PerLayer, "live.dirty_fraction", "ratio", &l.dirty_fraction);
    record.add(Kind::PerLayer, "stream.unattributed_ms", "ms", &l.stream_unattributed_ms);
    record.add(Kind::PerLayer, "publish.build_ms", "ms", &l.build_ms);
    record.add(Kind::PerLayer, "publish.rebuilt_ratio", "ratio", &l.rebuilt_ratio);
    for variant in QUERY_VARIANTS {
        let values = l.variant_us.get(variant).map_or(&[][..], Vec::as_slice);
        record.add(Kind::PerLayer, &format!("query.{variant}_us"), "us", values);
    }
    record.add(Kind::PerLayer, "query.uncached_us", "us", &l.uncached_us);
    record.add(Kind::PerLayer, "cache.hit_rate", "ratio", &l.hit_rate);
    record.add(Kind::PerLayer, "cache.misses_per_publish", "count", &l.misses_per_publish);
    let confirmed = setup.reference.detection.confirmed.iter().map(|activity| activity.nft());
    record.add(Kind::PerLayer, "detect.recall", "ratio", &[setup.recall(confirmed)]);
    let overhead = median(&l.round_s) / median(&e2e.round_s);
    record.add(Kind::PerLayer, "bench.trace_overhead_ratio", "ratio", &[overhead]);
}

/// Batch stage names and the layer each one is reported under.
const STAGE_LAYERS: [(&str, &str); 6] = [
    ("build_dataset", "ingest"),
    ("build_graphs", "txgraph"),
    ("refine", "refine"),
    ("detect", "detect"),
    ("characterize", "characterize"),
    ("profit", "profit"),
];

/// Query variants of the explorer mix, by `Query::variant_name`.
const QUERY_VARIANTS: [&str; 8] = [
    "nft",
    "account",
    "stats",
    "top_movers",
    "top_collections",
    "marketplaces",
    "suspects_since",
    "suspects_between",
];

/// A percentile row: each pass's `q`-percentile, summarized over the
/// passes, so the value is the median pass's percentile. Pooling the passes
/// instead would let a contention episode covering a tenth of a run set a
/// high percentile. Samples are whole nanoseconds, `ns` in the row's unit.
fn add_percentile(
    record: &mut Record,
    name: &str,
    unit: &'static str,
    ns: f64,
    per_pass: &[Vec<f64>],
    q: f64,
) {
    let pass_values: Vec<f64> = per_pass
        .iter()
        .filter(|pass| !pass.is_empty())
        .map(|pass| {
            let mut sorted = pass.clone();
            sorted.sort_by(f64::total_cmp);
            grouped_quantile(&sorted, q, ns)
        })
        .collect();
    record.add(Kind::EndToEnd, name, unit, &pass_values);
}

/// Studies then one stream pass with query bursts, timing only
/// `analyze_with`, `ingest_epoch` and `query`.
fn untraced_round(setup: &Setup, record: &mut Record, e2e: &mut EndToEnd) {
    let mut round = 0.0;
    for _ in 0..setup.params.studies_per_round {
        let started = Instant::now();
        let report = analyze_with(setup.input(), AnalysisOptions::default());
        let seconds = started.elapsed().as_secs_f64();
        record.attempted += 1;
        record.check(same_analysis(&report, &setup.reference), || {
            "a repeated batch study differs from the reference study".to_string()
        });
        e2e.study_s.push(seconds);
        round += seconds;
    }
    let pass = stream_pass(setup, record, StreamOptions::default(), Mode::Queried);
    e2e.catchup_s.push(pass.catchup_s);
    e2e.round_s.push(round + pass.catchup_s);
    e2e.epoch_ms.push(pass.epoch_ms);
    e2e.query_us.push(pass.query_us);
}

/// The same round with every layer timed: the studies run stage by stage
/// through `AnalysisContext`, the stream pass records each epoch's
/// breakdown and per-variant query times, and a replay through the
/// incremental layers times ingest and graph sync per epoch.
fn traced_round(setup: &Setup, record: &mut Record, layers: &mut Layers) {
    let mut round = 0.0;
    for _ in 0..setup.params.studies_per_round {
        let started = Instant::now();
        let mut ctx = AnalysisContext::new(setup.input(), AnalysisOptions::default());
        let mut staged = 0.0;
        for stage in standard_stages() {
            let stage_started = Instant::now();
            let io = stage.run(&mut ctx);
            let ms = stage_started.elapsed().as_secs_f64() * 1e3;
            staged += ms;
            layers.stage_ms.entry(stage.name()).or_default().push(ms);
            layers.stage_items.entry(stage.name()).or_default().push(io.items_in as f64);
        }
        let seconds = started.elapsed().as_secs_f64();
        record.attempted += 1;
        record.check(
            ctx.detection().confirmed.len() == setup.reference.detection.confirmed.len(),
            || "a staged study confirms a different number of activities".to_string(),
        );
        layers.batch_unattributed_ms.push(seconds * 1e3 - staged);
        round += seconds;
    }

    let pass = stream_pass(setup, record, StreamOptions::default(), Mode::Traced(layers));
    layers.round_s.push(round + pass.catchup_s);

    // Replay the same budgets through the incremental layers alone; what
    // neither the replay nor the reported phases cover is unattributed.
    let input = setup.input();
    let executor = Executor::default();
    let mut cursor = BlockCursor::new();
    let mut dataset = IncrementalDataset::new();
    let mut graphs = IncrementalGraphs::new();
    for (i, budget) in setup.budgets.iter().enumerate() {
        let Some(span) = cursor.next_epoch(input.chain, *budget) else {
            record
                .check(false, || "the replay cursor ran out of blocks before the plan".to_string());
            break;
        };
        let started = Instant::now();
        let applied = dataset.apply_span(input.chain, input.directory, span, &executor);
        let apply_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        graphs.sync(dataset.dataset(), &applied.dirty);
        let sync_ms = started.elapsed().as_secs_f64() * 1e3;
        layers.apply_span_ms.push(apply_ms);
        layers.graph_sync_ms.push(sync_ms);
        if let (Some(wall), Some(reported)) = (pass.epoch_ms.get(i), pass.reported_ms.get(i)) {
            layers.stream_unattributed_ms.push(wall - apply_ms - sync_ms - reported);
        }
    }
    record.check(
        dataset.dataset().transfer_count() == setup.reference.dataset_transfers
            && graphs.len() == setup.reference.dataset_nfts,
        || "the incremental replay disagrees with the batch dataset".to_string(),
    );
}

/// What a stream pass does besides ingesting.
enum Mode<'a> {
    /// Nothing: the stream runs alone.
    Alone,
    /// A query burst through a cached service after every publish.
    Queried,
    /// The burst, timed per variant and replayed through an uncached
    /// service, plus each epoch's reported breakdown, into the layers.
    Traced(&'a mut Layers),
}

/// What one stream pass measured.
#[derive(Debug, Default)]
struct PassLog {
    /// Genesis to the tip: the sum of the `ingest_epoch` calls.
    catchup_s: f64,
    epoch_ms: Vec<f64>,
    query_us: Vec<f64>,
    /// Traced passes: per epoch, the reassembly plus the snapshot build,
    /// as the program reports them.
    reported_ms: Vec<f64>,
}

/// One stream from genesis to the tip, checked against the batch study at
/// the tip.
fn stream_pass(
    setup: &Setup,
    record: &mut Record,
    options: StreamOptions,
    mut mode: Mode<'_>,
) -> PassLog {
    let mut live = StreamAnalyzer::new(setup.input(), options);
    let service = (!matches!(mode, Mode::Alone)).then(|| QueryService::new(live.publisher()));
    let uncached = matches!(mode, Mode::Traced(_))
        .then(|| QueryService::with_cache(live.publisher(), CacheConfig::disabled()));
    let mut log = PassLog::default();
    let (mut records, mut rebuilt) = (0usize, 0usize);
    for budget in &setup.budgets {
        let started = Instant::now();
        let delta = live.ingest_epoch(*budget);
        let seconds = started.elapsed().as_secs_f64();
        record.attempted += 1;
        let Some(delta) = delta else {
            record.check(false, || "the stream reached the tip before the plan ended".to_string());
            break;
        };
        log.catchup_s += seconds;
        log.epoch_ms.push(seconds * 1e3);
        let Some(service) = &service else { continue };
        let first = log.query_us.len();
        burst(setup, service, BURST_REPEATS, record, &mut log.query_us);
        if let (Mode::Traced(layers), Some(uncached)) = (&mut mode, &uncached) {
            for (query, us) in burst_queries(setup, BURST_REPEATS).zip(&log.query_us[first..]) {
                layers.variant_us.entry(query.variant_name()).or_default().push(*us);
            }
            burst(setup, uncached, 1, record, &mut layers.uncached_us);
            let build = live.snapshot().build_stats();
            let reassemble_ms = delta.reassemble_ns as f64 / 1e6;
            let build_ms = build.build_ns as f64 / 1e6;
            layers.reassemble_ms.push(reassemble_ms);
            layers
                .live_other_ms
                .push(delta.wall_time_ns.saturating_sub(delta.reassemble_ns) as f64 / 1e6);
            layers.dirty_fraction.push(delta.dirty_nfts as f64 / delta.total_nfts.max(1) as f64);
            layers.build_ms.push(build_ms);
            records += build.records_total;
            rebuilt += build.records_total - build.records_reused;
            log.reported_ms.push(reassemble_ms + build_ms);
        }
    }
    setup.check_tip(live.report(), record);
    if let (Mode::Traced(layers), Some(service)) = (&mut mode, &service) {
        let stats = service.cache_stats();
        layers.hit_rate.push(stats.hit_rate());
        layers.misses_per_publish.push(stats.misses as f64 / log.epoch_ms.len().max(1) as f64);
        layers.rebuilt_ratio.push(rebuilt as f64 / records.max(1) as f64);
    }
    log
}

/// The mix replayed `repeats` times, in the order a burst sends it.
fn burst_queries(setup: &Setup, repeats: usize) -> impl Iterator<Item = &Query> {
    (0..repeats).flat_map(move |_| setup.mix.iter())
}

/// Send the burst through `service`, timing each `query`; afterwards check
/// every answer against the published snapshot's own answer.
fn burst(
    setup: &Setup,
    service: &QueryService,
    repeats: usize,
    record: &mut Record,
    us: &mut Vec<f64>,
) {
    let mut served: Vec<Served> = Vec::with_capacity(setup.mix.len() * repeats);
    for query in burst_queries(setup, repeats) {
        let started = Instant::now();
        let answer = service.query(black_box(query));
        us.push(started.elapsed().as_secs_f64() * 1e6);
        served.push(answer);
    }
    record.attempted += served.len() as u64;
    let snapshot = service.snapshot();
    let expected: Vec<Response> = setup.mix.iter().map(|query| snapshot.answer(query)).collect();
    for (i, answer) in served.iter().enumerate() {
        let query = &setup.mix[i % setup.mix.len()];
        record.check(!matches!(answer.response, Response::NotRetained { .. }), || {
            format!("{query:?} came back NotRetained")
        });
        record.check(
            answer.epoch == snapshot.epoch() && answer.response == expected[i % setup.mix.len()],
            || format!("{query:?} at epoch {} differs from the snapshot's answer", answer.epoch),
        );
    }
}

/// The probes outside the rounds, added as per-layer rows: the executor's
/// fan-out cost, a single-thread catch-up, and stream passes alternating
/// the program's own recording off and on until `deadline`.
fn probes(setup: &Setup, record: &mut Record, deadline: Instant) {
    let executor = Executor::default();
    let items: Vec<u64> = (0..executor.threads() as u64).collect();
    let fanout_us: Vec<f64> = (0..FANOUT_CALLS)
        .map(|_| {
            let started = Instant::now();
            black_box(executor.map(black_box(&items), |item| item + 1));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    record.add(Kind::PerLayer, "parallel.fanout_us", "us", &fanout_us);

    let single = stream_pass(setup, record, StreamOptions::single_threaded(), Mode::Alone);
    record.add(Kind::PerLayer, "parallel.catchup_1thread_s", "s", &[single.catchup_s]);

    let (mut off, mut on) = (Vec::new(), Vec::new());
    loop {
        obs::set_recording(false);
        off.push(stream_pass(setup, record, StreamOptions::default(), Mode::Alone).catchup_s);
        obs::set_recording(true);
        on.push(stream_pass(setup, record, StreamOptions::default(), Mode::Alone).catchup_s);
        if Instant::now() >= deadline {
            break;
        }
    }
    let overhead = median(&on) / median(&off);
    record.add(Kind::PerLayer, "obs.recording_overhead_ratio", "ratio", &[overhead]);
}
