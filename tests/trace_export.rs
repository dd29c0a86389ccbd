//! The trace-export gate: the Chrome trace-event JSON emitted by
//! `obs::trace::export_chrome_json` must be well-formed (parseable, every
//! event carrying the complete-event fields) and causally sound — a child
//! span's `[ts, ts+dur]` window nests inside its parent's, and the child
//! shares the parent's trace id.
//!
//! Two entry points: a self-contained test that streams a small world and
//! validates its own export, and a CI hook that validates an externally
//! produced trace file (the observability bench's large-world export) when
//! `CHROME_TRACE_PATH` points at one.

use bench_suite::json::{self, Json};
use nft_wash_study::ethsim::Timestamp;
use nft_wash_study::obs;
use nft_wash_study::washtrade::pipeline::AnalysisInput;
use nft_wash_study::washtrade_stream::{StreamAnalyzer, StreamOptions};
use nft_wash_study::workload::{WorkloadConfig, World};

/// Containment comparisons tolerate the µs formatting's truncation to three
/// decimals (1 ns) plus float parse rounding.
const EPSILON_US: f64 = 0.01;

fn field<'a>(event: &'a Json, key: &str) -> &'a Json {
    event.get(key).unwrap_or_else(|| panic!("trace event missing `{key}`: {event:?}"))
}

fn num(value: &Json) -> f64 {
    match value {
        Json::Int(n) => *n as f64,
        Json::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn int(value: &Json) -> i64 {
    match value {
        Json::Int(n) => *n,
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// Validate one exported trace document; returns the number of events.
fn validate_chrome_trace(text: &str) -> usize {
    let doc = json::parse(text).expect("exported trace must be valid JSON");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("top-level `traceEvents` array missing: {other:?}"),
    };

    // Pass 1 — shape, and an index of every span's window and trace.
    let mut spans = std::collections::HashMap::new();
    for event in events {
        match field(event, "ph") {
            Json::Str(ph) => assert_eq!(ph, "X", "only complete events are exported"),
            other => panic!("`ph` must be a string: {other:?}"),
        }
        assert!(matches!(field(event, "name"), Json::Str(_)));
        let ts = num(field(event, "ts"));
        let dur = num(field(event, "dur"));
        assert!(ts >= 0.0 && dur >= 0.0);
        int(field(event, "pid"));
        int(field(event, "tid"));
        let args = field(event, "args");
        let span = int(field(args, "span"));
        let trace = int(field(args, "trace"));
        let parent = int(field(args, "parent"));
        spans.insert(span, (trace, parent, ts, ts + dur));
    }

    // Pass 2 — causal soundness. A parent evicted from the bounded flight
    // ring leaves its child effectively rootless; only links where both
    // ends survived are checkable.
    let mut checked = 0usize;
    for (span, (trace, parent, start, end)) in &spans {
        if *parent == 0 {
            continue;
        }
        if let Some((parent_trace, _, parent_start, parent_end)) = spans.get(parent) {
            assert_eq!(
                trace, parent_trace,
                "span {span} and its parent {parent} must share a trace"
            );
            assert!(
                *start >= parent_start - EPSILON_US && *end <= parent_end + EPSILON_US,
                "span {span} [{start}, {end}] outlives its parent {parent} \
                 [{parent_start}, {parent_end}]"
            );
            checked += 1;
        }
    }
    if spans.len() > 1 {
        assert!(checked > 0, "a multi-span trace must have at least one checkable link");
    }
    events.len()
}

#[test]
fn streamed_world_exports_a_valid_nesting_timeline() {
    let world = World::generate(WorkloadConfig {
        seed: 23,
        start: Timestamp::from_secs(1_609_459_200),
        duration_days: 60,
        collections: 4,
        non_compliant_collections: 1,
        erc1155_collections: 1,
        dex_position_nfts: 1,
        legit_traders: 10,
        legit_sales: 24,
        zero_volume_shuffles: 2,
        wash_activities: 8,
        serial_trader_fraction: 0.3,
        gas_price_gwei: 40,
    })
    .expect("world generation");
    let input = AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    };
    let mut analyzer = StreamAnalyzer::new(input, StreamOptions { threads: 4 });
    let mut epochs = 0usize;
    while analyzer.ingest_epoch(25).is_some() {
        epochs += 1;
    }
    assert!(epochs >= 2, "the world must slice into multiple epochs");

    let exported = obs::trace::export_chrome_json();
    if !obs::enabled() {
        assert_eq!(exported, "{\"traceEvents\":[]}", "noop builds export an empty timeline");
        return;
    }
    let count = validate_chrome_trace(&exported);
    assert!(count >= epochs, "at least one span per ingested epoch");
    // The epoch root and its pipeline phases all made it into the timeline.
    for name in [
        "stream.epoch",
        "ingest.decode",
        "stream.graph_sync",
        "stream.refine_detect",
        "stream.merge",
        "serve.publish",
    ] {
        assert!(exported.contains(&format!("\"name\":\"{name}\"")), "no `{name}` span exported");
    }
}

/// CI hook: validate the trace artifact the observability bench exported.
/// Skips (passing) when `CHROME_TRACE_PATH` is unset or the file is absent,
/// so plain `cargo test` stays self-contained.
#[test]
fn exported_bench_trace_file_validates_when_present() {
    let Ok(path) = std::env::var("CHROME_TRACE_PATH") else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let count = validate_chrome_trace(&text);
    if obs::enabled() {
        assert!(count > 0, "an instrumented bench run must export spans ({path})");
    }
}
