//! The benchmark's own quick check: every workload, untraced and traced, on
//! a small world, checked against the metric list in `BENCHMARK.json`.

use std::path::Path;

use bench_suite::json::{self, Json};

use crate::workload::Workload;
use crate::RunConfig;

/// Measurement time per smoke run, in seconds.
const SMOKE_SECONDS: f64 = 0.2;

/// Run the smoke check; returns every problem found (empty when clean).
pub fn run(benchmark_json: &Path) -> Vec<String> {
    let manifest = match std::fs::read_to_string(benchmark_json)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
    {
        Ok(manifest) => manifest,
        Err(error) => return vec![format!("cannot read {}: {error}", benchmark_json.display())],
    };
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let config =
                RunConfig { workload, seed: 1, seconds: SMOKE_SECONDS, trace, smoke: true };
            let (record, text) = crate::run(config);
            let context = format!("{} trace={}", workload.name(), u8::from(trace));
            if record.failed != 0 {
                problems.push(format!("{context}: {} checks failed\n{text}", record.failed));
            }
            let metrics = match manifest.get(list) {
                Some(Json::Arr(metrics)) => metrics.as_slice(),
                _ => &[],
            };
            if metrics.is_empty() {
                problems.push(format!("BENCHMARK.json lists no `{list}` metrics"));
            }
            problems.extend(
                metrics
                    .iter()
                    .filter_map(|metric| missing(metric, &text))
                    .map(|p| format!("{context}: {p}")),
            );
            problems.extend(unmeasured(&text).into_iter().map(|p| format!("{context}: {p}")));
        }
    }
    problems
}

/// Why `metric` is not properly printed in `text`, if it is not: it needs a
/// table row with its name and unit, and a JSON entry with the same unit.
fn missing(metric: &Json, text: &str) -> Option<String> {
    let name = as_str(metric.get("name")?)?;
    let unit = as_str(metric.get("unit")?)?;
    let in_table = text.lines().any(|line| {
        let mut words = line.split_whitespace();
        words.next() == Some(name) && words.next() == Some(unit)
    });
    if !in_table {
        return Some(format!("no table row for `{name}` in `{unit}`"));
    }
    let result = match result_line(text) {
        Ok(result) => result,
        Err(problem) => return Some(problem),
    };
    let entry = result.get("metrics").and_then(|metrics| metrics.get(name));
    match entry {
        Some(entry) if entry.get("unit").and_then(as_str) == Some(unit) => None,
        _ => Some(format!("result line lacks `{name}` in `{unit}`")),
    }
}

/// Every metric value in the result line that is not a positive, finite
/// number: a metric that can read 0 or below cannot be compared as a share
/// of its median.
fn unmeasured(text: &str) -> Vec<String> {
    let metrics = match result_line(text) {
        Ok(result) => match result.get("metrics") {
            Some(Json::Obj(metrics)) => metrics.clone(),
            _ => return vec!["result line has no `metrics` object".to_string()],
        },
        Err(problem) => return vec![problem],
    };
    metrics
        .iter()
        .filter_map(|(name, entry)| {
            let value = match entry.get("value") {
                Some(Json::Float(value)) => *value,
                Some(Json::Int(value)) => *value as f64,
                other => return Some(format!("`{name}` has value {other:?}")),
            };
            (!(value.is_finite() && value > 0.0)).then(|| format!("`{name}` reads {value}"))
        })
        .collect()
}

/// The JSON result on the last line of `text`, with exactly the four keys
/// the result format names.
fn result_line(text: &str) -> Result<Json, String> {
    let last = text.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|error| format!("last line is not JSON ({error})"))?;
    let keys: Vec<&str> = match &result {
        Json::Obj(members) => members.keys().map(String::as_str).collect(),
        _ => Vec::new(),
    };
    // The object's keys come back sorted.
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    Ok(result)
}

fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::Str(text) => Some(text),
        _ => None,
    }
}
