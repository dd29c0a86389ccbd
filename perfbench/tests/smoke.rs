//! Runs the benchmark's smoke mode against the repository's `BENCHMARK.json`.

use std::path::Path;

#[test]
fn every_metric_is_printed_with_its_unit_and_no_check_fails() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let problems = perfbench::smoke::run(&manifest);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
