//! Print the perf trajectory recorded in `BENCH_results.json` as readable
//! tables — the non-gating summary step CI runs after the benches, so the
//! stage and ingest numbers are visible in the job log without downloading
//! the artifact.
//!
//! Reads the results file from `$BENCH_RESULTS_PATH` or the workspace root
//! (the same resolution every producer uses); missing sections are reported,
//! not fatal — the summary never fails the job.

use bench_suite::json::{parse, Json};
use bench_suite::results::results_path;

fn float_of(value: Option<&Json>) -> Option<f64> {
    match value {
        Some(Json::Float(f)) => Some(*f),
        Some(Json::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

fn int_of(value: Option<&Json>) -> Option<i64> {
    match value {
        Some(Json::Int(i)) => Some(*i),
        Some(Json::Float(f)) => Some(*f as i64),
        _ => None,
    }
}

fn str_of(value: Option<&Json>) -> Option<&str> {
    match value {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn ms(ns: i64) -> f64 {
    ns as f64 / 1e6
}

fn print_stage_table(root: &Json) {
    let Some(columnar) = root.get("columnar") else {
        println!(
            "(no `columnar` section — run `cargo bench -p bench --bench pipeline_throughput`)"
        );
        return;
    };
    println!("pipeline stages ({}):", str_of(columnar.get("world")).unwrap_or("?"));
    println!("  {:<16} {:>12}", "stage", "wall ms");
    print_stages(columnar);
}

/// One `stage  wall ms` row per recorded pipeline stage.
fn print_stages(section: &Json) {
    if let Some(Json::Arr(stages)) = section.get("stages") {
        for stage in stages {
            let name = str_of(stage.get("stage")).unwrap_or("?");
            let wall = int_of(stage.get("wall_time_ns")).unwrap_or(0);
            println!("  {:<16} {:>12.3}", name, ms(wall));
        }
    }
}

fn print_ingest_table(root: &Json) {
    let Some(ingest) = root.get("ingest") else {
        println!("(no `ingest` section — run `cargo bench -p bench --bench ingest_throughput`)");
        return;
    };
    let host = int_of(ingest.get("host_threads")).unwrap_or(0);
    println!("ingest scale sweep (three-phase decode→reconcile→splice, host threads: {host}):");
    println!(
        "  {:<8} {:>10} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "scale", "transfers", "threads", "wall ms", "decode ms", "commit ms", "reconcile ms"
    );
    if let Some(Json::Arr(worlds)) = ingest.get("worlds") {
        for world in worlds {
            let scale = str_of(world.get("scale")).unwrap_or("?");
            let transfers = int_of(world.get("transfers")).unwrap_or(0);
            if let Some(Json::Arr(runs)) = world.get("runs") {
                for run in runs {
                    println!(
                        "  {:<8} {:>10} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
                        scale,
                        transfers,
                        int_of(run.get("threads")).unwrap_or(0),
                        ms(int_of(run.get("wall_ns")).unwrap_or(0)),
                        ms(int_of(run.get("decode_ns")).unwrap_or(0)),
                        ms(int_of(run.get("commit_ns")).unwrap_or(0)),
                        ms(int_of(run.get("reconcile_ns")).unwrap_or(0)),
                    );
                }
            }
        }
    }
    print_commit_scaling(ingest, host);
}

/// The commit-phase thread-scaling curve per sweep world: how much of the
/// formerly serial probe-and-commit the parallel reconcile + splice actually
/// buys at each thread count. Printed with the host's thread count, since
/// efficiency above the host's physical parallelism is noise, not signal.
fn print_commit_scaling(ingest: &Json, host: i64) {
    let Some(Json::Arr(worlds)) = ingest.get("worlds") else {
        return;
    };
    println!(
        "  commit-phase scaling (speedup over each world's serial commit, host threads: {host}):"
    );
    for world in worlds {
        let scale = str_of(world.get("scale")).unwrap_or("?");
        let Some(Json::Arr(points)) = world.get("commit_scaling") else {
            continue;
        };
        let curve: Vec<String> = points
            .iter()
            .map(|point| {
                format!(
                    "{}t {:.2}x (eff {:.2})",
                    int_of(point.get("threads")).unwrap_or(0),
                    float_of(point.get("speedup_vs_serial_commit")).unwrap_or(0.0),
                    float_of(point.get("efficiency")).unwrap_or(0.0),
                )
            })
            .collect();
        println!("    {:<8} {}", scale, curve.join("  "));
    }
    if let Some(efficiency) = float_of(ingest.get("scaling_efficiency")) {
        println!("  commit scaling efficiency, large world @ 8 threads: {efficiency:.2}");
    }
}

fn print_scale_baselines(root: &Json) {
    for (section, label) in [
        ("columnar_large", "pipeline (large world)"),
        ("bench_streaming_large", "streaming (large world)"),
        ("serving_large", "serving (large world)"),
    ] {
        let Some(value) = root.get(section) else {
            continue;
        };
        match section {
            "columnar_large" => {
                if let (Some(end), Some(tps)) =
                    (int_of(value.get("end_to_end_ns")), float_of(value.get("transfers_per_sec")))
                {
                    println!("{label}: end-to-end {:.1} ms, {:.0} transfers/sec", ms(end), tps);
                }
                print_stages(value);
            }
            "bench_streaming_large" => {
                if let (Some(total), Some(bps)) =
                    (int_of(value.get("stream_total_ns")), float_of(value.get("blocks_per_sec")))
                {
                    println!("{label}: full pass {:.1} ms, {:.0} blocks/sec", ms(total), bps);
                }
            }
            _ => {
                if let Some(qps) = float_of(value.get("peak_qps")) {
                    println!("{label}: peak {qps:.0} qps");
                }
            }
        }
    }
}

fn print_snapshot_delta(root: &Json) {
    let Some(section) = root.get("snapshot_delta") else {
        println!(
            "(no `snapshot_delta` section — run `cargo bench -p bench --bench snapshot_delta`)"
        );
        return;
    };
    println!("delta-encoded snapshot publishing (per-epoch vs full rebuild at the same state):");
    println!(
        "  {:<10} {:>7} {:>7} {:>14} {:>14} {:>9} {:>7}",
        "world", "epochs", "deltas", "publish ns", "full ns", "speedup", "reuse"
    );
    let Some(Json::Arr(worlds)) = section.get("worlds") else {
        return;
    };
    for world in worlds {
        println!(
            "  {:<10} {:>7} {:>7} {:>14} {:>14} {:>8.1}x {:>7.3}",
            str_of(world.get("world")).unwrap_or("?"),
            int_of(world.get("epochs")).unwrap_or(0),
            int_of(world.get("delta_epochs")).unwrap_or(0),
            int_of(world.get("steady_state_publish_ns")).unwrap_or(0),
            int_of(world.get("steady_state_full_rebuild_ns")).unwrap_or(0),
            float_of(world.get("speedup_delta_vs_full")).unwrap_or(0.0),
            float_of(world.get("steady_state_chunk_reuse")).unwrap_or(0.0),
        );
    }
    println!(
        "  (steady state = last quarter of epochs; speedup = median of per-epoch paired ratios)"
    );
}

fn print_reassemble(root: &Json) {
    let Some(section) = root.get("reassemble") else {
        println!(
            "(no `reassemble` section — run `cargo bench -p bench --bench reassemble_scaling`)"
        );
        return;
    };
    println!("dirty-driven report reassembly (per-epoch vs full rescan of the same state):");
    println!(
        "  {:<10} {:>7} {:>14} {:>14} {:>9} {:>7}",
        "world", "epochs", "reassemble ns", "full ns", "speedup", "dirty"
    );
    let Some(Json::Arr(worlds)) = section.get("worlds") else {
        return;
    };
    for world in worlds {
        println!(
            "  {:<10} {:>7} {:>14} {:>14} {:>8.1}x {:>7.4}",
            str_of(world.get("world")).unwrap_or("?"),
            int_of(world.get("epochs")).unwrap_or(0),
            int_of(world.get("steady_state_reassemble_ns")).unwrap_or(0),
            int_of(world.get("steady_state_full_rescan_ns")).unwrap_or(0),
            float_of(world.get("speedup_incremental_vs_full")).unwrap_or(0.0),
            float_of(world.get("steady_state_dirty_fraction")).unwrap_or(0.0),
        );
    }
    println!(
        "  (steady state = last quarter of epochs; speedup = median of per-epoch paired ratios)"
    );
}

fn print_observability(root: &Json) {
    let Some(section) = root.get("observability") else {
        println!("(no `observability` section — run `cargo bench -p bench --bench observability`)");
        return;
    };
    let mode = str_of(section.get("mode")).unwrap_or("?");
    println!("observability overhead (mode: {mode}):");
    println!(
        "  per-op: counter {:.1} ns, histogram {:.1} ns, span {:.1} ns, trace span {:.1} ns",
        float_of(section.get("counter_add_ns")).unwrap_or(0.0),
        float_of(section.get("histogram_record_ns")).unwrap_or(0.0),
        float_of(section.get("span_guard_ns")).unwrap_or(0.0),
        float_of(section.get("trace_span_ns")).unwrap_or(0.0),
    );
    println!(
        "  snapshot: {:.3} ms over {} metrics",
        ms(int_of(section.get("snapshot_ns")).unwrap_or(0)),
        int_of(section.get("snapshot_metrics")).unwrap_or(0),
    );
    if let (Some(on), Some(off), Some(pct)) = (
        int_of(section.get("large_world_instrumented_ns")),
        int_of(section.get("large_world_recording_off_ns")),
        float_of(section.get("overhead_pct")),
    ) {
        println!(
            "  large world end-to-end: instrumented {:.1} ms vs recording-off {:.1} ms ({:+.2}%)",
            ms(on),
            ms(off),
            pct
        );
    }
    print_health(section);
}

/// The latest health/SLO report the observability bench's streamed pass
/// recorded: one row per objective, mirroring `HealthReport::render_text`.
fn print_health(section: &Json) {
    let Some(health) = section.get("health") else {
        return;
    };
    let healthy = matches!(health.get("healthy"), Some(Json::Bool(true)));
    println!(
        "  health: {} after {} per-epoch SLO evaluations",
        if healthy { "HEALTHY" } else { "UNHEALTHY" },
        int_of(health.get("evaluations")).unwrap_or(0),
    );
    let Some(Json::Arr(verdicts)) = health.get("verdicts") else {
        return;
    };
    for verdict in verdicts {
        let state = match (verdict.get("healthy"), verdict.get("no_data")) {
            (_, Some(Json::Bool(true))) => "no data",
            (Some(Json::Bool(true)), _) => " ok ",
            _ => "FAIL",
        };
        println!(
            "    [{}] {:<16} observed {:>12} threshold {:>12} burn {} (total {})",
            state,
            str_of(verdict.get("slo")).unwrap_or("?"),
            int_of(verdict.get("observed")).unwrap_or(0),
            int_of(verdict.get("threshold")).unwrap_or(0),
            int_of(verdict.get("burn")).unwrap_or(0),
            int_of(verdict.get("total_burn")).unwrap_or(0),
        );
    }
}

fn main() {
    let path = results_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(error) => {
            println!("no results file at {} ({error}); nothing to summarize", path.display());
            return;
        }
    };
    let root = match parse(&text) {
        Ok(root) => root,
        Err(error) => {
            println!("could not parse {}: {error}", path.display());
            return;
        }
    };
    println!("== perf summary ({}) ==", path.display());
    print_stage_table(&root);
    println!();
    print_ingest_table(&root);
    println!();
    print_scale_baselines(&root);
    println!();
    print_snapshot_delta(&root);
    println!();
    print_reassemble(&root);
    println!();
    print_observability(&root);
}
