//! Command line:
//!
//! ```text
//! perfbench --workload <batch_large|serve_mixed> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench --smoke [BENCHMARK.json]
//! ```
//!
//! The last line of standard output is the JSON result. `--smoke` runs both
//! workloads on a small world and checks that every metric named in
//! `BENCHMARK.json` is printed with its unit and that no check failed.

use std::path::Path;
use std::process::ExitCode;

use perfbench::workload::Workload;
use perfbench::RunConfig;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke [BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        let manifest = args.get(1).map_or("BENCHMARK.json", String::as_str);
        let problems = perfbench::smoke::run(Path::new(manifest));
        for problem in &problems {
            eprintln!("smoke: {problem}");
        }
        return if problems.is_empty() {
            println!("smoke: every metric printed with its unit, no check failed");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let config = match parse(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (_, text) = perfbench::run(config);
    print!("{text}");
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed `{value}`"))?)
            }
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        smoke: false,
    })
}
