//! One run's record: the host stamp, every metric row with its median and
//! quartiles, the correctness tally, and the rendering of all three as a
//! human-readable table followed by the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::Summary;

/// Which table a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the system; measured by the untraced pass.
    EndToEnd,
    /// One layer's figure; measured by the traced pass.
    PerLayer,
}

/// One metric row.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub summary: Summary,
}

/// Where and how a run was made: printed with every record.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub available_parallelism: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl Provenance {
    /// Stamp a run with the host it runs on.
    pub fn stamp(workload: &str, seed: u64, seconds: f64, trace: bool) -> Provenance {
        Provenance {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: affinity_cpus(),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// CPUs this process may run on, as `nproc` counts them: the size of its
/// affinity mask (`Cpus_allowed_list`), 0 when it cannot be read.
fn affinity_cpus() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status.lines().find_map(|line| line.strip_prefix("Cpus_allowed_list:")).map_or(0, cpu_list_len)
}

/// CPUs in a kernel CPU list such as `0-3,8,10-11`.
fn cpu_list_len(list: &str) -> usize {
    list.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((first, last)) => {
                Some(last.parse::<usize>().ok()? + 1 - first.parse::<usize>().ok()?)
            }
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// The commit checked out in the working directory, read from `.git` without
/// running git (`None` outside a git checkout).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metric rows plus the correctness tally of one run.
#[derive(Debug, Default)]
pub struct Record {
    rows: Vec<Row>,
    /// Operations attempted: studies, epochs and queries.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    failures: Vec<String>,
}

impl Record {
    /// Add a row summarizing `values`; an empty set is itself a failure.
    pub fn add(&mut self, kind: Kind, name: &str, unit: &'static str, values: &[f64]) {
        if !self.check(!values.is_empty(), || format!("no samples for `{name}`")) {
            return;
        }
        let summary = Summary::of(values);
        self.rows.push(Row { name: name.to_string(), unit, kind, summary });
    }

    /// Count one check; keep the first failures' descriptions for the report.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(describe());
            }
        }
        ok
    }

    /// Failed checks over attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table, then the JSON result line carrying the
    /// metrics of `json_kind`.
    pub fn render(&self, provenance: &Provenance, json_kind: Kind) -> String {
        let p = provenance;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# perfbench workload={} seed={} run_seconds={} trace={}",
            p.workload,
            p.seed,
            p.seconds,
            u8::from(p.trace)
        );
        let _ = writeln!(
            out,
            "# host nproc={} available_parallelism={} rustc=\"{}\" commit={}",
            p.nproc, p.available_parallelism, p.rustc, p.commit
        );
        for (kind, title) in [(Kind::EndToEnd, "end-to-end"), (Kind::PerLayer, "per-layer")] {
            if !self.rows.iter().any(|row| row.kind == kind) {
                continue;
            }
            let _ = writeln!(
                out,
                "# {title:<28} {:<6} {:>14} {:>14} {:>14} {:>7}",
                "unit", "median", "q1", "q3", "n"
            );
            for row in self.rows.iter().filter(|row| row.kind == kind) {
                let s = row.summary;
                let _ = writeln!(
                    out,
                    "  {:<28} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>7}",
                    row.name, row.unit, s.median, s.q1, s.q3, s.n
                );
            }
        }
        let _ = writeln!(
            out,
            "  {:<28} {:<6} {:>14.6}   ({} failed of {} attempted)",
            "failed_ratio",
            "ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        for failure in &self.failures {
            let _ = writeln!(out, "# FAILED: {failure}");
        }
        let metrics: Vec<String> = self
            .rows
            .iter()
            .filter(|row| row.kind == json_kind)
            .map(|row| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    row.name,
                    json_number(row.summary.median),
                    row.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) become `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_every_cpu_in_every_range() {
        assert_eq!(cpu_list_len("\t0-1\n"), 2);
        assert_eq!(cpu_list_len("0-3,8,10-11"), 7);
        assert_eq!(cpu_list_len("5"), 1);
    }
}
