//! Shared helpers for the benchmark suite and the `experiments` binary:
//! world construction at standard scales, pipeline execution, the paper's
//! reference values for every table and figure, and the machine-readable
//! results file ([`results`], [`json`]) tracking the perf trajectory.

pub mod json;
pub mod results;

use washtrade::pipeline::{analyze, AnalysisInput, AnalysisReport};
use workload::{WorkloadConfig, World, WorldScale};

/// Build a world at one of the standard experiment scales.
///
/// `scale` is the fraction of the paper's 12,413 activities to generate; the
/// proportions (venue mix, evidence mix, pattern mix, lifetimes) are
/// preserved at any scale.
pub fn build_world(scale: f64, seed: u64) -> World {
    World::generate(WorkloadConfig::paper_scaled(seed, scale)).expect("world generation succeeds")
}

/// Build the small test-sized world used by the cheaper benchmarks.
pub fn build_small_world(seed: u64) -> World {
    World::generate(WorkloadConfig::small(seed)).expect("world generation succeeds")
}

/// The standard seed every scale-sweep world uses, so numbers recorded at
/// different times describe the same chains.
pub const SWEEP_SEED: u64 = 7;

/// Build one of the three standard sweep worlds ([`WorldScale`]) at the
/// standard seed.
pub fn build_sized_world(scale: WorldScale) -> World {
    World::generate(scale.config(SWEEP_SEED)).expect("world generation succeeds")
}

/// The [`AnalysisInput`] view of a world — one place to keep the field
/// plumbing when `AnalysisInput` grows.
pub fn input_of(world: &World) -> AnalysisInput<'_> {
    AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    }
}

/// Run the full analysis pipeline over a world.
pub fn analyze_world(world: &World) -> AnalysisReport {
    analyze(input_of(world))
}

/// The paper's reference values, used by the `experiments` binary to print
/// measured-vs-paper comparisons and by EXPERIMENTS.md.
pub mod paper {
    /// Table II: share of each marketplace's volume that is wash trading.
    pub const WASH_SHARE_LOOKSRARE: f64 = 0.8479;
    /// Table II: OpenSea wash share of its total volume.
    pub const WASH_SHARE_OPENSEA: f64 = 0.0049;
    /// Fraction of all wash-trading volume generated on LooksRare.
    pub const LOOKSRARE_SHARE_OF_WASH_VOLUME: f64 = 0.9741;
    /// Fig. 2: total activities confirmed by at least one flow method.
    pub const VENN_TOTAL: usize = 11_454;
    /// Fig. 2 buckets: (zero-risk only, funder only, exit only, z∩f, z∩e, f∩e, all).
    pub const VENN_BUCKETS: [usize; 7] = [256, 536, 2_777, 253, 582, 5_020, 2_030];
    /// Fraction of activities detected by at least two approaches.
    pub const AT_LEAST_TWO_METHODS: f64 = 0.68;
    /// Fig. 4: fraction of activities lasting at most one day.
    pub const LIFETIME_ONE_DAY: f64 = 0.33;
    /// Fig. 4: fraction of activities lasting less than ten days.
    pub const LIFETIME_TEN_DAYS: f64 = 0.5167;
    /// Fig. 6: fraction of activities performed by exactly two accounts.
    pub const TWO_ACCOUNT_FRACTION: f64 = 0.5986;
    /// Fig. 7: occurrences per pattern id.
    pub const PATTERN_OCCURRENCES: [(usize, usize); 12] = [
        (0, 942),
        (1, 7_431),
        (2, 1_592),
        (3, 786),
        (4, 17),
        (5, 450),
        (6, 146),
        (7, 134),
        (8, 9),
        (9, 4),
        (10, 115),
        (11, 22),
    ];
    /// §V-D: fraction of involved accounts that are serial wash traders.
    pub const SERIAL_ACCOUNT_FRACTION: f64 = 0.2716;
    /// §V-D: fraction of activities involving serial wash traders.
    pub const SERIAL_ACTIVITY_FRACTION: f64 = 0.7293;
    /// Table III: success rate of claimed reward-farming activities on
    /// LooksRare (365 of 457).
    pub const LOOKSRARE_REWARD_SUCCESS: f64 = 0.80;
    /// Table III: success rate on Rarible (107 of 113).
    pub const RARIBLE_REWARD_SUCCESS: f64 = 0.93;
    /// §VI-B: fraction of resale-venue activities not followed by a sale.
    pub const NOT_RESOLD_FRACTION: f64 = 0.647;
    /// §VI-B: fraction of resold activities that profit once fees are counted.
    pub const RESALE_PROFIT_FRACTION: f64 = 0.504;
    /// §V-B: fraction of NFTs bought the same day the manipulation started.
    pub const ACQUIRED_SAME_DAY: f64 = 0.39;
}

/// Format a measured-vs-paper comparison line.
pub fn compare(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    format!("  {label:<52} measured: {measured:>10.3}{unit}   paper: {paper:>10.3}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_analysis_round_trips() {
        let world = build_small_world(3);
        let report = analyze_world(&world);
        assert!(!report.detection.confirmed.is_empty());
    }

    #[test]
    fn paper_venn_buckets_sum_to_total() {
        assert_eq!(paper::VENN_BUCKETS.iter().sum::<usize>(), paper::VENN_TOTAL);
    }
}
