//! Order statistics over measured samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `values` (must be non-empty). Quantiles interpolate
    /// linearly between the two nearest order statistics.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summarizing an empty sample set");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }
}

/// The `q`-quantile of an ascending, non-empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let weight = position - lower as f64;
    sorted[lower] + (sorted[upper] - sorted[lower]) * weight
}

/// The `q`-quantile of an ascending, non-empty slice of readings quantized
/// to multiples of `quantum` (a clock tick): each reading stands for the
/// interval of one quantum around it, and the quantile interpolates within
/// the run of equal readings it falls in. Unlike [`quantile`], the result
/// moves continuously as samples shift between neighbouring ticks.
pub fn grouped_quantile(sorted: &[f64], q: f64, quantum: f64) -> f64 {
    let rank = q * sorted.len() as f64;
    let at = (rank as usize).min(sorted.len() - 1);
    let value = sorted[at];
    let first = sorted.partition_point(|v| *v < value);
    let count = sorted.partition_point(|v| *v <= value) - first;
    let within = ((rank - first as f64) / count as f64).clamp(0.0, 1.0);
    value - quantum / 2.0 + within * quantum
}

/// Median of a non-empty sample set.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let summary = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((summary.q1, summary.median, summary.q3, summary.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(Summary::of(&[7.0]).q3, 7.0);
    }

    #[test]
    fn grouped_quantile_interpolates_within_ties() {
        let sorted = [1.0, 2.0, 2.0, 2.0, 3.0];
        // Rank 2.5 falls halfway through the three 2s at ranks 1..4.
        assert_eq!(grouped_quantile(&sorted, 0.5, 1.0), 2.0);
        assert!(grouped_quantile(&sorted, 0.3, 1.0) < 2.0);
        assert!(grouped_quantile(&sorted, 0.7, 1.0) > 2.0);
    }
}
