//! Order statistics the harness reports: medians and quartiles of the
//! per-pass measurements, exact nearest-rank percentiles of latency
//! samples, and the rule that picks the highest percentile a sample count
//! can support.

/// Median, quartiles and count of a set of per-pass measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub count: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation between closest ranks at quantile `q` in `[0, 1]`
/// (the "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
fn interpolated(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measured at least one pass.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Quartiles of `values` by interpolation between closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    Quartiles {
        q1: interpolated(&v, 0.25),
        median: interpolated(&v, 0.5),
        q3: interpolated(&v, 0.75),
        count: v.len(),
    }
}

/// Exact nearest-rank percentile: the smallest sample with at least
/// `percentile` percent of the samples at or below it. `None` when empty.
pub fn nearest_rank(values: &[f64], percentile: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(sorted(values)[rank_of(values.len(), percentile) - 1])
}

/// The one-based nearest rank of `percentile` in `count ≥ 1` samples:
/// `⌈percentile/100 × count⌉`, clamped to `1..=count`. Percentiles such as
/// 99.9 have no exact binary form, so the product is nudged down by less
/// than any real rank gap before rounding up — p99.9 of 10 000 samples is
/// rank 9 990, not 9 991.
fn rank_of(count: usize, percentile: f64) -> usize {
    let exact = percentile / 100.0 * count as f64;
    ((exact - 1e-9).ceil() as usize).clamp(1, count)
}

/// The tail percentiles the harness may report, lowest first.
pub const TAIL_LADDER: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`SAMPLES_BEYOND`] samples beyond it in a sample of `count`, or `None`
/// when even the lowest rung is unsupported (fewer than 100 samples).
pub fn supported_tail(count: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| samples_beyond(count, p) >= SAMPLES_BEYOND)
}

/// How many of `count` samples lie strictly beyond the nearest-rank
/// `percentile`.
pub fn samples_beyond(count: usize, percentile: f64) -> usize {
    if count == 0 {
        0
    } else {
        count - rank_of(count, percentile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_interpolate_between_closest_ranks() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.count), (2.0, 3.0, 4.0, 5));
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (12.5, 15.0, 17.5));
        let q = quartiles(&[9.0]);
        assert_eq!((q.q1, q.median, q.q3, q.count), (9.0, 9.0, 9.0, 1));
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_highest_supported_tail() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        // p90 needs 100 samples, p95 200, p99.9 10 000.
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(0), None);
    }
}
