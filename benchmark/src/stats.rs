//! Order statistics over latency samples.

/// Samples required beyond a percentile before it is trusted
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`p` in `(0, 1]`); 0 for
/// no samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Whether `n` samples back percentile `p` with [`MIN_BEYOND`] beyond it.
pub fn percentile_is_backed(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median: mean of the two middle values for an even count, 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(max − min) ÷ median` of a metric's values across repeated runs; 0
/// when the median is 0.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v[..1], 0.95), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        // 200 samples: rank 190, ten beyond. One fewer sample is not enough.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(percentile_is_backed(200, 0.95));
        assert!(!percentile_is_backed(199, 0.95));
        assert!(!percentile_is_backed(27, 0.95));
        assert!(percentile_is_backed(27, 0.50));
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(relative_spread(&[90.0, 110.0]), 0.2);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
