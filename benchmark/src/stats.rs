//! Percentile and median arithmetic shared by every measurement.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `p` (0..=1) of the samples are ≤ it. Empty input
/// yields 0.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sort `samples` in place and return its nearest-rank percentile.
pub fn percentile_of(samples: &mut [u32], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// Median; the mean of the two middle values for an even count. Empty
/// input yields 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean. Empty input yields 0.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `a / b`, or 0 when `b` is 0 — per-layer ratios whose denominator a
/// workload never produced (syncs on a run without durability, …).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        // 10 samples: p99 is the maximum, p50 the fifth.
        let ten: Vec<u32> = (1..=10).map(|x| x * 10).collect();
        assert_eq!(percentile(&ten, 0.99), 100.0);
        assert_eq!(percentile(&ten, 0.5), 50.0);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
        let mut unsorted = vec![30u32, 10, 20];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 20.0);
    }

    #[test]
    fn segment_median_is_order_free_and_resists_one_outlier() {
        // Five per-segment throughputs, one disturbed segment.
        assert_eq!(median(&[26_100.0, 4_521.0, 25_900.0, 26_300.0, 26_000.0]), 26_000.0);
        // Four segments: mean of the middle two.
        assert_eq!(median(&[4.0, 1.0, 3.0, 100.0]), 3.5);
        assert_eq!(median(&[7.25]), 7.25);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 100.0]), 27.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
