//! The three summaries every reported number goes through.

use std::time::Duration;

/// A duration in microseconds, fraction included.
pub fn micros(duration: Duration) -> f64 {
    duration.as_nanos() as f64 / 1000.0
}

/// Nearest-rank percentile: the smallest sample such that at least `p`·n
/// samples are ≤ it (rank ⌈p·n⌉, 1-based). `sorted` must be ascending.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median over rounds: the middle value, or the mean of the two middle
/// values when the count is even.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method) — the spread the benchmark's bounds are judged
/// against. `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), Some(50.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 0.999), Some(100.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.50), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.50), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn median_of_rounds_takes_the_middle() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), Some(3.0));
        assert_eq!(median(&[2.5]), Some(2.5));
        assert_eq!(median(&[]), None);
        // One slow round does not move it.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 300.0]), Some(100.5));
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 50], n=4) == [10.5, 12.0, 31.5]
        let spread = quartile_spread(&[10.0, 12.0, 11.0, 13.0, 50.0]).unwrap();
        assert!((spread - (31.5 - 10.5) / 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), None);
    }
}
