//! Property-based tests for the log-bucketed histogram: bucket bounds
//! always contain the recorded value, merging is order-independent, and
//! quantiles stay within one bucket width of the exact sorted-sample
//! nearest-rank answer.
//!
//! Each property runs [`CASES`] cases; case `n` draws its inputs from
//! `seeded_rng(derive_seed(n, <test name>))`, and a failure names its case.

use rainbow_common::rng::{derive_seed, seeded_rng};
use rainbow_trace::LogHistogram;
use rand::rngs::StdRng;
use rand::Rng;

/// Cases each property runs.
const CASES: u64 = 256;

/// The cases of the property `name`: each case's number and its generator.
fn cases(name: &'static str) -> impl Iterator<Item = (u64, StdRng)> {
    (0..CASES).map(move |case| (case, seeded_rng(derive_seed(case, name))))
}

/// Between `len.start` and `len.end - 1` values drawn from `0..below`.
fn samples(rng: &mut StdRng, len: std::ops::Range<usize>, below: u64) -> Vec<u64> {
    (0..rng.gen_range(len))
        .map(|_| rng.gen_range(0..below))
        .collect()
}

/// The exact nearest-rank quantile over a sorted sample set.
fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
    sorted[rank - 1]
}

/// Every recorded value lies within its bucket's `[low, high)` bounds.
#[test]
fn recorded_value_is_within_its_bucket_bounds() {
    for (case, mut rng) in cases("recorded_value_is_within_its_bucket_bounds") {
        let value = rng.gen_range(0..u64::MAX);
        let index = LogHistogram::index_for(value);
        let (low, high) = LogHistogram::bucket_bounds(index);
        // The top bucket's high saturates at u64::MAX and is inclusive.
        assert!(
            low <= value && (value < high || high == u64::MAX),
            "case {case}: value {value} outside bucket {index} = [{low}, {high})"
        );
    }
}

/// Merging histograms is order-independent: recording two streams into
/// separate histograms and merging (in either direction) yields the same
/// summary as one histogram fed everything.
#[test]
fn merge_is_order_independent() {
    for (case, mut rng) in cases("merge_is_order_independent") {
        let left = samples(&mut rng, 0..80, 10_000_000);
        let right = samples(&mut rng, 0..80, 10_000_000);
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for &v in &left {
            a.record(v);
            combined.record(v);
        }
        for &v in &right {
            b.record(v);
            combined.record(v);
        }
        let mut a_then_b = a.clone();
        a_then_b.merge(&b);
        let mut b_then_a = b.clone();
        b_then_a.merge(&a);
        assert_eq!(a_then_b.count(), combined.count(), "case {case}");
        let summary = a_then_b.to_latency_stats();
        assert_eq!(summary, b_then_a.to_latency_stats(), "case {case}");
        assert_eq!(summary, combined.to_latency_stats(), "case {case}");
    }
}

/// Histogram quantiles are within one bucket width of the exact
/// nearest-rank answer computed from the sorted samples.
#[test]
fn quantiles_within_one_bucket_width_of_exact() {
    for (case, mut rng) in cases("quantiles_within_one_bucket_width_of_exact") {
        let mut samples = samples(&mut rng, 1..120, 100_000_000);
        let mut hist = LogHistogram::new();
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();
        for q in [0.50, 0.95, 0.99, 0.999] {
            let exact = exact_nearest_rank(&samples, q);
            let approx = hist.value_at_quantile(q);
            let (low, high) = LogHistogram::bucket_bounds(LogHistogram::index_for(exact));
            let width = high - low;
            let error = approx.abs_diff(exact);
            assert!(
                error <= width,
                "case {case}: q={q}: approx {approx} vs exact {exact} (bucket width {width})"
            );
        }
    }
}

/// Count, min, max and mean are exact whatever the input stream.
#[test]
fn scalar_summaries_are_exact() {
    for (case, mut rng) in cases("scalar_summaries_are_exact") {
        let samples = samples(&mut rng, 1..100, 1_000_000);
        let mut hist = LogHistogram::new();
        for &v in &samples {
            hist.record(v);
        }
        let exact_mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
        assert_eq!(hist.count(), samples.len() as u64, "case {case}");
        assert_eq!(hist.min(), *samples.iter().min().unwrap(), "case {case}");
        assert_eq!(hist.max(), *samples.iter().max().unwrap(), "case {case}");
        let error = (hist.mean() - exact_mean).abs();
        assert!(
            error < 1e-6 * (1.0 + exact_mean),
            "case {case}: mean off by {error}"
        );
    }
}
