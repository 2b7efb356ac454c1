//! The percentile helper every latency metric goes through.

use torus_benchmark::stats::{mean, median, percentile, sorted, supported_tail};

#[test]
fn nearest_rank_on_one_to_hundred() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    // Nearest rank never interpolates: the answer is always a sample.
    assert_eq!(percentile(&v, 50.5), 51.0);
}

#[test]
fn small_samples_clamp_to_the_ends() {
    assert_eq!(percentile(&[7.0], 50.0), 7.0);
    assert_eq!(percentile(&[7.0], 99.9), 7.0);
    assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
    assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
    assert_eq!(percentile(&[1.0, 2.0], 50.1), 2.0);
    assert_eq!(percentile(&[1.0, 2.0, 3.0], 90.0), 3.0);
}

#[test]
fn median_sorts_first() {
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
}

#[test]
fn mean_of_nothing_is_zero() {
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(supported_tail(50), 50.0);
    assert_eq!(supported_tail(99), 50.0);
    assert_eq!(supported_tail(100), 90.0);
    assert_eq!(supported_tail(999), 90.0);
    assert_eq!(supported_tail(1000), 99.0);
    assert_eq!(supported_tail(10_000), 99.9);
}

#[test]
#[should_panic(expected = "no samples")]
fn percentile_of_nothing_panics() {
    percentile(&[], 50.0);
}
