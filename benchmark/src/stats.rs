//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice:
/// the smallest sample with at least `p` percent of the samples at or
/// below it. `p` is clamped to `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending (NaN-free input) and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    samples
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest rung of `50, 90, 99, 99.9` that still has at least ten
/// samples beyond it in a sample of `n` — the highest percentile worth
/// reporting from that many samples.
pub fn supported_tail(n: usize) -> f64 {
    // In permille, so the nearest-rank arithmetic stays exact.
    [999, 990, 900]
        .into_iter()
        .find(|permille| n - (n * permille).div_ceil(1000) >= 10)
        .map_or(50.0, |permille| permille as f64 / 10.0)
}
