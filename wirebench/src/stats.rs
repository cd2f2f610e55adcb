//! Order statistics over latency samples.

/// Percentiles the benchmark reports, highest first.
pub const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile needs beyond it before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// Whether `count` samples leave at least [`SAMPLES_BEYOND`] beyond
/// percentile `p`.
pub fn supports(count: usize, p: f64) -> bool {
    let beyond = count as f64 * (1.0 - p / 100.0);
    // Rounded, so 1000 samples support p99 despite 0.99 not being exact.
    (beyond * 1e6).round() / 1e6 >= SAMPLES_BEYOND as f64
}

/// The highest of [`PERCENTILES`] that `count` samples support.
pub fn highest_supported(count: usize) -> Option<f64> {
    PERCENTILES.into_iter().find(|&p| supports(count, p))
}

/// Nearest-rank percentile of ascending `sorted` (`None` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` ascending.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of `samples` (the mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert!(supports(1_000, 99.0) && !supports(999, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        // Ten samples (991..=1000) lie beyond p99.
        assert_eq!(s.iter().filter(|&&v| v > 990.0).count(), SAMPLES_BEYOND);
        assert_eq!(percentile(&s, 100.0), Some(1000.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
