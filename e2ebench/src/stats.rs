//! Sample summaries: medians, guarded percentiles and the least-squares
//! intercept the per-layer run uses.

/// A named value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples (rounds, windows, calls) the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric { name, unit, value, samples }
    }
}

/// The median of `values`; `None` when empty.
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

/// How many samples must lie strictly beyond a percentile before it is
/// reported: fewer, and the tail is a handful of anecdotes.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q` quantile (`0 < q < 1`) of `values`, refusing
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// A message naming the metric, the sample count and the count needed.
pub fn percentile(name: &str, values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        let needed = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
        return Err(format!(
            "{name}: {n} samples leave {beyond} beyond the {q} quantile; \
             at least {needed} samples are needed for {MIN_BEYOND} beyond it"
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Least-squares intercept of `y` against `x`; `None` with fewer than
/// two distinct `x`.
pub fn intercept(points: &[(f64, f64)]) -> Option<f64> {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    (sxx > 0.0).then(|| my - (sxy / sxx) * mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_over_thirty_samples_is_refused() {
        let err = percentile("request_p99_ms", &ramp(30), 0.99).unwrap_err();
        assert!(err.contains("request_p99_ms: 30 samples"), "{err}");
        assert!(err.contains("1000 samples are needed"), "{err}");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(percentile("p99", &ramp(1000), 0.99), Ok(990.0));
        assert!(percentile("p99", &ramp(999), 0.99).is_err());
        assert_eq!(percentile("p90", &ramp(100), 0.90), Ok(90.0));
        assert!(percentile("p90", &ramp(99), 0.90).is_err());
        assert_eq!(percentile("p50", &ramp(20), 0.50), Ok(10.0));
        assert!(percentile("p50", &ramp(19), 0.50).is_err());
        assert!(percentile("p50", &[], 0.50).is_err());
    }

    #[test]
    fn intercept_of_a_line() {
        let pts = [(1.0, 7.0), (2.0, 9.0), (4.0, 13.0)];
        assert!((intercept(&pts).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(intercept(&[(1.0, 1.0), (1.0, 2.0)]), None);
    }
}
