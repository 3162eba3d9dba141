//! Order statistics the benchmark reports: medians, the quartile spread the
//! acceptance rule uses, and the tail-percentile rule.

/// A duration in milliseconds.
pub fn millis(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so the numbers printed here are the
/// ones the acceptance rule computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 when there
/// are too few values to have quartiles.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// The highest of the 99th, 90th and 50th percentile that has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    [99u32, 90, 50]
        .into_iter()
        .find(|p| samples * (100 - *p as usize) >= 10 * 100)
}

/// Nearest-rank percentile.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (v.len() * pct as usize).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(8), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(336), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[5.0], 99), 5.0);
    }
}
