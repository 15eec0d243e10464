//! Summary-statistics helpers shared across the workspace.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median (of a copy; the input is not reordered); `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Percentile `p ∈ [0, 1]` by nearest-rank on a sorted copy.
///
/// `0.0` for an empty slice. NaNs are filtered out defensively (adversarial
/// coordinate arithmetic can produce them upstream).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("filtered to finite"));
    let idx = ((v.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    v[idx]
}

/// Population standard deviation; `0.0` for fewer than two samples.
#[cfg(test)]
fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(mean(&xs), 22.0);
        assert_eq!(median(&xs), 3.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_extremes() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
    }

    #[test]
    fn percentile_ignores_nan() {
        let xs = [f64::NAN, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 2.0);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn stddev_known_value() {
        // Population stddev of {2,4,4,4,5,5,7,9} is 2.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }
}
