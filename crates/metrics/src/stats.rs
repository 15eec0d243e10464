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
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("filtered to finite"));
    let idx = ((v.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
    v[idx]
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
}
