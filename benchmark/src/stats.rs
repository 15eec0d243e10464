//! Order statistics for small timing samples.

/// Sorted copy of `values` (NaNs, which no caller should pass, sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the benchmark contract computes spreads with. `None` below two
/// samples, where that function raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the spread
/// the contract bounds. `None` below two samples or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest of p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it in a sample of `n`, as `(label, q)`; `None` when even p90
/// does not qualify (n < 100), in which case report quartiles instead.
pub fn tail_percentile(n: usize) -> Option<(&'static str, f64)> {
    [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
    ]
    .into_iter()
    .find(|&(_, q)| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// Nearest-rank quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "quantile of no samples");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&five), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[5.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(("p90", 0.90)));
        assert_eq!(tail_percentile(199), Some(("p90", 0.90)));
        assert_eq!(tail_percentile(200), Some(("p95", 0.95)));
        assert_eq!(tail_percentile(1000), Some(("p99", 0.99)));
        assert_eq!(tail_percentile(10_000), Some(("p99.9", 0.999)));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.9), 180.0);
        assert_eq!(quantile(&v, 1.0), 200.0);
        assert_eq!(quantile(&[4.0], 0.0), 4.0);
    }
}
