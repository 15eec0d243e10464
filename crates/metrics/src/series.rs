//! Tick-indexed time series.

use serde::{Deserialize, Serialize};

/// A time series sampled on simulation-tick boundaries.
///
/// Used for the error-vs-time figures; the x unit is the paper's simulation
/// tick (~17 s for Vivaldi, one repositioning period for NPS).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Append a sample. Ticks must be pushed in non-decreasing order.
    ///
    /// # Panics
    /// Panics in debug builds if `tick` precedes the last sample.
    pub fn push(&mut self, tick: u64, value: f64) {
        debug_assert!(
            self.points.last().map_or(true, |&(t, _)| tick >= t),
            "ticks must be non-decreasing"
        );
        self.points.push((tick, value));
    }

    /// All `(tick, value)` samples.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Mean of the final `window` samples (all of them if fewer) — the
    /// "value after (re)convergence" statistic used by the sweep figures.
    pub fn tail_mean(&self, window: usize) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let skip = self.points.len().saturating_sub(window);
        let tail = &self.points[skip..];
        tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64
    }

    /// Divide every value by `denom`, producing the paper's *error ratio*
    /// series (degradation relative to the clean system). A non-positive
    /// denominator yields an empty series rather than infinities.
    pub fn ratio_to(&self, denom: f64) -> TimeSeries {
        if denom <= 0.0 || !denom.is_finite() {
            return TimeSeries::new();
        }
        TimeSeries {
            points: self.points.iter().map(|&(t, v)| (t, v / denom)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for (i, &v) in vals.iter().enumerate() {
            s.push(i as u64, v);
        }
        s
    }

    #[test]
    fn push_and_read_back() {
        let s = series(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some(3.0));
        assert_eq!(s.points()[1], (1, 2.0));
    }

    #[test]
    fn tail_mean_windows() {
        let s = series(&[10.0, 10.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.tail_mean(3), 2.0);
        assert_eq!(s.tail_mean(100), 5.2);
        assert_eq!(TimeSeries::new().tail_mean(5), 0.0);
    }

    #[test]
    fn ratio_to_scales() {
        let s = series(&[2.0, 4.0]).ratio_to(2.0);
        assert_eq!(s.points(), &[(0, 1.0), (1, 2.0)]);
        assert!(series(&[1.0]).ratio_to(0.0).is_empty());
    }
}
