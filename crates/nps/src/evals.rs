//! Process-global objective-evaluation accounting.
//!
//! Every successful NPS positioning round records how many Simplex objective
//! evaluations it performed (both fits combined) into a global histogram.
//! The bench harness snapshots the histogram around each figure run and
//! reports the delta as `evals_per_round` — the before/after evidence for
//! the warm-start evaluation-count collapse.
//!
//! Only ordinary repositioning rounds are recorded; the start-up landmark
//! embedding is construction-time work, identical in every mode, and would
//! dilute the per-round statistic.
//!
//! The storage is a `vcoord_obs` [`GlobalHist`] registered as
//! `nps.position.evals` — the aggregate (always-on) observability plane —
//! so eval accounting and the tracing metrics share one registry. This
//! module keeps the original API as a thin veneer: parallel figure workers
//! all land in the same histogram, and callers that need a per-run view
//! take a [`snapshot`] before and after and subtract. The buckets are the
//! shared HDR layout (`vcoord_obs::hdr`), so quantile resolution scales
//! with magnitude instead of saturating at a fixed bucket cap.

use std::sync::OnceLock;
use vcoord_obs::{global_hist, GlobalHist, HistSnapshot};

/// Metric name in the shared `vcoord_obs` registry.
pub const METRIC: &str = "nps.position.evals";

fn hist() -> &'static GlobalHist {
    static HIST: OnceLock<&'static GlobalHist> = OnceLock::new();
    HIST.get_or_init(|| global_hist(METRIC))
}

/// Record one positioning round that performed `evals` objective
/// evaluations.
pub fn record_round(evals: usize) {
    hist().record(evals);
}

/// A point-in-time copy of the global evaluation histogram.
///
/// Subtract two snapshots ([`EvalSnapshot::delta_since`]) to get the rounds
/// recorded in between, then read [`EvalSnapshot::mean`] /
/// [`EvalSnapshot::median`] / [`EvalSnapshot::quantile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalSnapshot(HistSnapshot);

/// Capture the current global histogram.
pub fn snapshot() -> EvalSnapshot {
    EvalSnapshot(hist().snapshot())
}

impl EvalSnapshot {
    /// The rounds recorded between `earlier` and `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is not actually earlier (the counters are
    /// monotone, so a negative delta means the snapshots were swapped).
    pub fn delta_since(&self, earlier: &EvalSnapshot) -> EvalSnapshot {
        EvalSnapshot(self.0.delta_since(&earlier.0))
    }

    /// Positioning rounds covered by this snapshot (or delta).
    pub fn rounds(&self) -> u64 {
        self.0.count()
    }

    /// Total objective evaluations covered.
    pub fn evals(&self) -> u64 {
        self.0.sum()
    }

    /// Exact mean objective evaluations per round (`NaN` with no rounds).
    pub fn mean(&self) -> f64 {
        self.0.mean()
    }

    /// Approximate median evaluations per round (`NaN` with no rounds).
    /// Resolution is one HDR bucket width at that magnitude.
    pub fn median(&self) -> f64 {
        self.0.median()
    }

    /// Nearest-rank quantile of evaluations per round (`NaN` with no
    /// rounds).
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoord_obs::hdr;

    // The histogram is process-global and other tests in this binary drive
    // whole simulations through it, so every assertion here works on the
    // snapshot *delta* over locally recorded rounds — retaken until no
    // concurrent simulation landed a round inside the window (a snapshot
    // reads the tallies one by one, so a foreign round can show up in the
    // buckets or the eval total alone).
    fn quiet_delta(rounds: &[usize]) -> EvalSnapshot {
        let n = rounds.len() as u64;
        let evals = rounds.iter().sum::<usize>() as u64;
        for _ in 0..10_000 {
            let before = snapshot();
            for &r in rounds {
                record_round(r);
            }
            let d = snapshot().delta_since(&before);
            let in_buckets: u64 = d.0.buckets().iter().sum();
            if d.rounds() == n && d.evals() == evals && in_buckets == n {
                return d;
            }
        }
        panic!("no snapshot window free of concurrent rounds in 10 000 tries");
    }

    #[test]
    fn deltas_track_recorded_rounds() {
        let d = quiet_delta(&[10, 30, 200]);
        assert_eq!(d.rounds(), 3);
        assert_eq!(d.evals(), 240);
        assert!((d.mean() - 80.0).abs() < 1e-12);
        // Median round is the 30-eval one, within one HDR bucket width.
        assert!((d.median() - 30.0).abs() <= hdr::width_of(30) as f64);
    }

    #[test]
    fn huge_rounds_keep_relative_resolution() {
        let d = quiet_delta(&[1_000_000]);
        assert_eq!(d.rounds(), 1);
        assert_eq!(d.evals(), 1_000_000);
        // The old linear layout saturated at 1 575 evals; the HDR buckets
        // resolve a 1e6-eval round to within ~3 % instead.
        assert!((d.median() - 1_000_000.0).abs() <= hdr::width_of(1_000_000) as f64);
    }

    #[test]
    fn quantiles_split_mixed_rounds() {
        let d = quiet_delta(&[50, 50, 50, 50, 50, 50, 50, 50, 50, 5_000]);
        assert!((d.quantile(0.5) - 50.0).abs() <= hdr::width_of(50) as f64);
        assert!((d.quantile(1.0) - 5_000.0).abs() <= hdr::width_of(5_000) as f64);
    }

    #[test]
    #[should_panic(expected = "snapshots out of order")]
    fn swapped_snapshots_panic() {
        let before = snapshot();
        record_round(1);
        let after = snapshot();
        let _ = before.delta_since(&after);
    }

    #[test]
    fn shares_the_obs_registry() {
        record_round(0); // ensure registration
        let id = vcoord_obs::metric(METRIC);
        assert!(vcoord_obs::global_hists().iter().any(|h| h.id() == id));
    }
}
