//! Detection-quality accounting: the confusion matrix of a defense run.
//!
//! Where [`FilterLedger`](crate::FilterLedger) tallies individual filter
//! *events* (the paper's figures 20/22 plot event ratios), [`Confusion`]
//! classifies *nodes*: given a ground-truth malicious set, how many nodes a
//! detector flagged were actually malicious (true positives), how many
//! honest nodes it defamed (false positives), and what it missed. Defense
//! sweeps reduce every (attack × defense) cell to the derived
//! [`Confusion::tpr`] / [`Confusion::fpr`] pair — the coordinates of a ROC
//! point.

use serde::{Deserialize, Serialize};

/// Node-level confusion matrix of one detection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// Malicious nodes the detector flagged.
    pub true_positives: u64,
    /// Honest nodes the detector flagged.
    pub false_positives: u64,
    /// Honest nodes left alone.
    pub true_negatives: u64,
    /// Malicious nodes that went undetected.
    pub false_negatives: u64,
}

impl Confusion {
    /// An empty matrix.
    pub fn new() -> Confusion {
        Confusion::default()
    }

    /// Record one classified node.
    pub fn record(&mut self, malicious: bool, flagged: bool) {
        match (malicious, flagged) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (true, false) => self.false_negatives += 1,
        }
    }

    /// Total nodes classified.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// True-positive rate (recall): flagged malicious / all malicious.
    /// `None` when the run had no malicious nodes.
    pub fn tpr(&self) -> Option<f64> {
        let p = self.true_positives + self.false_negatives;
        (p > 0).then(|| self.true_positives as f64 / p as f64)
    }

    /// False-positive rate: flagged honest / all honest. `None` when the
    /// run had no honest nodes.
    pub fn fpr(&self) -> Option<f64> {
        let n = self.false_positives + self.true_negatives;
        (n > 0).then(|| self.false_positives as f64 / n as f64)
    }

    /// Youden's J statistic `TPR − FPR`: the single-number summary of a
    /// ROC point (1 = perfect separation, 0 = chance, negative = worse
    /// than chance). The arms-race sweeps reduce each attack×defense cell
    /// to it — an evading attacker's goal is exactly to drive a detector's
    /// J toward zero at matched attack budget. `None` when either rate is
    /// undefined (no malicious or no honest nodes classified).
    pub fn youden_j(&self) -> Option<f64> {
        Some(self.tpr()? - self.fpr()?)
    }

    /// Merge another matrix into this one (for aggregating repetitions).
    pub fn merge(&mut self, other: &Confusion) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_has_no_rates() {
        let c = Confusion::new();
        assert_eq!(c.tpr(), None);
        assert_eq!(c.fpr(), None);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn rates_follow_definitions() {
        let mut c = Confusion::new();
        // 3 malicious: 2 caught, 1 missed. 5 honest: 1 defamed, 4 spared.
        c.record(true, true);
        c.record(true, true);
        c.record(true, false);
        for _ in 0..4 {
            c.record(false, false);
        }
        c.record(false, true);
        assert_eq!(c.total(), 8);
        assert!((c.tpr().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.fpr().unwrap() - 1.0 / 5.0).abs() < 1e-12);
        assert!((c.youden_j().unwrap() - (2.0 / 3.0 - 1.0 / 5.0)).abs() < 1e-12);
        assert_eq!(Confusion::new().youden_j(), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Confusion::new();
        a.record(true, true);
        let mut b = Confusion::new();
        b.record(false, true);
        b.record(false, false);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.false_positives, 1);
        assert_eq!(a.true_negatives, 1);
    }
}
