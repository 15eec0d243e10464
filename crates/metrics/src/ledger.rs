//! Accounting of NPS security-filter decisions.
//!
//! Figures 20 and 22 of the paper plot the *ratio of malicious nodes
//! filtered to the overall number of filtered nodes*: when the ratio drops,
//! the security mechanism is wasting its one-elimination-per-positioning
//! budget on honest (but mis-positioned) reference points, effectively
//! shielding the attackers.

use serde::{Deserialize, Serialize};

/// Tally of filter events, split by whether the filtered reference point was
/// actually malicious.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterLedger {
    /// Filter events that removed a malicious reference point (true
    /// positives).
    pub filtered_malicious: u64,
    /// Filter events that removed an honest reference point (false
    /// positives).
    pub filtered_honest: u64,
}

impl FilterLedger {
    /// An empty ledger.
    pub fn new() -> FilterLedger {
        FilterLedger::default()
    }

    /// Record one filter event.
    pub fn record(&mut self, was_malicious: bool) {
        if was_malicious {
            self.filtered_malicious += 1;
        } else {
            self.filtered_honest += 1;
        }
    }

    /// Total filter events.
    pub fn total(&self) -> u64 {
        self.filtered_malicious + self.filtered_honest
    }

    /// Fraction of filter events that hit a malicious node
    /// (`None` when nothing was filtered).
    pub fn malicious_ratio(&self) -> Option<f64> {
        let t = self.total();
        if t == 0 {
            None
        } else {
            Some(self.filtered_malicious as f64 / t as f64)
        }
    }

    /// Merge another ledger into this one (for aggregating repetitions).
    pub fn merge(&mut self, other: &FilterLedger) {
        self.filtered_malicious += other.filtered_malicious;
        self.filtered_honest += other.filtered_honest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_has_no_ratio() {
        assert_eq!(FilterLedger::new().malicious_ratio(), None);
    }

    #[test]
    fn ratios_add_up() {
        let mut l = FilterLedger::new();
        l.record(true);
        l.record(true);
        l.record(false);
        assert_eq!(l.total(), 3);
        assert!((l.malicious_ratio().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FilterLedger::new();
        a.record(true);
        let mut b = FilterLedger::new();
        b.record(false);
        b.record(false);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.filtered_honest, 2);
    }
}
