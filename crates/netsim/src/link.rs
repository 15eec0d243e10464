//! Link-level fault injection.
//!
//! Mirrors smoltcp's example-level fault injection (`--drop-chance` etc.):
//! every example binary in this workspace exposes `--loss` and `--jitter`
//! flags backed by this model, so the response of the coordinate systems to
//! *benign* adverse network conditions can be demonstrated alongside the
//! malicious attacks.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Probe-level fault model applied on top of the base RTT matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Probability that a probe is lost entirely (no response).
    pub loss: f64,
    /// Half-width of uniform symmetric jitter added to the RTT, in ms.
    pub jitter_ms: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            loss: 0.0,
            jitter_ms: 0.0,
        }
    }
}

impl LinkModel {
    /// The identity model: no loss, no jitter.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Apply the model to a probe with base round-trip time `rtt_ms`.
    ///
    /// Returns `None` when the probe is lost, otherwise the perturbed RTT.
    /// Jitter is sampled from the *inclusive* symmetric band
    /// `[-jitter_ms, +jitter_ms]` — a half-open `-j..j` range would bias
    /// the band by excluding `+jitter_ms` while admitting `-jitter_ms`.
    /// The perturbed RTT is floored at **0.1 ms**: a measured round-trip
    /// can be arbitrarily small but never zero or negative, and downstream
    /// consumers (relative error, coordinate updates) divide by it.
    pub fn apply<R: Rng + ?Sized>(&self, rtt_ms: f64, rng: &mut R) -> Option<f64> {
        if self.loss > 0.0 && rng.gen_bool(self.loss.clamp(0.0, 1.0)) {
            return None;
        }
        let jit = if self.jitter_ms > 0.0 {
            rng.gen_range(-self.jitter_ms..=self.jitter_ms)
        } else {
            0.0
        };
        Some((rtt_ms + jit).max(0.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ideal_passes_through() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = LinkModel::ideal();
        assert_eq!(m.apply(42.0, &mut rng), Some(42.0));
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = LinkModel {
            loss: 1.0,
            jitter_ms: 0.0,
        };
        for _ in 0..32 {
            assert_eq!(m.apply(42.0, &mut rng), None);
        }
    }

    #[test]
    fn jitter_stays_in_band_and_positive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = LinkModel {
            loss: 0.0,
            jitter_ms: 5.0,
        };
        for _ in 0..500 {
            let v = m.apply(10.0, &mut rng).unwrap();
            assert!((5.0..=15.0).contains(&v), "{v}");
        }
        // Tiny base RTT cannot go non-positive.
        for _ in 0..500 {
            assert!(m.apply(0.2, &mut rng).unwrap() >= 0.1);
        }
    }

    #[test]
    fn partial_loss_rate_is_plausible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = LinkModel {
            loss: 0.25,
            jitter_ms: 0.0,
        };
        let lost = (0..4000)
            .filter(|_| m.apply(10.0, &mut rng).is_none())
            .count();
        let rate = lost as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "rate={rate}");
    }
}
