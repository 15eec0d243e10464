//! The attacker's victim-coordinate knowledge model.
//!
//! §5.4.2/§5.4.3 of the paper study how much an attacker gains from knowing
//! its victims' coordinates "prior to striking" (e.g. from previous
//! positioning requests), sweeping the probability `p` that the coordinates
//! are known. This module centralizes that model so attack strategies stay
//! free of sampling logic.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How much an attacker knows about a victim's current coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Knowledge {
    /// Always knows (the paper's "full knowledge", `p = 1`).
    Oracle,
    /// Knows with probability `p`, decided independently per probe.
    Prob(f64),
    /// Never knows (`p = 0`): pure guesswork.
    None,
}

impl Knowledge {
    /// The paper's default for the anti-detection attacks: `p = 1/2`.
    pub fn half() -> Knowledge {
        Knowledge::Prob(0.5)
    }

    /// Sample whether this particular probe benefits from knowledge.
    pub(crate) fn knows<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match *self {
            Knowledge::Oracle => true,
            Knowledge::None => false,
            Knowledge::Prob(p) => {
                if p <= 0.0 {
                    false
                } else if p >= 1.0 {
                    true
                } else {
                    rng.gen_bool(p)
                }
            }
        }
    }

    /// The nominal probability (for CSV headers and sweeps).
    pub(crate) fn probability(&self) -> f64 {
        match *self {
            Knowledge::Oracle => 1.0,
            Knowledge::None => 0.0,
            Knowledge::Prob(p) => p.clamp(0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn oracle_and_none_are_constant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..64 {
            assert!(Knowledge::Oracle.knows(&mut rng));
            assert!(!Knowledge::None.knows(&mut rng));
        }
    }

    #[test]
    fn prob_rate_is_plausible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let k = Knowledge::Prob(0.3);
        let hits = (0..10_000).filter(|_| k.knows(&mut rng)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&rate), "rate {rate}");
    }

    #[test]
    fn degenerate_probabilities_clamp() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert!(Knowledge::Prob(2.0).knows(&mut rng));
        assert!(!Knowledge::Prob(-1.0).knows(&mut rng));
        assert_eq!(Knowledge::Prob(2.0).probability(), 1.0);
    }

    #[test]
    fn probabilities_report() {
        assert_eq!(Knowledge::Oracle.probability(), 1.0);
        assert_eq!(Knowledge::None.probability(), 0.0);
        assert_eq!(Knowledge::half().probability(), 0.5);
    }
}
