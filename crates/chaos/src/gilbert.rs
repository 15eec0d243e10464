//! Gilbert–Elliott correlated loss.
//!
//! The classic two-state Markov chain: a prober is either in the *good*
//! state (probes pass untouched — any i.i.d. `LinkModel` loss still
//! applies upstream) or the *bad* state (probes are lost with probability
//! `BURST_LOSS`, and survivors carry a `BURST_SPIKE_MS` RTT spike). The
//! chain advances one step per probe, so burst lengths are geometric with
//! mean `1 / BURST_P_EXIT` probes — the correlated-loss upgrade over
//! `LinkModel`'s memoryless coin flip.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The burst regime of the two-state Gilbert–Elliott chain: how often a
/// burst begins. State is kept per-prober (a single `bool`) by
/// [`crate::ChaosState`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstModel {
    /// Per-probe probability of entering a burst (good → bad).
    pub p_enter: f64,
}

/// Per-probe probability of leaving a burst (bad → good); the mean burst
/// length is `1 / BURST_P_EXIT` probes.
const BURST_P_EXIT: f64 = 0.25;
/// Loss probability while inside a burst.
const BURST_LOSS: f64 = 0.5;
/// Additive RTT spike (ms) on probes that survive a burst.
const BURST_SPIKE_MS: f64 = 40.0;

impl BurstModel {
    /// A mild default regime: rare, short bursts that mostly spike RTT.
    pub fn mild() -> Self {
        BurstModel { p_enter: 0.02 }
    }

    /// Advance the chain one step for a prober whose state is `bad`, then
    /// sample this probe's fate from the *new* state.
    pub fn step<R: Rng + ?Sized>(&self, bad: &mut bool, rng: &mut R) -> BurstFate {
        if *bad {
            if rng.gen_bool(BURST_P_EXIT) {
                *bad = false;
            }
        } else if rng.gen_bool(self.p_enter.clamp(0.0, 1.0)) {
            *bad = true;
        }
        if !*bad {
            return BurstFate::Clean;
        }
        if rng.gen_bool(BURST_LOSS) {
            BurstFate::Lost
        } else {
            BurstFate::Spiked(BURST_SPIKE_MS)
        }
    }
}

/// What the burst chain did to one probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstFate {
    /// Good state: the probe passes untouched.
    Clean,
    /// Bad state, survived: add the spike to the measured RTT.
    Spiked(f64),
    /// Bad state, lost: the probe times out.
    Lost,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn bursts_are_correlated_not_iid() {
        let m = BurstModel { p_enter: 0.0625 };
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut bad = false;
        // Every fate that is not clean was sampled in the bad state.
        let fates: Vec<bool> = (0..20_000)
            .map(|_| m.step(&mut bad, &mut rng) != BurstFate::Clean)
            .collect();
        let bad_rate = fates.iter().filter(|&&b| b).count() as f64 / fates.len() as f64;
        // Stationary bad-state occupancy is p_enter / (p_enter + BURST_P_EXIT) = 0.2.
        assert!((0.15..0.25).contains(&bad_rate), "bad_rate={bad_rate}");
        // The bad state after a bad probe must far exceed the marginal
        // rate: that is what "correlated" means.
        let pairs = fates.windows(2).filter(|w| w[0]).count();
        let both = fates.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = both as f64 / pairs as f64;
        assert!(
            cond > 2.0 * bad_rate,
            "cond={cond} marginal={bad_rate}: bursts look i.i.d."
        );
    }

    #[test]
    fn good_state_is_clean_and_spikes_apply() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        // p_enter = 1 forces the bad state at once and re-enters it the
        // step after every exit: a probe is clean only as the burst ends,
        // and the bad state both loses probes and spikes the survivors.
        let stormy = BurstModel { p_enter: 1.0 };
        let mut bad = false;
        let fates: Vec<BurstFate> = (0..64).map(|_| stormy.step(&mut bad, &mut rng)).collect();
        assert_ne!(fates[0], BurstFate::Clean);
        assert!(fates
            .windows(2)
            .all(|w| w[0] != BurstFate::Clean || w[1] != BurstFate::Clean));
        assert!(fates.contains(&BurstFate::Lost));
        assert!(fates.contains(&BurstFate::Spiked(BURST_SPIKE_MS)));
        // p_enter = 0: once the burst ends, every probe is clean.
        let calm = BurstModel { p_enter: 0.0 };
        let mut bad = true;
        let fates: Vec<BurstFate> = (0..64).map(|_| calm.step(&mut bad, &mut rng)).collect();
        let first_clean = fates.iter().position(|f| *f == BurstFate::Clean);
        let first_clean = first_clean.expect("the burst never ended");
        assert!(fates[first_clean..].iter().all(|f| *f == BurstFate::Clean));
        assert!(!bad);
    }
}
