//! NPS simulation parameters.

use serde::{Deserialize, Serialize};
use vcoord_space::{SimplexOptions, Space};

/// Parameters for an [`crate::NpsSim`]: only what a run varies.
///
/// Defaults are the paper's §5.2 settings: 8-D Euclidean embedding, 20
/// permanent layer-0 landmarks, a 3-layer hierarchy, security on. The
/// settings no run varies are constants of the simulator: 20 % reference
/// points per middle layer, security constant `C = 4`, 5 s probe
/// threshold, and a [`ROUND_MS`](crate::sim::ROUND_MS) repositioning
/// period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpsConfig {
    /// Embedding space (figure 16 sweeps the dimension; NPS itself is
    /// Euclidean-only).
    pub space: Space,
    /// Number of permanent layer-0 landmarks.
    pub landmarks: usize,
    /// Total number of layers including layer 0 (3 or 4 in the paper).
    pub layers: usize,
    /// Reference points each node measures against per positioning.
    pub refs_per_node: usize,
    /// Whether the malicious-reference detection mechanism is on.
    pub security: bool,
    /// Simplex Downhill options for node positioning.
    pub simplex: SimplexOptions,
    /// Probation channel period, in positioning rounds: every
    /// `probation_every`-th round a node re-measures one reference from its
    /// rolling ban list (round-robin). The probation sample is *evidence
    /// only* — it is screened through the deployed defense so a decaying
    /// ban (`DriftDecay`) can observe reform and emit a `Reinstate`, but it
    /// never enters the Simplex fit. `0` (the default, and the value
    /// absent in older serialized configs) disables the channel; without
    /// it, membership-mediated banning cuts the evidence stream and decay
    /// can never compose with banishment.
    #[serde(default)]
    pub probation_every: u64,
}

impl Default for NpsConfig {
    fn default() -> Self {
        NpsConfig {
            space: Space::Euclidean(8),
            landmarks: 20,
            layers: 3,
            refs_per_node: 20,
            security: true,
            simplex: SimplexOptions {
                initial_step: 20.0,
                tolerance: 1e-7,
                max_iterations: 150,
                ..SimplexOptions::default()
            },
            probation_every: 0,
        }
    }
}

impl NpsConfig {
    /// Default parameters in the given space.
    pub fn in_space(space: Space) -> Self {
        NpsConfig {
            space,
            ..Default::default()
        }
    }

    /// Default parameters with the given number of layers.
    pub fn with_layers(layers: usize) -> Self {
        NpsConfig {
            layers,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{PROBE_THRESHOLD_MS, REF_FRACTION, SECURITY_C, SECURITY_MIN_ERROR};

    #[test]
    fn defaults_match_paper() {
        let c = NpsConfig::default();
        assert_eq!(c.space, Space::Euclidean(8));
        assert_eq!(c.landmarks, 20);
        assert_eq!(c.layers, 3);
        assert_eq!(REF_FRACTION, 0.20);
        assert_eq!(SECURITY_C, 4.0);
        assert_eq!(SECURITY_MIN_ERROR, 0.01);
        assert_eq!(PROBE_THRESHOLD_MS, 5_000.0);
        assert!(c.security);
        assert_eq!(c.probation_every, 0, "probation is opt-in");
    }
}
