//! NPS simulation parameters.

use serde::{Deserialize, Serialize};
use vcoord_space::Space;

/// Parameters for an [`crate::NpsSim`]: only what a run varies.
///
/// Defaults are the paper's §5.2 settings: 8-D Euclidean embedding, 20
/// permanent layer-0 landmarks, a 3-layer hierarchy, security on. The
/// settings no run varies are constants of the simulator: 20 % reference
/// points per middle layer, security constant `C = 4`, 5 s probe
/// threshold, a [`ROUND_MS`](crate::sim::ROUND_MS) repositioning period and
/// the [`SIMPLEX`](crate::sim::SIMPLEX) fit options.
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
    /// Probation channel period, in positioning rounds: every
    /// `probation_every`-th round a node re-measures one banned reference as
    /// evidence only (screened by the defense, never fitted), so a decaying
    /// ban can observe reform. `0` (the default) disables the channel.
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
    use crate::position::{SECURITY_C, SECURITY_MIN_ERROR};
    use crate::sim::{PROBE_THRESHOLD_MS, REF_FRACTION, SIMPLEX};

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
        assert_eq!(
            (
                SIMPLEX.initial_step,
                SIMPLEX.tolerance,
                SIMPLEX.max_iterations
            ),
            (20.0, 1e-7, 150)
        );
        assert_eq!(vcoord_space::NELDER_MEAD, [1.0, 2.0, 0.5, 0.5]);
        assert!(c.security);
        assert_eq!(c.probation_every, 0, "probation is opt-in");
    }
}
