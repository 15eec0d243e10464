//! NPS simulation parameters.

use serde::{Deserialize, Serialize};
use vcoord_netsim::LinkModel;
use vcoord_space::{SimplexOptions, Space};

/// Parameters for an [`crate::NpsSim`].
///
/// Defaults are the paper's §5.2 settings: 8-D Euclidean embedding, 20
/// permanent layer-0 landmarks, 20 % reference points per middle layer, a
/// 3-layer hierarchy, security constant `C = 4`, 5 s probe threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpsConfig {
    /// Embedding space (figure 16 sweeps the dimension; NPS itself is
    /// Euclidean-only).
    pub space: Space,
    /// Number of permanent layer-0 landmarks.
    pub landmarks: usize,
    /// Total number of layers including layer 0 (3 or 4 in the paper).
    pub layers: usize,
    /// Fraction of ordinary nodes placed in each middle (reference) layer.
    pub ref_fraction: f64,
    /// Reference points each node measures against per positioning.
    pub refs_per_node: usize,
    /// Whether the malicious-reference detection mechanism is on.
    pub security: bool,
    /// Sensitivity constant `C` of the filter.
    pub security_c: f64,
    /// Absolute fitting-error floor of the filter (condition 1).
    pub security_min_error: f64,
    /// Probes slower than this are discarded as suspicious (ms).
    /// `f64::INFINITY` disables the check.
    pub probe_threshold_ms: f64,
    /// Repositioning period per node (ms).
    pub reposition_ms: u64,
    /// Per-layer join stagger window (ms): layer `i` joins during
    /// `[(i-1)·stagger, i·stagger)`.
    pub join_stagger_ms: u64,
    /// Passes of iterative landmark embedding at start-up.
    pub landmark_rounds: usize,
    /// Simplex Downhill options for node positioning.
    pub simplex: SimplexOptions,
    /// Per-round movement damping α ∈ (0, 1]: a repositioning moves a node
    /// `α · (fit − incumbent)`. First positionings are undamped. Damped
    /// incremental refinement is what keeps the security filter's reference
    /// frame stable under attack (see DESIGN.md calibration notes); `1.0`
    /// disables damping.
    pub update_damping: f64,
    /// Benign link fault model for positioning probes.
    pub link: LinkModel,
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
            ref_fraction: 0.20,
            refs_per_node: 20,
            security: true,
            security_c: 4.0,
            security_min_error: 0.01,
            probe_threshold_ms: 5_000.0,
            reposition_ms: 60_000,
            join_stagger_ms: 120_000,
            landmark_rounds: 30,
            simplex: SimplexOptions {
                initial_step: 20.0,
                tolerance: 1e-7,
                max_iterations: 150,
                ..SimplexOptions::default()
            },
            update_damping: 0.20,
            link: LinkModel::ideal(),
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

    #[test]
    fn defaults_match_paper() {
        let c = NpsConfig::default();
        assert_eq!(c.space, Space::Euclidean(8));
        assert_eq!(c.landmarks, 20);
        assert_eq!(c.layers, 3);
        assert_eq!(c.ref_fraction, 0.20);
        assert_eq!(c.security_c, 4.0);
        assert_eq!(c.security_min_error, 0.01);
        assert_eq!(c.probe_threshold_ms, 5_000.0);
        assert!(c.security);
        assert_eq!(c.probation_every, 0, "probation is opt-in");
    }
}
