//! Vivaldi simulation parameters.

use serde::{Deserialize, Serialize};
use vcoord_netsim::LinkModel;
use vcoord_space::Space;

/// Parameters for a [`crate::VivaldiSim`].
///
/// Defaults are the CoNEXT'06 §5.2 settings, which in turn follow the
/// recommendations of the Vivaldi paper: 64 springs per node, 32 of them to
/// nodes closer than 50 ms, adaptive-timestep constant `Cc = 0.25`, 2-D
/// Euclidean space, one probe per node per 17-second tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VivaldiConfig {
    /// Embedding space (default 2-D Euclidean; figures 3 and 6 sweep this).
    pub space: Space,
    /// Adaptive timestep constant `Cc` (< 1).
    pub cc: f64,
    /// Initial local error estimate of a fresh node.
    pub initial_error: f64,
    /// Total neighbours (springs) per node.
    pub neighbors: usize,
    /// How many of the neighbours must be "near" (RTT below
    /// [`VivaldiConfig::near_cutoff_ms`]), when enough exist.
    pub near_neighbors: usize,
    /// RTT cutoff defining a near neighbour.
    pub near_cutoff_ms: f64,
    /// Simulated milliseconds per tick (probe period); the paper's tick is
    /// ~17 s.
    pub tick_ms: u64,
    /// Benign link fault model applied to every probe (loss / jitter);
    /// ideal by default.
    pub link: LinkModel,
    /// Numerical clamp range for local error estimates.
    pub error_clamp: (f64, f64),
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            space: Space::Euclidean(2),
            cc: 0.25,
            initial_error: 1.0,
            neighbors: 64,
            near_neighbors: 32,
            near_cutoff_ms: 50.0,
            tick_ms: vcoord_netsim::TICK_MS,
            link: LinkModel::ideal(),
            error_clamp: (1e-6, 1e3),
        }
    }
}

impl VivaldiConfig {
    /// Default parameters in the given space.
    pub fn in_space(space: Space) -> Self {
        VivaldiConfig {
            space,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = VivaldiConfig::default();
        assert_eq!(c.cc, 0.25);
        assert_eq!(c.neighbors, 64);
        assert_eq!(c.near_neighbors, 32);
        assert_eq!(c.near_cutoff_ms, 50.0);
        assert_eq!(c.tick_ms, 17_000);
        assert_eq!(c.space, Space::Euclidean(2));
    }
}
