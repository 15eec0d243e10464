//! Vivaldi simulation parameters.

use serde::{Deserialize, Serialize};
use vcoord_netsim::LinkModel;
use vcoord_space::Space;

/// Parameters for a [`crate::VivaldiSim`]: only what a run varies.
///
/// The CoNEXT'06 §5.2 settings that no run varies are constants of
/// the simulator, following the recommendations of the Vivaldi paper: 64
/// springs per node, 32 of them to nodes closer than 50 ms,
/// adaptive-timestep constant `Cc = 0.25`, one probe per node per
/// [`vcoord_netsim::TICK_MS`] (17 s) tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VivaldiConfig {
    /// Embedding space (default 2-D Euclidean; figures 3 and 6 sweep this).
    pub space: Space,
    /// Benign link fault model applied to every probe (loss / jitter);
    /// ideal by default.
    pub link: LinkModel,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            space: Space::Euclidean(2),
            link: LinkModel::ideal(),
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
    use crate::node::CC;
    use crate::sim::{NEAR_CUTOFF_MS, NEAR_NEIGHBORS, NEIGHBORS};

    #[test]
    fn defaults_match_paper() {
        assert_eq!(CC, 0.25);
        assert_eq!(NEIGHBORS, 64);
        assert_eq!(NEAR_NEIGHBORS, 32);
        assert_eq!(NEAR_CUTOFF_MS, 50.0);
        assert_eq!(vcoord_netsim::TICK_MS, 17_000);
        assert_eq!(VivaldiConfig::default().space, Space::Euclidean(2));
    }
}
