//! # vcoord-topo
//!
//! Latency substrate for the `vcoord` workspace.
//!
//! The CoNEXT'06 study drives both coordinate systems with the *King* data
//! set: the measured pairwise RTTs of 1740 Internet DNS servers (Gummadi et
//! al., IMW'02). That matrix is not redistributable here, so this crate
//! provides, per the substitution policy in `DESIGN.md`:
//!
//! * [`RttMatrix`] — a dense, symmetric RTT matrix with sub-sampling support
//!   (the paper derives its group-size sweeps by picking nodes at random).
//! * [`KingLike`] — a **King-equivalent synthesizer**: a clustered
//!   Euclidean-plus-height embedding with log-normal access links,
//!   multiplicative measurement noise and explicit triangle-inequality
//!   violations, calibrated to the published King statistics.
//! * [`king`] — a loader for the p2psim King matrix formats, so the genuine
//!   data set drops in unchanged if available.
//! * [`TopoStats`] — topology statistics (percentiles, TIV rate) used by tests
//!   and the `topology_explorer` example to validate the substitution.

#![forbid(unsafe_code)]

pub mod king;
mod matrix;
mod stats;
mod synth;

pub use matrix::RttMatrix;
pub use stats::TopoStats;
pub use synth::{KingLike, KingLikeConfig};
