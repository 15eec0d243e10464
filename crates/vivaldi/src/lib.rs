//! # vcoord-vivaldi
//!
//! The Vivaldi decentralized network coordinate system [Dabek et al.,
//! SIGCOMM'04], implemented as a [`vcoord_netsim`] world — the workspace's
//! equivalent of the p2psim Vivaldi the CoNEXT'06 paper attacks.
//!
//! Vivaldi places a spring between node pairs with rest length equal to the
//! measured RTT; every probe sample relaxes the observing node toward the
//! spring equilibrium by an adaptive timestep `δ = Cc · w`, where the weight
//! `w = e_i / (e_i + e_j)` balances local and remote error estimates. The
//! paper's simulation parameters are constants of the simulator: 64 neighbours
//! per node of which 32 are closer than 50 ms, `Cc = 0.25`, and one probe
//! per node per ~17 s tick. [`VivaldiConfig`] holds only what a run
//! varies, the space (2-D Euclidean by default) and the link model.
//!
//! Malicious behaviour is injected through the generic
//! [`vcoord_attackkit::AttackStrategy`] seam (see
//! [`VivaldiSim::inject_adversary`]): when an honest node probes a malicious
//! one, the running [`vcoord_attackkit::Scenario`] supplies the reported coordinates, the reported error estimate, and an
//! extra probe delay. The simulator enforces the paper's threat model —
//! attackers can *delay* probes but never shorten them.
//!
//! Defense behaviour is deployed through the mirror-image
//! [`vcoord_defense::DefenseStrategy`] seam (see
//! [`VivaldiSim::deploy_defense`]): every sample an honest node is about to
//! apply passes the deployed [`vcoord_defense::Defense`] first, whose verdict
//! drops, dampens, or admits it.

#![forbid(unsafe_code)]

mod config;
mod convergence;
mod neighbors;
pub mod node;
mod sim;

pub use config::VivaldiConfig;
pub use convergence::ConvergenceTracker;
pub use sim::VivaldiSim;
