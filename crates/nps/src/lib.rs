//! # vcoord-nps
//!
//! The Network Positioning System (NPS) [Ng & Zhang, USENIX'04] — the
//! landmark/hierarchy representative attacked by the CoNEXT'06 paper —
//! implemented from the protocol description as a [`vcoord_netsim`] world
//! (the original reference implementation was never released; the paper's
//! authors likewise re-implemented it for their simulator).
//!
//! NPS structure, as simulated here (paper §3.1 / §5.2):
//!
//! * **Layer 0**: 20 well-separated permanent landmarks define the basis of
//!   an 8-D Euclidean space. They are assumed secure and never cheat.
//! * **Middle layers**: 20 % of ordinary nodes per layer are chosen by the
//!   *membership server* as eligible reference points for the layer below.
//! * Every node positions by measuring RTTs to ~20 reference points in the
//!   layer above and minimizing the sum of squared relative fitting errors
//!   with the **Simplex Downhill** method, repeating periodically.
//! * **Security mechanism**: after each positioning, the reference point
//!   with the largest fitting error `E_Ri` is eliminated iff
//!   `max E > 0.01` **and** `max E > C · median(E)` (C = 4) — at most one
//!   per positioning. A 5-second **probe threshold** additionally discards
//!   implausibly slow probes.
//!
//! Malicious reference-point behaviour is injected through the generic
//! [`vcoord_attackkit::AttackStrategy`] seam (see
//! [`NpsSim::inject_adversary`]); the
//! simulator enforces the delay-only threat model and accounts every filter
//! decision in a [`vcoord_metrics::FilterLedger`] (true vs false positives
//! — figures 20 and 22).
//!
//! Defense behaviour beyond NPS's built-in mechanisms is deployed through
//! the mirror-image [`vcoord_defense::DefenseStrategy`] seam (see
//! [`NpsSim::deploy_defense`]): every reference probe of an ordinary node's
//! positioning round passes the deployed [`vcoord_defense::Defense`] before
//! the Simplex fit.

#![forbid(unsafe_code)]

mod config;
mod layers;
mod membership;
mod position;
mod sim;

pub use config::NpsConfig;
pub use position::{position_node, PositionOutcome, PositionScratch, RefSample, SecurityPolicy};
pub use sim::{NpsSim, ROUND_MS};
