//! # vcoord-attackkit
//!
//! A pluggable attack-scenario engine for Internet coordinate systems: the
//! single seam through which both systems under test (Vivaldi and NPS)
//! consume adversarial behaviour.
//!
//! The CoNEXT'06 paper's threat model gives a malicious node three levers —
//! the coordinates it reports, the error estimate it reports, and a
//! non-negative probe delay. Everything system-specific (who probes whom,
//! when lies are applied) stays in the simulators; everything
//! attack-specific lives here:
//!
//! * [`AttackStrategy`] — the strategy trait, with per-round mutable state
//!   ([`AttackStrategy::on_round`]) and the [`CoordView`] knowledge oracle;
//! * [`Collusion`] — shared state for colluding groups (axes, offsets,
//!   anchors), required by attacks where several malicious nodes must act
//!   coherently;
//! * [`Scenario`] — the engine object a simulator holds: strategy +
//!   collusion + round bookkeeping;
//! * the concrete generic strategies: gradual
//!   ([`FrogBoiling`], [`Oscillation`]), coordinated
//!   ([`NetworkPartition`]), and the classic single-shape lies
//!   ([`Inflation`], [`Deflation`], [`RandomLie`]);
//! * the arms-race layer: the [`DefenseModel`] oracle (the
//!   attacker's belief about the deployed defense) and the defense-aware
//!   strategies [`EvadingFrogBoil`], [`ThresholdProbe`] (driven by the
//!   [`AttackStrategy::feedback`] verdict-observation channel) and
//!   [`SleeperCollusion`].
//!
//! The paper-specific strategies (disorder, repulsion, colluding isolation,
//! NPS anti-detection) implement the same trait from the `vcoord` facade
//! crate — the simulators cannot tell them apart.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha12Rng;
//! use vcoord_attackkit::{CoordView, FrogBoiling, Probe, Protocol, Scenario};
//! use vcoord_space::{Coord, Space};
//!
//! let space = Space::Euclidean(2);
//! let coords = vec![Coord::origin(2), Coord::from_vec(vec![100.0, 0.0])];
//! let malicious = vec![true, false];
//! let view = CoordView {
//!     space: &space,
//!     coords: &coords,
//!     errors: &[],
//!     layer: &[],
//!     malicious: &malicious,
//!     is_ref: &[],
//!     round: 0,
//!     now_ms: 0,
//!     params: Protocol::default(),
//! };
//!
//! let mut rng = ChaCha12Rng::seed_from_u64(7);
//! let mut scenario = Scenario::new(Box::new(FrogBoiling::new(2.0)));
//! scenario.inject(&[0], &view, &mut rng);
//! let lie = scenario
//!     .respond(Probe { attacker: 0, victim: 1, rtt: 100.0 }, &view, &mut rng)
//!     .expect("frog-boiling always lies");
//! assert!(lie.delay_ms >= 0.0, "delay-only threat model");
//! ```

#![forbid(unsafe_code)]

mod adaptive;
mod collusion;
mod scenario;
mod strategies;
mod strategy;

pub use adaptive::{
    CapLearner, DefenseModel, EvadingFrogBoil, SleeperCollusion, SleeperPhase, ThresholdProbe,
};
pub use collusion::{Collusion, Group};
pub use scenario::Scenario;
pub use strategies::{
    BurstThenReform, Deflation, FrogBoiling, Inflation, NetworkPartition, Oscillation, RandomLie,
};
pub use strategy::{AttackStrategy, CoordView, Honest, Lie, Probe, Protocol};
