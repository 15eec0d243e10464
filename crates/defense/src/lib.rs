//! # vcoord-defense
//!
//! A pluggable defense/detection engine for Internet coordinate systems:
//! the single seam through which both systems under test (Vivaldi and NPS)
//! screen incoming coordinate/RTT samples — the mirror image of
//! `vcoord-attackkit` on the victim side of the protocol.
//!
//! The CoNEXT'06 paper demonstrates the attacks and stops short of
//! systematic countermeasures; this crate supplies the countermeasure side
//! of the sweep surface. Everything system-specific (when samples arrive,
//! what a rejection means to the update rule) stays in the simulators;
//! everything detection-specific lives here:
//!
//! * [`DefenseStrategy`] — the strategy trait, with per-round state
//!   ([`DefenseStrategy::on_round`]) and the read-only [`UpdateView`] of
//!   each sample (reported coordinate, measured RTT, predicted distance,
//!   neighbor history);
//! * [`Verdict`] — what to do with a sample: `Accept`, `Reject`, or
//!   `Dampen(f)` (graduated trust; `Dampen(1.0)` is bit-identical to
//!   `Accept` in both simulators);
//! * [`Defense`] — the engine object a simulator holds next to its
//!   attackkit `Scenario` slot: strategy + shared [`NeighborHistory`] +
//!   reusable [`DefenseScratch`] + [`DefenseStats`] verdict accounting
//!   (graded into a [`vcoord_metrics::Confusion`] by the harness);
//! * [`strategies`] — the concrete detectors: residual-based
//!   ([`ResidualOutlier`], [`EwmaChangePoint`]) with their documented
//!   consistent-liar blind spot, structural ([`DriftCap`] — the one that
//!   catches frog-boiling — and [`TriangleCheck`]), the paper-style
//!   verified set ([`TrustedBaseline`]), and the zero-cost [`NoDefense`]
//!   null.
//!
//! ## Example
//!
//! ```
//! use vcoord_defense::{Defense, DriftCap, Provenance, Update, Verdict};
//! use vcoord_space::{Coord, Space};
//!
//! let space = Space::Euclidean(2);
//! let me = Coord::origin(2);
//! // A neighbor that persistently claims to sit farther away than the
//! // honestly-measured RTT supports: the frog-boiling signature.
//! let reported = Coord::from_vec(vec![250.0, 0.0]);
//!
//! let mut defense = Defense::new(Box::new(DriftCap::new(40.0)));
//! let mut last = Verdict::Accept;
//! // The cap arms once the neighbor's full 16-sample window has filled.
//! for round in 0..24 {
//!     last = defense.inspect(
//!         &space,
//!         &me,
//!         Update {
//!             observer: 0,
//!             remote: 7,
//!             reported_coord: &reported,
//!             reported_error: 0.01,
//!             rtt: 100.0,
//!             round,
//!             now_ms: round * 1000,
//!             provenance: Provenance::Normal,
//!         },
//!     );
//! }
//! assert_eq!(last, Verdict::Reject, "persistent drag gets banned");
//! assert!(defense.stats().rejected > 0);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod history;
pub mod strategies;
pub mod strategy;
pub mod testing;

pub use engine::{Defense, DefenseStats, Update};
pub use history::{NeighborHistory, ObserverSample, Recent, RemoteHistory};
pub use strategies::{
    Dampener, DriftCap, DriftDecay, EwmaChangePoint, NoDefense, ResidualOutlier, TriangleCheck,
    TrustedBaseline,
};
pub use strategy::{DefenseScratch, DefenseStrategy, Provenance, UpdateView, Verdict};
