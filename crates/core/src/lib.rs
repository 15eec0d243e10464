//! # vcoord — Virtual Networks under Attack
//!
//! A Rust reproduction of *"Virtual Networks under Attack: Disrupting
//! Internet Coordinate Systems"* (Kaafar, Mathy, Turletti, Dabbous —
//! CoNEXT 2006): the attack taxonomy, the attack implementations against
//! **Vivaldi** and **NPS**, and the full experiment suite regenerating every
//! figure of the paper's evaluation.
//!
//! This crate is the workspace facade. The substrates live in their own
//! crates and are re-exported here:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`obs`] | `vcoord-obs` | metrics, spans, JSONL traces, trace and `BENCH_*.json` diffing |
//! | [`space`] | `vcoord-space` | coordinate algebra, Simplex Downhill |
//! | [`topo`] | `vcoord-topo` | latency matrices, King-equivalent synthesis |
//! | [`netsim`] | `vcoord-netsim` | discrete-event engine, seed streams |
//! | [`metrics`] | `vcoord-metrics` | relative error, CDFs, filter ledger |
//! | [`attackkit`] | `vcoord-attackkit` | generic attack-scenario engine |
//! | [`defense`] | `vcoord-defense` | generic defense/detection engine |
//! | [`vivaldi`] | `vcoord-vivaldi` | the Vivaldi system under test |
//! | [`nps`] | `vcoord-nps` | the NPS system under test |
//!
//! The paper-specific pieces are local:
//!
//! * every attack strategy from §4/§5 (the `Vivaldi*` and `Nps*` types of
//!   the [`prelude`]), built on one shared lie-consistency geometry;
//! * [`prelude::Knowledge`] — the attacker's victim-coordinate knowledge
//!   model (figures 19/20/22 sweep it);
//! * [`experiments`] — one configured, reproducible runner per figure.
//!
//! ## Quickstart
//!
//! ```
//! use vcoord::prelude::*;
//!
//! // A small King-like topology and a converged Vivaldi system.
//! let seeds = SeedStream::new(42);
//! let matrix = KingLike::new(KingLikeConfig::with_nodes(60))
//!     .generate(&mut seeds.rng("topo"));
//! let mut sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds);
//! sim.run_ticks(200);
//!
//! // Inject 30% disorder attackers into the converged system.
//! let attackers = sim.pick_attackers(0.30);
//! sim.inject_adversary(&attackers, Box::new(VivaldiDisorder::default()));
//! sim.run_ticks(50);
//!
//! // Accuracy of the honest population, measured against ground truth.
//! let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
//! let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
//! assert!(err > 0.5, "attack should visibly disrupt the system");
//! ```

#![forbid(unsafe_code)]

mod attacks;
pub mod experiments;
mod knowledge;

// Substrate re-exports under stable names.
pub use vcoord_attackkit as attackkit;
pub use vcoord_defense as defense;
pub use vcoord_metrics as metrics;
pub use vcoord_netsim as netsim;
pub use vcoord_nps as nps;
pub use vcoord_obs as obs;
pub use vcoord_space as space;
pub use vcoord_topo as topo;
pub use vcoord_vivaldi as vivaldi;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::attacks::nps::{
        NpsAntiDetection, NpsCollusionIsolation, NpsCombined, NpsSimpleDisorder,
    };
    pub use crate::attacks::vivaldi::{
        VivaldiCollusionLure, VivaldiCollusionRepel, VivaldiCombined, VivaldiDisorder,
        VivaldiRepulsion,
    };
    pub use crate::knowledge::Knowledge;
    pub use vcoord_attackkit::{
        AttackStrategy, Collusion, CoordView, Deflation, FrogBoiling, Honest, Inflation, Lie,
        NetworkPartition, Oscillation, Probe, Protocol, RandomLie, Scenario,
    };
    pub use vcoord_chaos::{BurstModel, ChaosCounters, ChaosPlan};
    pub use vcoord_defense::{
        Defense, DefenseStrategy, DriftCap, DriftDecay, EwmaChangePoint, NoDefense, Provenance,
        ResidualOutlier, TriangleCheck, TrustedBaseline, Verdict,
    };
    pub use vcoord_metrics::{relative_error, Cdf, Confusion, EvalPlan, FilterLedger, TimeSeries};
    pub use vcoord_netsim::{LinkModel, SeedStream};
    pub use vcoord_nps::{NpsConfig, NpsSim};
    pub use vcoord_space::{Coord, Space};
    pub use vcoord_topo::{KingLike, KingLikeConfig, RttMatrix, TopoStats};
    pub use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};
}
