//! The tracing layer is numerics-inert: an attacked **and** defended
//! simulation produces bit-for-bit identical coordinates and defense
//! tallies whether the `vcoord-obs` plane is `Off` or fully `Trace`-ing.
//! Property-tested over seeds for both systems under test.
//!
//! The obs mode is process-global, so this binary holds exactly one
//! `#[test]` (proptest runs its cases sequentially inside it) — a sibling
//! test flipping the mode on another libtest thread would race.

use proptest::prelude::*;
use vcoord::obs;
use vcoord::prelude::*;

/// Coordinate bit-patterns plus defense tallies: everything the run
/// computed, in exactly comparable form.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    coord_bits: Vec<u64>,
    accepted: u64,
    rejected: u64,
}

fn vivaldi_run(seed: u64) -> RunFingerprint {
    let seeds = SeedStream::new(seed);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(48)).generate(&mut seeds.rng("topo"));
    let mut sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds);
    sim.run_ticks(120);
    let attackers = sim.pick_attackers(0.25);
    sim.inject_adversary(&attackers, Box::new(VivaldiDisorder::default()));
    sim.deploy_defense(Box::new(DriftCap::new(40.0)));
    sim.run_ticks(80);
    let stats = sim.defense_stats().expect("defense deployed");
    RunFingerprint {
        coord_bits: sim
            .coords()
            .iter()
            .flat_map(|c| c.vec.iter().map(|v| v.to_bits()))
            .collect(),
        accepted: stats.accepted,
        rejected: stats.rejected,
    }
}

fn nps_run(seed: u64) -> RunFingerprint {
    let seeds = SeedStream::new(seed);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(40)).generate(&mut seeds.rng("topo"));
    let mut sim = NpsSim::new(matrix, NpsConfig::default(), &seeds);
    sim.run_rounds(10);
    let attackers = sim.pick_attackers(0.25);
    sim.inject_adversary(&attackers, Box::new(NpsSimpleDisorder::default()));
    sim.run_rounds(10);
    RunFingerprint {
        coord_bits: sim
            .coords()
            .iter()
            .flat_map(|c| c.vec.iter().map(|v| v.to_bits()))
            .collect(),
        accepted: sim.counters().positionings,
        rejected: sim.ledger().total(),
    }
}

fn traced<R>(f: impl Fn() -> R) -> (R, obs::ObsReport) {
    obs::set_mode(obs::ObsMode::Trace);
    obs::reset();
    let out = f();
    let report = obs::drain();
    obs::set_mode(obs::ObsMode::Off);
    (out, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn traced_runs_are_bitwise_identical_to_untraced(seed in 0u64..1000) {
        // Vivaldi, attacked and defended.
        let base = vivaldi_run(seed);
        let (again, report) = traced(|| vivaldi_run(seed));
        prop_assert_eq!(&base, &again, "tracing perturbed the Vivaldi run");
        prop_assert!(!report.is_empty(), "a traced Vivaldi run must record something");
        prop_assert!(
            report.counter(obs::metric("vivaldi.samples_applied")) > 0,
            "the Vivaldi hot path went unobserved"
        );

        // NPS, attacked with its security filter active.
        let base = nps_run(seed);
        let (again, report) = traced(|| nps_run(seed));
        prop_assert_eq!(&base, &again, "tracing perturbed the NPS run");
        prop_assert!(!report.is_empty(), "a traced NPS run must record something");
        prop_assert!(
            report.counter(obs::metric("nps.positionings")) > 0,
            "the NPS positioning path went unobserved"
        );
    }
}
