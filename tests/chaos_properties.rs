//! The fault-injection layer is numerics-inert when empty: a simulation
//! with an **empty** [`ChaosPlan`] installed produces bit-for-bit
//! identical coordinates and tallies to one with no chaos at all, for
//! both systems under test — attacked and defended, so the check covers
//! the full probe path the chaos hooks thread through. Property-tested
//! over seeds.
//!
//! This is the contract that lets `chaos` ship compiled into every build:
//! the 39 pre-chaos golden figures stay byte-identical because an absent
//! (or empty) plan draws no randomness and perturbs no arithmetic.

use proptest::prelude::*;
use vcoord::prelude::*;

/// Everything a run computed, in exactly comparable form.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    coord_bits: Vec<u64>,
    accepted: u64,
    rejected: u64,
}

fn vivaldi_run(seed: u64, empty_plan: bool) -> RunFingerprint {
    let seeds = SeedStream::new(seed);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(48)).generate(&mut seeds.rng("topo"));
    let mut sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds);
    sim.run_ticks(120);
    let attackers = sim.pick_attackers(0.25);
    sim.inject_adversary(&attackers, Box::new(VivaldiDisorder::default()));
    sim.deploy_defense(Box::new(DriftCap::new(40.0)));
    if empty_plan {
        sim.install_chaos(ChaosPlan::none());
    }
    sim.run_ticks(80);
    let stats = sim.defense_stats().expect("defense deployed");
    if empty_plan {
        assert_eq!(
            *sim.chaos_counters().expect("plan installed"),
            ChaosCounters::default(),
            "an empty plan must inject nothing"
        );
    }
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

fn nps_run(seed: u64, empty_plan: bool) -> RunFingerprint {
    let seeds = SeedStream::new(seed);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(40)).generate(&mut seeds.rng("topo"));
    // Probation on and a *decaying* cap: the inertness sweep then walks
    // the whole lease machinery (the probation round-robin's skip-leased
    // scan, the provenance tag in `probe_ref`, the relief valve's gate) —
    // every seam must still be bit-dead with an empty plan installed.
    let config = NpsConfig {
        probation_every: 2,
        ..NpsConfig::default()
    };
    let mut sim = NpsSim::new(matrix, config, &seeds);
    sim.run_rounds(10);
    let attackers = sim.pick_attackers(0.25);
    sim.inject_adversary(&attackers, Box::new(NpsSimpleDisorder));
    sim.deploy_defense(Box::new(DriftCap::with_decay(40.0, DriftDecay::new(5.0))));
    if empty_plan {
        sim.install_chaos(ChaosPlan::none());
    }
    sim.run_rounds(10);
    if empty_plan {
        assert_eq!(
            *sim.chaos_counters().expect("plan installed"),
            ChaosCounters::default(),
            "an empty plan must inject nothing"
        );
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn empty_chaos_plan_is_bitwise_inert(seed in 0u64..1000) {
        let plain = vivaldi_run(seed, false);
        let chaotic = vivaldi_run(seed, true);
        prop_assert_eq!(&plain, &chaotic, "an empty plan perturbed the Vivaldi run");

        let plain = nps_run(seed, false);
        let chaotic = nps_run(seed, true);
        prop_assert_eq!(&plain, &chaotic, "an empty plan perturbed the NPS run");
    }
}
