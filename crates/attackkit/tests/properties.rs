//! Property-based tests over the attackkit invariants: frog-boiling's
//! per-round reported displacement stays below the configured step bound,
//! the partition attack splits colluders into exactly two coherent drift
//! groups, and the arms-race layer's contracts hold — the evading frog's
//! estimated per-remote mean pull stays strictly under the modeled cap,
//! and the threshold probe's binary search converges to within 10 % of an
//! arbitrary rejection boundary.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use vcoord_attackkit::{
    AttackStrategy, Collusion, CoordView, EvadingFrogBoil, FrogBoiling, NetworkPartition, Probe,
    Protocol, ThresholdProbe,
};
use vcoord_space::{Coord, Space};

/// `NetworkPartition`'s per-round drift of each half, ms.
const PARTITION_STEP: f64 = 25.0;
/// `EvadingFrogBoil`'s modeled drift cap, ms.
const MODELED_CAP_MS: f64 = 80.0;

/// A population of `n` nodes on a ring, first `k` malicious.
fn population(space: &Space, n: usize, k: usize) -> (Vec<Coord>, Vec<bool>) {
    let coords: Vec<Coord> = (0..n)
        .map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let mut vec = vec![100.0 * a.cos(), 100.0 * a.sin()];
            vec.resize(space.dim(), 7.0);
            Coord::from_vec(vec)
        })
        .collect();
    let malicious: Vec<bool> = (0..n).map(|i| i < k).collect();
    (coords, malicious)
}

fn view_at<'a>(
    space: &'a Space,
    coords: &'a [Coord],
    malicious: &'a [bool],
    round: u64,
) -> CoordView<'a> {
    CoordView {
        space,
        coords,
        errors: &[],
        layer: &[],
        malicious,
        is_ref: &[],
        round,
        now_ms: round * 1000,
        params: Protocol::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Frog-boiling: per-round displacement bound --------------------

    #[test]
    fn frog_boiling_per_round_displacement_stays_below_step(
        step in 0.1f64..50.0,
        dim in 2usize..6,
        seed in 0u64..500,
        rounds in 1usize..30,
    ) {
        let space = Space::Euclidean(dim);
        let (coords, malicious) = population(&space, 12, 4);
        let attackers: Vec<usize> = (0..4).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut coll = Collusion::new();
        let mut adv = FrogBoiling::new(step);
        adv.inject(&attackers, &mut coll, &view_at(&space, &coords, &malicious, 0), &mut rng);

        let probe = Probe { attacker: 1, victim: 8, rtt: 60.0 };
        let mut prev = adv
            .respond(&probe, &mut coll, &view_at(&space, &coords, &malicious, 0), &mut rng)
            .expect("frog-boiling always lies")
            .coord;
        for r in 1..=rounds as u64 {
            adv.on_round(&mut coll, &view_at(&space, &coords, &malicious, r), &mut rng);
            let lie = adv
                .respond(&probe, &mut coll, &view_at(&space, &coords, &malicious, r), &mut rng)
                .expect("frog-boiling always lies")
                .coord;
            let moved = space.distance(&lie, &prev);
            prop_assert!(
                moved <= step + 1e-9,
                "round {r}: reported coordinate moved {moved} > step {step}"
            );
            prev = lie;
        }
        // And the total drift integrated exactly rounds·step.
        let total = space.distance(&prev, &coords[1]);
        prop_assert!((total - rounds as f64 * step).abs() < 1e-6);
    }

    // ---- Partition: exactly two coherent drift groups ------------------

    #[test]
    fn partition_splits_colluders_into_two_coherent_groups(
        n_attackers in 2usize..10,
        seed in 0u64..500,
        rounds in 1usize..20,
    ) {
        let space = Space::Euclidean(3);
        let (coords, malicious) = population(&space, 16, n_attackers);
        let attackers: Vec<usize> = (0..n_attackers).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut coll = Collusion::new();
        let mut adv = NetworkPartition;
        adv.inject(&attackers, &mut coll, &view_at(&space, &coords, &malicious, 0), &mut rng);

        // Exactly two groups, disjoint, covering every colluder.
        prop_assert_eq!(coll.groups().len(), 2);
        let mut seen = std::collections::HashSet::new();
        for g in coll.groups() {
            for &m in &g.members {
                prop_assert!(seen.insert(m), "node {} in two groups", m);
            }
        }
        prop_assert_eq!(seen.len(), n_attackers);
        for &a in &attackers {
            prop_assert!(coll.group_of(a).is_some());
        }

        // Antiparallel unit axes.
        let a0 = &coll.groups()[0].axis;
        let a1 = &coll.groups()[1].axis;
        let dot: f64 = a0.vec.iter().zip(&a1.vec).map(|(x, y)| x * y).sum();
        prop_assert!((dot + 1.0).abs() < 1e-9, "axes not antiparallel: dot {}", dot);

        // Coherent drift: after `rounds`, every colluder's lie sits exactly
        // rounds·step from its truth, along its own group's axis.
        for r in 1..=rounds as u64 {
            adv.on_round(&mut coll, &view_at(&space, &coords, &malicious, r), &mut rng);
        }
        let expected = rounds as f64 * PARTITION_STEP;
        for &a in &attackers {
            let lie = adv
                .respond(
                    &Probe { attacker: a, victim: 12, rtt: 60.0 },
                    &mut coll,
                    &view_at(&space, &coords, &malicious, rounds as u64),
                    &mut rng,
                )
                .expect("active partition always lies")
                .coord;
            let moved = space.distance(&lie, &coords[a]);
            prop_assert!(
                (moved - expected).abs() < 1e-6,
                "colluder {} drifted {} instead of {}",
                a,
                moved,
                expected
            );
            // The drift is along the group axis: projecting onto it
            // recovers the full magnitude (sign tells the two groups apart).
            let g = &coll.groups()[coll.group_of(a).unwrap()];
            let proj: f64 = lie
                .vec
                .iter()
                .zip(&coords[a].vec)
                .zip(&g.axis.vec)
                .map(|((x, t), ax)| (x - t) * ax)
                .sum();
            prop_assert!((proj - expected).abs() < 1e-6, "drift off-axis: {}", proj);
        }
    }

    // ---- Evading frog: estimated mean pull strictly under the cap ------

    #[test]
    fn evading_frog_estimated_pull_stays_strictly_under_the_modeled_cap(
        dim in 2usize..5,
        seed in 0u64..500,
        rounds in 5usize..40,
    ) {
        let space = Space::Euclidean(dim);
        let (coords, malicious) = population(&space, 16, 5);
        let attackers: Vec<usize> = (0..5).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut coll = Collusion::new();
        let mut adv = EvadingFrogBoil::default();
        adv.inject(&attackers, &mut coll, &view_at(&space, &coords, &malicious, 0), &mut rng);
        // Static victims are the worst case for the throttle: nobody ever
        // catches up, so the offset saturates right at the budget. The
        // invariant must hold at every round along the way.
        for r in 1..=rounds as u64 {
            adv.on_round(&mut coll, &view_at(&space, &coords, &malicious, r), &mut rng);
            let worst = adv.worst_estimated_pull(&coll, &view_at(&space, &coords, &malicious, r));
            prop_assert!(
                worst < MODELED_CAP_MS,
                "round {r}: estimated pull {worst:.2} reached the modeled cap \
                 (dim {dim}, seed {seed})"
            );
        }
    }

    // ---- Threshold probe: estimate within 10% of the true boundary -----

    #[test]
    fn threshold_probe_estimate_converges_to_the_true_boundary(
        boundary in 0.15f64..3.5,
        rtt in 20.0f64..300.0,
        seed in 0u64..500,
    ) {
        let space = Space::Euclidean(2);
        let (coords, malicious) = population(&space, 12, 2);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut coll = Collusion::new();
        let mut adv = ThresholdProbe::default();
        let probe = Probe { attacker: 0, victim: 7, rtt };
        // Synthetic defense oracle: flag any relative residual above the
        // boundary. 30 informative rounds shrink the bracket to 4/2^30.
        for round in 0..30u64 {
            let lie = adv
                .respond(&probe, &mut coll, &view_at(&space, &coords, &malicious, round), &mut rng)
                .expect("the probe always lies");
            let predicted = space.distance(&coords[7], &lie.coord);
            let rel = (predicted - rtt).abs() / rtt;
            adv.feedback(0, 7, rel > boundary, &mut coll);
            adv.on_round(&mut coll, &view_at(&space, &coords, &malicious, round + 1), &mut rng);
        }
        let est = adv.estimate();
        prop_assert!(
            (est - boundary).abs() / boundary < 0.10,
            "estimate {est:.3} outside 10% of boundary {boundary:.3} (rtt {rtt:.0})"
        );
    }
}
