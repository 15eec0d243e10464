//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use vcoord::metrics::{relative_error, Cdf};
use vcoord::space::{simplex_downhill, Coord, SimplexOptions, SimplexScratch, Space};
use vcoord::topo::{KingLike, KingLikeConfig, RttMatrix};
use vcoord::vivaldi::node::vivaldi_update;

fn coord_strategy(dim: usize) -> impl Strategy<Value = Coord> {
    (prop::collection::vec(-1.0e4f64..1.0e4, dim), 0.0f64..1.0e3)
        .prop_map(|(vec, height)| Coord { vec, height })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Space axioms -------------------------------------------------

    #[test]
    fn euclidean_distance_symmetry_and_identity(
        a in coord_strategy(3), b in coord_strategy(3)
    ) {
        let s = Space::Euclidean(3);
        let dab = s.distance(&a, &b);
        let dba = s.distance(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(dab >= 0.0);
        prop_assert!(s.distance(&a, &a) < 1e-9);
    }

    #[test]
    fn euclidean_triangle_inequality(
        a in coord_strategy(3), b in coord_strategy(3), c in coord_strategy(3)
    ) {
        let s = Space::Euclidean(3);
        prop_assert!(s.distance(&a, &c) <= s.distance(&a, &b) + s.distance(&b, &c) + 1e-6);
    }

    #[test]
    fn height_model_distance_exceeds_euclidean_part(
        a in coord_strategy(2), b in coord_strategy(2)
    ) {
        let he = Space::EuclideanHeight(2);
        let eu = Space::Euclidean(2);
        prop_assert!(he.distance(&a, &b) + 1e-12 >= eu.distance(&a, &b));
        // Height model also satisfies the triangle inequality.
        prop_assert!(he.distance(&a, &b) >= a.height + b.height);
    }

    #[test]
    fn directions_are_unit_norm(a in coord_strategy(4), b in coord_strategy(4)) {
        let s = Space::Euclidean(4);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let u = s.direction(&a, &b, &mut rng);
        prop_assert!((u.norm() - 1.0).abs() < 1e-9);
    }

    // ---- Relative error ------------------------------------------------

    #[test]
    fn relative_error_is_symmetric_and_nonnegative(
        a in 0.001f64..1e5, b in 0.001f64..1e5
    ) {
        let e1 = relative_error(a, b);
        let e2 = relative_error(b, a);
        prop_assert!((e1 - e2).abs() < 1e-9, "min() makes it symmetric");
        prop_assert!(e1 >= 0.0);
        prop_assert!((relative_error(a, a)).abs() < 1e-12);
    }

    // ---- Vivaldi update ------------------------------------------------

    #[test]
    fn vivaldi_update_never_corrupts_state(
        cx in coord_strategy(2),
        remote in coord_strategy(2),
        error in 0.0f64..10.0,
        remote_error in -5.0f64..1e4,
        rtt in prop::num::f64::ANY,
    ) {
        // Whatever garbage arrives (NaN rtt, negative remote error, huge
        // values), local state stays finite.
        let space = Space::Euclidean(2);
        let mut c = cx.clone();
        let mut e = error;
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let _ = vivaldi_update(
            &space, 0.25, (1e-6, 1e3), &mut c, &mut e, &remote, remote_error, rtt, &mut rng,
        );
        prop_assert!(c.is_finite());
        prop_assert!(e.is_finite() && e >= 0.0);
    }

    #[test]
    fn vivaldi_update_moves_toward_spring_equilibrium(
        x in 10.0f64..500.0, rtt in 1.0f64..1000.0
    ) {
        // One update from distance x with measured rtt strictly reduces the
        // spring displacement |dist - rtt| (weight > 0 guaranteed).
        let space = Space::Euclidean(2);
        let mut c = Coord::from_vec(vec![x, 0.0]);
        let mut e = 1.0;
        let remote = Coord::origin(2);
        let before = (x - rtt).abs();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        vivaldi_update(&space, 0.25, (1e-6, 1e3), &mut c, &mut e, &remote, 0.5, rtt, &mut rng)
            .expect("valid sample");
        let after = (space.distance(&c, &remote) - rtt).abs();
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
    }

    // ---- Simplex Downhill ----------------------------------------------

    #[test]
    fn simplex_never_returns_worse_than_start(
        x0 in prop::collection::vec(-100.0f64..100.0, 2..6),
        shift in prop::collection::vec(-50.0f64..50.0, 6),
    ) {
        let f = move |x: &[f64]| -> f64 {
            x.iter().zip(&shift).map(|(v, s)| (v - s) * (v - s)).sum()
        };
        let start_value = f(&x0);
        let r = simplex_downhill(&f, &x0, &SimplexOptions::default(), &mut SimplexScratch::new());
        prop_assert!(r.value <= start_value + 1e-9);
        prop_assert!(r.point.iter().all(|v| v.is_finite()));
    }

    // ---- CDF ------------------------------------------------------------

    #[test]
    fn cdf_quantiles_are_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(&samples);
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=20 {
            let q = cdf.quantile(k as f64 / 20.0);
            prop_assert!(q >= prev);
            prev = q;
        }
        prop_assert_eq!(cdf.fraction_below(f64::MAX), 1.0);
    }

    // ---- Topology -------------------------------------------------------

    #[test]
    fn synthesized_topologies_are_valid_at_any_size(n in 2usize..40, seed in 0u64..500) {
        let m = KingLike::new(KingLikeConfig::with_nodes(n))
            .generate(&mut ChaCha12Rng::seed_from_u64(seed));
        prop_assert!(m.validate().is_ok());
        prop_assert!(m.pairs().all(|(_, _, v)| v >= 1.0));
    }

    #[test]
    fn subsets_preserve_symmetry_and_entries(seed in 0u64..200, k in 2usize..20) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let m = KingLike::new(KingLikeConfig::with_nodes(30)).generate(&mut rng);
        let s = m.random_subset(k, &mut rng);
        prop_assert_eq!(s.len(), k.min(30));
        prop_assert!(s.validate().is_ok());
    }

    #[test]
    fn matrix_set_get_roundtrip(
        n in 2usize..12,
        entries in prop::collection::vec((0usize..12, 0usize..12, 0.0f64..1e4), 0..40)
    ) {
        let mut m = RttMatrix::zeros(n);
        for (i, j, v) in entries {
            let (i, j) = (i % n, j % n);
            m.set(i, j, v);
            if i != j {
                prop_assert_eq!(m.rtt(i, j), v);
                prop_assert_eq!(m.rtt(j, i), v);
            } else {
                prop_assert_eq!(m.rtt(i, j), 0.0);
            }
        }
        prop_assert!(m.validate().is_ok());
    }
}
