//! Property tests pinning the allocation-free Simplex kernel to the
//! retained oracle: on random quadratics and Rosenbrock starts the two must
//! agree on the returned point (bit for bit), objective value, iteration
//! count, convergence flag, and evaluation count — the guarantee behind the
//! byte-identical figure CSVs — at every dimension the kernel has a
//! fixed-size instantiation for (1..=12) and on its `Vec` fallback (13),
//! over NPS-shaped latency-fit objectives with poisoned regions and
//! truncating iteration caps.

use proptest::prelude::*;
use vcoord_space::oracle::simplex_downhill_reference;
use vcoord_space::{simplex_downhill, Coord, SimplexOptions, SimplexResult, SimplexScratch, Space};

/// Full bit-level comparison of two runs (panics on divergence, which the
/// vendored proptest stub reports with the generated inputs).
fn assert_identical(new: &SimplexResult, old: &SimplexResult) {
    prop_assert_eq!(new.iterations, old.iterations, "iteration count diverges");
    prop_assert_eq!(new.converged, old.converged, "convergence flag diverges");
    prop_assert_eq!(new.evals, old.evals, "evaluation count diverges");
    prop_assert_eq!(
        new.value.to_bits(),
        old.value.to_bits(),
        "value diverges: {} vs {}",
        new.value,
        old.value
    );
    let new_bits: Vec<u64> = new.point.iter().map(|v| v.to_bits()).collect();
    let old_bits: Vec<u64> = old.point.iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(new_bits, old_bits, "point diverges");
}

/// Largest dimension exercised: one past the last fixed-size instantiation.
const MAX_DIM: usize = 13;
/// Largest reference-set size exercised.
const MAX_REFS: usize = 24;

proptest! {
    // 48 variant combinations to reach, 13 dimensions each.
    #![proptest_config(ProptestConfig::default())]

    /// The NPS latency fit, the naive way — one `Space::distance` per
    /// reference per evaluation — at every dimension 1..=13 of each drawn
    /// case: odd and even reference counts, absolute and relative terms,
    /// full / fractional / zero weights, with and without heights, NaN and
    /// +∞ regions next to the start, and caps that cut the descent short
    /// (0 = no iteration at all).
    #[test]
    fn kernel_matches_oracle_on_latency_fits_at_every_dimension(
        refs in 2usize..=MAX_REFS,
        values in prop::collection::vec(-150.0f64..150.0, (MAX_REFS + 1) * MAX_DIM),
        rtts in prop::collection::vec(1.0f64..400.0, MAX_REFS),
        heights in prop::collection::vec(0.0f64..40.0, MAX_REFS),
        weight_picks in prop::collection::vec(0usize..3, MAX_REFS),
        variant in 0usize..48,
    ) {
        let relative = variant % 2 == 1;
        let with_height = (variant / 2) % 2 == 1;
        let max_iterations = [0, 1, 3, 150][(variant / 4) % 4];
        let poison = variant / 16; // 0 none, 1 NaN slabs, 2 +∞ outside a box
        let opts = SimplexOptions {
            initial_step: 20.0,
            tolerance: 1e-7,
            max_iterations,
        };
        let mut scratch = SimplexScratch::new();
        for dim in 1..=MAX_DIM {
            let space = if with_height {
                Space::EuclideanHeight(dim)
            } else {
                Space::Euclidean(dim)
            };
            let (x0, ref_values) = values.split_at(dim);
            let samples: Vec<(Coord, f64, f64)> = (0..refs)
                .map(|p| {
                    let coord = Coord {
                        vec: ref_values[p * dim..(p + 1) * dim].to_vec(),
                        height: heights[p],
                    };
                    (coord, rtts[p], [1.0, 0.25, 0.0][weight_picks[p]])
                })
                .collect();
            let f = |x: &[f64]| -> f64 {
                // Both regions swallow several initial vertices at once, so
                // the descent starts from tied +∞ values (index tie-break)
                // and, for the box, has to shrink its way back inside.
                let strays = |i: usize| (x[i] - x0[i]).abs() > 15.0;
                match poison {
                    1 if strays(0) || strays(dim - 1) => return f64::NAN,
                    2 if (0..dim).any(strays) => return f64::INFINITY,
                    _ => {}
                }
                let at = Coord::from_vec(x.to_vec());
                samples
                    .iter()
                    .map(|(coord, rtt, weight)| {
                        let diff = space.distance(&at, coord) - rtt;
                        let term = if relative {
                            (diff / rtt) * (diff / rtt)
                        } else {
                            diff * diff
                        };
                        term * weight
                    })
                    .sum()
            };
            let kernel = simplex_downhill(f, x0, &opts, &mut scratch);
            let oracle = simplex_downhill_reference(f, x0, &opts);
            assert_identical(&kernel, &oracle);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Axis-weighted quadratics of random dimension, center, and start —
    /// the family NPS positioning objectives live in near convergence.
    #[test]
    fn kernel_matches_oracle_on_random_quadratics(
        dim in 1usize..6,
        center in prop::collection::vec(-80.0f64..80.0, 6),
        weights in prop::collection::vec(0.1f64..10.0, 6),
        start in prop::collection::vec(-100.0f64..100.0, 6),
        initial_step in 1.0f64..60.0,
        max_iterations in 20usize..500,
    ) {
        let f = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&center)
                .zip(&weights)
                .map(|((xi, c), w)| w * (xi - c) * (xi - c))
                .sum()
        };
        let opts = SimplexOptions {
            initial_step,
            max_iterations,
            ..SimplexOptions::default()
        };
        let x0 = &start[..dim];
        // Reuse one scratch across two runs: results must not depend on
        // scratch history.
        let mut scratch = SimplexScratch::new();
        let first = simplex_downhill(f, x0, &opts, &mut scratch);
        let second = simplex_downhill(f, x0, &opts, &mut scratch);
        let oracle = simplex_downhill_reference(f, x0, &opts);
        assert_identical(&first, &oracle);
        assert_identical(&second, &oracle);
    }

    /// The banana valley exercises long zig-zag trajectories with frequent
    /// contractions and occasional shrinks — the moves where incremental
    /// order maintenance could drift from a full re-sort if it were wrong.
    #[test]
    fn kernel_matches_oracle_on_rosenbrock_starts(
        x0 in -2.0f64..2.0,
        y0 in -1.0f64..3.0,
        initial_step in 0.05f64..2.0,
        max_iterations in 100usize..3000,
    ) {
        let f = |x: &[f64]| -> f64 {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        };
        let opts = SimplexOptions {
            initial_step,
            max_iterations,
            ..SimplexOptions::default()
        };
        let mut scratch = SimplexScratch::new();
        let new = simplex_downhill(f, &[x0, y0], &opts, &mut scratch);
        let oracle = simplex_downhill_reference(f, &[x0, y0], &opts);
        assert_identical(&new, &oracle);
    }
}
