//! Property tests pinning `EvalPlan`'s snapshot (and parallel) evaluation
//! path to the naive per-`Coord` path: identical per-node errors and
//! identical averages, bit for bit, for any worker count — and for any
//! history of matrices the plan was swept against before, since the plan
//! keeps a copy of the last one's RTTs.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use vcoord_metrics::EvalPlan;
use vcoord_space::{Coord, Space};
use vcoord_topo::RttMatrix;

/// The naive evaluation loop, written out independently of the snapshot
/// machinery: a plain map over the public single-node method.
fn naive_errors(plan: &EvalPlan, coords: &[Coord], space: &Space, m: &RttMatrix) -> Vec<f64> {
    (0..plan.nodes().len())
        .map(|k| plan.node_error(k, coords, space, m))
        .collect()
}

fn random_matrix<R: Rng>(n: usize, rng: &mut R) -> RttMatrix {
    let mut m = RttMatrix::zeros(n);
    for i in 0..n {
        for j in (i + 1)..n {
            m.set(i, j, rng.gen_range(1.0..500.0));
        }
    }
    m
}

fn random_world(
    n: usize,
    space: &Space,
    seed: u64,
    sample_peers: usize,
) -> (RttMatrix, Vec<Coord>, EvalPlan) {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let m = random_matrix(n, &mut rng);
    let coords: Vec<Coord> = (0..n)
        .map(|_| space.random_coord(250.0, &mut rng))
        .collect();
    let nodes: Vec<usize> = (0..n).collect();
    // A sub-`n` all-pairs threshold forces the sampled-peers shape too.
    let plan = EvalPlan::with_params(&nodes, n / 2, sample_peers, &mut rng);
    (m, coords, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Above the parallel threshold, every worker count must reproduce the
    /// naive path exactly — per node and in the aggregate.
    #[test]
    fn snapshot_parallel_path_matches_naive(
        seed in 0u64..10_000,
        extra in 0usize..40,
        threads in 2usize..6,
        heights in 0u8..2,
    ) {
        let space = if heights == 1 {
            Space::EuclideanHeight(3)
        } else {
            Space::Euclidean(2)
        };
        let n = EvalPlan::PARALLEL_THRESHOLD + extra;
        let (m, coords, plan) = random_world(n, &space, seed, 16);
        let naive = naive_errors(&plan, &coords, &space, &m);
        let serial = plan.per_node_errors_with(&coords, &space, &m, 1);
        let parallel = plan.per_node_errors_with(&coords, &space, &m, threads);
        let to_bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(to_bits(&naive), to_bits(&serial), "serial snapshot diverges");
        prop_assert_eq!(to_bits(&naive), to_bits(&parallel), "parallel snapshot diverges");

        let avg = plan.avg_error(&coords, &space, &m);
        let avg_naive = naive.iter().sum::<f64>() / naive.len() as f64;
        prop_assert_eq!(avg.to_bits(), avg_naive.to_bits(), "average diverges");
    }

    /// Below the threshold (the smoke-scale shape) the snapshot fast path
    /// still runs serially — and must still match.
    #[test]
    fn snapshot_serial_path_matches_naive(
        seed in 0u64..10_000,
        n in 8usize..72,
        dim in 1usize..5,
    ) {
        let space = Space::Euclidean(dim);
        let (m, coords, plan) = random_world(n, &space, seed, 8);
        let naive = naive_errors(&plan, &coords, &space, &m);
        let fast = plan.per_node_errors(&coords, &space, &m);
        let to_bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(to_bits(&naive), to_bits(&fast));
    }

    /// One plan swept against a succession of matrices — written in place,
    /// cloned, dropped and replaced by another of the same size (which the
    /// allocator is free to put at the same address), and brought back —
    /// returns each matrix's own errors, never those of the one it last
    /// copied its RTTs from.
    #[test]
    fn sweeps_follow_the_matrix_content_not_the_last_binding(
        seed in 0u64..10_000,
        parallel in 0u8..2,
        extra in 0usize..24,
        cell in 0usize..1_000,
    ) {
        let space = Space::EuclideanHeight(2);
        let n = if parallel == 1 { EvalPlan::PARALLEL_THRESHOLD } else { 24 } + extra;
        let (mut a, coords, plan) = random_world(n, &space, seed, 8);
        let to_bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let check = |m: &RttMatrix, step: &str| {
            let naive = to_bits(&naive_errors(&plan, &coords, &space, m));
            for threads in [1, 2, 5] {
                let swept = to_bits(&plan.per_node_errors_with(&coords, &space, m, threads));
                assert_eq!(swept, naive, "{step} at {threads} threads");
            }
        };
        let (i, j) = (cell % n, (cell % n + 1 + cell % (n - 1)) % n);

        check(&a, "first matrix");
        check(&a, "first matrix again");
        a.set(i, j, a.rtt(i, j) + 250.0);
        check(&a, "after set");
        a.map_in_place(|_, _, v| v * 1.5);
        check(&a, "after map_in_place");

        let mut copy = a.clone();
        check(&copy, "clone");
        copy.set(i, j, 3.0);
        check(&copy, "written clone");
        check(&a, "source of the written clone");

        // Same size, allocated right after `a` and `copy` are freed.
        drop((a, copy));
        let b = random_matrix(n, &mut ChaCha12Rng::seed_from_u64(seed ^ 0xB));
        check(&b, "a different matrix after the first was dropped");

        // The first content again, in a matrix that never met the plan.
        drop(b);
        let (a_again, _, _) = random_world(n, &space, seed, 8);
        check(&a_again, "first content rebuilt");
    }
}
