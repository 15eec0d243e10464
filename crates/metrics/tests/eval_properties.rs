//! Property tests pinning `EvalPlan`'s snapshot (and parallel) evaluation
//! path to the naive per-`Coord` path: identical per-node errors and
//! identical averages, bit for bit, for any worker count — and for any
//! history of matrices the plan was swept against before, since the plan
//! keeps a copy of the last one's RTTs. And the peer sampler: `k` distinct
//! peers per node, uniform over the candidates and in order, for exactly
//! `k` draws.

use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
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

/// An RNG that counts the words drawn from it.
struct Counting<R> {
    inner: R,
    u64s: usize,
    other: usize,
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        self.other += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.u64s += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.other += 1;
        self.inner.fill_bytes(dest)
    }
}

/// `nodes` distinct ids out of `0..3 * nodes`, in a random order.
fn scattered_ids<R: Rng>(nodes: usize, rng: &mut R) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..3 * nodes).collect();
    for t in 0..nodes {
        let j = rng.gen_range(t..ids.len());
        ids.swap(t, j);
    }
    ids.truncate(nodes);
    ids
}

/// Pearson's χ² of `counts` against a uniform expectation.
fn chi_squared(counts: &[usize]) -> f64 {
    let expected = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 - expected).powi(2) / expected)
        .sum()
}

/// Over plans of 21 nodes × 5 peers at seeds `0..200`, how often each node
/// drew each of its 20 candidates at all and first must both be uniform:
/// Σ of the nodes' χ², 21 × 19 = 399 degrees of freedom, under the value
/// exceeded with probability 0.001.
#[test]
fn sampled_peers_and_the_first_of_them_are_uniform() {
    const N: usize = 21;
    const CHI2_399_P001: f64 = 492.05;
    let nodes: Vec<usize> = (0..N).collect();
    let (mut all, mut first) = ([[0; N - 1]; N], [[0; N - 1]; N]);
    for seed in 0..200 {
        let plan = EvalPlan::with_params(&nodes, 8, 5, &mut ChaCha12Rng::seed_from_u64(seed));
        for k in 0..N {
            // Node k's candidates in plan order, itself left out.
            let slot = |j: u32| j as usize - usize::from(j as usize > k);
            for &j in plan.peers(k) {
                all[k][slot(j)] += 1;
            }
            first[k][slot(plan.peers(k)[0])] += 1;
        }
    }
    for (what, counts) in [("inclusion", &all), ("first-slot", &first)] {
        let chi2: f64 = counts.iter().map(|row| chi_squared(row)).sum();
        assert!(chi2 < CHI2_399_P001, "{what} χ² {chi2:.1}: {counts:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every node gets `k = min(sample_peers, n − 1)` distinct peers above
    /// the threshold and every other node at or below it; never itself,
    /// always from `nodes`.
    #[test]
    fn each_node_gets_k_distinct_peers_from_the_plan(
        seed in 0u64..10_000,
        n in 0usize..90,
        threshold in 0usize..100,
        sample_peers in 0usize..100,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let nodes = scattered_ids(n, &mut rng);
        let plan = EvalPlan::with_params(&nodes, threshold, sample_peers, &mut rng);
        let others = n.saturating_sub(1);
        let k = if n > threshold { sample_peers.min(others) } else { others };
        prop_assert_eq!(plan.nodes(), &nodes[..]);
        for (x, &node) in nodes.iter().enumerate() {
            let mut peers: Vec<usize> = plan.peers(x).iter().map(|&j| j as usize).collect();
            prop_assert_eq!(peers.len(), k, "node {}", node);
            prop_assert!(!peers.contains(&node), "node {} is its own peer", node);
            prop_assert!(peers.iter().all(|j| nodes.contains(j)), "peer outside the plan");
            peers.sort_unstable();
            peers.dedup();
            prop_assert_eq!(peers.len(), k, "node {} has a repeated peer", node);
        }
    }

    /// A sampled plan costs exactly one `u64` per sampled peer, Σk over its
    /// nodes; an all-pairs plan draws nothing.
    #[test]
    fn a_plan_draws_one_word_per_sampled_peer(
        seed in 0u64..10_000,
        n in 0usize..300,
        threshold in 0usize..300,
        sample_peers in 0usize..150,
    ) {
        let nodes: Vec<usize> = (0..n).collect();
        let mut rng = Counting { inner: ChaCha12Rng::seed_from_u64(seed), u64s: 0, other: 0 };
        let plan = EvalPlan::with_params(&nodes, threshold, sample_peers, &mut rng);
        let planned: usize = (0..n).map(|x| plan.peers(x).len()).sum();
        let sampled = n > threshold;
        prop_assert_eq!(rng.u64s, if sampled { planned } else { 0 });
        prop_assert_eq!(rng.other, 0);
        if sampled {
            prop_assert_eq!(planned, n * sample_peers.min(n.saturating_sub(1)));
        }
    }

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
