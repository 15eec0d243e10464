//! Relative-error evaluation against a latency matrix.

use rand::Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};
use vcoord_space::{Coord, Space};
use vcoord_topo::RttMatrix;

/// The paper's relative-error definition (§3.1):
/// `|actual − predicted| / min(actual, predicted)`.
///
/// Degenerate inputs are handled defensively: a non-positive or non-finite
/// denominator yields `f64::INFINITY` when the numerator is meaningful and
/// `0.0` when both distances are (numerically) zero, so adversarial
/// coordinates cannot inject NaNs into aggregates.
#[inline]
pub fn relative_error(actual: f64, predicted: f64) -> f64 {
    if !actual.is_finite() || !predicted.is_finite() {
        return f64::INFINITY;
    }
    let denom = actual.min(predicted);
    let num = (actual - predicted).abs();
    if denom <= 0.0 {
        if num <= f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / denom
    }
}

/// Per-pair error clamp: infinite per-pair errors (degenerate predictions)
/// are bounded so averages stay finite; the paper's plots are bounded the
/// same way by construction.
const CLAMP: f64 = 1.0e6;

/// A flat structure-of-arrays snapshot of a coordinate set.
///
/// Taken once per sample tick by [`EvalPlan`]'s evaluation methods: the
/// Euclidean components live in one contiguous `dim`-strided buffer and the
/// heights in another, so the O(n²) error sweep walks cache-friendly rows
/// instead of chasing one heap `Vec` per [`Coord`]. Distances computed from
/// a snapshot are bit-identical to [`Space::distance`] on the original
/// coordinates (see [`Space::distance_flat`]).
#[derive(Debug)]
struct CoordSnapshot {
    dim: usize,
    flat: Vec<f64>,
    heights: Vec<f64>,
}

impl CoordSnapshot {
    /// Flatten `coords` for evaluation in `space`.
    ///
    /// Returns `None` when any coordinate's dimension disagrees with the
    /// space (callers fall back to the naive per-`Coord` path, which is the
    /// behaviour such degenerate inputs always had).
    fn capture(coords: &[Coord], space: &Space) -> Option<CoordSnapshot> {
        let dim = space.dim();
        if coords.iter().any(|c| c.vec.len() != dim) {
            return None;
        }
        let mut flat = Vec::with_capacity(coords.len() * dim);
        let mut heights = Vec::with_capacity(coords.len());
        for c in coords {
            flat.extend_from_slice(&c.vec);
            heights.push(c.height);
        }
        Some(CoordSnapshot { dim, flat, heights })
    }

    /// Euclidean components of node `i`.
    #[inline]
    fn point(&self, i: usize) -> &[f64] {
        &self.flat[i * self.dim..(i + 1) * self.dim]
    }
}

/// The measured RTT of every planned pair, copied out of one matrix
/// content so a sweep streams it beside the peer ids instead of taking one
/// cache miss per pair in the `n × n` matrix.
#[derive(Debug, Default)]
struct Binding {
    /// [`RttMatrix::version`] the copy was taken at; 0 while there is none.
    version: u64,
    /// `matrix.rtt(node, peer)` for every entry of [`EvalPlan::peers`], in
    /// the same order.
    rtts: Vec<f64>,
}

/// A fixed evaluation plan: which peers each node's error is measured
/// against.
///
/// For systems up to `all_pairs_threshold` nodes every ordered pair inside
/// the evaluation set is used; above it, each node gets a fixed random
/// sample of `sample_peers` peers, drawn once at construction so time series
/// are not perturbed by resampling noise (see DESIGN.md "Error sampling").
///
/// The first sweep against a matrix copies the planned pairs' RTTs out of
/// it; later sweeps against the same content reuse the copy. Which content
/// the copy belongs to is tracked by [`RttMatrix::version`], so sweeping
/// the plan against a changed or different matrix is always that matrix's
/// errors. Sweeps of one plan run one at a time.
#[derive(Debug)]
pub struct EvalPlan {
    /// Node ids being evaluated (typically the honest nodes).
    nodes: Vec<usize>,
    /// Every node's peers, one node after the other in `nodes` order.
    peers: Vec<u32>,
    /// `peers[offsets[k]..offsets[k + 1]]` are the peers of `nodes[k]`.
    offsets: Vec<usize>,
    bound: Mutex<Binding>,
}

impl EvalPlan {
    /// Build a plan over the distinct ids `nodes` (peers are drawn from the
    /// same set): every other node up to `all_pairs_threshold` nodes, above
    /// it `sample_peers` of them per node.
    ///
    /// A sampled node's peers are the first `k` steps of a Fisher–Yates
    /// shuffle of its candidates — a uniform `k`-subset in uniform order
    /// for exactly `k` draws of `rng`, where shuffling the whole pool
    /// would take `n − 1`.
    ///
    /// # Panics
    /// Panics if a node id does not fit the plan's 32-bit peer ids.
    pub fn with_params<R: Rng + ?Sized>(
        nodes: &[usize],
        all_pairs_threshold: usize,
        sample_peers: usize,
        rng: &mut R,
    ) -> EvalPlan {
        let ids: Vec<u32> = nodes
            .iter()
            .map(|&i| u32::try_from(i).expect("EvalPlan node ids must fit in 32 bits"))
            .collect();
        let sampled = ids.len() > all_pairs_threshold;
        let per_node = if sampled { sample_peers } else { usize::MAX };
        let per_node = per_node.min(ids.len().saturating_sub(1));
        let mut peers = Vec::with_capacity(ids.len() * per_node);
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        offsets.push(0);
        // The `x`-th node's candidates are `ids[..x] ++ ids[x + 1..]`: one
        // write away from the previous node's, once its draws are undone.
        let mut pool: Vec<u32> = ids.iter().skip(1).copied().collect();
        let mut drawn = Vec::new();
        for x in 0..ids.len() {
            if x > 0 {
                pool[x - 1] = ids[x - 1];
            }
            if sampled {
                for t in 0..per_node {
                    let j = rng.gen_range(t..pool.len());
                    pool.swap(t, j);
                    drawn.push(j);
                }
            }
            peers.extend_from_slice(&pool[..per_node]);
            offsets.push(peers.len());
            while let Some(j) = drawn.pop() {
                pool.swap(drawn.len(), j);
            }
        }
        EvalPlan {
            nodes: nodes.to_vec(),
            peers,
            offsets,
            bound: Mutex::default(),
        }
    }

    /// The evaluated node ids.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Where the `k`-th planned node's peers sit in `peers` (and their
    /// RTTs in a [`Binding`]).
    fn span(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k]..self.offsets[k + 1]
    }

    /// The peers the `k`-th planned node's error is measured against, in
    /// draw order.
    pub fn peers(&self, k: usize) -> &[u32] {
        &self.peers[self.span(k)]
    }

    /// Relative error of the `k`-th planned node given current coordinates.
    ///
    /// Infinite per-pair errors (degenerate predictions) are clamped to
    /// keep averages finite; the paper's plots are bounded the same way by
    /// construction.
    pub(crate) fn node_error(
        &self,
        k: usize,
        coords: &[Coord],
        space: &Space,
        matrix: &RttMatrix,
    ) -> f64 {
        let i = self.nodes[k];
        let peers = self.peers(k);
        if peers.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for &j in peers {
            let j = j as usize;
            let actual = matrix.rtt(i, j);
            let predicted = space.distance(&coords[i], &coords[j]);
            sum += relative_error(actual, predicted).min(CLAMP);
        }
        sum / peers.len() as f64
    }

    /// Lock the plan's RTT copy, first retaking it from `matrix` unless it
    /// was taken from this very content.
    fn bind(&self, matrix: &RttMatrix) -> MutexGuard<'_, Binding> {
        // A sweep that panicked while holding the lock left either a whole
        // copy or none (see below), so a poisoned lock is safe to reuse.
        let mut bound = self.bound.lock().unwrap_or_else(PoisonError::into_inner);
        let version = matrix.version();
        if bound.version != version {
            // Unbound while the copy is partial: an id outside `matrix`
            // panics in the loop and must not leave a half-taken copy
            // labelled with a version.
            bound.version = 0;
            bound.rtts.clear();
            bound.rtts.reserve_exact(self.peers.len());
            for (k, &i) in self.nodes.iter().enumerate() {
                for &j in self.peers(k) {
                    bound.rtts.push(matrix.rtt(i, j as usize));
                }
            }
            bound.version = version;
        }
        bound
    }

    /// [`EvalPlan::node_error`] evaluated against a flat snapshot and the
    /// bound RTTs: each predicted distance is one [`Space::distance_flat`]
    /// on the snapshot's rows, and the peer-order error reduction is the
    /// per-pair path's, so the result is bit-identical to it.
    fn node_error_snap(&self, k: usize, snap: &CoordSnapshot, space: &Space, rtts: &[f64]) -> f64 {
        let span = self.span(k);
        let peers = &self.peers[span.clone()];
        if peers.is_empty() {
            return 0.0;
        }
        let i = self.nodes[k];
        let (a, a_height) = (snap.point(i), snap.heights[i]);
        let mut sum = 0.0;
        for (&j, &actual) in peers.iter().zip(&rtts[span]) {
            let j = j as usize;
            let predicted = space.distance_flat(a, a_height, snap.point(j), snap.heights[j]);
            sum += relative_error(actual, predicted).min(CLAMP);
        }
        sum / peers.len() as f64
    }

    /// Per-node relative errors, in `nodes()` order.
    ///
    /// Swept over a flat coordinate snapshot taken once per call and the
    /// bound RTTs, on the calling thread: a figure's job grid is the one
    /// level of threads. Every per-node value is the naive path's mean bit
    /// for bit.
    pub fn per_node_errors(&self, coords: &[Coord], space: &Space, matrix: &RttMatrix) -> Vec<f64> {
        let Some(snap) = CoordSnapshot::capture(coords, space) else {
            // Dimension-degenerate input: the naive path is the behaviour
            // such coordinates always had.
            return (0..self.nodes.len())
                .map(|k| self.node_error(k, coords, space, matrix))
                .collect();
        };
        let bound = self.bind(matrix);
        let rtts = bound.rtts.as_slice();
        (0..self.nodes.len())
            .map(|k| self.node_error_snap(k, &snap, space, rtts))
            .collect()
    }

    /// System-wide average relative error (the paper's headline accuracy
    /// indicator).
    ///
    /// Computed over [`EvalPlan::per_node_errors`] and reduced in `nodes()`
    /// order, so the result is bit-identical to the naive sweep.
    pub fn avg_error(&self, coords: &[Coord], space: &Space, matrix: &RttMatrix) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let total: f64 = self.per_node_errors(coords, space, matrix).iter().sum();
        total / self.nodes.len() as f64
    }

    /// [`EvalPlan::avg_error`]; the thread count is ignored. Kept only for
    /// the benchmark's workloads, which call it with `1`; ROADMAP direction
    /// 4 deletes it with the next change to the benchmark.
    pub fn avg_error_with(
        &self,
        coords: &[Coord],
        space: &Space,
        matrix: &RttMatrix,
        _threads: usize,
    ) -> f64 {
        self.avg_error(coords, space, matrix)
    }
}

/// Average relative error of the paper's worst-case *random coordinate
/// system*: every node draws each coordinate component uniformly from
/// `[-range, range]` (§5.1 uses `range = 50 000`).
pub fn random_baseline<R: Rng + ?Sized>(
    plan: &EvalPlan,
    space: &Space,
    matrix: &RttMatrix,
    range: f64,
    rng: &mut R,
) -> f64 {
    let coords: Vec<Coord> = (0..matrix.len())
        .map(|_| space.random_coord(range, rng))
        .collect();
    plan.avg_error(&coords, space, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn relative_error_definition() {
        assert_eq!(relative_error(100.0, 100.0), 0.0);
        assert_eq!(relative_error(100.0, 50.0), 1.0); // |100-50|/50
        assert_eq!(relative_error(50.0, 100.0), 1.0);
        assert_eq!(relative_error(100.0, 300.0), 2.0);
    }

    #[test]
    fn relative_error_degenerate_inputs() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(0.0, 10.0), f64::INFINITY);
        assert_eq!(relative_error(f64::NAN, 10.0), f64::INFINITY);
        assert_eq!(relative_error(10.0, f64::INFINITY), f64::INFINITY);
    }

    fn line_matrix() -> RttMatrix {
        // Nodes on a line at 0, 10, 25 → perfectly 1-D embeddable.
        let mut m = RttMatrix::zeros(3);
        m.set(0, 1, 10.0);
        m.set(0, 2, 25.0);
        m.set(1, 2, 15.0);
        m
    }

    fn line_coords() -> Vec<Coord> {
        vec![
            Coord::from_vec(vec![0.0]),
            Coord::from_vec(vec![10.0]),
            Coord::from_vec(vec![25.0]),
        ]
    }

    #[test]
    fn perfect_embedding_has_zero_error() {
        let m = line_matrix();
        let space = Space::Euclidean(1);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let plan = EvalPlan::with_params(&[0, 1, 2], 512, 256, &mut rng);
        let coords = line_coords();
        assert_eq!(plan.avg_error(&coords, &space, &m), 0.0);
        assert_eq!(plan.per_node_errors(&coords, &space, &m), vec![0.0; 3]);
    }

    #[test]
    fn displaced_node_raises_its_error() {
        let m = line_matrix();
        let space = Space::Euclidean(1);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let plan = EvalPlan::with_params(&[0, 1, 2], 512, 256, &mut rng);
        let mut coords = line_coords();
        coords[2] = Coord::from_vec(vec![50.0]); // should be at 25
        let errs = plan.per_node_errors(&coords, &space, &m);
        assert!(errs[2] > 0.5);
        assert!(errs[0] > 0.0); // pairwise, so peers see it too
    }

    #[test]
    fn plan_excludes_nodes_outside_eval_set() {
        let m = line_matrix();
        let space = Space::Euclidean(1);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        // Node 2 (e.g. malicious) excluded: its lie must not affect the metric.
        let plan = EvalPlan::with_params(&[0, 1], 512, 256, &mut rng);
        let mut coords = line_coords();
        coords[2] = Coord::from_vec(vec![1.0e9]);
        assert_eq!(plan.avg_error(&coords, &space, &m), 0.0);
    }

    #[test]
    fn sampled_plan_bounds_peer_count() {
        let n = 40;
        let mut m = RttMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, (i + j) as f64 + 1.0);
            }
        }
        let nodes: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let plan = EvalPlan::with_params(&nodes, 10, 5, &mut rng);
        for (k, &node) in nodes.iter().enumerate() {
            let peers = plan.peers(k);
            assert_eq!(peers.len(), 5);
            assert!(!peers.contains(&(node as u32)));
        }
    }

    #[test]
    fn sampled_plan_stores_only_the_sampled_peers() {
        // Each node's sample is drawn into the front of a reused pool of
        // all its candidates; what the plan keeps must be the sample, not
        // the pool.
        let nodes: Vec<usize> = (0..600).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let plan = EvalPlan::with_params(&nodes, 256, 16, &mut rng);
        let planned = nodes.len() * 16;
        assert_eq!(plan.peers.len(), planned);
        assert_eq!(plan.offsets.len(), nodes.len() + 1);
        assert!(
            plan.peers.capacity() <= planned + planned / 20,
            "{} peer slots held for {planned} planned pairs",
            plan.peers.capacity()
        );
        // The RTT copy is as large as the peer table and no larger.
        let m = RttMatrix::zeros(nodes.len());
        let coords = vec![Coord::from_vec(vec![0.0]); nodes.len()];
        plan.avg_error(&coords, &Space::Euclidean(1), &m);
        let bound = plan.bound.lock().unwrap();
        assert_eq!(bound.rtts.len(), planned);
        assert!(bound.rtts.capacity() <= planned + planned / 20);
    }

    #[test]
    #[should_panic(expected = "EvalPlan node ids must fit in 32 bits")]
    fn node_id_beyond_32_bits_panics_instead_of_truncating() {
        // 2³² would truncate to peer id 0 and silently alias node 0.
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        EvalPlan::with_params(&[0, 1 << 32], 512, 256, &mut rng);
    }

    #[test]
    fn plan_survives_a_sweep_that_panicked_mid_copy() {
        // Node 3 is outside the 3-node matrix: copying its RTTs panics
        // with the plan's lock held.
        let space = Space::Euclidean(1);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let plan = EvalPlan::with_params(&[0, 1, 2, 3], 512, 256, &mut rng);
        let mut coords = line_coords();
        coords.push(Coord::from_vec(vec![40.0]));
        let small = line_matrix();
        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.per_node_errors(&coords, &space, &small)
        }));
        assert!(swept.is_err());
        // Against a matrix that does hold node 3 the plan works, from a
        // whole copy of that matrix.
        let mut m = RttMatrix::zeros(4);
        for (i, j, v) in small.pairs() {
            m.set(i, j, v);
        }
        m.set(0, 3, 40.0);
        m.set(1, 3, 30.0);
        m.set(2, 3, 15.0);
        assert_eq!(plan.per_node_errors(&coords, &space, &m), vec![0.0; 4]);
    }

    #[test]
    fn random_baseline_is_terrible() {
        let m = line_matrix();
        let space = Space::Euclidean(2);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let plan = EvalPlan::with_params(&[0, 1, 2], 512, 256, &mut rng);
        let base = random_baseline(&plan, &space, &m, 50_000.0, &mut rng);
        assert!(base > 100.0, "baseline {base} suspiciously good");
    }

    /// The pre-snapshot evaluation path, retained as the oracle for the
    /// snapshot sweep.
    fn per_node_errors_naive(
        plan: &EvalPlan,
        coords: &[Coord],
        space: &Space,
        m: &RttMatrix,
    ) -> Vec<f64> {
        (0..plan.nodes.len())
            .map(|k| plan.node_error(k, coords, space, m))
            .collect()
    }

    /// Random-ish but deterministic test world with a sampled plan.
    fn random_world(n: usize, space: &Space, seed: u64) -> (RttMatrix, Vec<Coord>, EvalPlan) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut m = RttMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, rng.gen_range(1.0..400.0));
            }
        }
        let coords: Vec<Coord> = (0..n)
            .map(|_| space.random_coord(200.0, &mut rng))
            .collect();
        let nodes: Vec<usize> = (0..n).collect();
        let plan = EvalPlan::with_params(&nodes, n / 2, 24, &mut rng);
        (m, coords, plan)
    }

    #[test]
    fn snapshot_path_matches_naive_bitwise() {
        for space in [Space::Euclidean(3), Space::EuclideanHeight(2)] {
            let (m, coords, plan) = random_world(220, &space, 9);
            let naive = per_node_errors_naive(&plan, &coords, &space, &m);
            let fast = plan.per_node_errors(&coords, &space, &m);
            let naive_bits: Vec<u64> = naive.iter().map(|v| v.to_bits()).collect();
            let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
            assert_eq!(naive_bits, fast_bits, "{space:?}");
            // And the headline aggregate reduces identically.
            let avg_naive = naive.iter().sum::<f64>() / naive.len() as f64;
            let avg = plan.avg_error(&coords, &space, &m);
            assert_eq!(avg_naive.to_bits(), avg.to_bits());
        }
    }

    #[test]
    fn snapshot_rejects_mismatched_dimensions() {
        let space = Space::Euclidean(2);
        let ragged = vec![Coord::from_vec(vec![0.0, 1.0]), Coord::from_vec(vec![2.0])];
        assert!(CoordSnapshot::capture(&ragged, &space).is_none());
        // Coordinates of a dimension the space doesn't expect (but mutually
        // consistent): the evaluation path must fall back to the naive loop
        // and agree with it, not panic.
        let coords = vec![
            Coord::from_vec(vec![0.0, 1.0, 2.0]),
            Coord::from_vec(vec![3.0, 4.0, 5.0]),
        ];
        assert!(CoordSnapshot::capture(&coords, &space).is_none());
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut m = RttMatrix::zeros(2);
        m.set(0, 1, 5.0);
        let plan = EvalPlan::with_params(&[0, 1], 512, 256, &mut rng);
        let errs = plan.per_node_errors(&coords, &space, &m);
        assert_eq!(errs, per_node_errors_naive(&plan, &coords, &space, &m));
    }

    #[test]
    fn snapshot_distance_matches_space_distance() {
        let space = Space::EuclideanHeight(3);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let coords: Vec<Coord> = (0..8).map(|_| space.random_coord(50.0, &mut rng)).collect();
        let snap = CoordSnapshot::capture(&coords, &space).unwrap();
        for i in 0..coords.len() {
            for j in 0..coords.len() {
                let flat = space.distance_flat(
                    snap.point(i),
                    snap.heights[i],
                    snap.point(j),
                    snap.heights[j],
                );
                assert_eq!(
                    flat.to_bits(),
                    space.distance(&coords[i], &coords[j]).to_bits()
                );
            }
        }
    }

    #[test]
    fn errors_are_always_finite() {
        let m = line_matrix();
        let space = Space::Euclidean(1);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let plan = EvalPlan::with_params(&[0, 1, 2], 512, 256, &mut rng);
        let mut coords = line_coords();
        coords[1] = Coord::from_vec(vec![f64::NAN]);
        let errs = plan.per_node_errors(&coords, &space, &m);
        assert!(errs.iter().all(|e| e.is_finite()), "{errs:?}");
    }
}
