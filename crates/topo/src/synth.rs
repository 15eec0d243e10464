//! King-dataset-equivalent topology synthesis.
//!
//! The generator follows the structural model behind Vivaldi's height
//! coordinates: a high-speed core in which latency behaves roughly like
//! Euclidean distance, plus per-node access links. Concretely:
//!
//! 1. Place `CLUSTERS` cluster centres ("continents") in a `CORE_DIM`-D
//!    Euclidean core, scaled for intercontinental distances of ~60–160 ms.
//! 2. Assign each node to a cluster (skewed weights — the Internet's node
//!    distribution is uneven) and offset it with a Gaussian intra-cluster
//!    spread.
//! 3. Give each node a log-normal access-link *height* (DSL/dial-up tail).
//! 4. `rtt(i,j) = core_dist + h_i + h_j`, perturbed by symmetric log-normal
//!    measurement noise.
//! 5. Rewire a fraction of pairs onto "shortcut" routes (RTT scaled down),
//!    producing persistent triangle-inequality violations — the phenomenon
//!    [Lua et al. IMC'05] and [Zheng et al. PAM'05] document and the paper
//!    leans on when dismissing TIV-based security tests.
//! 6. Rescale so the median RTT matches the published King median.
//!
//! The calibration is the constants below; a [`KingLikeConfig`] sets only
//! the node count and the two TIV sources (noise and shortcuts). Together
//! they reproduce the King headline statistics (1740 nodes, median RTT in
//! the low hundreds of ms, a heavy right tail, a few percent TIVs) while
//! remaining imperfectly embeddable — which is what the attack dynamics
//! actually exercise. See `DESIGN.md` § Substitutions.

use crate::matrix::RttMatrix;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Normal};
use serde::{Deserialize, Serialize};

/// Dimension of the synthetic core space.
const CORE_DIM: usize = 5;
/// Number of clusters ("continents").
const CLUSTERS: usize = 5;
/// Std-dev of cluster centres in the core (controls intercontinental RTTs).
const INTER_SIGMA_MS: f64 = 34.0;
/// Std-dev of node offsets within a cluster.
const INTRA_SIGMA_MS: f64 = 7.5;
/// Median of the log-normal access-link height.
const HEIGHT_MEDIAN_MS: f64 = 6.0;
/// σ of the underlying normal for the height (tail heaviness).
const HEIGHT_SIGMA: f64 = 0.8;
/// Shortcut scaling range `(lo, hi)` applied multiplicatively.
const SHORTCUT_SCALE: (f64, f64) = (0.45, 0.85);
/// Median RTT after calibration (the published King median).
const TARGET_MEDIAN_MS: f64 = 98.0;
/// Lower clamp for every RTT.
const MIN_RTT_MS: f64 = 1.0;

/// Parameters for the King-equivalent generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KingLikeConfig {
    /// Number of nodes (the King data set has 1740).
    pub nodes: usize,
    /// σ of the symmetric log-normal measurement noise.
    pub noise_sigma: f64,
    /// Fraction of pairs rewired onto shortcut routes (TIV injection).
    pub shortcut_fraction: f64,
}

impl Default for KingLikeConfig {
    fn default() -> Self {
        KingLikeConfig {
            nodes: 1740,
            noise_sigma: 0.10,
            shortcut_fraction: 0.04,
        }
    }
}

impl KingLikeConfig {
    /// Convenience: default parameters at a different node count.
    pub fn with_nodes(nodes: usize) -> Self {
        KingLikeConfig {
            nodes,
            ..Default::default()
        }
    }
}

/// The synthesizer. Stateless apart from its config; all randomness comes
/// from the caller-supplied RNG so topologies are reproducible.
#[derive(Debug, Clone, Default)]
pub struct KingLike {
    /// Generation parameters.
    pub config: KingLikeConfig,
}

impl KingLike {
    /// Create a generator with the given config.
    pub fn new(config: KingLikeConfig) -> Self {
        KingLike { config }
    }

    /// Generate a latency matrix.
    ///
    /// # Panics
    /// Panics if `nodes < 2`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> RttMatrix {
        let c = &self.config;
        assert!(c.nodes >= 2, "need at least two nodes");

        let centre_dist = Normal::new(0.0, INTER_SIGMA_MS).expect("valid sigma");
        let offset_dist = Normal::new(0.0, INTRA_SIGMA_MS).expect("valid sigma");
        let height_dist =
            LogNormal::new(HEIGHT_MEDIAN_MS.ln(), HEIGHT_SIGMA).expect("valid lognormal");
        let noise_dist = Normal::new(0.0, c.noise_sigma).expect("valid sigma");

        // 1. Cluster centres, `CORE_DIM` components each in one flat buffer.
        let centres: Vec<f64> = (0..CLUSTERS * CORE_DIM)
            .map(|_| centre_dist.sample(rng))
            .collect();

        // 2. Skewed cluster membership: weight ∝ 1/(k+1), normalized.
        let weights: Vec<f64> = (0..CLUSTERS).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let wsum: f64 = weights.iter().sum();

        let mut positions: Vec<f64> = Vec::with_capacity(c.nodes * CORE_DIM);
        let mut heights: Vec<f64> = Vec::with_capacity(c.nodes);
        for _ in 0..c.nodes {
            let mut pick = rng.gen_range(0.0..wsum);
            let mut cluster = 0;
            for (k, w) in weights.iter().enumerate() {
                if pick < *w {
                    cluster = k;
                    break;
                }
                pick -= w;
            }
            for x in &centres[cluster * CORE_DIM..(cluster + 1) * CORE_DIM] {
                positions.push(x + offset_dist.sample(rng));
            }
            // 3. Access heights; 15% of nodes are "well connected" stubs.
            let h = if rng.gen_bool(0.15) {
                rng.gen_range(0.3..1.5)
            } else {
                height_dist.sample(rng)
            };
            heights.push(h.min(400.0));
        }

        // Steps 4–6 each stream over the matrix's cells front to back. The
        // RNG is drawn from in (i, j) order within a step and step by step,
        // so no two steps can share a pass.
        let mut m = RttMatrix::zeros(c.nodes);

        // 4. Pairwise RTTs with symmetric noise.
        m.map_in_place(|i, j, _| {
            let core: f64 = positions[i * CORE_DIM..(i + 1) * CORE_DIM]
                .iter()
                .zip(&positions[j * CORE_DIM..(j + 1) * CORE_DIM])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let base = core + heights[i] + heights[j];
            let noisy = base * noise_dist.sample(rng).exp();
            noisy.max(MIN_RTT_MS)
        });

        // 5. Shortcut rewiring → triangle-inequality violations.
        if c.shortcut_fraction > 0.0 {
            let (lo, hi) = SHORTCUT_SCALE;
            m.map_in_place(|_, _, v| {
                if rng.gen_bool(c.shortcut_fraction) {
                    (v * rng.gen_range(lo..hi)).max(MIN_RTT_MS)
                } else {
                    v
                }
            });
        }

        // 6. Median calibration: the upper median of the pairs, by selection
        // (at least `MIN_RTT_MS`, like every cell).
        let pairs = c.nodes * (c.nodes - 1) / 2;
        let s = TARGET_MEDIAN_MS / m.upper_nth(pairs / 2);
        m.map_in_place(|_, _, v| (v * s).max(MIN_RTT_MS));

        debug_assert!(m.validate().is_ok());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TopoStats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// The generator this crate shipped before the streaming passes: cells
    /// written pair by pair through `RttMatrix::set`, positions as nested
    /// `Vec`s, the median by a full stable sort. Kept as the bit oracle.
    fn generate_oracle<R: Rng + ?Sized>(c: &KingLikeConfig, rng: &mut R) -> RttMatrix {
        let centre_dist = Normal::new(0.0, INTER_SIGMA_MS).unwrap();
        let offset_dist = Normal::new(0.0, INTRA_SIGMA_MS).unwrap();
        let height_dist = LogNormal::new(HEIGHT_MEDIAN_MS.ln(), HEIGHT_SIGMA).unwrap();
        let noise_dist = Normal::new(0.0, c.noise_sigma).unwrap();
        let centre = |_| (0..CORE_DIM).map(|_| centre_dist.sample(rng)).collect();
        let centres: Vec<Vec<f64>> = (0..CLUSTERS).map(centre).collect();
        let weights: Vec<f64> = (0..CLUSTERS).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let wsum: f64 = weights.iter().sum();
        let (mut positions, mut heights) = (Vec::<Vec<f64>>::new(), Vec::new());
        for _ in 0..c.nodes {
            let (mut pick, mut k) = (rng.gen_range(0.0..wsum), 0);
            while k < CLUSTERS && pick >= weights[k] {
                pick -= weights[k];
                k += 1;
            }
            let offset = |x: &f64| x + offset_dist.sample(rng);
            positions.push(centres[k % CLUSTERS].iter().map(offset).collect());
            let h = if rng.gen_bool(0.15) {
                rng.gen_range(0.3..1.5)
            } else {
                height_dist.sample(rng)
            };
            heights.push(h.min(400.0));
        }
        let mut m = RttMatrix::zeros(c.nodes);
        let pairs = |n: usize| (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)));
        for (i, j) in pairs(c.nodes) {
            let sq = positions[i].iter().zip(&positions[j]);
            let core: f64 = sq.map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            let noisy = (core + heights[i] + heights[j]) * noise_dist.sample(rng).exp();
            m.set(i, j, noisy.max(MIN_RTT_MS));
        }
        for (i, j) in pairs(c.nodes).filter(|_| c.shortcut_fraction > 0.0) {
            if rng.gen_bool(c.shortcut_fraction) {
                let (lo, hi) = SHORTCUT_SCALE;
                let v = (m.rtt(i, j) * rng.gen_range(lo..hi)).max(MIN_RTT_MS);
                m.set(i, j, v);
            }
        }
        let mut vals: Vec<f64> = m.pairs().map(|(_, _, v)| v).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = vals[vals.len() / 2];
        for (i, j) in pairs(c.nodes) {
            m.set(
                i,
                j,
                (m.rtt(i, j) * (TARGET_MEDIAN_MS / median)).max(MIN_RTT_MS),
            );
        }
        m
    }

    fn bits(m: &RttMatrix) -> Vec<u64> {
        let n = m.len();
        (0..n * n).map(|k| m.rtt(k / n, k % n).to_bits()).collect()
    }

    #[test]
    fn streaming_generator_matches_the_pairwise_oracle_bit_for_bit() {
        let variants: [fn(&mut KingLikeConfig); 3] = [
            |_| {},
            |c| c.shortcut_fraction = 0.0,
            |c| c.noise_sigma = 0.0,
        ];
        for n in [2, 3, 50, 72, 400] {
            for (v, vary) in variants.iter().enumerate() {
                let mut cfg = KingLikeConfig::with_nodes(n);
                vary(&mut cfg);
                let seed = 7 + n as u64;
                let got =
                    KingLike::new(cfg.clone()).generate(&mut ChaCha12Rng::seed_from_u64(seed));
                let want = generate_oracle(&cfg, &mut ChaCha12Rng::seed_from_u64(seed));
                assert!(got.validate().is_ok(), "n={n} variant {v}");
                assert_eq!(bits(&got), bits(&want), "n={n} variant {v}");
            }
        }
    }

    fn small() -> RttMatrix {
        let cfg = KingLikeConfig::with_nodes(200);
        KingLike::new(cfg).generate(&mut ChaCha12Rng::seed_from_u64(42))
    }

    #[test]
    fn generates_valid_matrix() {
        let m = small();
        assert_eq!(m.len(), 200);
        assert!(m.validate().is_ok());
        assert!(m.min_rtt().unwrap() >= 1.0);
    }

    #[test]
    fn median_is_calibrated() {
        let m = small();
        let st = TopoStats::analyze(&m, 2000, &mut ChaCha12Rng::seed_from_u64(0));
        assert!(
            (st.median_ms - 98.0).abs() < 8.0,
            "median {} not near target",
            st.median_ms
        );
    }

    #[test]
    fn has_heavy_tail_and_nearby_pairs() {
        let m = small();
        let st = TopoStats::analyze(&m, 2000, &mut ChaCha12Rng::seed_from_u64(0));
        assert!(st.p95_ms > 2.0 * st.median_ms * 0.8, "no right tail");
        // Vivaldi's neighbour rule needs pairs under 50 ms to exist.
        assert!(
            st.p05_ms < 50.0,
            "p5 {} too high for near-neighbour rule",
            st.p05_ms
        );
    }

    #[test]
    fn has_triangle_inequality_violations() {
        let m = small();
        let st = TopoStats::analyze(&m, 20_000, &mut ChaCha12Rng::seed_from_u64(0));
        assert!(
            st.tiv_fraction > 0.01,
            "expected persistent TIVs, got {}",
            st.tiv_fraction
        );
        assert!(st.tiv_fraction < 0.5, "TIV rate implausibly high");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = KingLikeConfig::with_nodes(50);
        let a = KingLike::new(cfg.clone()).generate(&mut ChaCha12Rng::seed_from_u64(9));
        let b = KingLike::new(cfg).generate(&mut ChaCha12Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = KingLikeConfig::with_nodes(50);
        let a = KingLike::new(cfg.clone()).generate(&mut ChaCha12Rng::seed_from_u64(1));
        let b = KingLike::new(cfg).generate(&mut ChaCha12Rng::seed_from_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn no_shortcuts_means_fewer_tivs() {
        let mut cfg = KingLikeConfig::with_nodes(150);
        cfg.shortcut_fraction = 0.0;
        cfg.noise_sigma = 0.0;
        let m = KingLike::new(cfg).generate(&mut ChaCha12Rng::seed_from_u64(3));
        let st = TopoStats::analyze(&m, 20_000, &mut ChaCha12Rng::seed_from_u64(0));
        // A pure height-augmented metric has zero TIVs: d(a,c) ≤ core(a,b) +
        // core(b,c) + h_a + h_c < d(a,b) + d(b,c) always.
        assert!(st.tiv_fraction < 1e-9, "tiv {}", st.tiv_fraction);
    }
}
