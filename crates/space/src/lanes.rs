//! Batched SoA Euclidean distance kernel.
//!
//! [`dist_batch`] computes the distance from one point `a` to many points
//! stored as contiguous dimension-strided rows (`rows[p*dim..(p+1)*dim]` is
//! point `p`), writing one distance per entry of `out`. It is the multi-pair
//! lane behind [`Space::distance_flat_batch`] and is required to be
//! **bit-identical** to calling [`crate::vector::dist`] once per pair: for
//! each pair it performs the exact per-dimension sequence
//! `acc += (a[i] - b[i])²` followed by one `sqrt` — the same operations in
//! the same order as `vector::dist`, written so LLVM can auto-vectorize
//! *across pairs* without reassociating any per-pair sum (property-tested
//! in `tests/lane_properties.rs`).
//!
//! Horizontal vectorization (summing one pair's dimensions in SIMD lanes)
//! would reassociate the per-pair sum and break bit-identity; it is
//! deliberately not used. A hand-written SSE2 variant of the across-pairs
//! form was measured at 0.05–0.16 % of its heaviest workload and removed
//! (EXPERIMENTS.md, "Where the time goes: one error sweep").
//!
//! [`Space::distance_flat_batch`]: crate::Space::distance_flat_batch

/// Batched Euclidean distance: `out[p] = ||a - rows[p]||₂` for every `p`.
///
/// # Panics
/// Panics if `rows.len() != a.len() * out.len()` (debug and release).
pub fn dist_batch(a: &[f64], rows: &[f64], out: &mut [f64]) {
    let dim = a.len();
    assert_eq!(rows.len(), dim * out.len(), "rows/out shape mismatch");
    for (p, o) in out.iter_mut().enumerate() {
        let row = &rows[p * dim..(p + 1) * dim];
        let mut acc = 0.0f64;
        for (x, y) in a.iter().zip(row) {
            let d = x - y;
            acc += d * d;
        }
        *o = acc.sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    fn pseudo(seed: &mut u64) -> f64 {
        // xorshift64*, mapped to [-100, 100): deterministic and dependency-free.
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let m = seed.wrapping_mul(0x2545F4914F6CDD1D);
        (m >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
    }

    #[test]
    fn batch_matches_per_pair_dist_bitwise() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        for dim in 1..=9 {
            for pairs in 0..=7 {
                let a: Vec<f64> = (0..dim).map(|_| pseudo(&mut seed)).collect();
                let rows: Vec<f64> = (0..dim * pairs).map(|_| pseudo(&mut seed)).collect();
                let mut out = vec![0.0; pairs];
                dist_batch(&a, &rows, &mut out);
                for p in 0..pairs {
                    let want = vector::dist(&a, &rows[p * dim..(p + 1) * dim]);
                    assert_eq!(out[p].to_bits(), want.to_bits(), "dim={dim} p={p}");
                }
            }
        }
    }

    #[test]
    fn zero_pairs_is_a_no_op() {
        let mut out: Vec<f64> = vec![];
        dist_batch(&[1.0, 2.0], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut out = vec![0.0; 2];
        dist_batch(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut out);
    }
}
