//! Property tests pinning the batched SoA distance kernel to its per-pair
//! oracle: for every dimension, pair count, and slice offset
//! [`dist_batch`] must match [`vector::dist`] bit for bit. This is what
//! licenses routing the figure pipeline's distance reductions through the
//! batch kernel — which the compiler is free to vectorize across pairs —
//! while keeping the golden CSVs byte-identical.
//!
//! [`dist_batch`]: vcoord_space::dist_batch
//! [`vector::dist`]: vcoord_space::vector::dist

use proptest::prelude::*;
use vcoord_space::{dist_batch, vector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random shapes and values, including the empty batch and odd
    /// remainders (a vectorized loop handles pairs several at a time with a
    /// scalar tail).
    #[test]
    fn batch_kernel_is_bitwise_equal_to_oracle(
        dim in 1usize..12,
        pairs in 0usize..33,
        fill in prop::collection::vec(-1.0e4f64..1.0e4, 12 * 33 + 12),
        scale in 0.001f64..1000.0,
    ) {
        let a: Vec<f64> = fill[..dim].iter().map(|v| v * scale).collect();
        let rows: Vec<f64> = fill[dim..dim + dim * pairs]
            .iter()
            .map(|v| v * scale)
            .collect();
        let mut out = vec![0.0; pairs];
        dist_batch(&a, &rows, &mut out);
        for p in 0..pairs {
            let oracle = vector::dist(&a, &rows[p * dim..(p + 1) * dim]);
            prop_assert_eq!(
                out[p].to_bits(),
                oracle.to_bits(),
                "batch kernel diverges at pair {} (dim {})",
                p,
                dim
            );
        }
    }

    /// Every alignment: run the kernel on sub-slices starting at each
    /// possible pair offset of one backing allocation, so the output
    /// pointer cycles through both 16-byte phases and every remainder
    /// length 0..=pairs is exercised — whatever peeling or tail a
    /// vectorized build of the loop has, it must not show in the bits.
    #[test]
    fn batch_kernel_is_alignment_invariant(
        dim in 1usize..9,
        pairs in 1usize..17,
        fill in prop::collection::vec(-500.0f64..500.0, 9 * 17 + 9),
    ) {
        let a: Vec<f64> = fill[..dim].to_vec();
        let rows: Vec<f64> = fill[dim..dim + dim * pairs].to_vec();
        let mut whole = vec![0.0; pairs];
        dist_batch(&a, &rows, &mut whole);
        for off in 0..pairs {
            // The same backing buffer, entered at pair `off`: different
            // output alignment, different remainder parity.
            let mut out = vec![0.0; pairs];
            dist_batch(&a, &rows[off * dim..], &mut out[off..]);
            for p in off..pairs {
                prop_assert_eq!(
                    out[p].to_bits(),
                    whole[p].to_bits(),
                    "offset {} diverges at pair {}",
                    off,
                    p
                );
            }
        }
    }
}
