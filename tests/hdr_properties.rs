//! Property pins for the HDR histogram behind `vcoord::obs::HistData`: the
//! quantiles a recorded histogram reports must stay within one bucket width
//! of the exact nearest-rank sample, and merging must equal recording the
//! union — the bounds the trace-schema quantile fields are designed around.
//! The bucket geometry itself is pinned by the `hdr` module's own tests.

use proptest::prelude::*;
use vcoord::obs::HistData;

/// Width of the `HistData` bucket holding `v`, written out from the
/// geometry the histogram documents: one bucket per value below 32, then 32
/// linear sub-buckets per power of two.
fn bucket_width(v: u64) -> u64 {
    const SUB_BITS: u32 = 5;
    if v < 1 << SUB_BITS {
        1
    } else {
        1 << (63 - v.leading_zeros() - SUB_BITS)
    }
}

/// Exact nearest-rank quantile of a sorted sample set (the definition the
/// bucketed estimate approximates).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(target - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gated_hist_quantiles_hold_the_same_bound(
        values in prop::collection::vec(0.0f64..1.0e9, 1..200),
        q in 0.0f64..=1.0,
    ) {
        // The one-bucket-width bound through the recording path: f64 samples
        // truncate to u64 on record (±1), then bucket.
        let mut h = HistData::default();
        for &v in &values {
            h.record(v);
        }
        let mut sorted: Vec<u64> = values.iter().map(|&v| v as u64).collect();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = h.quantile(q);
        let width = bucket_width(exact) as f64;
        prop_assert!(
            (est - exact as f64).abs() <= width.max(1.0) + 1.0,
            "q={q}: estimate {est} vs exact {exact} (bucket width {width})"
        );
    }

    #[test]
    fn merged_hists_quantile_like_the_union(
        a in prop::collection::vec(0.0f64..1.0e6, 1..100),
        b in prop::collection::vec(0.0f64..1.0e6, 1..100),
    ) {
        // Merging two gated histograms must yield exactly the quantiles of
        // recording the union into one — merge is bucket-wise addition, so
        // the estimates agree to the bit, not just within tolerance.
        let mut ha = HistData::default();
        let mut hb = HistData::default();
        let mut hu = HistData::default();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge(&hb);
        for &q in &[0.5, 0.9, 0.95, 0.99] {
            prop_assert_eq!(ha.quantile(q).to_bits(), hu.quantile(q).to_bits());
        }
    }
}
