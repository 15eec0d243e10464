//! Shared HDR-style log-bucket geometry for every histogram in this crate.
//!
//! [`HistData`](crate::HistData) buckets samples with this scheme: values
//! below [`SUB_BUCKETS`] get one bucket each (exact), and every
//! power-of-two magnitude above that is split into [`SUB_BUCKETS`] linear
//! sub-buckets.
//! A bucket's width therefore grows with its magnitude, keeping the
//! *relative* quantization error bounded by `2^-SUB_BITS` (≈ 3.1 %)
//! across the whole `u64` range — the classic HdrHistogram trade.
//!
//! Quantile extraction ([`quantile_from_buckets`]) is nearest-rank over
//! the bucket counts, reporting the bucket midpoint: the estimate for any
//! quantile is within one bucket width of the exact sample value
//! (property-pinned in `tests/hdr_properties.rs`).

/// Sub-bucket resolution: each power-of-two magnitude is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per magnitude (`2^SUB_BITS`); also the top of the exact
/// range — values below this get a bucket each.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`: the exact range plus one set
/// of sub-buckets for each of the `64 - SUB_BITS` magnitudes above it
/// (msb in `SUB_BITS..=63`).
pub const BUCKET_COUNT: usize =
    SUB_BUCKETS as usize + (64 - SUB_BITS as usize) * SUB_BUCKETS as usize;

/// Bucket index of a sample value.
#[inline]
pub fn index_of(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let major = (msb - SUB_BITS) as usize;
    let sub = ((value >> major) - SUB_BUCKETS) as usize;
    SUB_BUCKETS as usize + major * SUB_BUCKETS as usize + sub
}

/// Value range `[lo, hi)` covered by bucket `index`. The very last
/// bucket's upper bound is 2^64, which does not fit in `u64`; it is
/// reported as `u64::MAX` (the bucket is `[lo, u64::MAX]` inclusive).
pub fn bounds_of(index: usize) -> (u64, u64) {
    debug_assert!(index < BUCKET_COUNT);
    if (index as u64) < SUB_BUCKETS {
        return (index as u64, index as u64 + 1);
    }
    let major = (index - SUB_BUCKETS as usize) / SUB_BUCKETS as usize;
    let sub = ((index - SUB_BUCKETS as usize) % SUB_BUCKETS as usize) as u64;
    let lo = (SUB_BUCKETS + sub) << major;
    (lo, lo.saturating_add(1u64 << major))
}

/// Width of the bucket containing `value` — the quantization bound
/// quantile estimates are judged against.
pub fn width_of(value: u64) -> u64 {
    let (lo, hi) = bounds_of(index_of(value));
    hi - lo
}

/// Midpoint of bucket `index` — the value a quantile estimate reports.
fn midpoint_of(index: usize) -> f64 {
    let (lo, hi) = bounds_of(index);
    lo as f64 + (hi - lo) as f64 / 2.0
}

/// Clamp an `f64` sample onto the non-negative integer domain the buckets
/// cover (negative values land in bucket 0, huge ones in the last bucket).
#[inline]
pub fn value_to_u64(value: f64) -> u64 {
    if value <= 0.0 {
        0
    } else if value >= u64::MAX as f64 {
        u64::MAX
    } else {
        value as u64
    }
}

/// Nearest-rank quantile over bucket counts: the midpoint of the bucket
/// holding the `ceil(q·count)`-th sample. `NaN` when empty; `q` outside
/// `[0, 1]` clamps.
pub fn quantile_from_buckets(buckets: &[u64], count: u64, q: f64) -> f64 {
    if count == 0 || buckets.is_empty() {
        return f64::NAN;
    }
    let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return midpoint_of(i);
        }
    }
    // Counts summed short of `count`: inconsistent caller bookkeeping.
    debug_assert!(false, "bucket counts sum below the sample count");
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_range_is_exact() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(bounds_of(v as usize), (v, v + 1));
            assert_eq!(width_of(v), 1);
        }
    }

    #[test]
    fn buckets_partition_the_domain() {
        // Every bucket's hi is the next bucket's lo, starting from 0.
        let mut expect_lo = 0u64;
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bounds_of(i);
            assert_eq!(lo, expect_lo, "bucket {i} not contiguous");
            assert!(hi > lo);
            expect_lo = hi;
        }
        // And index_of agrees with the bounds at edges and interiors.
        for i in (0..BUCKET_COUNT).step_by(17) {
            let (lo, hi) = bounds_of(i);
            assert_eq!(index_of(lo), i);
            assert_eq!(index_of(hi - 1), i);
            assert_eq!(index_of(lo + (hi - lo) / 2), i);
        }
    }

    #[test]
    fn relative_width_is_bounded() {
        for v in [
            33u64,
            100,
            1_000,
            123_456,
            1_000_000_000,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let w = width_of(v);
            assert!(
                (w as f64) <= (v as f64) / (SUB_BUCKETS as f64) * 2.0,
                "width {w} too coarse for {v}"
            );
        }
    }

    #[test]
    fn top_value_lands_in_last_bucket() {
        assert_eq!(index_of(u64::MAX), BUCKET_COUNT - 1);
        let (lo, hi) = bounds_of(BUCKET_COUNT - 1);
        assert!(lo < hi && hi == u64::MAX);
    }

    #[test]
    fn quantiles_walk_the_ranks() {
        let mut buckets = vec![0u64; BUCKET_COUNT];
        // Samples: 10 ×3, 1000 ×6, 100000 ×1.
        buckets[index_of(10)] += 3;
        buckets[index_of(1000)] += 6;
        buckets[index_of(100_000)] += 1;
        let q = |p| quantile_from_buckets(&buckets, 10, p);
        assert_eq!(q(0.0), midpoint_of(index_of(10)));
        assert_eq!(q(0.3), midpoint_of(index_of(10)));
        assert_eq!(q(0.5), midpoint_of(index_of(1000)));
        assert_eq!(q(0.9), midpoint_of(index_of(1000)));
        assert_eq!(q(1.0), midpoint_of(index_of(100_000)));
        assert!(quantile_from_buckets(&buckets, 0, 0.5).is_nan());
    }

    #[test]
    fn f64_clamping() {
        assert_eq!(value_to_u64(-3.0), 0);
        assert_eq!(value_to_u64(0.9), 0);
        assert_eq!(value_to_u64(31.7), 31);
        assert_eq!(value_to_u64(f64::MAX), u64::MAX);
    }
}
