//! Test support for the crate's zero-allocation contracts: the
//! defense-specific warm-up bound, which derives from this crate's history
//! window constants. The counting allocator the no-alloc suites measure
//! with is [`vcoord_obs::testing`]'s.

/// Warm-up samples after which a workload cycling over `remotes` distinct
/// neighbors is in steady state: every history ring has wrapped for every
/// remote (×2 for slack). A ring allocates only once, whole, at its first
/// sample, and the node tables stop growing once the largest id was seen,
/// so zero-allocation assertions hold from there on; the detectors' cost
/// and verdicts settle only when the deepest window is full, which is what
/// the kernel rows mean by "steady".
pub fn ring_fill_samples(remotes: usize) -> u64 {
    let deepest = crate::history::RESIDUAL_WINDOW.max(crate::history::OBSERVER_WINDOW);
    (remotes * deepest * 2) as u64
}
