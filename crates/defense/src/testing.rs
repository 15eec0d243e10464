//! Test support for the crate's zero-allocation contracts.
//!
//! The counting global allocator itself lives in
//! [`vcoord_obs::testing`] — shared by every no-alloc suite in the
//! workspace (defense, obs, vivaldi, nps) and the kernels bench, so the
//! assertion sites cannot drift apart on what "allocation" means. This
//! module re-exports it for existing importers and keeps the
//! defense-specific warm-up bound, which derives from this crate's history
//! window constants.
//!
//! Each consuming *binary* still declares its own
//! `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
//! (the attribute is per-binary by construction).

pub use vcoord_obs::testing::{allocations, CountingAllocator};

/// Warm-up samples after which a workload cycling over `remotes` distinct
/// neighbors is in steady state: every history ring has wrapped for every
/// remote (×2 for slack). A ring allocates only once, whole, at its first
/// sample, and the node tables stop growing once the largest id was seen,
/// so zero-allocation assertions hold from there on; the detectors' cost
/// and verdicts settle only when the deepest window is full, which is what
/// the kernel rows mean by "steady".
pub fn ring_fill_samples(remotes: usize) -> u64 {
    let deepest = crate::history::RESIDUAL_WINDOW
        .max(crate::history::REPORTED_WINDOW)
        .max(crate::history::OBSERVER_WINDOW);
    (remotes * deepest * 2) as u64
}
