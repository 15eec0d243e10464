//! Allocation accounting for the Vivaldi update rule with the obs plane
//! off: the kernel moves the node in place and never allocates for nodes
//! that do not coincide, so the `vivaldi.samples_applied` instrumentation
//! on the hot path must cost one relaxed load and a branch — never a heap
//! allocation.
//!
//! This file holds exactly one `#[test]`: the libtest harness runs tests on
//! worker threads, and a sibling test allocating concurrently would
//! corrupt the global counter.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use vcoord_obs::testing::{allocations, min_allocations_over, CountingAllocator};
use vcoord_space::Space;
use vcoord_vivaldi::node::vivaldi_update;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn vivaldi_update_allocation_budget_holds_with_obs_off() {
    assert_eq!(vcoord_obs::mode(), vcoord_obs::ObsMode::Off);
    let space = Space::EuclideanHeight(2);
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let mut coord = space.random_coord(100.0, &mut rng);
    let mut error = 0.5;
    let remote = space.random_coord(100.0, &mut rng);

    // Pay any one-time lazy init (metric interning happens at first call).
    vivaldi_update(&space, &mut coord, &mut error, &remote, 0.3, 85.0, &mut rng);

    const CALLS: u64 = 100_000;
    let allocs = min_allocations_over(3, || {
        for _ in 0..CALLS {
            vivaldi_update(&space, &mut coord, &mut error, &remote, 0.3, 85.0, &mut rng);
        }
    });
    assert_eq!(
        allocs, 0,
        "vivaldi_update must not allocate for an applied sample \
         with the obs plane off"
    );

    // Allocator sanity: the counter does observe real allocations.
    let before = allocations();
    let v = std::hint::black_box(vec![1u8; 64]);
    drop(v);
    assert!(allocations() > before, "counting allocator is live");
}
