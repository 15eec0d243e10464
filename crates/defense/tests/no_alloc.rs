//! The `NoDefense` fast-path contract, enforced with the workspace's
//! counting allocator (`vcoord_obs::testing`): once deployed, the defended
//! update loop must add **zero heap allocation** per inspected sample —
//! the engine short-circuits before any history bookkeeping, and real
//! strategies reuse the `DefenseScratch` buffers after warm-up.
//!
//! This file holds exactly one `#[test]`: the libtest harness runs tests on
//! worker threads, and a sibling test allocating concurrently would
//! corrupt the global counter.

use vcoord_defense::testing::ring_fill_samples;
use vcoord_defense::{
    Defense, DefenseStrategy, DriftCap, NoDefense, Provenance, ResidualOutlier, Update,
};
use vcoord_obs::testing::{min_allocations_over, CountingAllocator};
use vcoord_space::{Coord, Space};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Distinct remote ids the sample stream cycles over.
const REMOTES: usize = 16;

#[test]
fn inspection_loops_are_allocation_free() {
    let space = Space::Euclidean(2);
    let me = Coord::origin(2);
    let them = Coord::from_vec(vec![120.0, 50.0]);
    let sample = |remote: usize, round: u64| Update {
        observer: 0,
        remote,
        reported_coord: &them,
        reported_error: 0.3,
        rtt: 100.0,
        round,
        now_ms: round * 1000,
        provenance: Provenance::Normal,
    };

    // --- NoDefense: zero allocation from the very first call. ---
    let mut none = Defense::new(Box::new(NoDefense));
    none.inspect(&space, &me, sample(1, 0)); // pay one-time lazy init, if any
    let mut round = 1u64;
    let allocs = min_allocations_over(3, || {
        for _ in 0..10_000u64 {
            none.inspect(
                &space,
                &me,
                sample((round % REMOTES as u64) as usize, round),
            );
            round += 1;
        }
    });
    assert_eq!(
        allocs, 0,
        "NoDefense fast path allocated {allocs} times over 10k samples"
    );

    // --- Real strategies: allocation-free once every node was seen (a ring
    // allocates at its first sample, whole); the warm-up goes on until
    // every window is full, so the loop measured is the steady state. ---
    let warmup = ring_fill_samples(REMOTES);
    let strategies: [(&str, Box<dyn DefenseStrategy>); 2] = [
        ("DriftCap", Box::new(DriftCap::new(1e12))),
        ("ResidualOutlier", Box::new(ResidualOutlier::new(1e12))),
    ];
    for (label, strategy) in strategies {
        let mut armed = Defense::new(strategy);
        for round in 0..warmup {
            armed.inspect(
                &space,
                &me,
                sample((round % REMOTES as u64) as usize, round),
            );
        }
        let mut round = warmup;
        let allocs = min_allocations_over(3, || {
            for _ in 0..10_000u64 {
                armed.inspect(
                    &space,
                    &me,
                    sample((round % REMOTES as u64) as usize, round),
                );
                round += 1;
            }
        });
        assert_eq!(
            allocs, 0,
            "warmed-up {label} inspection allocated {allocs} times over 10k samples"
        );
        assert_eq!(armed.stats().rejected, 0, "bound high enough to never ban");
    }
}
