//! Allocation accounting for the instrumented NPS fit path with the obs
//! plane off: the Simplex kernel must stay at exactly one allocation per
//! call (the returned point) — i.e. the `simplex.*` counters added to it
//! must cost nothing when disabled — and one whole positioning on a
//! warmed-up [`PositionScratch`] must allocate exactly what its returned
//! [`PositionOutcome`] owns: the coordinate and `fit_errors`.
//!
//! [`PositionOutcome`]: vcoord_nps::PositionOutcome
//!
//! This file holds exactly one `#[test]`: the libtest harness runs tests on
//! worker threads, and a sibling test allocating concurrently would
//! corrupt the global counter.

use vcoord_nps::{position_node, PositionScratch, RefSample};
use vcoord_obs::testing::{allocations, min_allocations_over, CountingAllocator};
use vcoord_space::{simplex_downhill, Coord, SimplexOptions, SimplexScratch, Space};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn fit_hot_path_allocation_budget_holds_with_obs_off() {
    assert_eq!(vcoord_obs::mode(), vcoord_obs::ObsMode::Off);

    // --- Kernel: exactly one allocation per call (the returned point), so
    // the disabled `simplex.*` counters add nothing. ---
    let objective = |x: &[f64]| -> f64 { x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum::<f64>() };
    let opts = SimplexOptions::default();
    let start = vec![1.0; 4];
    let mut scratch = SimplexScratch::new();
    let _ = simplex_downhill(objective, &start, &opts, &mut scratch); // size the scratch
    const CALLS: u64 = 1_000;
    let allocs = min_allocations_over(3, || {
        for _ in 0..CALLS {
            std::hint::black_box(simplex_downhill(objective, &start, &opts, &mut scratch));
        }
    });
    assert_eq!(
        allocs, CALLS,
        "simplex kernel must allocate exactly the returned point per call"
    );

    // --- One whole positioning: gather, fit, filter (borrowed incumbent
    // frame, median selected in the scratch) allocate nothing of their own
    // — two allocations per call, the outcome's coordinate and its
    // `fit_errors`. Reference 9 lies, so the filter does eliminate. Same
    // budget with no incumbent on a clean set: the provisional fit *is*
    // the result (duplicate-fit skip), not a clone of it. ---
    let space = Space::Euclidean(3);
    let truth = [40.0, -25.0, 10.0];
    let mut samples: Vec<RefSample> = (0..12)
        .map(|i| {
            let at: Vec<f64> = (0..3)
                .map(|d| ((i * 37 + d * 91) % 200) as f64 - 100.0)
                .collect();
            let rtt = at
                .iter()
                .zip(&truth)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f64>()
                .sqrt();
            RefSample::new(i, Coord::from_vec(at), rtt)
        })
        .collect();
    let incumbent = Coord::from_vec(truth.to_vec());
    let start = Coord::from_vec(vec![30.0, -20.0, 5.0]);
    let mut pos_scratch = PositionScratch::new();
    let mut position = |samples: &[RefSample], incumbent: Option<&Coord>| {
        position_node(
            &space,
            samples,
            &start,
            incumbent,
            true,
            &opts,
            &mut pos_scratch,
        )
        .expect("12 references position a 3-D node")
    };
    assert_eq!(position(&samples, None).filtered, None); // sizes the scratch
    let allocs = min_allocations_over(3, || {
        for _ in 0..CALLS {
            std::hint::black_box(position(&samples, None));
        }
    });
    assert_eq!(
        allocs,
        2 * CALLS,
        "a first positioning must allocate exactly its outcome (coordinate + fit_errors)"
    );
    samples[9].rtt *= 10.0;
    assert_eq!(position(&samples, Some(&incumbent)).filtered, Some(9));
    let allocs = min_allocations_over(3, || {
        for _ in 0..CALLS {
            std::hint::black_box(position(&samples, Some(&incumbent)));
        }
    });
    assert_eq!(
        allocs,
        2 * CALLS,
        "a repositioning must allocate exactly its outcome (coordinate + fit_errors)"
    );

    // Allocator sanity: the counter does observe real allocations.
    let before = allocations();
    drop(std::hint::black_box(vec![1u8; 64]));
    assert!(allocations() > before, "counting allocator is live");
}
