//! The `defense_inspect_drift_cap_1740n_per_sample` row times a store that
//! must not allocate: once every history window of the 1740-node working
//! set is full, a batch of inspections adds zero heap allocation.
//!
//! This file holds exactly one `#[test]`: the counting allocator is
//! process-global, and a sibling test allocating concurrently would corrupt
//! the count.

use vcoord::obs::testing::{min_allocations_over, CountingAllocator};
use vcoord_bench::kernel_rows;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warmed_1740_node_inspection_batch_is_allocation_free() {
    let mut row = kernel_rows()
        .into_iter()
        .find(|row| row.name == "defense_inspect_drift_cap_1740n_per_sample")
        .expect("the kernel ledger has the inspection row");
    let allocs = min_allocations_over(3, || (row.sample)());
    assert_eq!(
        allocs, 0,
        "warmed-up 1740-node inspection allocated {allocs} times over one batch of {}",
        row.divisor
    );
}
