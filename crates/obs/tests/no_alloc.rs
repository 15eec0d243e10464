//! The disabled-path zero-overhead contract: with the mode at the default
//! `Off`, every gated-plane recording call must be a load-and-branch —
//! no allocation, no thread-local buffer growth, no clock read (the last
//! is not directly observable here, but `Span` holds `None` and so cannot
//! have read one). Events have one reader, the JSONL trace, so `event()`
//! is the same load-and-branch in `Metrics` mode.
//!
//! One `#[test]` only: the allocation counter is process-global, and
//! libtest runs tests on parallel threads, so a second test in this binary
//! would race the window between the two counter reads.

use vcoord_obs::testing::{allocations, min_allocations_over, CountingAllocator};
use vcoord_obs::{counter_add, drain, event, metric, observe, reset, span, ObsMode, NO_NODE};

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

#[test]
fn disabled_recording_is_allocation_free() {
    assert_eq!(vcoord_obs::mode(), ObsMode::Off);

    // Warm-up: intern the metric ids (the registry allocates once per
    // name) and flush any lazily initialized thread-local state.
    let counter = metric("noalloc.counter");
    let hist = metric("noalloc.hist");
    let ev = metric("noalloc.event");
    reset();

    let disabled_allocs = min_allocations_over(3, || {
        for i in 0..100_000u64 {
            counter_add(counter, 1);
            observe(hist, i as f64);
            event(ev, i, NO_NODE, 0.0);
            let _span = span(hist);
        }
    });
    assert_eq!(
        disabled_allocs, 0,
        "disabled obs recording allocated {disabled_allocs} times over 400k calls"
    );

    // Sanity check the harness can see allocations at all, and that the
    // disabled run really recorded nothing.
    assert!(drain().is_empty());
    let probe = allocations();
    let v: Vec<u64> = (0..64).collect();
    assert!(allocations() > probe, "counting allocator inert?");
    drop(v);

    // Metrics mode (what a traced benchmark run sets): an event has no
    // reader, so it is dropped without touching the recorder.
    vcoord_obs::set_mode(ObsMode::Metrics);
    let metrics_allocs = min_allocations_over(3, || {
        for i in 0..100_000u64 {
            event(ev, i, NO_NODE, 0.0);
        }
    });
    assert_eq!(metrics_allocs, 0, "event() allocated in Metrics mode");
    assert!(drain().is_empty());

    // Trace mode buffers them, in order, for the export.
    vcoord_obs::set_mode(ObsMode::Trace);
    event(ev, 7, 3, 0.5);
    event(ev, 8, NO_NODE, 1.5);
    let report = drain();
    vcoord_obs::set_mode(ObsMode::Off);
    let rounds: Vec<u64> = report.events().iter().map(|e| e.round).collect();
    assert_eq!(rounds, [7, 8]);
}
