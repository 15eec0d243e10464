//! Allocation accounting for the chaos seam in the NPS probe loop with no
//! faults scheduled: the per-probe chaos check is one `Option`
//! discriminant test (plus an empty-timeline `advance` that touches only
//! a recycled buffer), so a sim carrying an **empty** [`ChaosPlan`] must
//! spend exactly as many heap allocations per repositioning window as a
//! sim with no chaos installed at all — and produce bitwise-identical
//! coordinates while doing it.
//!
//! This file holds exactly one `#[test]`: the libtest harness runs tests
//! on worker threads, and a sibling test allocating concurrently would
//! corrupt the global counter.

use vcoord_chaos::ChaosPlan;
use vcoord_defense::{DriftCap, DriftDecay};
use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_obs::testing::{allocations, CountingAllocator};
use vcoord_topo::{KingLike, KingLikeConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn warm_sim(install_empty_plan: bool) -> NpsSim {
    let seeds = SeedStream::new(43);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(40)).generate(&mut seeds.rng("topo"));
    // Probation + a decaying cap arm the lease-adjacent code paths (the
    // leased-list scan in `probe_ref`, the probation skip-leased
    // round-robin): with no faults those paths must stay inside the same
    // allocation budget as the pre-lease loop — the leased lists are empty
    // and scanning an empty Vec allocates nothing.
    let config = NpsConfig {
        probation_every: 2,
        ..NpsConfig::default()
    };
    let mut sim = NpsSim::new(matrix, config, &seeds);
    sim.run_rounds(15); // joins done, gathering buffers sized
    sim.deploy_defense(Box::new(DriftCap::with_decay(40.0, DriftDecay::new(5.0))));
    sim.run_rounds(5); // defense histories sized
    if install_empty_plan {
        sim.install_chaos(ChaosPlan::none());
    }
    sim
}

fn window_allocations(sim: &mut NpsSim) -> u64 {
    let before = allocations();
    sim.run_rounds(10);
    allocations() - before
}

#[test]
fn disabled_chaos_check_adds_no_allocations_to_the_round_loop() {
    assert_eq!(vcoord_obs::mode(), vcoord_obs::ObsMode::Off);

    let mut plain = warm_sim(false);
    let mut chaotic = warm_sim(true);
    // The counter is process-global, so a harness-side allocation landing
    // inside one measured window under parallel-suite load breaks equality
    // spuriously. A real budget difference recurs every window; ambient
    // noise doesn't — retry the pair (both sims always advance in
    // lockstep, preserving the bitwise comparison below).
    let mut plain_allocs = 0;
    let mut chaotic_allocs = 0;
    for _ in 0..3 {
        plain_allocs = window_allocations(&mut plain);
        chaotic_allocs = window_allocations(&mut chaotic);
        if plain_allocs == chaotic_allocs {
            break;
        }
    }
    assert_eq!(
        plain_allocs, chaotic_allocs,
        "an empty chaos plan changed the round loop's allocation budget"
    );

    let plain_bits: Vec<u64> = plain
        .coords()
        .iter()
        .flat_map(|c| c.vec.iter().map(|v| v.to_bits()))
        .collect();
    let chaotic_bits: Vec<u64> = chaotic
        .coords()
        .iter()
        .flat_map(|c| c.vec.iter().map(|v| v.to_bits()))
        .collect();
    assert_eq!(plain_bits, chaotic_bits, "empty plan perturbed coordinates");

    // Allocator sanity: the counter does observe real allocations.
    let before = allocations();
    drop(std::hint::black_box(vec![1u8; 64]));
    assert!(allocations() > before, "counting allocator is live");
}
