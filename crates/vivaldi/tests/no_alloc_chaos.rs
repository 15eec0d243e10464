//! Allocation accounting for the Vivaldi probe loop: once warm, a clean
//! window allocates nothing (responses wait in retained slab slots, the
//! update moves nodes in place, the queue keeps its capacity). The chaos
//! seam with no faults scheduled is one `Option` discriminant test per
//! probe, so a sim carrying an **empty** [`ChaosPlan`] must allocate
//! nothing either — and produce bitwise-identical coordinates to a sim
//! with no chaos installed at all.
//!
//! This file holds exactly one `#[test]`: the libtest harness runs tests
//! on worker threads, and a sibling test allocating concurrently would
//! corrupt the global counter.

use vcoord_chaos::ChaosPlan;
use vcoord_netsim::SeedStream;
use vcoord_obs::testing::{allocations, CountingAllocator};
use vcoord_topo::{KingLike, KingLikeConfig};
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn warm_sim(install_empty_plan: bool) -> VivaldiSim {
    let seeds = SeedStream::new(41);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(48)).generate(&mut seeds.rng("topo"));
    let mut sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds);
    sim.run_ticks(60); // reach steady state: all lazy buffers sized
    if install_empty_plan {
        sim.install_chaos(ChaosPlan::none());
    }
    sim
}

fn window_allocations(sim: &mut VivaldiSim) -> u64 {
    let before = allocations();
    sim.run_ticks(40);
    allocations() - before
}

#[test]
fn disabled_chaos_check_adds_no_allocations_to_the_tick_loop() {
    assert_eq!(vcoord_obs::mode(), vcoord_obs::ObsMode::Off);

    let mut plain = warm_sim(false);
    let mut chaotic = warm_sim(true);
    // The counter is process-global, so a harness-side allocation landing
    // inside one measured window under parallel-suite load counts
    // spuriously. A real allocation recurs every window; ambient noise
    // doesn't — retry the pair (both sims always advance in lockstep,
    // preserving the bitwise comparison below).
    let mut plain_allocs = 0;
    let mut chaotic_allocs = 0;
    for _ in 0..3 {
        plain_allocs = window_allocations(&mut plain);
        chaotic_allocs = window_allocations(&mut chaotic);
        if plain_allocs == 0 && chaotic_allocs == 0 {
            break;
        }
    }
    assert_eq!(plain_allocs, 0, "a warm clean tick window allocated");
    assert_eq!(
        chaotic_allocs, 0,
        "a warm tick window under an empty chaos plan allocated"
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
