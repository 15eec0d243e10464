//! Whole-simulator throughput: cost of simulated time on both systems.

use criterion::{criterion_group, BatchSize, Criterion};
use vcoord::netsim::SeedStream;
use vcoord::nps::{NpsConfig, NpsSim};
use vcoord::space::Space;
use vcoord::topo::{KingLike, KingLikeConfig};
use vcoord::vivaldi::{VivaldiConfig, VivaldiSim};

fn bench_vivaldi_ticks(c: &mut Criterion) {
    let mut group = c.benchmark_group("vivaldi_sim");
    for n in [100usize, 400] {
        let seeds = SeedStream::new(10);
        let matrix = KingLike::new(KingLikeConfig::with_nodes(n)).generate(&mut seeds.rng("topo"));
        group.bench_function(format!("tick_{n}nodes"), |b| {
            b.iter_batched(
                || VivaldiSim::new(matrix.clone(), VivaldiConfig::default(), &seeds),
                |mut sim| sim.run_ticks(5),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_vivaldi_setup(c: &mut Criterion) {
    let seeds = SeedStream::new(11);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(400)).generate(&mut seeds.rng("topo"));
    c.bench_function("vivaldi_sim_setup_400nodes", |b| {
        b.iter(|| VivaldiSim::new(matrix.clone(), VivaldiConfig::default(), &seeds))
    });
}

fn bench_nps_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("nps_sim");
    group.sample_size(10);
    let seeds = SeedStream::new(12);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(150)).generate(&mut seeds.rng("topo"));
    let config = NpsConfig {
        landmarks: 15,
        refs_per_node: 15,
        space: Space::Euclidean(4),
        ..NpsConfig::default()
    };
    group.bench_function("round_150nodes", |b| {
        b.iter_batched(
            || {
                let mut sim = NpsSim::new(matrix.clone(), config.clone(), &seeds);
                sim.run_ms(300_000); // past the join window
                sim
            },
            |mut sim| sim.run_rounds(1),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_topo_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("topo_synth");
    group.sample_size(10);
    for n in [200usize, 1740] {
        group.bench_function(format!("king_like_{n}"), |b| {
            let seeds = SeedStream::new(13);
            b.iter(|| KingLike::new(KingLikeConfig::with_nodes(n)).generate(&mut seeds.rng("topo")))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_vivaldi_ticks, bench_vivaldi_setup, bench_nps_rounds, bench_topo_synthesis
}
fn main() {
    vcoord_bench::install_env();
    benches();
}
