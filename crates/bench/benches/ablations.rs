//! Ablation benches for the design choices called out in DESIGN.md.
//!
//! * **Error sampling** — all-pairs vs fixed-sample evaluation plans: the
//!   sampled plan must be much cheaper (it is what makes 1740-node time
//!   series affordable); its accuracy deviation is asserted in
//!   `tests/metrics_ablation.rs`.
//! * **Simplex budget** — positioning cost versus the iteration cap, the
//!   main NPS throughput knob.
//! * **Seed streams** — labelled-stream derivation cost (paid once per
//!   subsystem, must stay negligible).

use criterion::{black_box, criterion_group, Criterion};
use vcoord::metrics::EvalPlan;
use vcoord::netsim::SeedStream;
use vcoord::space::{simplex_downhill, Coord, SimplexOptions, SimplexScratch, Space};
use vcoord::topo::{KingLike, KingLikeConfig};

fn bench_error_sampling(c: &mut Criterion) {
    let seeds = SeedStream::new(20);
    let n = 400;
    let matrix = KingLike::new(KingLikeConfig::with_nodes(n)).generate(&mut seeds.rng("topo"));
    let space = Space::Euclidean(2);
    let mut rng = seeds.rng("plan");
    let nodes: Vec<usize> = (0..n).collect();
    let coords: Vec<Coord> = (0..n)
        .map(|_| space.random_coord(150.0, &mut rng))
        .collect();

    let all_pairs = EvalPlan::with_params(&nodes, usize::MAX, 0, &mut rng);
    let sampled = EvalPlan::with_params(&nodes, 0, 96, &mut rng);

    let mut group = c.benchmark_group("ablation_error_sampling_400n");
    group.bench_function("all_pairs", |b| {
        b.iter(|| all_pairs.avg_error(black_box(&coords), &space, &matrix))
    });
    group.bench_function("sampled_96", |b| {
        b.iter(|| sampled.avg_error(black_box(&coords), &space, &matrix))
    });
    group.finish();
}

fn bench_simplex_budget(c: &mut Criterion) {
    let seeds = SeedStream::new(21);
    let space = Space::Euclidean(8);
    let mut rng = seeds.rng("refs");
    let refs: Vec<(Coord, f64)> = (0..20)
        .map(|_| (space.random_coord(150.0, &mut rng), 90.0))
        .collect();
    let objective = |x: &[f64]| -> f64 {
        let p = Coord::from_vec(x.to_vec());
        refs.iter()
            .map(|(c0, d)| {
                let e = (space.distance(&p, c0) - d) / d;
                e * e
            })
            .sum()
    };
    let start = vec![5.0; 8];
    let mut scratch = SimplexScratch::new();
    let mut group = c.benchmark_group("ablation_simplex_budget");
    for iters in [50usize, 150, 400] {
        let opts = SimplexOptions {
            max_iterations: iters,
            initial_step: 20.0,
            ..SimplexOptions::default()
        };
        group.bench_function(format!("{iters}iters"), |b| {
            b.iter(|| simplex_downhill(objective, black_box(&start), &opts, &mut scratch))
        });
    }
    group.finish();
}

fn bench_seed_streams(c: &mut Criterion) {
    let seeds = SeedStream::new(22);
    c.bench_function("ablation_seed_stream_rng", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            seeds.rng_indexed(black_box("node"), k)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_error_sampling, bench_simplex_budget, bench_seed_streams
}
fn main() {
    vcoord_bench::install_env();
    benches();
}
