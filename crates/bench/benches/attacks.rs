//! Attack hot paths: lie construction must be cheap enough to serve every
//! probe (it runs inside the simulator's innermost loop).

use criterion::{black_box, criterion_group, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use vcoord::attackkit::{
    AttackStrategy, CoordView, DefenseModel, Deflation, EvadingFrogBoil, FrogBoiling, Inflation,
    NetworkPartition, Oscillation, Probe, Protocol, RandomLie, Scenario, SleeperCollusion,
    ThresholdProbe,
};
use vcoord::attacks::geometry::{anti_detection_lie, repulsion_lie};
use vcoord::space::{Coord, Space};

fn bench_repulsion_lie(c: &mut Criterion) {
    let space = Space::Euclidean(2);
    let mut rng = ChaCha12Rng::seed_from_u64(1);
    let victim = space.random_coord(150.0, &mut rng);
    let target = space.random_coord(10_000.0, &mut rng);
    c.bench_function("repulsion_lie_2d", |b| {
        b.iter(|| {
            repulsion_lie(
                &space,
                black_box(&victim),
                black_box(&target),
                0.25,
                &mut rng,
            )
        })
    });
}

fn bench_anti_detection_lie(c: &mut Criterion) {
    let space = Space::Euclidean(8);
    let mut rng = ChaCha12Rng::seed_from_u64(2);
    let victim = space.random_coord(150.0, &mut rng);
    let attacker = space.random_coord(150.0, &mut rng);
    let d = space.distance(&victim, &attacker);
    let mut group = c.benchmark_group("anti_detection_lie_8d");
    group.bench_function("with_knowledge", |b| {
        b.iter(|| {
            anti_detection_lie(
                &space,
                black_box(&victim),
                black_box(&attacker),
                d,
                199.0,
                0.9,
                true,
                &mut rng,
            )
        })
    });
    group.bench_function("guessing", |b| {
        b.iter(|| {
            anti_detection_lie(
                &space,
                black_box(&attacker),
                black_box(&attacker),
                d / 2.0,
                199.0,
                0.9,
                false,
                &mut rng,
            )
        })
    });
    group.finish();
}

/// The attackkit strategies answer every probe of a malicious node inside
/// the simulator's innermost loop: a full scenario round-trip (round
/// bookkeeping + lie construction) must stay cheap.
fn bench_attackkit_strategies(c: &mut Criterion) {
    let space = Space::Euclidean(2);
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let n = 100;
    let coords: Vec<Coord> = (0..n)
        .map(|_| space.random_coord(150.0, &mut rng))
        .collect();
    let mut malicious = vec![true; n / 4];
    malicious.extend(vec![false; n - n / 4]);
    let attackers: Vec<usize> = (0..n / 4).collect();

    let strategies: Vec<(&str, Box<dyn AttackStrategy>)> = vec![
        ("frog_boiling", Box::new(FrogBoiling::default())),
        ("oscillation", Box::new(Oscillation::default())),
        ("partition", Box::new(NetworkPartition::default())),
        ("inflation", Box::new(Inflation::default())),
        ("deflation", Box::new(Deflation::default())),
        ("random_lie", Box::new(RandomLie::default())),
        // The arms-race layer: the evading frog's per-round cost includes
        // its O(victims × colluders) pull estimate — the price of modeling
        // the defense inside the innermost loop.
        (
            "evading_frog",
            Box::new(EvadingFrogBoil::new(5.0, DefenseModel::default())),
        ),
        ("threshold_probe", Box::new(ThresholdProbe::default())),
        ("sleeper", Box::new(SleeperCollusion::default())),
    ];

    let mut group = c.benchmark_group("attackkit_respond");
    for (label, strategy) in strategies {
        let view = CoordView {
            space: &space,
            coords: &coords,
            errors: &[],
            layer: &[],
            malicious: &malicious,
            is_ref: &[],
            round: 0,
            now_ms: 0,
            params: Protocol::default(),
        };
        let mut scenario = Scenario::new(strategy);
        scenario.inject(&attackers, &view, &mut rng);
        let probe = Probe {
            attacker: 0,
            victim: n - 1,
            rtt: 80.0,
        };
        let mut round = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                // Advance the round each iteration so per-round hooks are
                // included in the measured cost.
                round += 1;
                let view = CoordView {
                    space: &space,
                    coords: &coords,
                    errors: &[],
                    layer: &[],
                    malicious: &malicious,
                    is_ref: &[],
                    round,
                    now_ms: round * 1000,
                    params: Protocol::default(),
                };
                scenario.respond(black_box(probe), &view, &mut rng)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_repulsion_lie, bench_anti_detection_lie, bench_attackkit_strategies
}
fn main() {
    vcoord_bench::install_env();
    benches();
}
