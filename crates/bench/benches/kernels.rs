//! Hot-path kernels: the per-event work of both simulators — plus the
//! defense-inspection kernel, benchmarked under the shared counting
//! allocator (`vcoord::obs::testing`) so the `NoDefense` zero-allocation
//! contract is *asserted*, not assumed — and the disabled-path cost of
//! the `vcoord-obs` recording calls those kernels now carry.

use criterion::{black_box, criterion_group, Criterion};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use vcoord::defense::testing::ring_fill_samples;
use vcoord::defense::{Defense, DriftCap, Provenance, ResidualOutlier, Update};
use vcoord::metrics::EvalPlan;
use vcoord::netsim::SeedStream;
use vcoord::obs::testing::{allocations, CountingAllocator};
use vcoord::space::simplex::oracle::simplex_downhill_reference;
use vcoord::space::{dist_batch, simplex_downhill, Coord, SimplexScratch, Space};
use vcoord::topo::{KingLike, KingLikeConfig};
use vcoord::vivaldi::node::vivaldi_update;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn bench_vivaldi_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("vivaldi_update");
    for space in [
        Space::Euclidean(2),
        Space::Euclidean(5),
        Space::EuclideanHeight(2),
    ] {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut coord = space.random_coord(100.0, &mut rng);
        let mut error = 0.5;
        let remote = space.random_coord(100.0, &mut rng);
        group.bench_function(space.label(), |b| {
            b.iter(|| {
                vivaldi_update(
                    &space,
                    0.25,
                    (1e-6, 1e3),
                    black_box(&mut coord),
                    black_box(&mut error),
                    black_box(&remote),
                    0.3,
                    85.0,
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

fn bench_simplex(c: &mut Criterion) {
    // Every id runs the allocation-free kernel and its retained allocating
    // oracle (`vcoord_space::simplex::oracle`) on the *same* objective, so
    // the pairs read directly as the kernel speedup. The 20-ref ids model a
    // realistic NPS positioning round (objective evaluation bounds the
    // gain); the quadratic id isolates pure kernel overhead, where the
    // ≥2×-over-oracle target is judged.
    let mut group = c.benchmark_group("simplex_downhill");
    let opts = vcoord_bench::simplex_bench_opts();
    for dim in [2usize, 8] {
        // The shared representative NPS positioning fixture (20 references;
        // see vcoord_bench::simplex_fixture — also used by bench-baseline).
        let (refs, opts, start) = vcoord_bench::simplex_fixture(dim);
        let objective = vcoord_bench::fit_objective(&refs);
        let mut scratch = SimplexScratch::new();
        group.bench_function(format!("{dim}D_20refs_kernel"), |b| {
            b.iter(|| simplex_downhill(&objective, black_box(&start), &opts, &mut scratch))
        });
        group.bench_function(format!("{dim}D_20refs_oracle"), |b| {
            b.iter(|| simplex_downhill_reference(&objective, black_box(&start), &opts))
        });
    }
    {
        let quadratic = |x: &[f64]| -> f64 { x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum::<f64>() };
        let start = vec![1.0; 8];
        let mut scratch = SimplexScratch::new();
        group.bench_function("8D_quadratic_kernel", |b| {
            b.iter(|| simplex_downhill(quadratic, black_box(&start), &opts, &mut scratch))
        });
        group.bench_function("8D_quadratic_oracle", |b| {
            b.iter(|| simplex_downhill_reference(quadratic, black_box(&start), &opts))
        });
    }
    group.finish();
}

fn bench_nps_fit(c: &mut Criterion) {
    // The same 8-D/20-ref minimization as `simplex_downhill/8D_20refs_*`,
    // through the production positioning path (see NpsFitFixture): the gap
    // to the kernel row is what gathering and the outcome cost, the gap per
    // evaluation is the dimension-major objective against the naive one.
    let mut fixture = vcoord_bench::NpsFitFixture::new(8);
    let evals = fixture.fit().evals;
    let mut group = c.benchmark_group("nps_fit");
    group.bench_function("8D_20refs", |b| b.iter(|| fixture.fit()));
    group.finish();
    println!(
        "nps_fit/8D_20refs: {evals} evaluations per fit (ns per evaluation = ns per fit / {evals})"
    );
}

fn bench_netsim_queue(c: &mut Criterion) {
    // The event queue alone, in the three scheduling shapes of
    // vcoord_bench::QueuePattern (also timed by bench-baseline): one run per
    // iteration, so ns per event = ns per iteration / events.
    let mut group = c.benchmark_group("netsim_queue");
    for (pattern, name) in vcoord_bench::QueuePattern::ALL {
        let events = vcoord_bench::netsim_queue_run(pattern);
        group.bench_function(name, |b| {
            b.iter(|| vcoord_bench::netsim_queue_run(black_box(pattern)))
        });
        println!("netsim_queue/{name}: {events} events per iteration");
    }
    group.finish();
}

fn bench_lanes(c: &mut Criterion) {
    // The batched SoA distance kernel at the shape the EvalPlan sweep
    // feeds it (one anchor against a contiguous peer-row block).
    let mut group = c.benchmark_group("dist_batch");
    let mut rng = ChaCha12Rng::seed_from_u64(9);
    for (dim, pairs) in [(2usize, 96usize), (8, 96)] {
        let a: Vec<f64> = (0..dim).map(|_| rng.gen_range(-200.0..200.0)).collect();
        let rows: Vec<f64> = (0..dim * pairs)
            .map(|_| rng.gen_range(-200.0..200.0))
            .collect();
        let mut out = vec![0.0; pairs];
        group.bench_function(format!("{dim}D_{pairs}pairs"), |b| {
            b.iter(|| dist_batch(black_box(&a), black_box(&rows), &mut out))
        });
    }
    group.finish();
}

fn bench_eval_plan(c: &mut Criterion) {
    let seeds = SeedStream::new(3);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(400)).generate(&mut seeds.rng("topo"));
    let space = Space::Euclidean(2);
    let mut rng = seeds.rng("plan");
    let nodes: Vec<usize> = (0..400).collect();
    let plan = EvalPlan::with_params(&nodes, 128, 96, &mut rng);
    let coords: Vec<Coord> = (0..400)
        .map(|_| space.random_coord(150.0, &mut rng))
        .collect();
    c.bench_function("eval_plan_avg_error_400n_96peers", |b| {
        b.iter(|| plan.avg_error(black_box(&coords), &space, &matrix))
    });
    // The snapshot sweep pinned to one worker vs a small pool — the
    // deterministic-chunking parallel seam (VCOORD_THREADS) under test.
    c.bench_function("eval_plan_per_node_errors_400n_serial", |b| {
        b.iter(|| plan.per_node_errors_with(black_box(&coords), &space, &matrix, 1))
    });
    c.bench_function("eval_plan_per_node_errors_400n_4threads", |b| {
        b.iter(|| plan.per_node_errors_with(black_box(&coords), &space, &matrix, 4))
    });
}

fn bench_defense_inspect(c: &mut Criterion) {
    const REMOTES: usize = 16;
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
    let mut group = c.benchmark_group("defense_inspect");

    // The NoDefense fast path — with the zero-allocation contract asserted
    // over a tight manual loop (b.iter's own sample bookkeeping allocates,
    // so the assertion brackets a loop of pure inspections instead).
    let mut none = Defense::none();
    none.inspect(&space, &me, sample(1, 0));
    let before = allocations();
    let mut round = 0u64;
    for _ in 0..100_000 {
        round += 1;
        black_box(none.inspect(
            &space,
            &me,
            sample((round % REMOTES as u64) as usize, round),
        ));
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "NoDefense fast path allocated {allocs} times over 100k samples — \
         the defended update loop must add zero allocation per round"
    );
    group.bench_function("no_defense", |b| {
        b.iter(|| {
            round += 1;
            none.inspect(
                &space,
                &me,
                sample((round % REMOTES as u64) as usize, round),
            )
        })
    });

    // Steady-state cost of real detectors: also asserted allocation-free
    // once warm-up has filled every history ring (a ring allocates at its
    // first sample only; the bound derives from the ring depths so the
    // windows the detectors read are full).
    let warmup = ring_fill_samples(REMOTES);
    let mut drift = Defense::new(Box::new(DriftCap::new(1e12)));
    let mut mad = Defense::new(Box::new(ResidualOutlier::new(12, 1e12)));
    for r in 0..warmup {
        drift.inspect(&space, &me, sample((r % REMOTES as u64) as usize, r));
        mad.inspect(&space, &me, sample((r % REMOTES as u64) as usize, r));
    }
    let before = allocations();
    for r in warmup..warmup + 10_000 {
        black_box(drift.inspect(&space, &me, sample((r % REMOTES as u64) as usize, r)));
        black_box(mad.inspect(&space, &me, sample((r % REMOTES as u64) as usize, r)));
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "warmed-up drift-cap/MAD inspection allocated {allocs} times over 10k samples"
    );
    // Each steady-state bench continues from its OWN warm-up round, not
    // the shared counter the no_defense bench has meanwhile advanced by
    // ~10⁸ iterations — jumping the round would make the first timed
    // iteration pay an enormous on_round catch-up loop.
    let mut drift_round = warmup + 10_000;
    group.bench_function("drift_cap_steady", |b| {
        b.iter(|| {
            drift_round += 1;
            drift.inspect(
                &space,
                &me,
                sample((drift_round % REMOTES as u64) as usize, drift_round),
            )
        })
    });
    // The same detector at the simulators' working set: random (observer,
    // remote) pairs over 1740 nodes.
    let mut wide = vcoord_bench::InspectFixture::warmed();
    let before = allocations();
    wide.run_batch();
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "warmed-up 1740-node inspection allocated {allocs} times over one batch"
    );
    group.bench_function("drift_cap_1740n_per_sample", |b| {
        b.iter(|| wide.inspect_one())
    });
    let mut mad_round = warmup + 10_000;
    group.bench_function("mad_outlier_steady", |b| {
        b.iter(|| {
            mad_round += 1;
            mad.inspect(
                &space,
                &me,
                sample((mad_round % REMOTES as u64) as usize, mad_round),
            )
        })
    });
    group.finish();
}

fn bench_obs_disabled(c: &mut Criterion) {
    // The "zero-overhead-when-off" claim, measured: each disabled recording
    // call must cost one relaxed load and a branch. Run next to the kernels
    // above, any regression here shows up as a visible absolute floor.
    assert_eq!(vcoord::obs::mode(), vcoord::obs::ObsMode::Off);
    let counter = vcoord::obs::metric("bench.obs.counter");
    let hist = vcoord::obs::metric("bench.obs.hist");
    let mut group = c.benchmark_group("obs_disabled");
    group.bench_function("counter_add", |b| {
        b.iter(|| vcoord::obs::counter_add(black_box(counter), 1))
    });
    group.bench_function("observe", |b| {
        b.iter(|| vcoord::obs::observe(black_box(hist), 1.0))
    });
    group.bench_function("event", |b| {
        b.iter(|| vcoord::obs::event(black_box(counter), 1, 2, 3.0))
    });
    group.bench_function("span", |b| b.iter(|| vcoord::obs::span(black_box(hist))));
    group.finish();
}

fn bench_matrix_ops(c: &mut Criterion) {
    let seeds = SeedStream::new(4);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(400)).generate(&mut seeds.rng("topo"));
    c.bench_function("rtt_matrix_random_subset_100_of_400", |b| {
        let mut rng = seeds.rng("subset");
        b.iter(|| matrix.random_subset(100, &mut rng))
    });
    // The benchmark workloads' data set: the paper's 1740 nodes, whole.
    c.bench_function("topo_generate_1740n", |b| {
        b.iter(|| KingLike::default().generate(&mut SeedStream::new(2006).rng("topo")))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_vivaldi_update, bench_simplex, bench_nps_fit, bench_netsim_queue, bench_lanes, bench_eval_plan, bench_defense_inspect, bench_obs_disabled, bench_matrix_ops
}
fn main() {
    vcoord_bench::install_env();
    benches();
}
