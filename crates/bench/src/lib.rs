//! # vcoord-bench
//!
//! Benchmark harness for the `vcoord` workspace:
//!
//! * the **`figures` binary** — regenerates the data behind every figure of
//!   the paper's evaluation (`cargo run -p vcoord-bench --release --bin
//!   figures -- all`), printing the series and writing CSVs;
//! * the **`bench-baseline` binary** — wall-clocks the figure suite and the
//!   hot kernels into a machine-readable `BENCH_<scale>.json` perf
//!   baseline;
//! * the **kernel ledger** ([`kernel_rows`]) — every isolated kernel that
//!   binary times, defined once, as data.

#![forbid(unsafe_code)]

use std::hint::black_box;
use vcoord::defense::testing::ring_fill_samples;
use vcoord::defense::{Defense, DriftCap, Provenance, Update, Verdict};
use vcoord::metrics::parallel::set_worker_budget;
use vcoord::metrics::EvalPlan;
use vcoord::netsim::{Engine, NodeId, RngCore, Scheduler, SeedStream, World, TICK_MS};
use vcoord::nps::{position_node, PositionOutcome, PositionScratch, RefSample, SIMPLEX};
use vcoord::space::oracle::simplex_downhill_reference;
use vcoord::space::{simplex_downhill, Coord, SimplexScratch, Space};
use vcoord::topo::{KingLike, KingLikeConfig};
use vcoord::vivaldi::node::vivaldi_update;

/// Default output directory for figure CSVs.
pub const DEFAULT_OUT_DIR: &str = "results";

/// Parse a `VCOORD_THREADS` value. Zero, empty, or unparsable values are
/// rejected (`None`) so a broken override degrades to the hardware default
/// instead of a zero-width pool.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Read the process environment and install what it asks for; `figures` and
/// `bench-baseline` call it first thing in `main`. It is the one
/// place the workspace reads configuration from the environment: the
/// libraries take values.
///
/// `VCOORD_THREADS=N` pins every worker pool to `N` threads
/// ([`set_worker_budget`]) for reproducible CI and benchmarking on any core
/// count. The recording mode is not configurable from the environment: a
/// binary switches recording on where it reads what is recorded.
pub fn install_env() {
    if let Some(n) = parse_threads(std::env::var("VCOORD_THREADS").ok().as_deref()) {
        set_worker_budget(n);
    }
}

/// One benchmark reference point: reported coordinates plus the measured
/// distance it claims.
type SimplexRef = (Vec<f64>, f64);

/// The representative NPS positioning fixture behind the `simplex_*` and
/// `nps_fit_*` rows: `refs` reference points drawn in a `dim`-D Euclidean
/// space, each claiming an 80 ms measurement, minimized from the all-ones
/// start (returned second) under the NPS simulator's [`SIMPLEX`] options.
fn simplex_fixture(dim: usize, refs: usize) -> (Vec<SimplexRef>, Vec<f64>) {
    let seeds = SeedStream::new(2);
    let mut rng = seeds.rng("bench/simplex-fixture");
    let space = Space::Euclidean(dim);
    let refs: Vec<SimplexRef> = (0..refs)
        .map(|_| (space.random_coord(150.0, &mut rng).vec, 80.0))
        .collect();
    (refs, vec![1.0; dim])
}

/// The simulator's latency-fit objective over `refs` — `Σ (dist − D)²`, see
/// `vcoord::nps::position` — computed on raw slices (no per-evaluation
/// allocation), for use with both the allocation-free Simplex kernel and the
/// retained oracle.
fn fit_objective(refs: Vec<SimplexRef>) -> impl Fn(&[f64]) -> f64 + Clone {
    move |x: &[f64]| {
        refs.iter()
            .map(|(c, d)| {
                let dist = c
                    .iter()
                    .zip(x)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let e = dist - d;
                e * e
            })
            .sum()
    }
}

/// The whole-fit kernel: the [`simplex_fixture`] minimization run the way
/// the NPS simulator runs it — one repositioning through
/// [`position_node`] (gather, dimension-major objective, Simplex
/// kernel, outcome) with the start as incumbent and the filter off, so a
/// call is exactly one fit. The objective is [`fit_objective`]'s, term for
/// term, so this row, `simplex_*_20refs` and its oracle all walk the same
/// trajectory and their times compare directly.
fn nps_fit(dim: usize, refs: usize) -> impl FnMut() -> PositionOutcome {
    let (refs, start) = simplex_fixture(dim, refs);
    let space = Space::Euclidean(dim);
    let samples: Vec<RefSample> = refs
        .into_iter()
        .enumerate()
        .map(|(i, (at, rtt))| RefSample::new(i, Coord::from_vec(at), rtt))
        .collect();
    let start = Coord::from_vec(start);
    let mut scratch = PositionScratch::new();
    move || {
        position_node(
            &space,
            &samples,
            &start,
            Some(&start),
            false,
            &SIMPLEX,
            &mut scratch,
        )
        .expect("the fixture's references position the node")
    }
}

/// One step of the 64-bit LCG the fixtures draw pseudo-random RTTs and node
/// pairs from (no RNG crate inside a timed loop).
fn lcg_step(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Event-queue workloads for the `netsim_queue` kernel rows: the
/// scheduling shapes the simulators put on [`Engine`], with the protocol
/// work taken out. Every shape runs the paper's population (1740 nodes,
/// one timer per node per tick) for 20 ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueuePattern {
    /// Each timer re-arms itself one tick later: pushes arrive in time
    /// order (the shape of NPS rounds and of Vivaldi's probe ticks alone).
    MonotoneTimers,
    /// A Vivaldi probe cycle: the timer re-arms itself and sends one
    /// response that arrives an RTT later, in front of every queued timer.
    TimerAndResponse,
    /// `MonotoneTimers` behind one event parked at the end of time, so no
    /// push is ever in time order — the worst case for a sorted-run lane.
    NonMonotone,
}

/// Population of a [`netsim_queue_run`].
const QUEUE_NODES: usize = 1740;

/// Length of a [`netsim_queue_run`], in ticks.
const QUEUE_TICKS: u64 = 20;

/// The payload a Vivaldi probe response travels as (the id of the slot
/// holding it), so events weigh what the simulator's do.
type QueuePayload = u32;

struct QueueWorld {
    respond: bool,
    /// Pseudo-RTT generator state, see [`lcg_step`].
    lcg: u64,
}

impl World for QueueWorld {
    type Payload = QueuePayload;

    fn on_timer(&mut self, sched: &mut Scheduler<QueuePayload>, node: NodeId, tag: u64) {
        sched.timer_after(TICK_MS, node, tag);
        if self.respond {
            let rtt = 1 + (lcg_step(&mut self.lcg) >> 33) % 400;
            sched.deliver_after(rtt, (node + 1) % QUEUE_NODES, node, 0);
        }
    }

    fn on_message(
        &mut self,
        _: &mut Scheduler<QueuePayload>,
        _: NodeId,
        _: NodeId,
        _: QueuePayload,
    ) {
    }
}

/// Run `pattern` on a fresh engine; returns the number of events
/// processed (deterministic per pattern), the divisor that turns a run's
/// time into time per event.
fn netsim_queue_run(pattern: QueuePattern) -> usize {
    let mut engine: Engine<QueuePayload> = Engine::new();
    if pattern == QueuePattern::NonMonotone {
        engine.scheduler().timer_at(u64::MAX, 0, 0);
    }
    for node in 0..QUEUE_NODES {
        // Scattered phases, as the simulators draw them.
        engine
            .scheduler()
            .timer_at(node as u64 * 7919 % TICK_MS, node, 0);
    }
    let mut world = QueueWorld {
        respond: pattern == QueuePattern::TimerAndResponse,
        lcg: 2006,
    };
    engine.run_until(&mut world, QUEUE_TICKS * TICK_MS)
}

/// The defense-inspection kernel at the working set a simulator gives it:
/// a drift cap that never trips judging samples whose observer and remote
/// are both drawn over 1740 nodes, so each inspection lands on history the
/// cache has not seen for a thousand samples: the row times the store, not
/// the arithmetic.
struct InspectFixture {
    space: Space,
    coords: Vec<Coord>,
    defense: Defense,
    samples: u64,
    /// Pair generator state, see [`lcg_step`].
    lcg: u64,
}

impl InspectFixture {
    /// Samples per timed call of [`InspectFixture::run_batch`].
    const BATCH: u64 = 4096;

    /// Every node placed, every history window full.
    fn warmed() -> InspectFixture {
        let space = Space::Euclidean(2);
        let mut rng = SeedStream::new(6).rng("bench/inspect-fixture");
        let mut fixture = InspectFixture {
            space,
            coords: (0..QUEUE_NODES)
                .map(|_| space.random_coord(150.0, &mut rng))
                .collect(),
            defense: Defense::new(Box::new(DriftCap::new(1e12))),
            samples: 0,
            lcg: 2006,
        };
        // Strided pairs visit every remote and every observer equally often.
        for k in 0..ring_fill_samples(QUEUE_NODES) as usize {
            fixture.inspect((k * 977 + 13) % QUEUE_NODES, k % QUEUE_NODES);
        }
        fixture
    }

    fn inspect(&mut self, observer: usize, remote: usize) -> Verdict {
        // One round per population's worth of samples, as a Vivaldi tick.
        let round = self.samples / QUEUE_NODES as u64;
        self.samples += 1;
        self.defense.inspect(
            &self.space,
            &self.coords[observer],
            Update {
                observer,
                remote,
                reported_coord: &self.coords[remote],
                reported_error: 0.3,
                rtt: 100.0,
                round,
                now_ms: round * TICK_MS,
                provenance: Provenance::Normal,
            },
        )
    }

    /// [`InspectFixture::BATCH`] samples, each between a random pair: long
    /// enough for a timer to read.
    fn run_batch(&mut self) {
        for _ in 0..Self::BATCH {
            let draw = lcg_step(&mut self.lcg);
            let (observer, remote) = ((draw >> 12) as usize, (draw >> 33) as usize);
            black_box(self.inspect(observer % QUEUE_NODES, remote % QUEUE_NODES));
        }
    }
}

/// One row of the kernel ledger: a kernel `bench-baseline` times in
/// isolation and records under `"kernels"` in `BENCH_*.json`, where
/// `obs-diff` reads it by name.
pub struct KernelRow {
    /// The row's key in the ledger file.
    pub name: &'static str,
    /// Units of work in one timed sample (evaluations, events, calls): the
    /// row reports sample time over this. `1.0` where a sample is the unit.
    pub divisor: f64,
    /// One timed sample, on the row's own warmed fixture.
    pub sample: Box<dyn FnMut()>,
}

/// Calls per sample of the kernels too short to time alone (a hundred
/// nanoseconds or so): 64 keeps the timer's quantization out of the row.
const SHORT_CALLS: usize = 64;

fn row(name: &'static str, divisor: f64, sample: impl FnMut() + 'static) -> KernelRow {
    KernelRow {
        name,
        divisor,
        sample: Box::new(sample),
    }
}

/// The allocation-free Simplex kernel and its retained allocating oracle on
/// the same objective, so the pair reads directly as the kernel speedup.
fn simplex_pair(
    rows: &mut Vec<KernelRow>,
    (kernel, oracle): (&'static str, &'static str),
    objective: impl Fn(&[f64]) -> f64 + Clone + 'static,
    start: Vec<f64>,
) {
    let (f, x0) = (objective.clone(), start.clone());
    let mut scratch = SimplexScratch::new();
    rows.push(row(kernel, 1.0, move || {
        black_box(simplex_downhill(&f, &x0, &SIMPLEX, &mut scratch));
    }));
    rows.push(row(oracle, 1.0, move || {
        black_box(simplex_downhill_reference(&objective, &start, &SIMPLEX));
    }));
}

/// One [`vivaldi_update`] against a fixed remote, the spring a probe
/// response applies, [`SHORT_CALLS`] times over.
fn vivaldi_update_row(name: &'static str, space: Space) -> KernelRow {
    let mut rng = SeedStream::new(1).rng("bench/vivaldi-update");
    let mut coord = space.random_coord(100.0, &mut rng);
    let mut error = 0.5;
    let remote = space.random_coord(100.0, &mut rng);
    row(name, SHORT_CALLS as f64, move || {
        for _ in 0..SHORT_CALLS {
            black_box(vivaldi_update(
                &space,
                black_box(&mut coord),
                black_box(&mut error),
                black_box(&remote),
                0.3,
                85.0,
                &mut rng,
            ));
        }
    })
}

/// The mixed-problem kernel: `problems` drawn 8-D positionings cycled in
/// one sample, each a hidden node and 20 references drawn in the fixture's
/// 150 ms cube, every reference measuring its true distance plus 1 ms,
/// positioned the way [`nps_fit`] positions its one fixture. A row that
/// replays one problem trains the branch predictor on that one trajectory,
/// which no simulated fit shares; cycling through 64 does not. Returns the
/// objective evaluations of the whole cycle (deterministic).
fn nps_fit_mixed(problems: usize) -> impl FnMut() -> usize {
    let mut rng = SeedStream::new(4).rng("bench/nps-fit-mixed");
    let space = Space::Euclidean(8);
    let sets: Vec<Vec<RefSample>> = (0..problems)
        .map(|_| {
            let node = space.random_coord(150.0, &mut rng);
            (0..20)
                .map(|i| {
                    let at = space.random_coord(150.0, &mut rng);
                    let rtt = space.distance(&node, &at) + 1.0;
                    RefSample::new(i, at, rtt)
                })
                .collect()
        })
        .collect();
    let start = Coord::from_vec(vec![1.0; 8]);
    let mut scratch = PositionScratch::new();
    move || {
        sets.iter()
            .map(|samples| {
                position_node(
                    &space,
                    samples,
                    &start,
                    Some(&start),
                    false,
                    &SIMPLEX,
                    &mut scratch,
                )
                .expect("20 references position an 8-D node")
                .evals
            })
            .sum()
    }
}

/// A recording call with recording off, a nanosecond each and so
/// [`InspectFixture::BATCH`] of them a sample: the "zero-overhead-when-off"
/// claim as a number, one relaxed load and a branch.
fn obs_disabled_row(name: &'static str, mut call: impl FnMut() + 'static) -> KernelRow {
    row(name, InspectFixture::BATCH as f64, move || {
        for _ in 0..InspectFixture::BATCH {
            call();
        }
    })
}

/// Every kernel of the ledger, each on a freshly built fixture. Every row
/// runs a configuration the simulators run; `bench-baseline` is the one
/// timer over this table and `BENCH_*.json` the one record of it.
pub fn kernel_rows() -> Vec<KernelRow> {
    let mut rows = Vec::new();

    // The 20-reference fits model an NPS positioning round, where objective
    // evaluation bounds what the kernel can gain over its oracle; the
    // trivial quadratic isolates the kernel's own overhead (sorting,
    // centroid, trial points, allocation).
    for (dim, names) in [
        (2, ("simplex_2d_20refs", "simplex_oracle_2d_20refs")),
        (8, ("simplex_8d_20refs", "simplex_oracle_8d_20refs")),
    ] {
        let (refs, start) = simplex_fixture(dim, 20);
        simplex_pair(&mut rows, names, fit_objective(refs), start);
    }
    simplex_pair(
        &mut rows,
        ("simplex_8d_quadratic", "simplex_oracle_8d_quadratic"),
        |x: &[f64]| x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum::<f64>(),
        vec![1.0; 8],
    );

    // The 8-D fit again through the production positioning path, per
    // objective evaluation (the count is deterministic) and per fit; and,
    // per evaluation, the 4-D fit over 12 references of the chaos figures'
    // tight reference economy.
    for (name, dim, refs) in [
        ("nps_fit_8d_20refs_per_eval", 8, 20),
        ("nps_fit_4d_12refs_per_eval", 4, 12),
    ] {
        let mut fit = nps_fit(dim, refs);
        let evals = fit().evals;
        rows.push(row(name, evals as f64, move || {
            black_box(fit());
        }));
    }
    let mut fit = nps_fit(8, 20);
    rows.push(row("nps_fit_8d_20refs", 1.0, move || {
        black_box(fit());
    }));
    // The 8-D per-evaluation row again over 64 drawn problems in turn.
    let mut fits = nps_fit_mixed(64);
    let evals = fits() as f64;
    rows.push(row("nps_fit_8d_20refs_mixed_per_eval", evals, move || {
        black_box(fits());
    }));

    // The event queue alone, per event, one run per sample.
    for (name, pattern) in [
        (
            "netsim_queue_monotone_timers_per_event",
            QueuePattern::MonotoneTimers,
        ),
        (
            "netsim_queue_timer_and_response_per_event",
            QueuePattern::TimerAndResponse,
        ),
        (
            "netsim_queue_non_monotone_per_event",
            QueuePattern::NonMonotone,
        ),
    ] {
        let events = netsim_queue_run(pattern);
        rows.push(row(name, events as f64, move || {
            black_box(netsim_queue_run(pattern));
        }));
    }

    {
        let seeds = SeedStream::new(3);
        let matrix =
            KingLike::new(KingLikeConfig::with_nodes(400)).generate(&mut seeds.rng("topo"));
        let space = Space::Euclidean(2);
        let nodes: Vec<usize> = (0..400).collect();
        let plan = EvalPlan::with_params(&nodes, 128, 96, &mut seeds.rng("plan"));
        let mut rng = seeds.rng("coords");
        let coords: Vec<Coord> = (0..400)
            .map(|_| space.random_coord(150.0, &mut rng))
            .collect();
        rows.push(row("eval_plan_avg_error_400n_96peers", 1.0, move || {
            black_box(plan.avg_error(&coords, &space, &matrix));
        }));
    }

    // Drawing the benchmark workloads' sampled plan: 128 peers for each of
    // 1740 nodes.
    let nodes: Vec<usize> = (0..1740).collect();
    let mut rng = SeedStream::new(3).rng("plan");
    rows.push(row("eval_plan_build_1740n_128peers", 1.0, move || {
        black_box(EvalPlan::with_params(&nodes, 256, 128, &mut rng));
    }));

    let mut fixture = InspectFixture::warmed();
    rows.push(row(
        "defense_inspect_drift_cap_1740n_per_sample",
        InspectFixture::BATCH as f64,
        move || fixture.run_batch(),
    ));

    // The keystream under every `SeedStream` stream, per `next_u64`.
    const DRAWS: usize = 1 << 14;
    let mut rng = SeedStream::new(2006).rng("bench/chacha12");
    rows.push(row("chacha12_next_u64", DRAWS as f64, move || {
        for _ in 0..DRAWS {
            black_box(rng.next_u64());
        }
    }));

    // The benchmark workloads' data set, synthesised whole.
    rows.push(row("topo_generate_1740n", 1.0, || {
        black_box(KingLike::default().generate(&mut SeedStream::new(2006).rng("topo")));
    }));

    rows.push(vivaldi_update_row("vivaldi_update_2d", Space::Euclidean(2)));
    rows.push(vivaldi_update_row("vivaldi_update_5d", Space::Euclidean(5)));
    rows.push(vivaldi_update_row(
        "vivaldi_update_2d_height",
        Space::EuclideanHeight(2),
    ));

    let counter = vcoord::obs::metric("bench.obs.counter");
    let hist = vcoord::obs::metric("bench.obs.hist");
    rows.push(obs_disabled_row("obs_disabled_counter_add", move || {
        vcoord::obs::counter_add(black_box(counter), 1)
    }));
    rows.push(obs_disabled_row("obs_disabled_observe", move || {
        vcoord::obs::observe(black_box(hist), 1.0)
    }));
    rows.push(obs_disabled_row("obs_disabled_event", move || {
        vcoord::obs::event(black_box(counter), 1, 2, 3.0)
    }));
    rows.push(obs_disabled_row("obs_disabled_span", move || {
        drop(vcoord::obs::span(black_box(hist)));
    }));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoord::space::{simplex_downhill, SimplexScratch};

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
        assert_eq!(parse_threads(Some("1")), Some(1));
    }

    #[test]
    fn parse_threads_rejects_garbage_and_zero() {
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn fixture_is_deterministic_and_minimizable() {
        let (refs_a, start) = simplex_fixture(2, 20);
        let (refs_b, _) = simplex_fixture(2, 20);
        assert_eq!(refs_a, refs_b, "fixture must be seed-stable");
        assert_eq!(refs_b.len(), 20);
        assert_eq!(start, vec![1.0; 2]);
        let f = fit_objective(refs_a);
        let r = simplex_downhill(&f, &start, &SIMPLEX, &mut SimplexScratch::new());
        assert!(
            r.value < f(&start),
            "minimization must improve on the start"
        );
    }

    #[test]
    fn queue_patterns_process_the_expected_events() {
        // One timer per node per tick, plus node 0 (phase 0) firing once
        // more on the horizon itself; in the probe-cycle shape one response
        // per timer, bar those still in flight at the horizon.
        let timers = QUEUE_TICKS as usize * QUEUE_NODES + 1;
        assert_eq!(netsim_queue_run(QueuePattern::MonotoneTimers), timers);
        assert_eq!(netsim_queue_run(QueuePattern::NonMonotone), timers);
        let cycle = netsim_queue_run(QueuePattern::TimerAndResponse);
        assert!((2 * timers - 100..=2 * timers).contains(&cycle), "{cycle}");
    }

    #[test]
    fn inspect_fixture_is_warm_and_never_bans() {
        let mut fixture = InspectFixture::warmed();
        let warm = ring_fill_samples(QUEUE_NODES);
        let history = fixture.defense.history();
        for node in [0, 1, QUEUE_NODES / 2, QUEUE_NODES - 1] {
            assert_eq!(
                history.remote(node).unwrap().samples(),
                warm / QUEUE_NODES as u64
            );
            assert_eq!(history.recent(node).samples().len(), 24);
        }
        fixture.run_batch();
        let stats = fixture.defense.stats();
        assert_eq!(stats.total(), warm + InspectFixture::BATCH);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn nps_fit_fixture_walks_the_simplex_fixture_trajectory() {
        for (dim, refs) in [(8, 20), (4, 12)] {
            let (fixture, start) = simplex_fixture(dim, refs);
            let direct = simplex_downhill(
                fit_objective(fixture),
                &start,
                &SIMPLEX,
                &mut SimplexScratch::new(),
            );
            let fit = nps_fit(dim, refs)();
            assert_eq!(fit.evals, direct.evals);
            assert_eq!(fit.objective.to_bits(), direct.value.to_bits());
            assert_eq!(fit.coord.vec, direct.point);
        }
    }
}
