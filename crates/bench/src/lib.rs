//! # vcoord-bench
//!
//! Benchmark harness for the `vcoord` workspace:
//!
//! * the **`figures` binary** — regenerates the data behind every figure of
//!   the paper's evaluation (`cargo run -p vcoord-bench --release --bin
//!   figures -- all`), printing the series and writing CSVs;
//! * the **`bench-baseline` binary** — wall-clocks the figure suite and the
//!   hot kernels into a machine-readable `BENCH_<label>.json` perf
//!   baseline;
//! * **Criterion benches** (`cargo bench`) — hot-path kernels
//!   (`kernels`), whole-simulator throughput (`simulators`), attack lie
//!   construction (`attacks`), design-choice ablations (`ablations`), and a
//!   smoke pass over representative figure runners (`figures_smoke`).

#![forbid(unsafe_code)]

use vcoord::defense::testing::ring_fill_samples;
use vcoord::defense::{Defense, DriftCap, Provenance, Update, Verdict};
use vcoord::metrics::parallel::set_worker_budget;
use vcoord::netsim::{Engine, NodeId, Scheduler, SeedStream, World, TICK_MS};
use vcoord::nps::{
    position_node, FitObjective, PositionOutcome, PositionScratch, RefSample, SecurityPolicy,
};
use vcoord::obs::{set_mode, ObsMode};
use vcoord::space::{Coord, SimplexOptions, Space};

/// Default output directory for figure CSVs.
pub const DEFAULT_OUT_DIR: &str = "results";

/// Parse a `VCOORD_THREADS` value. Zero, empty, or unparsable values are
/// rejected (`None`) so a broken override degrades to the hardware default
/// instead of a zero-width pool.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Read the process environment and install what it asks for; every binary
/// and bench of this crate calls it first thing in `main`. It is the one
/// place the workspace reads configuration from the environment (the
/// `VCOORD_LOG` logger backend aside): the libraries take values.
///
/// * `VCOORD_THREADS=N` pins every worker pool to `N` threads
///   ([`set_worker_budget`]) for reproducible CI and benchmarking on any
///   core count. Returned, because `figures` also defaults `--jobs` to it.
/// * `VCOORD_OBS=off|metrics|trace` sets the recording mode; anything else
///   leaves it off.
pub fn install_env() -> Option<usize> {
    let threads = parse_threads(std::env::var("VCOORD_THREADS").ok().as_deref());
    if let Some(n) = threads {
        set_worker_budget(n);
    }
    match std::env::var("VCOORD_OBS").as_deref() {
        Ok("off") => set_mode(ObsMode::Off),
        Ok("metrics") => set_mode(ObsMode::Metrics),
        Ok("trace") => set_mode(ObsMode::Trace),
        _ => {}
    }
    threads
}

/// One benchmark reference point: reported coordinates plus the measured
/// distance it claims.
type SimplexRef = (Vec<f64>, f64);

/// The representative NPS positioning fixture shared by the `kernels`
/// bench and the `bench-baseline` binary: 20 reference points drawn in a
/// `dim`-D Euclidean space, each claiming an 80 ms measurement, minimized
/// from the all-ones start with the simulator's iteration budget.
///
/// Keeping one definition is what makes `cargo bench` numbers and the
/// committed `BENCH_*.json` trajectory comparable — tweak it here or
/// nowhere.
pub fn simplex_fixture(dim: usize) -> (Vec<SimplexRef>, SimplexOptions, Vec<f64>) {
    let seeds = SeedStream::new(2);
    let mut rng = seeds.rng("bench/simplex-fixture");
    let space = Space::Euclidean(dim);
    let refs: Vec<SimplexRef> = (0..20)
        .map(|_| (space.random_coord(150.0, &mut rng).vec, 80.0))
        .collect();
    (refs, simplex_bench_opts(), vec![1.0; dim])
}

/// The Simplex option set used by every kernel bench (the NPS simulator's
/// positioning budget).
pub fn simplex_bench_opts() -> SimplexOptions {
    SimplexOptions {
        max_iterations: 150,
        initial_step: 20.0,
        ..SimplexOptions::default()
    }
}

/// Squared-relative latency-fit objective over `refs`, computed on raw
/// slices (no per-evaluation allocation), for use with both the
/// allocation-free Simplex kernel and the retained oracle.
pub fn fit_objective(refs: &[SimplexRef]) -> impl Fn(&[f64]) -> f64 + '_ {
    move |x: &[f64]| {
        refs.iter()
            .map(|(c, d)| {
                let dist = c
                    .iter()
                    .zip(x)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let e = (dist - d) / d;
                e * e
            })
            .sum()
    }
}

/// The whole-fit kernel: the [`simplex_fixture`] minimization run the way
/// the NPS simulator runs it — one repositioning through
/// [`position_node`] (gather, dimension-major objective, Simplex
/// kernel, outcome) with the start as incumbent and the filter off, so it
/// is exactly one fit. The objective is [`fit_objective`]'s, term for term,
/// so this row, `simplex_*_20refs` and its oracle all walk the same
/// trajectory and their times compare directly.
pub struct NpsFitFixture {
    space: Space,
    samples: Vec<RefSample>,
    start: Coord,
    opts: SimplexOptions,
    scratch: PositionScratch,
}

impl NpsFitFixture {
    /// The `dim`-D fixture.
    pub fn new(dim: usize) -> NpsFitFixture {
        let (refs, opts, start) = simplex_fixture(dim);
        NpsFitFixture {
            space: Space::Euclidean(dim),
            samples: refs
                .into_iter()
                .enumerate()
                .map(|(i, (at, rtt))| RefSample::new(i, Coord::from_vec(at), rtt))
                .collect(),
            start: Coord::from_vec(start),
            opts,
            scratch: PositionScratch::new(),
        }
    }

    /// One fit.
    pub fn fit(&mut self) -> PositionOutcome {
        position_node(
            &self.space,
            &self.samples,
            &self.start,
            Some(&self.start),
            SecurityPolicy::off(),
            &self.opts,
            FitObjective::SquaredRelative,
            &mut self.scratch,
        )
        .expect("20 references position the node")
    }
}

/// Event-queue workloads for the `netsim_queue` kernel rows: the
/// scheduling shapes the simulators put on [`Engine`], with the protocol
/// work taken out. Every shape runs the paper's population (1740 nodes,
/// one timer per node per tick) for 20 ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePattern {
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

impl QueuePattern {
    /// Every pattern with the name its kernel rows carry.
    pub const ALL: [(QueuePattern, &'static str); 3] = [
        (QueuePattern::MonotoneTimers, "monotone_timers"),
        (QueuePattern::TimerAndResponse, "timer_and_response"),
        (QueuePattern::NonMonotone, "non_monotone"),
    ];
}

/// Population of a [`netsim_queue_run`].
const QUEUE_NODES: usize = 1740;

/// Length of a [`netsim_queue_run`], in ticks.
const QUEUE_TICKS: u64 = 20;

/// A message the size of a Vivaldi probe response (a coordinate, an error
/// and an RTT), so events weigh what the simulator's do.
type QueuePayload = [f64; 6];

struct QueueWorld {
    respond: bool,
    /// Pseudo-RTT generator state (a 64-bit LCG; no RNG crate in the loop).
    lcg: u64,
}

impl World for QueueWorld {
    type Payload = QueuePayload;

    fn on_timer(&mut self, sched: &mut Scheduler<QueuePayload>, node: NodeId, tag: u64) {
        sched.timer_after(TICK_MS, node, tag);
        if self.respond {
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rtt = 1 + (self.lcg >> 33) % 400;
            sched.deliver_after(rtt, (node + 1) % QUEUE_NODES, node, [0.0; 6]);
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
pub fn netsim_queue_run(pattern: QueuePattern) -> usize {
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
/// a drift cap that never trips (as in the `drift_cap_steady` row) judging
/// samples whose observer and remote are both drawn over 1740 nodes, so
/// each inspection lands on history the cache has not seen for a thousand
/// samples. `drift_cap_steady` cycles 16 remotes under one observer and
/// times the arithmetic; this row times the store.
pub struct InspectFixture {
    space: Space,
    coords: Vec<Coord>,
    defense: Defense,
    samples: u64,
    /// Pair generator state (a 64-bit LCG; no RNG crate in the loop).
    lcg: u64,
}

impl InspectFixture {
    /// Samples per timed call of [`InspectFixture::run_batch`].
    pub const BATCH: u64 = 4096;

    /// Every node placed, every history window full.
    pub fn warmed() -> InspectFixture {
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

    /// Judge one sample between a random pair.
    pub fn inspect_one(&mut self) -> Verdict {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let remote = (self.lcg >> 33) as usize % QUEUE_NODES;
        let observer = (self.lcg >> 12) as usize % QUEUE_NODES;
        self.inspect(observer, remote)
    }

    /// [`InspectFixture::BATCH`] samples: long enough for a timer to read.
    pub fn run_batch(&mut self) {
        for _ in 0..Self::BATCH {
            std::hint::black_box(self.inspect_one());
        }
    }

    /// The deployed defense (for its tallies).
    pub fn defense(&self) -> &Defense {
        &self.defense
    }
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
        let (refs_a, opts, start) = simplex_fixture(2);
        let (refs_b, _, _) = simplex_fixture(2);
        assert_eq!(refs_a, refs_b, "fixture must be seed-stable");
        assert_eq!(refs_a.len(), 20);
        assert_eq!(start, vec![1.0; 2]);
        let f = fit_objective(&refs_a);
        let r = simplex_downhill(&f, &start, &opts, &mut SimplexScratch::new());
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
        let history = fixture.defense().history();
        for node in [0, 1, QUEUE_NODES / 2, QUEUE_NODES - 1] {
            assert_eq!(
                history.remote(node).unwrap().samples(),
                warm / QUEUE_NODES as u64
            );
            assert_eq!(history.recent(node).samples().len(), 24);
        }
        fixture.run_batch();
        let stats = fixture.defense().stats();
        assert_eq!(stats.total(), warm + InspectFixture::BATCH);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn nps_fit_fixture_walks_the_simplex_fixture_trajectory() {
        let (refs, opts, start) = simplex_fixture(8);
        let direct = simplex_downhill(
            fit_objective(&refs),
            &start,
            &opts,
            &mut SimplexScratch::new(),
        );
        let fit = NpsFitFixture::new(8).fit();
        assert_eq!(fit.evals, direct.evals);
        assert_eq!(fit.objective.to_bits(), direct.value.to_bits());
        assert_eq!(fit.coord.vec, direct.point);
    }
}
