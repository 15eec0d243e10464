//! The injection harness: converge a clean system, inject an attack, record.
//!
//! The paper's *injection* protocol (§5.2), written once and split at the
//! injection instant: [`warm_up`] converges the clean system, and [`attack`]
//! selects the malicious population at random and activates it — together
//! with the defense and the fault plan, when the [`RunSpec`] names them —
//! and measures the honest population. Every run is fully determined by
//! `(seed, rep)`. [`repeat_all`] runs the warm-up once for all the cells
//! that converge the same clean system and injects each into a fork of it.
//!
//! The protocol is generic over [`System`]; everything the Vivaldi and NPS
//! runs do differently is a named item of that trait, so the loop itself
//! has no per-system branch.

use crate::experiments::{by_cell, repetition_pool_width, GridJob, Pool, Scale};
use rand_chacha::ChaCha12Rng;
use vcoord_attackkit::{AttackStrategy, Honest, RANDOM_RANGE};
use vcoord_chaos::{ChaosCounters, ChaosPlan};
use vcoord_defense::{Defense, DefenseStrategy};
use vcoord_metrics::stats::mean;
use vcoord_metrics::{random_baseline, Confusion, EvalPlan, FilterLedger, TimeSeries};
use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::{Coord, Space};
use vcoord_topo::{KingLike, KingLikeConfig, RttMatrix};
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

/// Flag events a node must accumulate before the harness counts it as
/// *detected* when grading verdicts into a [`Confusion`]: sample-level
/// filters (MAD, EWMA) throw occasional single rejections at honest nodes
/// under noise, so node-level detection requires persistence.
const DETECTION_MIN_FLAGS: u64 = 3;

/// Minimum share of a node's inspected samples that must be flagged (on
/// top of [`DETECTION_MIN_FLAGS`]) — the count floor alone stops
/// separating honest tail-noise from real detections as runs get longer.
const DETECTION_MIN_RATE: f64 = 0.08;

/// Joined nodes a re-planned warm-up sample needs before its error means
/// anything; below it the sample is recorded as NaN (joins in progress).
const MIN_JOINED: usize = 8;

/// What the injection protocol needs from a coordinate system under test.
/// `Send`: a converged system is handed to the pool thread that injects it.
/// `Clone`: a clone of a system nothing has been injected into yet shares
/// its latency matrix, and cloning one that has been injected into panics.
pub(crate) trait System: Sized + Send + Clone + 'static {
    /// System parameters; `Default` is the paper's §5.2 configuration.
    type Config: Clone + Default + PartialEq + Sync;

    /// Label of the per-repetition seed stream.
    const REP_LABEL: &'static str;

    /// The warm-up view of `config`: the parameters a clean system reads,
    /// with those that only act once a defense is deployed cleared (they
    /// are set by [`System::deploy`]). Equal views converge equal clean
    /// systems — the config part of the unit key of [`repeat_all`].
    fn warm_up_view(config: &Self::Config) -> Self::Config;

    /// A fresh system over `matrix`.
    fn build(matrix: RttMatrix, config: Self::Config, seeds: &SeedStream) -> Self;

    /// A clone with a latency matrix of its own, allocated by the calling
    /// thread.
    fn fork(&self) -> Self;

    /// `(warm-up, attack window, sampling interval)` of `scale`, in this
    /// system's clock unit (Vivaldi ticks, NPS repositioning rounds).
    fn schedule(scale: &Scale) -> (u64, u64, u64);

    /// Advance the simulation by `intervals` clock units.
    fn step(&mut self, intervals: u64);

    /// The current time in clock units.
    fn now(&self) -> u64;

    /// Current coordinates, by node id.
    fn coords(&self) -> &[Coord];

    /// The embedding space.
    fn space(&self) -> &Space;

    /// Ground-truth latencies.
    fn matrix(&self) -> &RttMatrix;

    /// The honest nodes whose error is measured right now.
    fn eval_set(&self) -> Vec<usize>;

    /// Warm-up plan policy. `Some(nodes)`: the population is complete at
    /// start, so one plan over `nodes` is drawn before the first step and
    /// serves the whole warm-up (Vivaldi). `None`: nodes join as the
    /// warm-up runs, so every sample re-plans over [`System::eval_set`] —
    /// one draw from the plan stream per sample once the set outgrows the
    /// all-pairs threshold — and records NaN below [`MIN_JOINED`] (NPS).
    fn warmup_nodes(&self) -> Option<Vec<usize>>;

    /// The converged clean error — the denominator of the paper's *error
    /// ratio* — from the warm-up series: the mean of its last five samples,
    /// floored at 1e-6. The summation order is the system's own.
    fn clean_ref(warmup: &TimeSeries) -> f64;

    /// Select `fraction` of the attackable population, without activating it.
    fn pick_attackers(&mut self, fraction: f64) -> Vec<usize>;

    /// Turn `attackers` malicious under `adversary`.
    fn inject(&mut self, attackers: &[usize], adversary: Box<dyn AttackStrategy>);

    /// Deploy `defense` on every honest node, under the parameters of
    /// `config` that [`System::warm_up_view`] clears.
    fn deploy(&mut self, defense: Box<dyn DefenseStrategy>, config: &Self::Config);

    /// Install a fault plan; its times count from now.
    fn install_chaos(&mut self, plan: ChaosPlan);

    /// The deployed defense, if any.
    fn defense(&self) -> Option<&Defense>;

    /// Ground-truth malicious flags, by node id.
    fn malicious(&self) -> &[bool];

    /// Nodes the deployed defense holds banned right now.
    fn banned_now(&self) -> Vec<usize>;

    /// Fault totals of the installed plan, if any.
    fn chaos_counters(&self) -> Option<&ChaosCounters>;

    /// Each node's hierarchy layer and the number of layers; layers
    /// `1..depth` get an error series of their own. `(&[], 1)` for a flat
    /// system.
    fn layers(&self) -> (&[u8], usize);

    /// Running (security-filter, probe-threshold) elimination ledgers; both
    /// empty for a system without built-in filtering.
    fn ledgers(&self) -> [FilterLedger; 2];
}

impl System for VivaldiSim {
    type Config = VivaldiConfig;
    const REP_LABEL: &'static str = "vivaldi-rep";

    fn warm_up_view(config: &VivaldiConfig) -> VivaldiConfig {
        config.clone()
    }
    fn build(matrix: RttMatrix, config: VivaldiConfig, seeds: &SeedStream) -> Self {
        VivaldiSim::new(matrix, config, seeds)
    }
    fn fork(&self) -> Self {
        VivaldiSim::fork(self)
    }
    fn schedule(scale: &Scale) -> (u64, u64, u64) {
        (
            scale.vivaldi_warmup_ticks,
            scale.vivaldi_attack_ticks,
            scale.vivaldi_record_every,
        )
    }
    fn step(&mut self, intervals: u64) {
        self.run_ticks(intervals);
    }
    fn now(&self) -> u64 {
        self.now_ticks()
    }
    fn coords(&self) -> &[Coord] {
        VivaldiSim::coords(self)
    }
    fn space(&self) -> &Space {
        VivaldiSim::space(self)
    }
    fn matrix(&self) -> &RttMatrix {
        VivaldiSim::matrix(self)
    }
    fn eval_set(&self) -> Vec<usize> {
        self.honest_nodes()
    }
    fn warmup_nodes(&self) -> Option<Vec<usize>> {
        Some((0..self.coords().len()).collect())
    }
    fn clean_ref(warmup: &TimeSeries) -> f64 {
        warmup.tail_mean(5).max(1e-6)
    }
    fn pick_attackers(&mut self, fraction: f64) -> Vec<usize> {
        VivaldiSim::pick_attackers(self, fraction)
    }
    fn inject(&mut self, attackers: &[usize], adversary: Box<dyn AttackStrategy>) {
        self.inject_adversary(attackers, adversary);
    }
    fn deploy(&mut self, defense: Box<dyn DefenseStrategy>, _: &VivaldiConfig) {
        self.deploy_defense(defense);
    }
    fn install_chaos(&mut self, plan: ChaosPlan) {
        VivaldiSim::install_chaos(self, plan);
    }
    fn defense(&self) -> Option<&Defense> {
        VivaldiSim::defense(self)
    }
    fn malicious(&self) -> &[bool] {
        VivaldiSim::malicious(self)
    }
    fn banned_now(&self) -> Vec<usize> {
        let flags = self.quarantined();
        (0..flags.len()).filter(|&i| flags[i]).collect()
    }
    fn chaos_counters(&self) -> Option<&ChaosCounters> {
        VivaldiSim::chaos_counters(self)
    }
    fn layers(&self) -> (&[u8], usize) {
        (&[], 1)
    }
    fn ledgers(&self) -> [FilterLedger; 2] {
        [FilterLedger::new(); 2]
    }
}

impl System for NpsSim {
    type Config = NpsConfig;
    const REP_LABEL: &'static str = "nps-rep";

    fn warm_up_view(config: &NpsConfig) -> NpsConfig {
        // Every field is named, so a new one does not compile until it is
        // classified here.
        let NpsConfig {
            space,
            landmarks,
            layers,
            refs_per_node,
            security,
            // The probation channel only runs while a defense is deployed.
            probation_every: _,
        } = config.clone();
        NpsConfig {
            space,
            landmarks,
            layers,
            refs_per_node,
            security,
            probation_every: 0,
        }
    }
    fn build(matrix: RttMatrix, config: NpsConfig, seeds: &SeedStream) -> Self {
        NpsSim::new(matrix, config, seeds)
    }
    fn fork(&self) -> Self {
        NpsSim::fork(self)
    }
    fn schedule(scale: &Scale) -> (u64, u64, u64) {
        (
            scale.nps_warmup_rounds,
            scale.nps_attack_rounds,
            scale.nps_record_every,
        )
    }
    fn step(&mut self, intervals: u64) {
        self.run_rounds(intervals);
    }
    fn now(&self) -> u64 {
        self.now_rounds()
    }
    fn coords(&self) -> &[Coord] {
        NpsSim::coords(self)
    }
    fn space(&self) -> &Space {
        NpsSim::space(self)
    }
    fn matrix(&self) -> &RttMatrix {
        NpsSim::matrix(self)
    }
    fn eval_set(&self) -> Vec<usize> {
        self.eval_nodes()
    }
    fn warmup_nodes(&self) -> Option<Vec<usize>> {
        None
    }
    fn clean_ref(warmup: &TimeSeries) -> f64 {
        // Newest sample first, and only the finite ones: early samples are
        // NaN while joins are in progress.
        let tail: Vec<f64> = warmup
            .points()
            .iter()
            .rev()
            .take(5)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
            .collect();
        if tail.is_empty() {
            1e-6
        } else {
            (tail.iter().sum::<f64>() / tail.len() as f64).max(1e-6)
        }
    }
    fn pick_attackers(&mut self, fraction: f64) -> Vec<usize> {
        NpsSim::pick_attackers(self, fraction)
    }
    fn inject(&mut self, attackers: &[usize], adversary: Box<dyn AttackStrategy>) {
        self.inject_adversary(attackers, adversary);
    }
    fn deploy(&mut self, defense: Box<dyn DefenseStrategy>, config: &NpsConfig) {
        self.set_probation_every(config.probation_every);
        self.deploy_defense(defense);
    }
    fn install_chaos(&mut self, plan: ChaosPlan) {
        NpsSim::install_chaos(self, plan);
    }
    fn defense(&self) -> Option<&Defense> {
        NpsSim::defense(self)
    }
    fn malicious(&self) -> &[bool] {
        NpsSim::malicious(self)
    }
    fn banned_now(&self) -> Vec<usize> {
        self.currently_banned()
    }
    fn chaos_counters(&self) -> Option<&ChaosCounters> {
        NpsSim::chaos_counters(self)
    }
    fn layers(&self) -> (&[u8], usize) {
        (self.layers_of(), self.config().layers)
    }
    fn ledgers(&self) -> [FilterLedger; 2] {
        [self.ledger(), self.threshold_ledger()]
    }
}

/// What an adversary builder yields: the strategy, plus an optional *focus
/// set* of nodes whose error the harness tracks separately (isolation
/// targets, designated victims).
pub(crate) type Choice = (Box<dyn AttackStrategy>, Option<Vec<usize>>);

/// Builds the adversary once the attacker set is known (the attackers are
/// picked but not yet flagged malicious when it runs).
pub(crate) type Adversary<'a, S> = dyn Fn(&S, &[usize], &SeedStream) -> Choice + Sync + 'a;

/// Builds the defense deployed at the injection instant. It never sees the
/// attacker set — a defense that knew ground truth would be cheating — only
/// the converged system, for structural configuration like trusted sets.
pub(crate) type Deploy<'a, S> = dyn Fn(&S) -> Box<dyn DefenseStrategy> + Sync + 'a;

/// Builds the fault plan installed at the injection instant; it sees the
/// converged system (landmark ids, system size) and its times are
/// milliseconds *after installation*.
pub(crate) type Faults<'a, S> = dyn Fn(&S) -> ChaosPlan + Sync + 'a;

/// The all-honest adversary: fault-only and clean-reference runs still go
/// through the injection instant, with nobody lying.
pub(crate) fn honest<S>(_: &S, _: &[usize], _: &SeedStream) -> Choice {
    (Box::new(Honest), None)
}

/// An adversary that ignores the system: `make()`, no focus set.
pub(crate) fn plain<S>(
    make: impl Fn() -> Box<dyn AttackStrategy> + Sync,
) -> impl Fn(&S, &[usize], &SeedStream) -> Choice + Sync {
    move |_, _, _| (make(), None)
}

/// Everything that determines one injection run.
pub(crate) struct RunSpec<'a, S: System> {
    /// Horizons, sampling interval and evaluation-plan bounds.
    pub scale: &'a Scale,
    /// System parameters (space, layers, security, …).
    pub config: S::Config,
    /// Population size (system-size sweeps move it off `scale.nodes`).
    pub nodes: usize,
    /// Malicious share of the attackable population.
    pub fraction: f64,
    /// Master seed.
    pub seed: u64,
    /// Repetition index.
    pub rep: u64,
    /// The adversary injected after warm-up.
    pub adversary: &'a Adversary<'a, S>,
    /// The defense deployed in the same instant, if any. With `None` the
    /// sims run their pre-defense code path.
    pub defense: Option<&'a Deploy<'a, S>>,
    /// The fault plan installed in the same instant, if any. With `None`
    /// the sims never allocate chaos state (the chaos-off inertness
    /// property pinned by `tests/chaos_properties.rs`).
    pub chaos: Option<&'a Faults<'a, S>>,
}

impl<'a, S: System> RunSpec<'a, S> {
    /// The default run: the default system at `scale.nodes`, no attackers
    /// (the [`honest`] adversary over an empty set), no defense, no faults,
    /// repetition 0.
    pub(crate) fn new(scale: &'a Scale, seed: u64) -> Self {
        RunSpec {
            scale,
            config: S::Config::default(),
            nodes: scale.nodes,
            fraction: 0.0,
            seed,
            rep: 0,
            adversary: &honest,
            defense: None,
            chaos: None,
        }
    }
}

impl<S: System> Clone for RunSpec<'_, S> {
    fn clone(&self) -> Self {
        RunSpec {
            config: self.config.clone(),
            ..*self
        }
    }
}

impl<S: System> RunSpec<'_, S> {
    /// Whether the two specs converge the same clean system: equal in every
    /// input [`warm_up`] reads — the config's warm-up view
    /// ([`System::warm_up_view`]), the population, the seed, the
    /// repetition, the warm-up horizon and sampling interval, and the
    /// evaluation-plan bounds. The fraction, the adversary, the defense and
    /// the parameters it deploys with, the fault plan and the attack window
    /// only act from the injection instant on.
    fn shares_warm_up(&self, other: &Self) -> bool {
        let (horizon, _, every) = S::schedule(self.scale);
        let (other_horizon, _, other_every) = S::schedule(other.scale);
        let plan = |s: &Scale| (s.eval_all_pairs_threshold, s.eval_sample_peers);
        S::warm_up_view(&self.config) == S::warm_up_view(&other.config)
            && (self.nodes, self.seed, self.rep) == (other.nodes, other.seed, other.rep)
            && (horizon, every) == (other_horizon, other_every)
            && plan(self.scale) == plan(other.scale)
    }
}

/// What a deployed defense did during the attack window, graded against
/// attackkit's ground-truth malicious set after the run.
#[derive(Debug, Clone)]
pub(crate) struct DefenseOutcome {
    /// Samples rejected.
    pub rejected: u64,
    /// Node-level ban events routed through the reputation channel.
    pub bans: u64,
    /// Node-level reinstatements (non-zero only for decaying defenses).
    pub reinstated: u64,
    /// Honest nodes still banned when the run ended — the steady-state
    /// defamation cost a permanently-banning defense accumulates and a
    /// decaying one sheds.
    pub banned_honest_final: u64,
    /// Malicious nodes still banned when the run ended.
    pub banned_malicious_final: u64,
    /// Samples quarantined by provenance (readmission-lease evidence that
    /// was judged but never recorded — see `vcoord_defense::Provenance`).
    pub quarantined: u64,
    /// Node-level detection quality: a node counts as detected once its
    /// flag events are both persistent and a real share of its inspected
    /// samples (`DETECTION_MIN_FLAGS`, `DETECTION_MIN_RATE`).
    pub confusion: Confusion,
}

impl DefenseOutcome {
    fn grade(defense: &Defense, malicious: &[bool], banned_now: &[usize]) -> DefenseOutcome {
        let stats = defense.stats();
        let banned_malicious_final = banned_now
            .iter()
            .filter(|&&n| malicious.get(n).copied().unwrap_or(false))
            .count() as u64;
        DefenseOutcome {
            rejected: stats.rejected,
            bans: stats.bans,
            reinstated: stats.reinstated,
            banned_honest_final: banned_now.len() as u64 - banned_malicious_final,
            banned_malicious_final,
            quarantined: stats.quarantined,
            confusion: stats.confusion_rated(malicious, DETECTION_MIN_FLAGS, DETECTION_MIN_RATE),
        }
    }
}

/// Outcome of one injection run, read at one instant of its attack window.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    /// Average relative error of honest nodes after injection.
    pub attack_series: TimeSeries,
    /// Converged clean error (tail mean of the warm-up series) — the
    /// denominator of the paper's *error ratio*.
    pub clean_ref: f64,
    /// Per-honest-node relative errors at the end of the run (CDF input),
    /// in evaluation-plan order.
    pub final_errors: Vec<f64>,
    /// Per-layer average error series `(layer, series)` for the layers
    /// above 0 (figure 25); empty for a flat system.
    pub layer_series: Vec<(u8, TimeSeries)>,
    /// Error of the focus set (isolation target, designated victims), when
    /// the adversary named one.
    pub focus_series: Option<TimeSeries>,
    /// Mean honest-node coordinate displacement per clock unit during the
    /// attack window (ms/tick, ms/round) — the *drift velocity* gradual
    /// attacks maximize while staying under displacement thresholds.
    pub drift_series: TimeSeries,
    /// Security-filter eliminations during the attack window.
    pub ledger: FilterLedger,
    /// Probe-threshold eliminations during the attack window.
    pub threshold_ledger: FilterLedger,
    /// Average error of the random-coordinate baseline on this topology.
    pub random_baseline: f64,
    /// What the deployed defense did, when one was deployed.
    pub defense: Option<DefenseOutcome>,
    /// Fault-injection accounting, when a chaos plan was installed.
    pub chaos: Option<ChaosCounters>,
}

/// Mean displacement per clock unit of `nodes` between `prev` (updated in
/// place) and their current coordinates — the drift-velocity sample.
fn drift_sample(
    nodes: &[usize],
    prev: &mut [Coord],
    coords: &[Coord],
    space: &Space,
    interval: u64,
) -> f64 {
    let mut total = 0.0;
    for (k, &i) in nodes.iter().enumerate() {
        total += space.distance(&coords[i], &prev[k]);
        prev[k] = coords[i].clone();
    }
    total / (nodes.len().max(1) as f64 * interval.max(1) as f64)
}

/// Ledger events since `before`.
fn since(now: FilterLedger, before: FilterLedger) -> FilterLedger {
    FilterLedger {
        filtered_malicious: now.filtered_malicious - before.filtered_malicious,
        filtered_honest: now.filtered_honest - before.filtered_honest,
    }
}

/// A converged clean system at the injection instant: what [`warm_up`]
/// leaves for [`attack`]. A clone shares the system's latency matrix.
#[derive(Clone)]
struct Warm<S> {
    /// The converged system; nothing is injected into it yet.
    sim: S,
    /// The repetition's seed stream.
    seeds: SeedStream,
    /// The `"eval-plan"` stream, past the warm-up's draws.
    plan_rng: ChaCha12Rng,
    /// Converged clean error (see [`Run::clean_ref`]).
    clean_ref: f64,
    /// The (security-filter, probe-threshold) ledgers at the injection
    /// instant, the baseline of the attack window's counts.
    ledgers: [FilterLedger; 2],
}

impl<S: System> Warm<S> {
    /// A copy to inject independently (see [`System::fork`]).
    fn fork(&self) -> Warm<S> {
        Warm {
            sim: self.sim.fork(),
            seeds: self.seeds,
            plan_rng: self.plan_rng.clone(),
            clean_ref: self.clean_ref,
            ledgers: self.ledgers,
        }
    }
}

/// An evaluation plan over `nodes` within `scale`'s bounds.
fn draw_plan(scale: &Scale, nodes: &[usize], rng: &mut ChaCha12Rng) -> EvalPlan {
    EvalPlan::with_params(
        nodes,
        scale.eval_all_pairs_threshold,
        scale.eval_sample_peers,
        rng,
    )
}

/// The injection protocol up to the injection instant: build the topology
/// and the system, converge it cleanly and record the reference series.
fn warm_up<S: System>(spec: &RunSpec<'_, S>) -> Warm<S> {
    let scale = spec.scale;
    let seeds = SeedStream::new(spec.seed).derive_indexed(S::REP_LABEL, spec.rep);
    let matrix =
        KingLike::new(KingLikeConfig::with_nodes(spec.nodes)).generate(&mut seeds.rng("topo"));
    let mut sim = S::build(matrix, spec.config.clone(), &seeds);
    let (warmup, _, every) = S::schedule(scale);
    let mut plan_rng = seeds.rng("eval-plan");
    let avg_error =
        |plan: &EvalPlan, sim: &S| plan.avg_error(sim.coords(), sim.space(), sim.matrix());

    let fixed_plan = sim
        .warmup_nodes()
        .map(|nodes| draw_plan(scale, &nodes, &mut plan_rng));
    let mut clean_series = TimeSeries::new();
    let mut t = 0;
    while t < warmup {
        sim.step(every);
        t += every;
        let err = match &fixed_plan {
            Some(plan) => avg_error(plan, &sim),
            None => {
                let joined = sim.eval_set();
                if joined.len() < MIN_JOINED {
                    f64::NAN
                } else {
                    avg_error(&draw_plan(scale, &joined, &mut plan_rng), &sim)
                }
            }
        };
        clean_series.push(sim.now(), err);
    }
    Warm {
        clean_ref: S::clean_ref(&clean_series),
        ledgers: sim.ledgers(),
        sim,
        seeds,
        plan_rng,
    }
}

/// The end of `scale`'s attack window: the first sample instant at or past
/// it, where the sampling loop of a window that is not a whole number of
/// sampling intervals stops.
fn window_end<S: System>(scale: &Scale) -> u64 {
    let (_, window, every) = S::schedule(scale);
    window.next_multiple_of(every)
}

/// The injection protocol from the injection instant on, over the converged
/// system `warm`: inject, run the attack window and record, read at each of
/// the `checkpoints` (clock units after injection). The run read at `c`
/// equals a run whose attack window is `c`: its series so far, the errors,
/// defense verdicts, ledgers and fault counters of that instant.
///
/// # Panics
/// Panics unless the checkpoints ascend and each falls on a sample instant
/// (a multiple of the sampling interval).
fn attack<S: System>(spec: &RunSpec<'_, S>, warm: Warm<S>, checkpoints: &[u64]) -> Vec<Run> {
    let Warm {
        mut sim,
        seeds,
        mut plan_rng,
        clean_ref,
        ledgers: ledgers_before,
    } = warm;
    let (_, _, every) = S::schedule(spec.scale);
    assert!(
        checkpoints.windows(2).all(|w| w[0] <= w[1]) && checkpoints.iter().all(|c| c % every == 0),
        "checkpoints {checkpoints:?} must ascend on sample instants (multiples of {every})"
    );

    // Injection — and, in the same instant, defense deployment and fault
    // installation: the sweeps measure how a converged, defended system
    // absorbs a fresh attack.
    let attackers = sim.pick_attackers(spec.fraction);
    let (adversary, focus) = (spec.adversary)(&sim, &attackers, &seeds);
    sim.inject(&attackers, adversary);
    if let Some(build) = spec.defense {
        let defense = build(&sim);
        sim.deploy(defense, &spec.config);
    }
    if let Some(build) = spec.chaos {
        let faults = build(&sim);
        sim.install_chaos(faults);
    }

    // Honest-population evaluation plan (the paper measures victims).
    let plan_honest = draw_plan(spec.scale, &sim.eval_set(), &mut plan_rng);
    let honest = plan_honest.nodes();
    let (layer_of, depth) = sim.layers();
    let node_layers: Vec<u8> = honest
        .iter()
        .map(|&i| layer_of.get(i).copied().unwrap_or(0))
        .collect();
    let focus_indices: Option<Vec<usize>> = focus.map(|f| {
        f.iter()
            .filter_map(|id| honest.iter().position(|n| n == id))
            .collect()
    });

    // Random coordinates against the fixed plan and matrix: the same at
    // every checkpoint.
    let random_baseline = random_baseline(
        &plan_honest,
        sim.space(),
        sim.matrix(),
        RANDOM_RANGE,
        &mut seeds.rng("random-baseline"),
    );

    let mut attack_series = TimeSeries::new();
    let mut drift_series = TimeSeries::new();
    let mut layer_series: Vec<(u8, TimeSeries)> =
        (1..depth).map(|l| (l as u8, TimeSeries::new())).collect();
    let mut focus_series = focus_indices.as_ref().map(|_| TimeSeries::new());
    let mut final_errors: Vec<f64> = Vec::new();
    let mut prev_coords: Vec<Coord> = honest.iter().map(|&i| sim.coords()[i].clone()).collect();
    let mut runs = Vec::with_capacity(checkpoints.len());
    let mut t = 0;
    for &checkpoint in checkpoints {
        while t < checkpoint {
            sim.step(every);
            t += every;
            let now = sim.now();
            let errs = plan_honest.per_node_errors(sim.coords(), sim.space(), sim.matrix());
            attack_series.push(now, mean(&errs));
            drift_series.push(
                now,
                drift_sample(honest, &mut prev_coords, sim.coords(), sim.space(), every),
            );
            for (layer, series) in &mut layer_series {
                let in_layer = (0..errs.len()).filter(|&k| node_layers[k] == *layer);
                let vals: Vec<f64> = in_layer.map(|k| errs[k]).collect();
                if !vals.is_empty() {
                    series.push(now, mean(&vals));
                }
            }
            if let (Some(series), Some(indices)) = (focus_series.as_mut(), focus_indices.as_ref()) {
                if !indices.is_empty() {
                    let vals: Vec<f64> = indices.iter().map(|&k| errs[k]).collect();
                    series.push(now, mean(&vals));
                }
            }
            final_errors = errs;
        }

        let defense = sim
            .defense()
            .map(|d| DefenseOutcome::grade(d, sim.malicious(), &sim.banned_now()));
        let [ledger, threshold_ledger] = sim.ledgers();
        runs.push(Run {
            attack_series: attack_series.clone(),
            clean_ref,
            final_errors: final_errors.clone(),
            layer_series: layer_series.clone(),
            focus_series: focus_series.clone(),
            drift_series: drift_series.clone(),
            ledger: since(ledger, ledgers_before[0]),
            threshold_ledger: since(threshold_ledger, ledgers_before[1]),
            random_baseline,
            defense,
            chaos: sim.chaos_counters().copied(),
        });
    }
    runs
}

/// Every repetition of every spec (`rep` = 0, 1, … up to the spec's
/// `scale.repetitions`) as one job grid on the worker pool, read at the end
/// of the spec's attack window: `runs[spec][rep]`. A figure declares all its
/// cells and calls this once.
pub(crate) fn repeat_all<S: System>(specs: &[RunSpec<'_, S>]) -> Vec<Vec<Run>> {
    let ends: Vec<Vec<u64>> = specs
        .iter()
        .map(|s| vec![window_end::<S>(s.scale)])
        .collect();
    repeat_at(specs, &ends)
        .into_iter()
        .map(|mut at| at.pop().expect("one checkpoint per spec"))
        .collect()
}

/// [`repeat_all`], each spec's runs read at each of its `checkpoints` (see
/// [`attack`]): `runs[spec][checkpoint][rep]`. One run of the longest
/// window stands for the runs of every shorter one.
///
/// The jobs whose warm-ups are identical form a *unit* ([`units`]) and
/// converge once, on one [`Pool`]: the unit's first job runs [`warm_up`]
/// and its own [`attack`], and the others run only the attack, each on a
/// copy of the converged system — a clone that shares its latency matrix on
/// the thread that warmed it up, a [`System::fork`] on any other.
pub(crate) fn repeat_at<S: System>(
    specs: &[RunSpec<'_, S>],
    checkpoints: &[Vec<u64>],
) -> Vec<Vec<Vec<Run>>> {
    let jobs = specs.iter().map(|s| s.scale.repetitions).sum();
    repeat_on(repetition_pool_width(jobs), specs, checkpoints)
}

/// [`repeat_at`] on a pool `workers` wide.
fn repeat_on<S: System>(
    workers: usize,
    specs: &[RunSpec<'_, S>],
    checkpoints: &[Vec<u64>],
) -> Vec<Vec<Vec<Run>>> {
    let reps_of: Vec<usize> = specs.iter().map(|s| s.scale.repetitions).collect();
    let units = units(specs);
    let spec = |job: GridJob| RunSpec {
        rep: job.rep,
        ..specs[job.cell].clone()
    };
    let runs = Pool::new(&units, workers).run(
        |job| warm_up(&spec(job)),
        Warm::fork,
        |job, warm| attack(&spec(job), warm, &checkpoints[job.cell]),
    );
    by_cell(&reps_of, &units.concat(), runs)
        .into_iter()
        .zip(checkpoints)
        .map(|(reps, at)| {
            let mut by_checkpoint: Vec<Vec<Run>> = at.iter().map(|_| Vec::new()).collect();
            for runs in reps {
                for (column, run) in by_checkpoint.iter_mut().zip(runs) {
                    column.push(run);
                }
            }
            by_checkpoint
        })
        .collect()
}

/// The jobs of `specs` — every repetition of every spec — grouped into
/// units of jobs that converge the same clean system
/// ([`RunSpec::shares_warm_up`]). Units are listed in the order of their
/// first job, and each lists its jobs cell-major; its first job is the one
/// that runs the warm-up.
fn units<S: System>(specs: &[RunSpec<'_, S>]) -> Vec<Vec<(usize, u64)>> {
    let mut keys: Vec<RunSpec<'_, S>> = Vec::new();
    let mut units: Vec<Vec<(usize, u64)>> = Vec::new();
    for (cell, spec) in specs.iter().enumerate() {
        for rep in 0..spec.scale.repetitions as u64 {
            let job = RunSpec {
                rep,
                ..spec.clone()
            };
            match keys.iter().position(|key| key.shares_warm_up(&job)) {
                Some(u) => units[u].push((cell, rep)),
                None => {
                    keys.push(job);
                    units.push(vec![(cell, rep)]);
                }
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::nps::NpsSimpleDisorder;
    use crate::attacks::vivaldi::VivaldiDisorder;
    use std::fmt::Debug;
    use vcoord_attackkit::{Collusion, CoordView, Lie, Probe, RandomLie};
    use vcoord_defense::NoDefense;

    /// One spec on its own: its own warm-up, then its attack window.
    fn run<S: System>(spec: &RunSpec<'_, S>) -> Run {
        let end = window_end::<S>(spec.scale);
        let mut runs = attack(spec, warm_up(spec), &[end]);
        runs.pop().expect("one checkpoint")
    }

    /// Every field of two runs, bit for bit.
    fn assert_same_run(shared: &Run, solo: &Run, what: &str) {
        let bits = |s: &TimeSeries| -> Vec<(u64, u64)> {
            s.points().iter().map(|&(t, v)| (t, v.to_bits())).collect()
        };
        let floats = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(
            bits(&shared.attack_series),
            bits(&solo.attack_series),
            "{what}"
        );
        assert_eq!(
            shared.clean_ref.to_bits(),
            solo.clean_ref.to_bits(),
            "{what}"
        );
        assert_eq!(
            floats(&shared.final_errors),
            floats(&solo.final_errors),
            "{what}"
        );
        let layers = |r: &Run| -> Vec<(u8, Vec<(u64, u64)>)> {
            r.layer_series.iter().map(|(l, s)| (*l, bits(s))).collect()
        };
        assert_eq!(layers(shared), layers(solo), "{what}");
        assert_eq!(
            shared.focus_series.as_ref().map(bits),
            solo.focus_series.as_ref().map(bits),
            "{what}"
        );
        assert_eq!(
            bits(&shared.drift_series),
            bits(&solo.drift_series),
            "{what}"
        );
        assert_eq!(shared.ledger, solo.ledger, "{what}");
        assert_eq!(shared.threshold_ledger, solo.threshold_ledger, "{what}");
        assert_eq!(
            shared.random_baseline.to_bits(),
            solo.random_baseline.to_bits(),
            "{what}"
        );
        assert_eq!(
            format!("{:?}", shared.defense),
            format!("{:?}", solo.defense),
            "{what}"
        );
        assert_eq!(shared.chaos, solo.chaos, "{what}");
    }

    /// `repeat_all(specs)` equals `run` of every spec and repetition on its
    /// own, field for field; returns the number of units it formed.
    fn assert_shared_equals_solo<S: System>(specs: &[RunSpec<'_, S>]) -> usize {
        let shared = repeat_all(specs);
        for (cell, spec) in specs.iter().enumerate() {
            assert_eq!(shared[cell].len(), spec.scale.repetitions);
            for (rep, run_shared) in shared[cell].iter().enumerate() {
                let solo = run(&RunSpec {
                    rep: rep as u64,
                    ..spec.clone()
                });
                assert_same_run(run_shared, &solo, &format!("cell {cell} rep {rep}"));
            }
        }
        units(specs).len()
    }

    #[test]
    fn shared_warm_ups_equal_solo_runs_nps() {
        let scale = Scale {
            repetitions: 2,
            ..Scale::smoke()
        };
        let shorter = Scale {
            nps_warmup_rounds: 6,
            ..scale.clone()
        };
        let sparser = Scale {
            nps_record_every: 4,
            ..scale.clone()
        };
        let longer_attack = Scale {
            nps_attack_rounds: 10,
            ..scale.clone()
        };
        let disorder = plain(|| Box::new(NpsSimpleDisorder));
        let base = RunSpec::<NpsSim> {
            fraction: 0.2,
            adversary: &disorder,
            ..RunSpec::new(&scale, 2006)
        };
        let insecure = NpsConfig {
            security: false,
            ..NpsConfig::default()
        };
        let deploy: &Deploy<'_, NpsSim> = &|_| Box::new(vcoord_defense::DriftCap::new(80.0));
        let faults: &Faults<'_, NpsSim> =
            &|sim| ChaosPlan::none().takedown(&sim.landmark_ids()[..2], 0);
        let specs = [
            // One unit: fraction, adversary, defense (with the probation
            // period it deploys under), faults and attack window only act
            // from the injection instant on.
            base.clone(),
            RunSpec {
                fraction: 0.4,
                ..base.clone()
            },
            RunSpec {
                adversary: &honest,
                ..base.clone()
            },
            RunSpec {
                defense: Some(deploy),
                ..base.clone()
            },
            RunSpec {
                config: NpsConfig {
                    probation_every: 2,
                    ..NpsConfig::default()
                },
                defense: Some(deploy),
                ..base.clone()
            },
            RunSpec {
                chaos: Some(faults),
                ..base.clone()
            },
            RunSpec {
                scale: &longer_attack,
                ..base.clone()
            },
            // Near misses, each its own unit.
            RunSpec {
                config: insecure,
                ..base.clone()
            },
            RunSpec {
                nodes: 60,
                ..base.clone()
            },
            RunSpec {
                seed: 2007,
                ..base.clone()
            },
            RunSpec {
                scale: &shorter,
                ..base.clone()
            },
            RunSpec {
                scale: &sparser,
                ..base.clone()
            },
        ];
        // 6 near-miss keys (the base and five) × 2 repetitions.
        assert_eq!(assert_shared_equals_solo(&specs), 12);
    }

    #[test]
    fn shared_warm_ups_equal_solo_runs_vivaldi() {
        // The evaluation-plan bounds: below the threshold the warm-up plan
        // samples peers, and the draws land in the plan stream the attack
        // window continues from.
        let sampled = Scale {
            repetitions: 2,
            eval_all_pairs_threshold: 16,
            eval_sample_peers: 8,
            ..Scale::smoke()
        };
        let more_peers = Scale {
            eval_sample_peers: 12,
            ..sampled.clone()
        };
        let all_pairs = Scale {
            eval_all_pairs_threshold: 128,
            ..sampled.clone()
        };
        let disorder = plain(|| Box::new(VivaldiDisorder::default()));
        let base = RunSpec::<VivaldiSim> {
            fraction: 0.2,
            adversary: &disorder,
            ..RunSpec::new(&sampled, 5)
        };
        let specs = [
            base.clone(),
            RunSpec {
                fraction: 0.3,
                ..base.clone()
            },
            RunSpec {
                scale: &more_peers,
                ..base.clone()
            },
            RunSpec {
                scale: &all_pairs,
                ..base.clone()
            },
            RunSpec {
                config: VivaldiConfig::in_space(Space::Euclidean(3)),
                ..base.clone()
            },
        ];
        assert_eq!(assert_shared_equals_solo(&specs), 8);
    }

    /// `spec`'s attack read at the end of each of `windows` (ascending, each
    /// `spec.scale` but for its attack window) equals a run of that window on
    /// its own, field for field.
    fn assert_checkpoints_equal_windows<S: System>(spec: &RunSpec<'_, S>, windows: &[Scale]) {
        let ends: Vec<u64> = windows.iter().map(window_end::<S>).collect();
        let read = attack(spec, warm_up(spec), &ends);
        assert_eq!(read.len(), windows.len());
        for ((at, window), end) in read.iter().zip(windows).zip(&ends) {
            let solo = run(&RunSpec {
                scale: window,
                ..spec.clone()
            });
            assert_same_run(at, &solo, &format!("checkpoint {end}"));
        }
    }

    #[test]
    fn checkpoints_equal_shorter_windows_nps() {
        let scale = Scale::smoke();
        let windows = [4, 10, 16].map(|rounds| Scale {
            nps_attack_rounds: rounds,
            ..scale.clone()
        });
        let adversary = plain(|| Box::new(NpsSimpleDisorder));
        let spec = RunSpec::<NpsSim> {
            config: NpsConfig {
                probation_every: 2,
                ..NpsConfig::default()
            },
            fraction: 0.3,
            adversary: &adversary,
            defense: Some(&|_| {
                Box::new(vcoord_defense::DriftCap::with_decay(
                    40.0,
                    vcoord_defense::DriftDecay::new(5.0),
                ))
            }),
            chaos: Some(&|_| ChaosPlan::with_seed(3).bursts(vcoord_chaos::BurstModel::mild())),
            ..RunSpec::new(&windows[2], 2006)
        };
        assert_checkpoints_equal_windows(&spec, &windows);
    }

    #[test]
    fn checkpoints_equal_shorter_windows_vivaldi() {
        let scale = Scale::smoke();
        let windows = [30, 70, 120].map(|ticks| Scale {
            vivaldi_attack_ticks: ticks,
            ..scale.clone()
        });
        let adversary = plain(|| Box::new(VivaldiDisorder::default()));
        let spec = RunSpec::<VivaldiSim> {
            fraction: 0.3,
            adversary: &adversary,
            defense: Some(&|_| Box::new(vcoord_defense::DriftCap::default())),
            chaos: Some(&|sim| {
                let nodes = sim.coords().len();
                let tick = vcoord_netsim::TICK_MS;
                ChaosPlan::with_seed(3).churn_wave(nodes, 0.2, 10 * tick, 30 * tick)
            }),
            ..RunSpec::new(&windows[2], 5)
        };
        assert_checkpoints_equal_windows(&spec, &windows);
    }

    #[test]
    #[should_panic(expected = "must ascend on sample instants")]
    fn checkpoint_off_a_sample_instant_panics() {
        let scale = Scale::smoke();
        let spec = RunSpec::<VivaldiSim>::new(&scale, 5);
        // Vivaldi samples every 10 ticks at smoke scale.
        attack(&spec, warm_up(&spec), &[10, 15]);
    }

    #[test]
    fn nps_warm_up_does_not_read_the_probation_period() {
        use rand::RngCore;

        let scale = Scale::smoke();
        let spec = |probation_every| RunSpec::<NpsSim> {
            config: NpsConfig {
                probation_every,
                ..NpsConfig::default()
            },
            ..RunSpec::new(&scale, 2006)
        };
        let (off, on) = (warm_up(&spec(0)), warm_up(&spec(4)));
        assert_eq!(on.sim.config().probation_every, 4, "warmed up under 4");
        let bits = |w: &Warm<NpsSim>| -> Vec<u64> {
            let coords = w.sim.coords().iter();
            coords
                .flat_map(|c| c.vec.iter().chain([&c.height]).map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&off), bits(&on), "coordinates");
        assert_eq!(off.sim.counters(), on.sim.counters());
        assert_eq!(off.sim.now(), on.sim.now());
        let draws = |w: &Warm<NpsSim>| -> Vec<u64> {
            let mut rng = w.plan_rng.clone();
            (0..4).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(draws(&off), draws(&on), "plan-stream position");
        assert_eq!(off.clean_ref.to_bits(), on.clean_ref.to_bits());
        assert_eq!(off.ledgers, on.ledgers);
        // Which is what lets the two share a unit.
        assert!(spec(0).shares_warm_up(&spec(4)));
    }

    /// Count one more arrival at `count` and spin until `n` have arrived or
    /// five seconds passed; whether all `n` arrived. Forces jobs that a
    /// scheduler can run side by side to overlap.
    fn rendezvous(count: &std::sync::atomic::AtomicUsize, n: usize) -> bool {
        use std::sync::atomic::Ordering;
        use std::time::{Duration, Instant};

        count.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < n && Instant::now() < deadline {
            std::thread::yield_now();
        }
        count.load(Ordering::SeqCst) >= n
    }

    #[test]
    fn failed_warm_up_wakes_its_unit_and_keeps_its_message() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        // The owner fails; the worker waiting for its unit must wake and
        // stop without running a job of it, and the pool must report the
        // owner's panic. The assertions hold for any interleaving; the
        // delay only makes the waiting path the likely one.
        let units = [vec![(0, 0), (0, 1), (0, 2), (0, 3)]];
        let pool = Pool::new(&units, 2);
        let attacked = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                |_| -> u64 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("warm-up of unit 0 failed")
                },
                |w| *w,
                |_, warm| {
                    attacked.fetch_add(1, Ordering::SeqCst);
                    warm
                },
            )
        }));
        let payload = outcome.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"warm-up of unit 0 failed"),
            "the owner's payload, not a taker's"
        );
        assert_eq!(
            attacked.load(Ordering::SeqCst),
            0,
            "no taker ran its attack"
        );
        let queue = pool.lock();
        assert!(queue.stopped && queue.open.is_empty(), "nothing published");
    }

    #[test]
    fn no_job_waits_for_a_warm_up_while_another_can_run() {
        use std::sync::atomic::AtomicUsize;

        // 2 units × 2 jobs on 2 workers. A pool that ran the jobs unit by
        // unit would hand worker 2 a job of unit 0 and block it for unit
        // 0's warm-up; this one has it warm unit 1 up instead, so the two
        // warm-ups meet, then the two owners' jobs meet, and the two jobs
        // left run on published snapshots.
        let units = [vec![(0, 0), (1, 0)], vec![(0, 1), (1, 1)]];
        let pool = Pool::new(&units, 2);
        let (warming, owning) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let runs = pool.run(
            |job| rendezvous(&warming, 2).then_some(job.rep),
            Clone::clone,
            |job, warm| {
                let owner = units[job.rep as usize][0] == (job.cell, job.rep);
                let met = !owner || rendezvous(&owning, 2);
                (job.cell, warm, met)
            },
        );
        assert_eq!(
            runs,
            [
                (0, Some(0), true),
                (1, Some(0), true),
                (0, Some(1), true),
                (1, Some(1), true)
            ],
            "both warm-ups and both owners' jobs overlapped"
        );
        assert_eq!(pool.lock().waits, 0, "a worker waited for a warm-up");
    }

    #[test]
    fn units_of_one_two_and_four_jobs_are_width_invariant() {
        /// Obs recording on for the test's body, off again however it ends.
        /// The mode is process-global: no other unit test of this crate
        /// sets it or reads a report.
        struct Tracing;
        impl Drop for Tracing {
            fn drop(&mut self) {
                vcoord_obs::set_mode(vcoord_obs::ObsMode::Off);
            }
        }

        let scale = Scale::smoke();
        let disorder = plain(|| Box::new(NpsSimpleDisorder));
        let base = RunSpec::<NpsSim> {
            fraction: 0.2,
            adversary: &disorder,
            ..RunSpec::new(&scale, 2006)
        };
        let at = |fraction, seed, nodes| RunSpec {
            fraction,
            seed,
            nodes,
            ..base.clone()
        };
        // Units of 4 (seed 2006), 2 (seed 2007) and 1 (60 nodes) jobs,
        // their jobs interleaved.
        let specs = [
            at(0.1, 2006, 72),
            at(0.1, 2007, 72),
            at(0.2, 2006, 72),
            at(0.2, 2006, 60),
            at(0.3, 2006, 72),
            at(0.3, 2007, 72),
            at(0.4, 2006, 72),
        ];
        let sizes: Vec<usize> = units(&specs).iter().map(Vec::len).collect();
        assert_eq!(sizes, [4, 2, 1]);
        let ends: Vec<Vec<u64>> = specs
            .iter()
            .map(|s| vec![window_end::<NpsSim>(s.scale)])
            .collect();

        vcoord_obs::set_mode(vcoord_obs::ObsMode::Trace);
        let _tracing = Tracing;
        let traced = |width| {
            vcoord_obs::reset();
            let runs = repeat_on(width, &specs, &ends);
            let mut report = vcoord_obs::drain();
            report.strip_timings();
            (runs, report)
        };
        let (want, want_report) = traced(1);
        assert!(!want_report.events().is_empty(), "the order is visible");
        for width in [2, 3] {
            let (runs, report) = traced(width);
            for (cell, (got, want)) in runs.iter().zip(&want).enumerate() {
                let (got, want) = (&got[0][0], &want[0][0]);
                assert_same_run(got, want, &format!("cell {cell} at width {width}"));
            }
            assert!(report == want_report, "absorbed reports at width {width}");
        }
    }

    #[test]
    fn a_taker_shares_its_owners_matrix_only_on_the_owners_thread() {
        use std::sync::atomic::AtomicUsize;
        use std::thread::{current, ThreadId};

        let scale = Scale::smoke();
        let spec = RunSpec::<VivaldiSim>::new(&scale, 5);
        let units = [vec![(0, 0), (1, 0), (2, 0)]];
        // (position in the unit, thread, matrix address) of every job.
        let jobs = |width, met: &AtomicUsize| -> Vec<(usize, ThreadId, usize)> {
            Pool::new(&units, width).run(
                |_| warm_up(&spec),
                Warm::fork,
                |job, warm| {
                    // On two workers the owner's job holds its worker until
                    // the first taker runs, so that taker is on the other.
                    if width > 1 && job.cell < 2 {
                        assert!(rendezvous(met, 2), "no taker ran beside the owner");
                    }
                    let matrix = warm.sim.matrix() as *const RttMatrix as usize;
                    (job.cell, current().id(), matrix)
                },
            )
        };
        for width in [1, 2] {
            let met = AtomicUsize::new(0);
            let seen = jobs(width, &met);
            let (_, owner_thread, owner_matrix) = seen[0];
            let mut elsewhere = 0;
            for &(job, thread, matrix) in &seen[1..] {
                let own = thread == owner_thread;
                elsewhere += usize::from(!own);
                assert_eq!(
                    matrix == owner_matrix,
                    own,
                    "job {job} at width {width}: shares the matrix iff on the owner's thread"
                );
            }
            assert_eq!(elsewhere > 0, width > 1, "width {width}");
        }
    }

    #[test]
    fn own_thread_takers_clone_and_the_last_takes_the_snapshot() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        // An `Arc` stands in for the converged system: its count is the
        // number of copies alive, the test's own handle included. On one
        // worker every taker is on the owner's thread, so none forks.
        let root = Arc::new(());
        let forks = AtomicUsize::new(0);
        let units = [vec![(0, 0), (1, 0), (2, 0)]];
        let counts = Pool::new(&units, 1).run(
            |_| Arc::clone(&root),
            |w| {
                forks.fetch_add(1, Ordering::Relaxed);
                Arc::clone(w)
            },
            |_, warm| Arc::strong_count(&warm),
        );
        assert_eq!(forks.load(Ordering::Relaxed), 0, "no taker forks");
        // The owner's job runs beside the snapshot, the first taker on a
        // clone of it, and the last taker on the snapshot itself.
        assert_eq!(counts, [3, 3, 2]);
        assert_eq!(Arc::strong_count(&root), 1, "snapshot dropped");
    }

    #[test]
    fn live_snapshots_never_exceed_the_width() {
        use std::time::Duration;

        // Units of uneven sizes and jobs of uneven lengths, so the workers
        // drift apart and publish while others still have jobs left.
        let sizes = [1, 3, 2, 4, 1, 2, 3, 1, 4, 2];
        let units: Vec<Vec<(usize, u64)>> = sizes
            .iter()
            .enumerate()
            .map(|(u, &n)| (0..n).map(|cell| (cell, u as u64)).collect())
            .collect();
        let nap = |job: GridJob| Duration::from_millis((job.cell as u64 * 3 + job.rep) % 5);
        for width in [1, 2, 3] {
            let pool = Pool::new(&units, width);
            let values = pool.run(
                |job| {
                    std::thread::sleep(nap(job));
                    job.rep
                },
                |w| *w,
                |job, warm| {
                    std::thread::sleep(nap(job));
                    (job.cell, warm)
                },
            );
            let want: Vec<(usize, u64)> = units.concat();
            assert_eq!(values, want, "job order at width {width}");
            let peak = pool.lock().peak_open;
            assert!(peak <= width, "{peak} snapshots alive on {width} workers");
        }
    }

    #[test]
    fn no_defense_run_matches_undefended_run_exactly() {
        let scale = Scale::smoke();
        let bare = RunSpec::<VivaldiSim> {
            fraction: 0.2,
            adversary: &plain(|| Box::new(VivaldiDisorder::default())),
            ..RunSpec::new(&scale, 5)
        };
        let defended = RunSpec {
            defense: Some(&|_| Box::new(NoDefense)),
            ..bare.clone()
        };
        let (bare, defended) = (run(&bare), run(&defended));
        // Byte-identical trajectories: the NoDefense fast path perturbs
        // nothing, so every recorded series matches exactly.
        assert_eq!(bare.final_errors, defended.final_errors);
        assert_eq!(bare.attack_series.points(), defended.attack_series.points());
        assert_eq!(bare.drift_series.points(), defended.drift_series.points());
        // That the fast path still inspects (label "none", accepted > 0) is
        // pinned by `no_defense_deployment_is_bit_identical_to_none_*`.
        let outcome = defended.defense.expect("defense was deployed");
        assert_eq!(outcome.rejected, 0);
        assert_eq!(outcome.bans, 0);
        assert!(bare.defense.is_none());
    }

    #[test]
    fn vivaldi_run_produces_complete_record() {
        let scale = Scale::smoke();
        let run = run(&RunSpec::<VivaldiSim> {
            fraction: 0.3,
            adversary: &plain(|| Box::new(VivaldiDisorder::default())),
            ..RunSpec::new(&scale, 7)
        });
        // `clean_ref` averages the last five warm-up samples: the schedule
        // must record that many.
        let (warmup, _, every) = VivaldiSim::schedule(&scale);
        assert!(warmup.div_ceil(every) >= 5);
        assert!(run.attack_series.len() >= 5);
        assert!(
            run.clean_ref > 0.0 && run.clean_ref < 2.0,
            "clean_ref={}",
            run.clean_ref
        );
        // The measured population is everyone but the injected 30 %.
        let attackers = (scale.nodes as f64 * 0.3).round() as usize;
        assert_eq!(run.final_errors.len(), scale.nodes - attackers);
        assert!(run.random_baseline > 10.0);
        assert!(run.layer_series.is_empty(), "Vivaldi is flat");
        // The attack must visibly degrade accuracy.
        let attacked = run.attack_series.tail_mean(3);
        assert!(
            attacked > 3.0 * run.clean_ref,
            "disorder had no effect: clean={} attacked={attacked}",
            run.clean_ref
        );
    }

    #[test]
    fn nps_run_produces_complete_record() {
        let scale = Scale::smoke();
        let run = run(&RunSpec::<NpsSim> {
            fraction: 0.3,
            adversary: &plain(|| Box::new(NpsSimpleDisorder)),
            ..RunSpec::new(&scale, 2006)
        });
        // NPS draws attackers from the ordinary (non-landmark) population,
        // and the measured population is the rest of it.
        let ordinary = scale.nodes - NpsConfig::default().landmarks;
        let attackers = (ordinary as f64 * 0.3).round() as usize;
        assert_eq!(run.final_errors.len(), ordinary - attackers);
        assert!(run.final_errors.iter().all(|e| e.is_finite()));
        assert!(!run.attack_series.is_empty() && !run.drift_series.is_empty());
        for series in [&run.attack_series, &run.drift_series] {
            assert!(series.points().iter().all(|&(_, v)| v.is_finite()));
        }
        assert!(run.clean_ref.is_finite() && run.clean_ref > 0.0);
        assert_eq!(run.layer_series.len(), NpsConfig::default().layers - 1);
    }

    // ---- One system-level property, two systems ------------------------
    //
    // Each property is written once over `System` and pinned by one test per
    // system. `*_state` is what the two runs of a property must agree on,
    // bit for bit.

    /// A clean system over its own King-like matrix of `nodes` nodes.
    fn small<S: System>(nodes: usize, seed: u64, config: S::Config) -> S {
        let seeds = SeedStream::new(seed);
        let matrix =
            KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topo"));
        S::build(matrix, config, &seeds)
    }

    fn small_vivaldi(nodes: usize, seed: u64) -> VivaldiSim {
        small(nodes, seed, VivaldiConfig::default())
    }

    fn small_nps(nodes: usize, seed: u64) -> NpsSim {
        let config = NpsConfig {
            landmarks: 12,
            refs_per_node: 12,
            space: Space::Euclidean(4),
            ..NpsConfig::default()
        };
        small(nodes, seed, config)
    }

    /// Every coordinate component, as bits.
    fn coord_bits(coords: &[Coord]) -> Vec<u64> {
        let components = coords.iter().flat_map(|c| c.vec.iter().chain([&c.height]));
        components.map(|v| v.to_bits()).collect()
    }

    /// Coordinates and error estimates as bits, counters and the clock.
    fn vivaldi_state(sim: &VivaldiSim) -> impl PartialEq + Debug {
        let errors: Vec<u64> = sim.errors().iter().map(|e| e.to_bits()).collect();
        let clock = sim.now_ms();
        (coord_bits(sim.coords()), errors, sim.counters(), clock)
    }

    /// Coordinates as bits, counters, joins, bans, the filter ledger and
    /// the clock.
    fn nps_state(sim: &NpsSim) -> impl PartialEq + Debug {
        let joined = sim.positioned().to_vec();
        let (banned, ledger, clock) = (sim.currently_banned(), sim.ledger(), sim.now_ms());
        (
            coord_bits(sim.coords()),
            sim.counters(),
            joined,
            banned,
            ledger,
            clock,
        )
    }

    /// Turn `fraction` of `sim` into all-honest attackers; returns them.
    fn inject_honest<S: System>(sim: &mut S, fraction: f64) -> Vec<usize> {
        let attackers = sim.pick_attackers(fraction);
        sim.inject(&attackers, Box::new(Honest));
        attackers
    }

    /// `sim` after `warm` clock units, a clone beside it and a fork of the
    /// clone advance bit-equal every `every` units, three times, and again
    /// over `attack` units after the same injection on both sides. Returns
    /// the original and the fork.
    fn assert_fork_advances_bit_equal<S: System, T: PartialEq + Debug>(
        mut sim: S,
        [warm, every, attack]: [u64; 3],
        state: impl Fn(&S) -> T,
    ) -> [S; 2] {
        sim.step(warm);
        // The harness's path: a snapshot beside the original, a fork of it.
        let snapshot = sim.clone();
        assert!(std::ptr::eq(sim.matrix(), snapshot.matrix()), "shared");
        let mut copy = snapshot.fork();
        drop(snapshot);
        assert!(!std::ptr::eq(sim.matrix(), copy.matrix()), "own matrix");
        assert!(sim.matrix() == copy.matrix());
        for _ in 0..3 {
            sim.step(every);
            copy.step(every);
            assert_eq!(state(&sim), state(&copy));
        }
        // The copied adversary stream picks the same attackers, and the
        // same injection on both sides keeps them equal.
        for s in [&mut sim, &mut copy] {
            let attackers = s.pick_attackers(0.2);
            s.inject(&attackers, Box::new(RandomLie));
            s.step(attack);
        }
        assert_eq!(state(&sim), state(&copy));
        [sim, copy]
    }

    #[test]
    fn a_fork_advances_bit_equal_to_its_original_vivaldi() {
        let [sim, _] =
            assert_fork_advances_bit_equal(small_vivaldi(40, 41), [60, 15, 30], vivaldi_state);
        assert!(sim.counters().lies_served > 0);
    }

    #[test]
    fn a_fork_advances_bit_equal_to_its_original_nps() {
        let [sim, _] = assert_fork_advances_bit_equal(small_nps(60, 43), [5, 2, 5], nps_state);
        assert!(sim.counters().lies_served > 0);
    }

    /// Fork `sim` after `warm` clock units and `install`.
    fn fork_after<S: System>(mut sim: S, warm: u64, install: impl FnOnce(&mut S)) {
        sim.step(warm);
        install(&mut sim);
        let _ = sim.fork();
    }

    #[test]
    #[should_panic(expected = "fork of a system an adversary")]
    fn fork_after_injection_panics_vivaldi() {
        fork_after(small_vivaldi(20, 42), 10, |s| {
            inject_honest(s, 0.2);
        });
    }

    #[test]
    #[should_panic(expected = "fork of a system an adversary")]
    fn fork_after_injection_panics_nps() {
        fork_after(small_nps(60, 44), 2, |s| {
            inject_honest(s, 0.2);
        });
    }

    /// Deploy the inert [`NoDefense`]: even it may not be forked.
    fn deploy_none<S: System>(sim: &mut S) {
        sim.deploy(Box::new(NoDefense), &S::Config::default());
    }

    #[test]
    #[should_panic(expected = "fork of a system an adversary")]
    fn fork_after_deployment_panics_vivaldi() {
        fork_after(small_vivaldi(20, 42), 10, deploy_none);
    }

    #[test]
    #[should_panic(expected = "fork of a system an adversary")]
    fn fork_after_deployment_panics_nps() {
        fork_after(small_nps(60, 44), 2, deploy_none);
    }

    #[test]
    #[should_panic(expected = "fork of a system an adversary")]
    fn fork_after_chaos_install_panics_vivaldi() {
        fork_after(small_vivaldi(20, 42), 10, |s| {
            s.install_chaos(ChaosPlan::none())
        });
    }

    #[test]
    #[should_panic(expected = "fork of a system an adversary")]
    fn fork_after_chaos_install_panics_nps() {
        fork_after(small_nps(60, 44), 2, |s| s.install_chaos(ChaosPlan::none()));
    }

    /// Two systems from `make()` advance `warm` clock units; `install` acts
    /// on the second only, `then` on both; after `window` more units the two
    /// agree on `state`. Returns `[bare, installed]`.
    fn assert_inert<S: System, T: PartialEq + Debug>(
        make: impl Fn() -> S,
        [warm, window]: [u64; 2],
        install: impl FnOnce(&mut S),
        then: impl Fn(&mut S),
        state: impl Fn(&S) -> T,
    ) -> [S; 2] {
        let [mut bare, mut installed] = [make(), make()];
        bare.step(warm);
        installed.step(warm);
        install(&mut installed);
        for sim in [&mut bare, &mut installed] {
            then(sim);
            sim.step(window);
        }
        assert_eq!(state(&bare), state(&installed));
        [bare, installed]
    }

    /// A [`NoDefense`] deployment, then an all-honest injection, leaves every
    /// bit of an undefended run in place — the sim-level contract behind the
    /// golden-figure guarantee — while every sample still goes through the
    /// defense's fast path and is tallied as accepted.
    fn assert_no_defense_is_inert<S: System, T: PartialEq + Debug>(
        make: impl Fn() -> S,
        clock: [u64; 2],
        state: impl Fn(&S) -> T,
    ) {
        let honest = |sim: &mut S| {
            inject_honest(sim, 0.3);
        };
        let [bare, defended] = assert_inert(make, clock, deploy_none, honest, state);
        assert!(bare.defense().is_none());
        let defense = defended.defense().expect("deployed");
        assert!(
            defense.stats().accepted > 0,
            "samples flowed through the fast path"
        );
        assert_eq!(defense.stats().rejected, 0);
    }

    #[test]
    fn no_defense_deployment_is_bit_identical_to_none_vivaldi() {
        assert_no_defense_is_inert(|| small_vivaldi(30, 11), [40, 40], vivaldi_state);
    }

    #[test]
    fn no_defense_deployment_is_bit_identical_to_none_nps() {
        assert_no_defense_is_inert(|| small_nps(60, 21), [5, 5], nps_state);
    }

    #[test]
    fn empty_chaos_plan_is_bit_identical_to_no_chaos_vivaldi() {
        let install = |sim: &mut VivaldiSim| sim.install_chaos(ChaosPlan::none());
        assert_inert(
            || small_vivaldi(30, 21),
            [40, 60],
            install,
            |_| {},
            vivaldi_state,
        );
    }

    #[test]
    fn empty_chaos_plan_is_bit_identical_to_no_chaos_nps() {
        let install = |sim: &mut NpsSim| sim.install_chaos(ChaosPlan::none());
        assert_inert(|| small_nps(60, 31), [5, 5], install, |_| {}, nps_state);
    }

    /// Answers every probe with the attacker's true state and a negative
    /// delay: the one lie the threat model forbids.
    struct Shortener;

    impl AttackStrategy for Shortener {
        fn respond(
            &mut self,
            probe: &Probe,
            _: &mut Collusion,
            view: &CoordView<'_>,
            _: &mut ChaCha12Rng,
        ) -> Option<Lie> {
            Some(Lie {
                coord: view.coords[probe.attacker].clone(),
                // NPS carries no error field and shows strategies none.
                error: view.errors.get(probe.attacker).copied().unwrap_or(0.0),
                delay_ms: -probe.rtt,
            })
        }
    }

    /// Two systems from `make()` advance `warm` clock units, turn the same
    /// 30 % malicious — all-honest in one, [`Shortener`]s in the other — and
    /// advance `window` more. Each shortened probe is clamped to its true
    /// RTT, so the two agree on the state `observe` returns beside its
    /// `[lies served, delays clamped]`, and every lie counts one clamp.
    fn assert_shortened_probes_are_clamped<S: System, T: PartialEq + Debug>(
        make: impl Fn() -> S,
        [warm, window]: [u64; 2],
        observe: impl Fn(&S) -> ([u64; 2], T),
    ) {
        let run = |adversary: Box<dyn AttackStrategy>| {
            let mut sim = make();
            sim.step(warm);
            let attackers = sim.pick_attackers(0.3);
            sim.inject(&attackers, adversary);
            sim.step(window);
            observe(&sim)
        };
        let (honest_lies, honest) = run(Box::new(Honest));
        let ([lies, clamped], shortened) = run(Box::new(Shortener));
        assert_eq!(honest_lies, [0, 0]);
        assert!(lies > 0, "no attacker was probed");
        assert_eq!(clamped, lies, "every lie is clamped");
        assert_eq!(honest, shortened, "a clamped sample is the honest one");
    }

    #[test]
    fn shortened_probes_are_clamped_to_the_true_rtt_vivaldi() {
        assert_shortened_probes_are_clamped(
            || small_vivaldi(30, 14),
            [40, 40],
            |sim| {
                let mut counters = sim.counters();
                let lies = [counters.lies_served, counters.delay_clamped];
                (counters.lies_served, counters.delay_clamped) = (0, 0);
                let errors: Vec<u64> = sim.errors().iter().map(|e| e.to_bits()).collect();
                (lies, (coord_bits(sim.coords()), errors, counters))
            },
        );
    }

    #[test]
    fn shortened_probes_are_clamped_to_the_true_rtt_nps() {
        assert_shortened_probes_are_clamped(
            || small_nps(60, 24),
            [5, 5],
            |sim| {
                let mut counters = sim.counters();
                let lies = [counters.lies_served, counters.delay_clamped];
                (counters.lies_served, counters.delay_clamped) = (0, 0);
                let bans = sim.currently_banned();
                (
                    lies,
                    (coord_bits(sim.coords()), counters, bans, sim.ledger()),
                )
            },
        );
    }

    /// `sim` after `warm` clock units, with 30 % turned into all-honest
    /// attackers, is no more than about twice as wrong (plus `slack`) after
    /// `window` more; returns the attackers.
    fn assert_honest_injection_is_harmless<S: System>(
        mut sim: S,
        [warm, window]: [u64; 2],
        slack: f64,
    ) -> Vec<usize> {
        // The measured population is whoever is still honest.
        let error = |sim: &S| {
            let plan = EvalPlan::with_params(
                &sim.eval_set(),
                512,
                256,
                &mut SeedStream::new(9).rng("plan"),
            );
            plan.avg_error(sim.coords(), sim.space(), sim.matrix())
        };
        sim.step(warm);
        let before = error(&sim);
        let attackers = inject_honest(&mut sim, 0.3);
        sim.step(window);
        let after = error(&sim);
        assert!(
            after < before * 2.0 + slack,
            "honest adversary degraded the system: {before} -> {after}"
        );
        attackers
    }

    #[test]
    fn honest_injection_is_harmless_vivaldi() {
        let attackers = assert_honest_injection_is_harmless(small_vivaldi(40, 3), [150, 100], 0.2);
        assert_eq!(attackers.len(), 12);
    }

    #[test]
    fn honest_injection_is_harmless_nps() {
        let sim = small_nps(80, 4);
        let landmarks = sim.landmark_ids();
        let attackers = assert_honest_injection_is_harmless(sim, [7, 7], 0.3);
        // 30 % of the 68 ordinary nodes; the 12 landmarks are never picked.
        assert_eq!(attackers.len(), 20);
        assert!(attackers.iter().all(|a| !landmarks.contains(a)));
    }
}
