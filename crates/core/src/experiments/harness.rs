//! The injection harness: converge a clean system, inject an attack, record.
//!
//! [`run`] is the paper's *injection* protocol (§5.2), written once: the
//! system first converges cleanly (warm-up), the malicious population is
//! then selected at random and activated — together with the defense and
//! the fault plan, when the [`RunSpec`] names them — and the honest
//! population is measured before and after. Every run is fully determined
//! by `(seed, rep)`.
//!
//! The protocol is generic over [`System`]; everything the Vivaldi and NPS
//! runs do differently is a named item of that trait, so the loop itself
//! has no per-system branch.

use crate::experiments::{run_grid, Scale};
use vcoord_attackkit::{AttackStrategy, Honest};
use vcoord_chaos::{ChaosCounters, ChaosPlan};
use vcoord_defense::{Defense, DefenseStrategy};
use vcoord_metrics::stats::mean;
use vcoord_metrics::{random_baseline_with, Confusion, EvalPlan, FilterLedger, TimeSeries};
use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::{Coord, Space};
use vcoord_topo::{KingLike, KingLikeConfig, RttMatrix};
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

/// The random-coordinate interval of the paper's worst-case baseline.
const RANDOM_RANGE: f64 = 50_000.0;

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
pub(crate) trait System: Sized + 'static {
    /// System parameters; `Default` is the paper's §5.2 configuration.
    type Config: Clone + Default + Sync;

    /// Label of the per-repetition seed stream.
    const REP_LABEL: &'static str;

    /// A fresh system over `matrix`.
    fn build(matrix: RttMatrix, config: Self::Config, seeds: &SeedStream) -> Self;

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

    /// Deploy `defense` on every honest node.
    fn deploy(&mut self, defense: Box<dyn DefenseStrategy>);

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

    fn build(matrix: RttMatrix, config: VivaldiConfig, seeds: &SeedStream) -> Self {
        VivaldiSim::new(matrix, config, seeds)
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
    fn deploy(&mut self, defense: Box<dyn DefenseStrategy>) {
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

    fn build(matrix: RttMatrix, config: NpsConfig, seeds: &SeedStream) -> Self {
        NpsSim::new(matrix, config, seeds)
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
    fn deploy(&mut self, defense: Box<dyn DefenseStrategy>) {
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
    pub fn new(scale: &'a Scale, seed: u64) -> Self {
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

/// Outcome of one injection run.
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

/// Run one injection experiment, with `threads` threads for each evaluation
/// sweep (a [`run_grid`] job passes its `eval_threads`).
pub(crate) fn run<S: System>(spec: &RunSpec<'_, S>, threads: usize) -> Run {
    let scale = spec.scale;
    let seeds = SeedStream::new(spec.seed).derive_indexed(S::REP_LABEL, spec.rep);
    let matrix =
        KingLike::new(KingLikeConfig::with_nodes(spec.nodes)).generate(&mut seeds.rng("topo"));
    let mut sim = S::build(matrix, spec.config.clone(), &seeds);
    let (warmup, window, every) = S::schedule(scale);
    let mut plan_rng = seeds.rng("eval-plan");
    let mut plan = |nodes: &[usize]| {
        EvalPlan::with_params(
            nodes,
            scale.eval_all_pairs_threshold,
            scale.eval_sample_peers,
            &mut plan_rng,
        )
    };
    let avg_error = |plan: &EvalPlan, sim: &S| {
        plan.avg_error_with(sim.coords(), sim.space(), sim.matrix(), threads)
    };

    // Warm-up: converge cleanly, recording the reference series.
    let fixed_plan = sim.warmup_nodes().map(|nodes| plan(&nodes));
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
                    avg_error(&plan(&joined), &sim)
                }
            }
        };
        clean_series.push(sim.now(), err);
    }
    let clean_ref = S::clean_ref(&clean_series);
    let ledgers_before = sim.ledgers();

    // Injection — and, in the same instant, defense deployment and fault
    // installation: the sweeps measure how a converged, defended system
    // absorbs a fresh attack.
    let attackers = sim.pick_attackers(spec.fraction);
    let (adversary, focus) = (spec.adversary)(&sim, &attackers, &seeds);
    sim.inject(&attackers, adversary);
    if let Some(build) = spec.defense {
        let defense = build(&sim);
        sim.deploy(defense);
    }
    if let Some(build) = spec.chaos {
        let faults = build(&sim);
        sim.install_chaos(faults);
    }

    // Honest-population evaluation plan (the paper measures victims).
    let plan_honest = plan(&sim.eval_set());
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

    let mut attack_series = TimeSeries::new();
    let mut drift_series = TimeSeries::new();
    let mut layer_series: Vec<(u8, TimeSeries)> =
        (1..depth).map(|l| (l as u8, TimeSeries::new())).collect();
    let mut focus_series = focus_indices.as_ref().map(|_| TimeSeries::new());
    let mut final_errors: Vec<f64> = Vec::new();
    let mut prev_coords: Vec<Coord> = honest.iter().map(|&i| sim.coords()[i].clone()).collect();
    let mut t = 0;
    while t < window {
        sim.step(every);
        t += every;
        let now = sim.now();
        let errs =
            plan_honest.per_node_errors_with(sim.coords(), sim.space(), sim.matrix(), threads);
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
    let random_baseline = random_baseline_with(
        &plan_honest,
        sim.space(),
        sim.matrix(),
        RANDOM_RANGE,
        &mut seeds.rng("random-baseline"),
        threads,
    );

    Run {
        attack_series,
        clean_ref,
        final_errors,
        layer_series,
        focus_series,
        drift_series,
        ledger: since(ledger, ledgers_before[0]),
        threshold_ledger: since(threshold_ledger, ledgers_before[1]),
        random_baseline,
        defense,
        chaos: sim.chaos_counters().copied(),
    }
}

/// Every repetition of every spec (`rep` = 0, 1, … up to the spec's
/// `scale.repetitions`) as one job grid on the worker pool: `runs[spec][rep]`.
/// A figure declares all its cells and calls this once.
pub(crate) fn repeat_all<S: System>(specs: &[RunSpec<'_, S>]) -> Vec<Vec<Run>> {
    let reps_of: Vec<usize> = specs.iter().map(|s| s.scale.repetitions).collect();
    run_grid(&reps_of, |job| {
        let spec = RunSpec {
            rep: job.rep,
            ..specs[job.cell].clone()
        };
        run(&spec, job.eval_threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::nps::NpsSimpleDisorder;
    use crate::attacks::vivaldi::VivaldiDisorder;
    use vcoord_defense::NoDefense;

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
        let (bare, defended) = (run(&bare, 1), run(&defended, 1));
        // Byte-identical trajectories: the NoDefense fast path perturbs
        // nothing, so every recorded series matches exactly.
        assert_eq!(bare.final_errors, defended.final_errors);
        assert_eq!(bare.attack_series.points(), defended.attack_series.points());
        assert_eq!(bare.drift_series.points(), defended.drift_series.points());
        // That the fast path still inspects (label "none", accepted > 0) is
        // pinned where the tally lives: vivaldi's
        // `no_defense_deployment_is_bit_identical_to_none`.
        let outcome = defended.defense.expect("defense was deployed");
        assert_eq!(outcome.rejected, 0);
        assert_eq!(outcome.bans, 0);
        assert!(bare.defense.is_none());
    }

    #[test]
    fn vivaldi_run_produces_complete_record() {
        let scale = Scale::smoke();
        let run = run(
            &RunSpec::<VivaldiSim> {
                fraction: 0.3,
                adversary: &plain(|| Box::new(VivaldiDisorder::default())),
                ..RunSpec::new(&scale, 7)
            },
            1,
        );
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
        let run = run(
            &RunSpec::<NpsSim> {
                fraction: 0.3,
                adversary: &plain(|| Box::new(NpsSimpleDisorder::default())),
                ..RunSpec::new(&scale, 2006)
            },
            1,
        );
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
}
