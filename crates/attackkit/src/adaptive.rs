//! Defense-aware adaptive strategies — the attacker side of the arms race.
//!
//! PR 4's defensekit closed the loop the paper opens in §6: filters that
//! reject implausible updates. The frog-boiling line of work (Chan-Tin et
//! al., and the eclipse-style adaptive adversaries of *Total Eclipse of the
//! Heart*) shows what happens next: static thresholds invite adversaries
//! who calibrate to them. This module supplies those adversaries:
//!
//! * [`DefenseModel`] — the attacker's *belief* about the deployed defense
//!   (drift-cap bound, MAD sensitivity, trusted-baseline percentile). The
//!   model is knowledge the arms race hands every serious adversary: the
//!   detector's algorithm and default thresholds are public (published
//!   code, observable behaviour), even when the concrete deployment tuned
//!   them — which is exactly what the `arms-evasion-roc` sweep probes by
//!   deploying caps the model did *not* anticipate.
//! * [`EvadingFrogBoil`] — frog-boiling that modulates its per-round
//!   displacement to keep the vector mean pull each colluder exerts
//!   *strictly under* the modeled drift cap, advancing only when its
//!   victims have caught up enough to re-open headroom.
//! * [`ThresholdProbe`] — reconnaissance: binary-searches the deployed
//!   filter's rejection boundary on the relative residual, driven by the
//!   [`AttackStrategy::feedback`] channel (which lies got flagged).
//! * [`CapLearner`] — the same bracket-halving recon, turned inward:
//!   [`EvadingFrogBoil::learning`] refines its *own* modeled drift cap
//!   online from first-flag evidence, so a mis-modeled deployment stops
//!   being a mass ban and becomes a few sacrificial probes.
//! * [`SleeperCollusion`] — behaves honestly until reputation accrues,
//!   then attacks in bursts timed to the defense's forgiveness windows —
//!   the adversary that makes permanent-vs-decaying bans a real trade-off.
//!
//! All three honour the delay-only threat model and add no probe delay.

use crate::collusion::Collusion;
use crate::strategies::drifted;
use crate::strategy::{AttackStrategy, CoordView, Lie, Probe};
use rand_chacha::ChaCha12Rng;
use vcoord_space::Coord;

/// Reported error estimate driving a Vivaldi victim's sample weight toward
/// 1; ignored by NPS (same convention as the non-adaptive strategies).
const LIE_ERROR: f64 = 0.01;

/// The attacker's belief about the deployed defense.
///
/// Defaults mirror the workspace-default detectors (the `def-roc` corner
/// cap, the MAD filter's `k`, the trusted baseline's quantile): the
/// adversary assumes the defender deployed the published configuration.
/// [`DefenseModel::safety_margin`] is the fraction of the modeled bound the
/// attacker is willing to occupy — headroom against the model being
/// slightly wrong (embedding noise, a re-tuned deployment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseModel {
    /// Modeled drift-cap bound: largest sustained vector mean pull (ms per
    /// sample) a neighbor may exert before being banned.
    pub drift_cap_ms: f64,
    /// Modeled MAD-filter multiplier `k` (relative-residual units).
    pub mad_k: f64,
    /// Modeled trusted-baseline upper quantile.
    pub trusted_quantile: f64,
    /// Fraction of the modeled bound the attacker occupies (in `(0, 1]`).
    pub safety_margin: f64,
}

impl Default for DefenseModel {
    fn default() -> Self {
        DefenseModel {
            drift_cap_ms: 80.0,
            mad_k: 3.0,
            trusted_quantile: 0.9,
            safety_margin: 0.8,
        }
    }
}

impl DefenseModel {
    /// A model of a drift cap at `cap_ms` with the default margin.
    pub fn drift_cap(cap_ms: f64) -> DefenseModel {
        DefenseModel {
            drift_cap_ms: cap_ms,
            ..DefenseModel::default()
        }
    }

    /// The pull budget the attacker allows itself: `margin × modeled cap`.
    fn evasion_budget_ms(&self) -> f64 {
        self.safety_margin.clamp(0.0, 1.0) * self.drift_cap_ms
    }
}

/// Online drift-cap learner: turns the arms-race feedback channel into a
/// running bisection on the *deployed* drift cap, so an
/// [`EvadingFrogBoil`] whose modeled cap is wrong converges onto the real
/// one instead of feeding every colluder into a ban it believes cannot
/// happen.
///
/// Evidence comes in two kinds, mirroring [`ThresholdProbe`]'s bracket:
///
/// * **First flags** — a colluder's sample rejected for the first time.
///   The deployed cap sits at or below the pull the colluders were
///   exerting, so the upper bracket drops to that pull. Only the *first*
///   flag per colluder is informative: the drift cap bans permanently,
///   and every later rejection of the same colluder merely re-states the
///   old evidence.
/// * **Clean patience windows** — [`CapLearner::patience`] consecutive
///   rounds without a fresh flag. The pull sustained across the window
///   outlived the defense's evidence window without a ban, so the lower
///   bracket rises to it.
///
/// The believed cap is the bracket midpoint once a flag has bounded it
/// from above; until then the configured model stands, so a learner
/// facing a correctly-modeled (or laxer) deployment behaves exactly like
/// the fixed-model evader.
#[derive(Debug, Clone)]
pub struct CapLearner {
    /// Rounds without a fresh flag before the sustained pull is accepted
    /// as proven-safe. Sized past the drift cap's default evidence window
    /// (16 residuals at roughly one inspection per round): a shorter
    /// window would promote pulls the defense simply had not finished
    /// judging.
    pub patience: u64,
    /// Largest sustained pull proven safe so far (ms).
    lo: f64,
    /// Smallest pull observed to draw a ban (`f64::INFINITY` until one).
    hi: f64,
    clean_rounds: u64,
    flagged: std::collections::HashSet<usize>,
}

impl Default for CapLearner {
    fn default() -> Self {
        CapLearner::new(20)
    }
}

impl CapLearner {
    /// A fresh learner with the given patience window.
    pub fn new(patience: u64) -> CapLearner {
        CapLearner {
            patience: patience.max(1),
            lo: 0.0,
            hi: f64::INFINITY,
            clean_rounds: 0,
            flagged: std::collections::HashSet::new(),
        }
    }

    /// One round passed; `sustained` is the worst pull the colluders held
    /// through it. After a full clean patience window that pull is
    /// proven safe and becomes the lower bracket.
    fn observe_round(&mut self, sustained: f64) {
        self.clean_rounds += 1;
        if self.clean_rounds < self.patience {
            return;
        }
        self.clean_rounds = 0;
        if sustained.is_finite() && sustained > self.lo && sustained < self.hi {
            self.lo = sustained;
        }
    }

    /// A sample of `attacker` was rejected while the colluders exerted an
    /// estimated worst pull of `pull`. Returns whether this was a first
    /// flag (informative evidence) rather than a permanent ban re-firing.
    fn observe_flag(&mut self, attacker: usize, pull: f64) -> bool {
        if !self.flagged.insert(attacker) {
            return false;
        }
        self.clean_rounds = 0;
        if pull.is_finite() && pull > 0.0 && pull < self.hi {
            if pull <= self.lo {
                // Contradicts a pull we had promoted to proven-safe: the
                // estimate was noisy or the window had not filled. Hard
                // evidence (a ban) outranks soft evidence — re-learn the
                // floor.
                self.lo = 0.0;
            }
            self.hi = pull;
        }
        true
    }

    /// Current belief about the deployed cap: the bracket midpoint once a
    /// flag bounded it above, otherwise the configured model `fallback`.
    fn believed_cap(&self, fallback: f64) -> f64 {
        if self.hi.is_finite() {
            0.5 * (self.lo + self.hi)
        } else {
            fallback
        }
    }
}

/// Norm of the mean pull `attacker`'s current lie exerts on `victims`, as
/// the attacker itself can estimate it.
///
/// The RTT proxy is the distance between the *converged* coordinates the
/// attacker snapshotted at injection time (`init`): a converged embedding
/// predicts RTTs to within its relative error, the snapshot is immutable
/// (like the RTTs themselves), and — critically — the estimate tracks the
/// gap *closing* as dragged victims move: `predicted` uses the victims'
/// current coordinates, so the estimated residual decays exactly when the
/// real one does, re-opening headroom for the next advance.
fn estimated_pull_norm(
    view: &CoordView<'_>,
    init: &[Coord],
    attacker: usize,
    reported: &Coord,
    victims: &[usize],
) -> f64 {
    let dims = reported.vec.len();
    let mut acc = vec![0.0f64; dims + 1];
    let mut counted = 0usize;
    for &v in victims {
        let rtt_est = view.space.distance(&init[v], &init[attacker]);
        let predicted = view.space.distance(&view.coords[v], reported);
        let residual = rtt_est - predicted;
        // Pull direction: u(observer − reported) under the height-model
        // norm (heights add), matching the defense's bookkeeping. Two
        // passes over the components — norm first, then accumulate scaled
        // directly into `acc` — so the per-victim loop allocates nothing.
        let observer = &view.coords[v];
        let mut sq = 0.0;
        for (a, b) in observer.vec.iter().zip(&reported.vec) {
            let c = a - b;
            sq += c * c;
        }
        let height = observer.height + reported.height;
        let norm = sq.sqrt() + height;
        if norm > f64::EPSILON {
            let s = residual / norm;
            for (slot, (a, b)) in acc.iter_mut().zip(observer.vec.iter().zip(&reported.vec)) {
                *slot += (a - b) * s;
            }
            acc[dims] += height * s;
        }
        counted += 1;
    }
    if counted == 0 {
        return 0.0;
    }
    let n = counted as f64;
    acc.iter().map(|a| (a / n) * (a / n)).sum::<f64>().sqrt()
}

/// Up to `cap` ids evenly strided across `ids` (deterministic coverage
/// without an RNG draw).
fn strided_sample(ids: &[usize], cap: usize) -> Vec<usize> {
    if ids.len() <= cap {
        return ids.to_vec();
    }
    let stride = ids.len() as f64 / cap as f64;
    (0..cap)
        .map(|k| ids[(k as f64 * stride) as usize])
        .collect()
}

/// *Evading frog-boiling*: the classic coherent drift, throttled against a
/// [`DefenseModel`] so each colluder's estimated vector mean pull stays
/// strictly under the modeled drift cap.
///
/// The classic attack advances its offset every round regardless of
/// whether the victims keep up; the lag between offset and victim drift is
/// the sustained pull the drift cap bans on. This variant advances *only
/// when the estimated pull plus one more step still fits inside the
/// [`DefenseModel`]'s evasion budget (margin × modeled cap)*, and holds
/// otherwise — victims
/// catch up, the gap re-closes, and the drift resumes. Against a deployed
/// cap at (or above) the modeled bound it is never banned, and the
/// integrated displacement is unbounded: slower than the classic frog, but
/// invisible to the detector that kills the classic frog outright.
#[derive(Debug, Clone)]
pub struct EvadingFrogBoil {
    /// Largest per-round offset advance, ms — the same detectability
    /// budget knob as [`FrogBoiling::step`](crate::FrogBoiling::step), for
    /// matched-budget comparisons.
    pub step: f64,
    /// The attacker's belief about the deployed defense.
    pub model: DefenseModel,
    /// Error estimate reported with every lie.
    pub lie_error: f64,
    /// Honest victims sampled for the pull estimate each round.
    pub victim_sample: usize,
    /// Colluders sampled for the worst-case pull estimate each round.
    pub attacker_sample: usize,
    /// Converged coordinates snapshotted at injection (the RTT proxy).
    init_coords: Vec<Coord>,
    /// The sampled honest victims (fixed at injection).
    victims: Vec<usize>,
    /// The sampled colluders (fixed at injection).
    sampled_attackers: Vec<usize>,
    /// Online cap learner; `None` means the model is taken on faith.
    learner: Option<CapLearner>,
    /// Worst pull estimate from the latest round — the evidence level a
    /// first flag is attributed to (feedback carries no coordinate view).
    last_worst_pull: f64,
}

impl EvadingFrogBoil {
    /// Evade `model` while drifting up to `step` ms per round.
    pub fn new(step: f64, model: DefenseModel) -> EvadingFrogBoil {
        EvadingFrogBoil {
            step,
            model,
            lie_error: LIE_ERROR,
            victim_sample: 32,
            attacker_sample: 16,
            init_coords: Vec::new(),
            victims: Vec::new(),
            sampled_attackers: Vec::new(),
            learner: None,
            last_worst_pull: 0.0,
        }
    }

    /// Evade `model` while *refining* its drift cap online: first-flag
    /// feedback and clean patience windows drive a [`CapLearner`] whose
    /// believed cap replaces [`DefenseModel::drift_cap_ms`] every round.
    /// Until the first flag the behaviour is exactly [`EvadingFrogBoil::new`]'s.
    pub fn learning(step: f64, model: DefenseModel) -> EvadingFrogBoil {
        EvadingFrogBoil {
            learner: Some(CapLearner::default()),
            ..EvadingFrogBoil::new(step, model)
        }
    }

    /// The online cap learner, when built via [`EvadingFrogBoil::learning`].
    pub fn learner(&self) -> Option<&CapLearner> {
        self.learner.as_ref()
    }

    /// Worst estimated per-colluder mean pull at the current offset, as
    /// the attacker computes it (exposed for the evasion property tests).
    pub fn worst_estimated_pull(&self, collusion: &Collusion, view: &CoordView<'_>) -> f64 {
        let mut worst = 0.0f64;
        for &a in &self.sampled_attackers {
            let Some(group) = collusion.group_for(a) else {
                continue;
            };
            let reported = drifted(view, a, &group.axis, group.offset);
            let pull = estimated_pull_norm(view, &self.init_coords, a, &reported, &self.victims);
            worst = worst.max(pull);
        }
        worst
    }
}

impl Default for EvadingFrogBoil {
    fn default() -> Self {
        // Matched budget with FrogBoiling::default() (5 ms/round) against
        // the workspace-default drift cap model.
        EvadingFrogBoil::new(5.0, DefenseModel::default())
    }
}

impl AttackStrategy for EvadingFrogBoil {
    fn inject(
        &mut self,
        attackers: &[usize],
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        collusion.form_groups(attackers, 1, view, rng);
        // Snapshot the converged map: the attacker's immutable RTT proxy.
        self.init_coords = view.coords.to_vec();
        self.victims = strided_sample(&view.honest_nodes(), self.victim_sample.max(1));
        self.sampled_attackers = strided_sample(attackers, self.attacker_sample.max(1));
    }

    fn on_round(
        &mut self,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
        let worst = self.worst_estimated_pull(collusion, view);
        self.last_worst_pull = worst;
        if let Some(learner) = self.learner.as_mut() {
            // No fresh flag reached `feedback` since the last round (a
            // flag would have zeroed the clean streak), so this round
            // counts toward the patience window at the sustained pull.
            learner.observe_round(worst);
            self.model.drift_cap_ms = learner.believed_cap(self.model.drift_cap_ms);
        }
        // Advance only while one more step fits the budget. Otherwise hold:
        // let the dragged victims close the gap before pulling again. This
        // is the whole evasion — the classic frog would advance anyway and
        // let the lag integrate past the cap.
        if worst + self.step <= self.model.evasion_budget_ms() {
            collusion.advance_all(self.step, f64::INFINITY);
            if vcoord_obs::enabled() {
                let offset = collusion.groups().first().map_or(0.0, |g| g.offset);
                vcoord_obs::event(
                    vcoord_obs::metric_id!("attack.offset_advance"),
                    view.round,
                    vcoord_obs::NO_NODE,
                    offset,
                );
            }
        }
    }

    fn respond(
        &mut self,
        probe: &Probe,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let group = collusion.group_for(probe.attacker)?;
        let coord = drifted(view, probe.attacker, &group.axis, group.offset);
        Some(Lie {
            coord,
            error: self.lie_error,
            delay_ms: 0.0,
        })
    }

    fn feedback(
        &mut self,
        attacker: usize,
        _victim: usize,
        flagged: bool,
        _collusion: &mut Collusion,
    ) {
        if !flagged {
            return;
        }
        let Some(learner) = self.learner.as_mut() else {
            return;
        };
        learner.observe_flag(attacker, self.last_worst_pull);
        self.model.drift_cap_ms = learner.believed_cap(self.model.drift_cap_ms);
    }

    fn label(&self) -> &'static str {
        if self.learner.is_some() {
            "evading-frog-learn"
        } else {
            "evading-frog"
        }
    }
}

/// *Threshold probe*: reconnaissance that binary-searches the deployed
/// filter's rejection boundary on the relative residual.
///
/// Each probe response claims a position exactly `rtt · (1 + guess)` away
/// from the victim's current coordinate (which the knowledge oracle
/// provides), so the victim-side relative residual of the lie *is* the
/// current guess. The [`AttackStrategy::feedback`] channel reports which
/// lies were flagged; once per round the bracket halves — flagged rounds
/// lower the upper bound, clean rounds raise the lower one. After `k`
/// informative rounds the boundary is pinned to `(hi − lo) / 2^k`.
#[derive(Debug, Clone)]
pub struct ThresholdProbe {
    /// Lower bracket: a relative residual known (assumed) to pass.
    pub lo: f64,
    /// Upper bracket: a relative residual known (assumed) to be rejected.
    pub hi: f64,
    /// Error estimate reported with every lie.
    pub lie_error: f64,
    guess: f64,
    flagged_this_round: bool,
    responses_this_round: u32,
}

impl ThresholdProbe {
    /// Search the boundary inside `[lo, hi]` (relative-residual units).
    pub fn new(lo: f64, hi: f64) -> ThresholdProbe {
        let lo = lo.max(0.0);
        let hi = hi.max(lo + f64::EPSILON);
        ThresholdProbe {
            lo,
            hi,
            lie_error: LIE_ERROR,
            guess: 0.5 * (lo + hi),
            flagged_this_round: false,
            responses_this_round: 0,
        }
    }

    /// Current estimate of the rejection boundary.
    pub fn estimate(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl Default for ThresholdProbe {
    fn default() -> Self {
        // Bracket below the MAD filter's unconditional hard-reject bound
        // (5.0): the interesting boundary is the adaptive one under it.
        ThresholdProbe::new(0.0, 4.0)
    }
}

impl AttackStrategy for ThresholdProbe {
    fn on_round(
        &mut self,
        _collusion: &mut Collusion,
        _view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
        if self.responses_this_round == 0 {
            return; // no feedback arrived: keep the bracket
        }
        if self.flagged_this_round {
            self.hi = self.guess;
        } else {
            self.lo = self.guess;
        }
        self.guess = 0.5 * (self.lo + self.hi);
        self.flagged_this_round = false;
        self.responses_this_round = 0;
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        // Claim a position at distance rtt · (1 + guess) from the victim,
        // along the victim→attacker ray: the victim-side relative residual
        // |predicted − rtt| / rtt of this lie is exactly `guess`.
        let victim = &view.coords[probe.victim];
        let truth = &view.coords[probe.attacker];
        let dir = view.space.direction(truth, victim, rng);
        let mut coord = victim.clone();
        view.space
            .apply(&mut coord, &dir, probe.rtt * (1.0 + self.guess));
        Some(Lie {
            coord,
            error: self.lie_error,
            delay_ms: 0.0,
        })
    }

    fn feedback(
        &mut self,
        _attacker: usize,
        _victim: usize,
        flagged: bool,
        _collusion: &mut Collusion,
    ) {
        self.responses_this_round += 1;
        self.flagged_this_round |= flagged;
    }

    fn label(&self) -> &'static str {
        "threshold-probe"
    }
}

/// Where a [`SleeperCollusion`] attacker currently is in its cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleeperPhase {
    /// Accruing reputation: every probe answered honestly.
    Sleep,
    /// Attacking: coherent drift at full step.
    Burst,
    /// Recovering: honest again, waiting out the defense's forgiveness
    /// window.
    Rest,
}

/// *Sleeper collusion*: honest until reputation accrues, then attack in
/// bursts timed to the defense's decay windows.
///
/// Against a permanently-banning drift cap the first burst is the last —
/// every subsequent burst is pre-banned, and the attack is expensive
/// recon. Against a cap with reputation decay, each rest phase (sized to
/// the modeled half-life) buys the colluders re-admission, and the bursts
/// repeat indefinitely: this is the adversary that makes the
/// `arms-decay-tradeoff` sweep a real trade-off rather than a free win for
/// forgiveness.
#[derive(Debug, Clone)]
pub struct SleeperCollusion {
    /// Rounds of honest behaviour after injection (reputation accrual).
    pub sleep_rounds: u64,
    /// Rounds of coherent drift per burst.
    pub burst_rounds: u64,
    /// Honest rounds between bursts — size this to the modeled ban
    /// half-life so re-admission lands just before the next burst.
    pub rest_rounds: u64,
    /// Per-round drift during a burst, ms (deliberately loud: the sleeper
    /// relies on forgiveness, not stealth).
    pub step: f64,
    /// Error estimate reported with every lie.
    pub lie_error: f64,
    rounds: u64,
    in_burst: bool,
}

impl SleeperCollusion {
    /// Sleep, then cycle `burst_rounds` of drift with `rest_rounds` of
    /// honesty.
    pub fn new(sleep_rounds: u64, burst_rounds: u64, rest_rounds: u64) -> SleeperCollusion {
        SleeperCollusion {
            sleep_rounds,
            burst_rounds: burst_rounds.max(1),
            rest_rounds: rest_rounds.max(1),
            step: 25.0,
            lie_error: LIE_ERROR,
            rounds: 0,
            in_burst: false,
        }
    }

    /// The current phase of the cycle.
    pub fn phase(&self) -> SleeperPhase {
        if self.rounds < self.sleep_rounds {
            return SleeperPhase::Sleep;
        }
        let pos = (self.rounds - self.sleep_rounds) % (self.burst_rounds + self.rest_rounds);
        if pos < self.burst_rounds {
            SleeperPhase::Burst
        } else {
            SleeperPhase::Rest
        }
    }
}

impl Default for SleeperCollusion {
    fn default() -> Self {
        // Sleep past the drift cap's evidence window, burst for roughly
        // one window, rest for the arms-decay-tradeoff's middle half-life.
        SleeperCollusion::new(30, 12, 60)
    }
}

impl AttackStrategy for SleeperCollusion {
    fn inject(
        &mut self,
        attackers: &[usize],
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        collusion.form_groups(attackers, 1, view, rng);
    }

    fn on_round(
        &mut self,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
        self.rounds += 1;
        if self.phase() != SleeperPhase::Burst {
            self.in_burst = false;
            return;
        }
        if !self.in_burst {
            // Fresh burst (detected as the phase edge, so a zero-sleep
            // config counts its first burst too): restart the drift from
            // the truth — resuming from the previous burst's accumulated
            // offset would open a huge instantaneous residual that any
            // magnitude filter kills.
            self.in_burst = true;
            for g in collusion.groups_mut() {
                g.offset = 0.0;
            }
        }
        collusion.advance_all(self.step, f64::INFINITY);
        if vcoord_obs::enabled() {
            let offset = collusion.groups().first().map_or(0.0, |g| g.offset);
            vcoord_obs::event(
                vcoord_obs::metric_id!("attack.offset_advance"),
                view.round,
                vcoord_obs::NO_NODE,
                offset,
            );
        }
    }

    fn respond(
        &mut self,
        probe: &Probe,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        if self.phase() != SleeperPhase::Burst {
            return None; // honest: reputation accrual / recovery
        }
        let group = collusion.group_for(probe.attacker)?;
        let coord = drifted(view, probe.attacker, &group.axis, group.offset);
        Some(Lie {
            coord,
            error: self.lie_error,
            delay_ms: 0.0,
        })
    }

    fn label(&self) -> &'static str {
        "sleeper-collusion"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Protocol;
    use rand::SeedableRng;
    use vcoord_space::Space;

    struct Fixture {
        space: Space,
        coords: Vec<Coord>,
        malicious: Vec<bool>,
    }

    fn fixture(n: usize, attackers: usize) -> Fixture {
        let space = Space::Euclidean(2);
        let coords: Vec<Coord> = (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                Coord::from_vec(vec![120.0 * a.cos(), 120.0 * a.sin()])
            })
            .collect();
        let mut malicious = vec![true; attackers];
        malicious.extend(vec![false; n - attackers]);
        Fixture {
            space,
            coords,
            malicious,
        }
    }

    fn view_at(f: &Fixture, round: u64) -> CoordView<'_> {
        CoordView {
            space: &f.space,
            coords: &f.coords,
            errors: &[],
            layer: &[],
            malicious: &f.malicious,
            is_ref: &[],
            round,
            now_ms: round * 1000,
            params: Protocol::default(),
        }
    }

    fn probe(attacker: usize, victim: usize, rtt: f64) -> Probe {
        Probe {
            attacker,
            victim,
            rtt,
        }
    }

    #[test]
    fn defense_model_budget_applies_margin() {
        let m = DefenseModel::default();
        assert_eq!(m.drift_cap_ms, 80.0);
        assert!((m.evasion_budget_ms() - 64.0).abs() < 1e-12);
        let tight = DefenseModel::drift_cap(40.0);
        assert!((tight.evasion_budget_ms() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn evading_frog_advances_until_budget_then_holds() {
        let f = fixture(24, 6);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut coll = Collusion::new();
        let mut adv = EvadingFrogBoil::new(10.0, DefenseModel::drift_cap(50.0));
        adv.inject(&[0, 1, 2, 3, 4, 5], &mut coll, &view_at(&f, 0), &mut rng);

        // Victims never move in this static fixture, so the estimated pull
        // tracks the raw offset: the throttle must stop the advance before
        // the 0.8 × 50 = 40 ms budget and hold from then on.
        let mut held = 0;
        for r in 1..=20 {
            let before = coll.groups()[0].offset;
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
            held += usize::from(coll.groups()[0].offset == before);
        }
        let offset = coll.groups()[0].offset;
        assert!(offset > 0.0, "the evader must still attack");
        let worst = adv.worst_estimated_pull(&coll, &view_at(&f, 20));
        assert!(
            worst < 50.0 * 0.8 + 1e-9,
            "estimated pull {worst:.1} must stay under the budget"
        );
        assert!(held > 0, "the throttle must have engaged");
        // And it still lies with the drifted coordinate, no delay.
        let lie = adv
            .respond(&probe(0, 10, 90.0), &mut coll, &view_at(&f, 20), &mut rng)
            .unwrap();
        assert_eq!(lie.delay_ms, 0.0);
        let moved = f.space.distance(&lie.coord, &f.coords[0]);
        assert!((moved - offset).abs() < 1e-9);
    }

    #[test]
    fn evading_frog_resumes_when_victims_catch_up() {
        let mut f = fixture(24, 6);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut coll = Collusion::new();
        let mut adv = EvadingFrogBoil::new(10.0, DefenseModel::drift_cap(50.0));
        adv.inject(&[0, 1, 2, 3, 4, 5], &mut coll, &view_at(&f, 0), &mut rng);
        for r in 1..=10 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        let stalled = coll.groups()[0].offset;
        // Teleport every honest victim along the collusion axis — the
        // dragged-population state the throttle is waiting for.
        let axis = coll.groups()[0].axis.clone();
        for i in 6..24 {
            f.space.apply(&mut f.coords[i], &axis, stalled);
        }
        for r in 11..=13 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        assert!(
            coll.groups()[0].offset > stalled,
            "headroom re-opened: the drift must resume ({} -> {})",
            stalled,
            coll.groups()[0].offset
        );
    }

    #[test]
    fn cap_learner_bisects_toward_the_deployed_cap() {
        let mut l = CapLearner::new(2);
        assert_eq!((l.lo, l.hi), (0.0, f64::INFINITY));
        // Unbounded above: the configured model stands.
        assert_eq!(l.believed_cap(80.0), 80.0);
        // Two clean rounds at 30 ms sustained: proven safe.
        l.observe_round(30.0);
        l.observe_round(30.0);
        assert_eq!((l.lo, l.hi).0, 30.0);
        // First flag at a worst pull of 70 ms bounds the cap above.
        assert!(l.observe_flag(0, 70.0));
        assert_eq!((l.lo, l.hi), (30.0, 70.0));
        assert_eq!(l.believed_cap(80.0), 50.0);
        // The same colluder re-flagging (permanent ban) is not evidence.
        assert!(!l.observe_flag(0, 55.0));
        assert_eq!((l.lo, l.hi), (30.0, 70.0));
        // A different colluder's first flag tightens the top.
        assert!(l.observe_flag(1, 60.0));
        assert_eq!((l.lo, l.hi), (30.0, 60.0));
        assert_eq!(l.believed_cap(80.0), 45.0);
        assert_eq!(l.flagged.len(), 2);
        // A flag below the proven-safe floor resets the floor: hard
        // evidence outranks soft.
        assert!(l.observe_flag(2, 25.0));
        assert_eq!((l.lo, l.hi), (0.0, 25.0));
    }

    #[test]
    fn learning_evader_cuts_its_budget_on_first_flag_feedback() {
        let f = fixture(24, 6);
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let mut coll = Collusion::new();
        // Modeled cap 80 ms: budget 64. Suppose the deployment is tighter.
        let mut adv = EvadingFrogBoil::learning(10.0, DefenseModel::drift_cap(80.0));
        adv.inject(&[0, 1, 2, 3, 4, 5], &mut coll, &view_at(&f, 0), &mut rng);
        for r in 1..=4 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        let offset_before = coll.groups()[0].offset;
        assert!(offset_before >= 40.0, "the mis-modeled evader advances");
        // A colluder gets banned: the bracket closes over the pull level
        // the colluders were exerting, and the budget collapses under it.
        adv.feedback(0, 10, true, &mut coll);
        let learned = adv.model.drift_cap_ms;
        assert!(
            learned < 80.0,
            "believed cap must drop below the model: {learned}"
        );
        assert!(adv.model.evasion_budget_ms() < adv.last_worst_pull);
        // Subsequent rounds hold instead of feeding more colluders in.
        for r in 5..=10 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        assert_eq!(coll.groups()[0].offset, offset_before, "throttle holds");
        assert_eq!(adv.learner().unwrap().flagged, [0].into());
        // A fixed-model twin keeps advancing at the same point in time.
        let mut coll2 = Collusion::new();
        let mut fixed = EvadingFrogBoil::new(10.0, DefenseModel::drift_cap(80.0));
        fixed.inject(&[0, 1, 2, 3, 4, 5], &mut coll2, &view_at(&f, 0), &mut rng);
        for r in 1..=10 {
            fixed.on_round(&mut coll2, &view_at(&f, r), &mut rng);
        }
        assert!(coll2.groups()[0].offset > offset_before);
    }

    #[test]
    fn threshold_probe_lie_encodes_the_guess() {
        let f = fixture(16, 2);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut coll = Collusion::new();
        let mut adv = ThresholdProbe::new(0.0, 2.0);
        let rtt = 80.0;
        let lie = adv
            .respond(&probe(0, 5, rtt), &mut coll, &view_at(&f, 0), &mut rng)
            .unwrap();
        let predicted = f.space.distance(&f.coords[5], &lie.coord);
        let rel = (predicted - rtt).abs() / rtt;
        assert!(
            (rel - adv.estimate()).abs() < 1e-9,
            "lie must realize the current guess: rel {rel} vs guess {}",
            adv.estimate()
        );
    }

    #[test]
    fn threshold_probe_binary_search_converges() {
        // Synthetic boundary: the defense flags any relative residual
        // above 0.73. Drive respond/feedback/on_round cycles and check the
        // estimate lands within 10 % of the truth.
        let f = fixture(16, 2);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut coll = Collusion::new();
        let mut adv = ThresholdProbe::new(0.0, 4.0);
        let boundary = 0.73;
        let rtt = 100.0;
        for round in 0..30u64 {
            let lie = adv
                .respond(&probe(0, 5, rtt), &mut coll, &view_at(&f, round), &mut rng)
                .unwrap();
            let predicted = f.space.distance(&f.coords[5], &lie.coord);
            let rel = (predicted - rtt).abs() / rtt;
            adv.feedback(0, 5, rel > boundary, &mut coll);
            adv.on_round(&mut coll, &view_at(&f, round + 1), &mut rng);
        }
        let est = adv.estimate();
        assert!(
            (est - boundary).abs() / boundary < 0.10,
            "estimate {est:.3} must be within 10% of {boundary}"
        );
        // Each informative round halves the bracket: at least 20 of them.
        assert!(adv.hi - adv.lo <= 4.0 / f64::from(1 << 20));
    }

    /// Runs rounds `rounds` and counts the bursts begun in them: a fresh
    /// burst restarts the drift from the truth, so its first round leaves
    /// the offset at exactly one step.
    fn bursts_begun(
        adv: &mut SleeperCollusion,
        coll: &mut Collusion,
        f: &Fixture,
        rounds: std::ops::RangeInclusive<u64>,
        rng: &mut ChaCha12Rng,
    ) -> usize {
        let mut begun = 0;
        for r in rounds {
            adv.on_round(coll, &view_at(f, r), rng);
            let fresh = adv.phase() == SleeperPhase::Burst && coll.groups()[0].offset == adv.step;
            begun += usize::from(fresh);
        }
        begun
    }

    #[test]
    fn sleeper_cycles_through_phases_and_resets_bursts() {
        let f = fixture(20, 4);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut coll = Collusion::new();
        let mut adv = SleeperCollusion::new(5, 3, 4);
        adv.inject(&[0, 1, 2, 3], &mut coll, &view_at(&f, 0), &mut rng);
        assert_eq!(adv.phase(), SleeperPhase::Sleep);
        // Sleep: honest responses.
        for r in 1..=4 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
            assert!(adv
                .respond(&probe(0, 10, 90.0), &mut coll, &view_at(&f, r), &mut rng)
                .is_none());
        }
        // Round 5 begins the first burst (offset restarts from 0, then
        // advances by step).
        assert_eq!(bursts_begun(&mut adv, &mut coll, &f, 5..=5, &mut rng), 1);
        assert_eq!(adv.phase(), SleeperPhase::Burst);
        assert_eq!(coll.groups()[0].offset, 25.0);
        assert!(adv
            .respond(&probe(0, 10, 90.0), &mut coll, &view_at(&f, 5), &mut rng)
            .is_some());
        // Through the burst and into rest: honest again.
        assert_eq!(bursts_begun(&mut adv, &mut coll, &f, 6..=8, &mut rng), 0);
        assert_eq!(adv.phase(), SleeperPhase::Rest);
        assert!(adv
            .respond(&probe(0, 10, 90.0), &mut coll, &view_at(&f, 8), &mut rng)
            .is_none());
        // Next cycle: a fresh burst restarts the offset.
        assert_eq!(bursts_begun(&mut adv, &mut coll, &f, 9..=12, &mut rng), 1);
        assert_eq!(adv.phase(), SleeperPhase::Burst);
        assert_eq!(coll.groups()[0].offset, 25.0, "burst restarts from truth");
    }

    #[test]
    fn sleeper_with_zero_sleep_counts_its_first_burst() {
        let f = fixture(20, 4);
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut coll = Collusion::new();
        let mut adv = SleeperCollusion::new(0, 4, 4);
        adv.inject(&[0, 1, 2, 3], &mut coll, &view_at(&f, 0), &mut rng);
        let first = bursts_begun(&mut adv, &mut coll, &f, 1..=1, &mut rng);
        assert_eq!(first, 1, "the first burst must be counted");
        assert_eq!(adv.phase(), SleeperPhase::Burst);
        assert_eq!(coll.groups()[0].offset, 25.0);
        // Through rest and into the second burst.
        assert_eq!(bursts_begun(&mut adv, &mut coll, &f, 2..=9, &mut rng), 1);
    }

    #[test]
    fn adaptive_strategies_never_delay_probes() {
        let f = fixture(20, 4);
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let attackers = [0usize, 1, 2, 3];
        let mut all: Vec<Box<dyn AttackStrategy>> = vec![
            Box::new(EvadingFrogBoil::default()),
            Box::new(ThresholdProbe::default()),
            Box::new(SleeperCollusion::new(0, 4, 4)),
        ];
        for adv in all.iter_mut() {
            let mut coll = Collusion::new();
            adv.inject(&attackers, &mut coll, &view_at(&f, 0), &mut rng);
            adv.on_round(&mut coll, &view_at(&f, 1), &mut rng);
            if let Some(lie) =
                adv.respond(&probe(0, 10, 90.0), &mut coll, &view_at(&f, 1), &mut rng)
            {
                assert_eq!(lie.delay_ms, 0.0, "{} delayed a probe", adv.label());
            }
        }
    }

    #[test]
    fn labels_are_distinct_from_the_classic_families() {
        let labels = [
            EvadingFrogBoil::default().label(),
            EvadingFrogBoil::learning(5.0, DefenseModel::default()).label(),
            ThresholdProbe::default().label(),
            SleeperCollusion::default().label(),
            crate::FrogBoiling::default().label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "duplicate labels: {labels:?}");
    }
}
