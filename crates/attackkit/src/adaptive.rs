//! Defense-aware adaptive strategies — the attacker side of the arms race.
//!
//! PR 4's defensekit closed the loop the paper opens in §6: filters that
//! reject implausible updates. The frog-boiling line of work (Chan-Tin et
//! al., and the eclipse-style adaptive adversaries of *Total Eclipse of the
//! Heart*) shows what happens next: static thresholds invite adversaries
//! who calibrate to them. This module supplies those adversaries:
//!
//! * [`EvadingFrogBoil`] — frog-boiling that modulates its per-round
//!   displacement to keep the vector mean pull each colluder exerts
//!   *strictly under* a modeled drift cap, advancing only when its victims
//!   have caught up enough to re-open headroom. The modeled cap is
//!   knowledge the arms race hands every serious adversary: the detector's
//!   algorithm and default thresholds are public (published code,
//!   observable behaviour), even when the concrete deployment tuned them —
//!   which is exactly what the `arms-evasion-roc` sweep probes by
//!   deploying caps the model did *not* anticipate.
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
use crate::strategies::{drifted, LIE_ERROR};
use crate::strategy::{AttackStrategy, CoordView, Lie, Probe};
use rand_chacha::ChaCha12Rng;
use vcoord_space::Coord;

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
/// * **Clean patience windows** — `CAP_LEARNER_PATIENCE` consecutive
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
    /// Largest sustained pull proven safe so far (ms).
    lo: f64,
    /// Smallest pull observed to draw a ban (`f64::INFINITY` until one).
    hi: f64,
    clean_rounds: u64,
    flagged: std::collections::HashSet<usize>,
}

/// Rounds without a fresh flag before a [`CapLearner`] accepts the
/// sustained pull as proven-safe. Sized past the drift cap's default
/// evidence window (16 residuals at roughly one inspection per round): a
/// shorter window would promote pulls the defense simply had not finished
/// judging.
const CAP_LEARNER_PATIENCE: u64 = 20;

impl Default for CapLearner {
    fn default() -> Self {
        CapLearner {
            lo: 0.0,
            hi: f64::INFINITY,
            clean_rounds: 0,
            flagged: std::collections::HashSet::new(),
        }
    }
}

impl CapLearner {
    /// One round passed; `sustained` is the worst pull the colluders held
    /// through it. After a full clean patience window that pull is
    /// proven safe and becomes the lower bracket.
    fn observe_round(&mut self, sustained: f64) {
        self.clean_rounds += 1;
        if self.clean_rounds < CAP_LEARNER_PATIENCE {
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
/// modeled drift cap so each colluder's estimated vector mean pull stays
/// strictly under it. [`EvadingFrogBoil::default`] takes the model on
/// faith; [`EvadingFrogBoil::learning`] revises it online.
///
/// The classic attack advances its offset every round regardless of
/// whether the victims keep up; the lag between offset and victim drift is
/// the sustained pull the drift cap bans on. This variant advances *only
/// when the estimated pull plus one more step still fits inside the
/// evasion budget (0.8 × modeled cap)*, and holds otherwise — victims
/// catch up, the gap re-closes, and the drift resumes. Against a deployed
/// cap at (or above) the modeled bound it is never banned, and the
/// integrated displacement is unbounded: slower than the classic frog, but
/// invisible to the detector that kills the classic frog outright.
#[derive(Debug, Clone)]
pub struct EvadingFrogBoil {
    /// Believed drift-cap bound: the largest sustained vector mean pull (ms
    /// per sample) the attacker believes a neighbor may exert before being
    /// banned. Starts at `MODELED_CAP_MS`; a learning evader revises it
    /// every round.
    cap_ms: f64,
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

/// Largest per-round offset advance of the evader, ms: matched budget with
/// `FrogBoiling::default()` (5 ms/round), the same detectability budget
/// as [`FrogBoiling::step`](crate::FrogBoiling::step).
const EVADER_STEP_MS: f64 = 5.0;
/// The evader's modeled drift cap, ms: the workspace-default drift cap
/// (the `def-roc` corner, 80 ms) — the adversary assumes the defender
/// deployed the published default.
const MODELED_CAP_MS: f64 = 80.0;
/// Fraction of the modeled cap the attacker occupies: headroom against the
/// model being slightly wrong (embedding noise, a re-tuned deployment).
const SAFETY_MARGIN: f64 = 0.8;
/// Honest victims sampled for the pull estimate each round.
const VICTIM_SAMPLE: usize = 32;
/// Colluders sampled for the worst-case pull estimate each round.
const ATTACKER_SAMPLE: usize = 16;

impl EvadingFrogBoil {
    /// Evade the modeled drift cap while *refining* it online: first-flag
    /// feedback and clean patience windows drive a [`CapLearner`] whose
    /// believed cap replaces the modeled one every round. Until the first
    /// flag the behaviour is exactly [`EvadingFrogBoil::default`]'s.
    pub fn learning() -> EvadingFrogBoil {
        EvadingFrogBoil {
            learner: Some(CapLearner::default()),
            ..EvadingFrogBoil::default()
        }
    }

    /// The pull budget the attacker allows itself: margin × modeled cap.
    fn evasion_budget_ms(&self) -> f64 {
        SAFETY_MARGIN * self.cap_ms
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
        EvadingFrogBoil {
            cap_ms: MODELED_CAP_MS,
            init_coords: Vec::new(),
            victims: Vec::new(),
            sampled_attackers: Vec::new(),
            learner: None,
            last_worst_pull: 0.0,
        }
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
        self.victims = strided_sample(&view.honest_nodes(), VICTIM_SAMPLE);
        self.sampled_attackers = strided_sample(attackers, ATTACKER_SAMPLE);
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
            self.cap_ms = learner.believed_cap(self.cap_ms);
        }
        // Advance only while one more step fits the budget. Otherwise hold:
        // let the dragged victims close the gap before pulling again. This
        // is the whole evasion — the classic frog would advance anyway and
        // let the lag integrate past the cap.
        if worst + EVADER_STEP_MS <= self.evasion_budget_ms() {
            collusion.advance_all(EVADER_STEP_MS);
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
            error: LIE_ERROR,
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
        self.cap_ms = learner.believed_cap(self.cap_ms);
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
    lo: f64,
    /// Upper bracket: a relative residual known (assumed) to be rejected.
    hi: f64,
    guess: f64,
    flagged_this_round: bool,
    responses_this_round: u32,
}

/// The threshold probe's opening bracket `(lo, hi)`, relative-residual
/// units: below the MAD filter's unconditional hard-reject bound (5.0), so
/// the boundary searched is the adaptive one under it.
const PROBE_BRACKET: (f64, f64) = (0.0, 4.0);

impl ThresholdProbe {
    /// Current estimate of the rejection boundary.
    pub fn estimate(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl Default for ThresholdProbe {
    fn default() -> Self {
        let (lo, hi) = PROBE_BRACKET;
        ThresholdProbe {
            lo,
            hi,
            guess: 0.5 * (lo + hi),
            flagged_this_round: false,
            responses_this_round: 0,
        }
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
            error: LIE_ERROR,
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

/// *Sleeper collusion*: honest for `SLEEPER_SLEEP_ROUNDS` while
/// reputation accrues, then attack in `SLEEPER_BURST_ROUNDS` bursts
/// separated by `SLEEPER_REST_ROUNDS` of honesty, timed to the defense's
/// decay windows.
///
/// Against a permanently-banning drift cap the first burst is the last —
/// every subsequent burst is pre-banned, and the attack is expensive
/// recon. Against a cap with reputation decay, each rest phase (sized to
/// the modeled half-life) buys the colluders re-admission, and the bursts
/// repeat indefinitely: this is the adversary that makes the
/// `arms-decay-tradeoff` sweep a real trade-off rather than a free win for
/// forgiveness.
#[derive(Debug, Clone, Default)]
pub struct SleeperCollusion {
    rounds: u64,
    in_burst: bool,
}

/// Per-round drift during a sleeper burst, ms (deliberately loud: the
/// sleeper relies on forgiveness, not stealth).
const SLEEPER_STEP: f64 = 25.0;
/// Rounds of honest behaviour after injection (reputation accrual): past
/// the drift cap's evidence window.
const SLEEPER_SLEEP_ROUNDS: u64 = 30;
/// Rounds of coherent drift per burst: roughly one evidence window.
const SLEEPER_BURST_ROUNDS: u64 = 12;
/// Honest rounds between bursts: the arms-decay-tradeoff's middle ban
/// half-life, so re-admission lands just before the next burst.
const SLEEPER_REST_ROUNDS: u64 = 60;

impl SleeperCollusion {
    /// The current phase of the cycle.
    pub fn phase(&self) -> SleeperPhase {
        if self.rounds < SLEEPER_SLEEP_ROUNDS {
            return SleeperPhase::Sleep;
        }
        let pos =
            (self.rounds - SLEEPER_SLEEP_ROUNDS) % (SLEEPER_BURST_ROUNDS + SLEEPER_REST_ROUNDS);
        if pos < SLEEPER_BURST_ROUNDS {
            SleeperPhase::Burst
        } else {
            SleeperPhase::Rest
        }
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
            // Fresh burst (detected as the phase edge): restart the drift
            // from the truth — resuming from the previous burst's
            // accumulated offset would open a huge instantaneous residual
            // that any magnitude filter kills.
            self.in_burst = true;
            for g in collusion.groups_mut() {
                g.offset = 0.0;
            }
        }
        collusion.advance_all(SLEEPER_STEP);
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
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
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
    fn evading_frog_budget_applies_margin() {
        let mut m = EvadingFrogBoil::default();
        assert_eq!(m.cap_ms, 80.0);
        assert!((m.evasion_budget_ms() - 64.0).abs() < 1e-12);
        // A learner's revised belief moves the budget with it.
        m.cap_ms = 40.0;
        assert!((m.evasion_budget_ms() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn evading_frog_advances_until_budget_then_holds() {
        let f = fixture(24, 6);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut coll = Collusion::new();
        let mut adv = EvadingFrogBoil::default();
        adv.inject(&[0, 1, 2, 3, 4, 5], &mut coll, &view_at(&f, 0), &mut rng);

        // Victims never move in this static fixture, so the estimated pull
        // tracks the raw offset: the throttle must stop the advance before
        // the 0.8 × 80 = 64 ms budget and hold from then on.
        let mut held = 0;
        for r in 1..=40 {
            let before = coll.groups()[0].offset;
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
            held += usize::from(coll.groups()[0].offset == before);
        }
        let offset = coll.groups()[0].offset;
        assert!(offset > 0.0, "the evader must still attack");
        let worst = adv.worst_estimated_pull(&coll, &view_at(&f, 40));
        assert!(
            worst < 80.0 * 0.8 + 1e-9,
            "estimated pull {worst:.1} must stay under the budget"
        );
        assert!(held > 0, "the throttle must have engaged");
        // And it still lies with the drifted coordinate, no delay.
        let lie = adv
            .respond(&probe(0, 10, 90.0), &mut coll, &view_at(&f, 40), &mut rng)
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
        let mut adv = EvadingFrogBoil::default();
        adv.inject(&[0, 1, 2, 3, 4, 5], &mut coll, &view_at(&f, 0), &mut rng);
        for r in 1..=40 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        let stalled = coll.groups()[0].offset;
        adv.on_round(&mut coll, &view_at(&f, 41), &mut rng);
        assert_eq!(coll.groups()[0].offset, stalled, "the throttle holds");
        // Teleport every honest victim along the collusion axis — the
        // dragged-population state the throttle is waiting for.
        let axis = coll.groups()[0].axis.clone();
        for i in 6..24 {
            f.space.apply(&mut f.coords[i], &axis, stalled);
        }
        for r in 42..=44 {
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
        let mut l = CapLearner::default();
        assert_eq!((l.lo, l.hi), (0.0, f64::INFINITY));
        // Unbounded above: the configured model stands.
        assert_eq!(l.believed_cap(80.0), 80.0);
        // A full patience window of clean rounds at 30 ms sustained:
        // proven safe, and not a round earlier.
        for _ in 1..CAP_LEARNER_PATIENCE {
            l.observe_round(30.0);
        }
        assert_eq!(l.lo, 0.0);
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
        let mut adv = EvadingFrogBoil::learning();
        adv.inject(&[0, 1, 2, 3, 4, 5], &mut coll, &view_at(&f, 0), &mut rng);
        for r in 1..=8 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        let offset_before = coll.groups()[0].offset;
        assert!(offset_before >= 40.0, "the mis-modeled evader advances");
        // A colluder gets banned: the bracket closes over the pull level
        // the colluders were exerting, and the budget collapses under it.
        adv.feedback(0, 10, true, &mut coll);
        let learned = adv.cap_ms;
        assert!(
            learned < 80.0,
            "believed cap must drop below the model: {learned}"
        );
        assert!(adv.evasion_budget_ms() < adv.last_worst_pull);
        // Subsequent rounds hold instead of feeding more colluders in.
        for r in 9..=14 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        assert_eq!(coll.groups()[0].offset, offset_before, "throttle holds");
        assert_eq!(adv.learner().unwrap().flagged, [0].into());
        // A fixed-model twin keeps advancing at the same point in time.
        let mut coll2 = Collusion::new();
        let mut fixed = EvadingFrogBoil::default();
        fixed.inject(&[0, 1, 2, 3, 4, 5], &mut coll2, &view_at(&f, 0), &mut rng);
        for r in 1..=14 {
            fixed.on_round(&mut coll2, &view_at(&f, r), &mut rng);
        }
        assert!(coll2.groups()[0].offset > offset_before);
    }

    #[test]
    fn threshold_probe_lie_encodes_the_guess() {
        let f = fixture(16, 2);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut coll = Collusion::new();
        let mut adv = ThresholdProbe::default();
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
        let mut adv = ThresholdProbe::default();
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
            let fresh =
                adv.phase() == SleeperPhase::Burst && coll.groups()[0].offset == SLEEPER_STEP;
            begun += usize::from(fresh);
        }
        begun
    }

    #[test]
    fn sleeper_cycles_through_phases_and_resets_bursts() {
        let (sleep, burst, rest) = (
            SLEEPER_SLEEP_ROUNDS,
            SLEEPER_BURST_ROUNDS,
            SLEEPER_REST_ROUNDS,
        );
        let f = fixture(20, 4);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut coll = Collusion::new();
        let mut adv = SleeperCollusion::default();
        adv.inject(&[0, 1, 2, 3], &mut coll, &view_at(&f, 0), &mut rng);
        assert_eq!(adv.phase(), SleeperPhase::Sleep);
        // Sleep: honest responses.
        for r in 1..sleep {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
            assert!(adv
                .respond(&probe(0, 10, 90.0), &mut coll, &view_at(&f, r), &mut rng)
                .is_none());
        }
        // The last sleep round begins the first burst (offset restarts
        // from 0, then advances by step).
        assert_eq!(
            bursts_begun(&mut adv, &mut coll, &f, sleep..=sleep, &mut rng),
            1
        );
        assert_eq!(adv.phase(), SleeperPhase::Burst);
        assert_eq!(coll.groups()[0].offset, SLEEPER_STEP);
        assert!(adv
            .respond(
                &probe(0, 10, 90.0),
                &mut coll,
                &view_at(&f, sleep),
                &mut rng
            )
            .is_some());
        // Through the burst and into rest: honest again.
        let rest_from = sleep + burst;
        let begun = bursts_begun(&mut adv, &mut coll, &f, sleep + 1..=rest_from, &mut rng);
        assert_eq!(begun, 0);
        assert_eq!(adv.phase(), SleeperPhase::Rest);
        assert!(adv
            .respond(
                &probe(0, 10, 90.0),
                &mut coll,
                &view_at(&f, rest_from),
                &mut rng
            )
            .is_none());
        // Next cycle: a fresh burst restarts the offset.
        let next = rest_from + rest;
        let begun = bursts_begun(&mut adv, &mut coll, &f, rest_from + 1..=next, &mut rng);
        assert_eq!(begun, 1);
        assert_eq!(adv.phase(), SleeperPhase::Burst);
        assert_eq!(
            coll.groups()[0].offset,
            SLEEPER_STEP,
            "burst restarts from truth"
        );
    }

    #[test]
    fn adaptive_strategies_never_delay_probes() {
        let f = fixture(20, 4);
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let attackers = [0usize, 1, 2, 3];
        let mut all: Vec<Box<dyn AttackStrategy>> = vec![
            Box::new(EvadingFrogBoil::default()),
            Box::new(ThresholdProbe::default()),
            Box::new(SleeperCollusion::default()),
        ];
        // Run to the sleeper's first burst round, so every strategy lies.
        let round = SLEEPER_SLEEP_ROUNDS;
        for (i, adv) in all.iter_mut().enumerate() {
            let mut coll = Collusion::new();
            adv.inject(&attackers, &mut coll, &view_at(&f, 0), &mut rng);
            for r in 1..=round {
                adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
            }
            if let Some(lie) = adv.respond(
                &probe(0, 10, 90.0),
                &mut coll,
                &view_at(&f, round),
                &mut rng,
            ) {
                assert_eq!(lie.delay_ms, 0.0, "strategy {i} delayed a probe");
            }
        }
    }
}
