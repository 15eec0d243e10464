//! Concrete defense strategies.
//!
//! Residual-based filters and their blind spot:
//!
//! * [`ResidualOutlier`] — MAD outlier rejection on the relative
//!   RTT-vs-predicted residual, thresholded against the observer's own
//!   recent residual population. Catches loud lies (disorder, inflation)
//!   instantly; *misses consistent liars* — a frog-boiling colluder keeps
//!   each individual residual inside the honest noise band.
//! * [`EwmaChangePoint`] — EWMA change-point detection on each neighbor's
//!   residual series. Catches *behavioral shifts* (a node that starts
//!   lying, oscillation's swings); converges onto a *steady* lie and
//!   learns it as the baseline — the same blind spot, reached differently.
//!
//! Structural checks that do not depend on residual magnitude:
//!
//! * [`DriftCap`] — caps the mean *signed* residual a neighbor may sustain:
//!   honest neighbors are zero-mean (embedding noise cancels), while any
//!   consistent directional liar — however small each lie — must keep a
//!   persistent signed gap open, because that gap *is* the pull that drags
//!   victims (a Vivaldi sample moves its victim by `Cc · w · (rtt −
//!   predicted)`). This is the detector that finally catches frog-boiling.
//! * [`TriangleCheck`] — geometric consistency of a reported coordinate
//!   against the observer's other recent neighbors: claimed pairwise
//!   separations must fit inside measured RTT sums (and outside RTT
//!   differences), or the claimed geometry is physically impossible.
//! * [`TrustedBaseline`] — the paper-style verified set: a small set of
//!   trusted nodes (landmarks, surveyors) calibrates the honest residual
//!   distribution, and everyone else is held to it.
//!
//! Plus the null strategy [`NoDefense`] (the engine's zero-cost fast path)
//! and the diagnostic [`Dampener`] (a uniform [`Verdict::Dampen`], used by
//! the `Dampen(1.0) ≡ Accept` bit-identity tests).

use crate::history::slot;
use crate::strategy::{median_in_place, DefenseScratch, DefenseStrategy, UpdateView, Verdict};

/// Reputation-decay configuration for [`DriftCap`]: a half-life on flag
/// weights and the forgiveness threshold under which a banned node is
/// reinstated.
///
/// Each cap trip adds `1.0` to the offender's flag weight; the weight then
/// halves every [`DriftDecay::half_life_rounds`]. A banned node is
/// reinstated — its samples judged normally again, a `Reinstate` event
/// emitted through [`DefenseStrategy::drain_reputation`] — once **both**
/// hold:
///
/// * its decayed flag weight fell below [`DriftDecay::reinstate_below`]
///   (first offense: exactly one half-life after the ban), and
/// * its current evidence window has *healed*: the vector mean pull over
///   the full window is back under the cap. A node that kept attacking
///   while banned keeps its window hot (the engine records every inspected
///   sample, rejected or not) and is never reinstated, no matter how far
///   its weight decayed — forgiveness requires demonstrated honesty, not
///   just elapsed time.
///
/// Repeat offenders escalate: a re-ban adds another `1.0` on top of the
/// not-yet-decayed remainder, so the weight takes proportionally longer to
/// fall below the threshold each time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDecay {
    /// Rounds for a flag weight to halve.
    pub half_life_rounds: f64,
    /// Reinstate once the decayed weight falls below this (and the window
    /// healed). `0.5` means one half-life per unit of flag weight.
    pub reinstate_below: f64,
}

impl DriftDecay {
    /// Halve flag weights every `half_life_rounds`, reinstating below 0.5.
    pub fn new(half_life_rounds: f64) -> DriftDecay {
        DriftDecay {
            half_life_rounds: half_life_rounds.max(1e-9),
            reinstate_below: 0.5,
        }
    }
}

/// The null strategy: every sample accepted through the engine's fast
/// path. Deploying it is byte-identical to deploying nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDefense;

impl DefenseStrategy for NoDefense {
    fn inspect_update(&mut self, _view: &UpdateView<'_>, _s: &mut DefenseScratch) -> Verdict {
        Verdict::Accept
    }

    fn is_passthrough(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "none"
    }
}

/// Uniformly dampen every sample by a fixed factor — a diagnostic strategy
/// for the `Dampen(1.0) ≡ Accept` identity and for studying graduated
/// trust, not a detector.
#[derive(Debug, Clone, Copy)]
pub struct Dampener {
    /// The factor handed to [`Verdict::Dampen`] for every sample.
    pub factor: f64,
}

impl Dampener {
    /// Dampen every update by `factor`.
    pub fn new(factor: f64) -> Dampener {
        Dampener { factor }
    }
}

impl DefenseStrategy for Dampener {
    fn inspect_update(&mut self, _view: &UpdateView<'_>, _s: &mut DefenseScratch) -> Verdict {
        Verdict::Dampen(self.factor)
    }

    fn label(&self) -> &'static str {
        "dampener"
    }
}

/// MAD outlier rejection on the relative residual, against the observer's
/// recent residual population (all neighbors).
///
/// A sample is rejected when its relative residual exceeds
/// `median + k · 1.4826 · MAD` of the observer's recent window *and* an
/// absolute floor (so a tightly-converged observer does not start flagging
/// normal noise). Scale-free and self-calibrating — and structurally blind
/// to consistent liars, whose residuals sit inside the honest band.
#[derive(Debug, Clone)]
pub struct ResidualOutlier {
    /// Minimum recent samples before the adaptive threshold arms.
    pub min_samples: usize,
    /// MAD multiplier `k`.
    pub k: f64,
    /// Absolute floor on the rejection threshold (relative-residual units).
    pub floor: f64,
    /// Unconditional sanity bound, active from the first sample: a
    /// relative residual above this is rejected even before the window
    /// arms. Without it, a dozen pre-arming inflation lies (each pulling
    /// its victim hundreds of ms) wreck the embedding before the adaptive
    /// threshold exists.
    pub hard_reject: f64,
}

impl ResidualOutlier {
    /// Arm after `min_samples` observations, reject above `k` scaled MADs.
    pub fn new(min_samples: usize, k: f64) -> ResidualOutlier {
        ResidualOutlier {
            min_samples,
            k,
            floor: 0.5,
            hard_reject: 5.0,
        }
    }
}

impl Default for ResidualOutlier {
    fn default() -> Self {
        ResidualOutlier::new(12, 3.0)
    }
}

impl DefenseStrategy for ResidualOutlier {
    fn inspect_update(&mut self, view: &UpdateView<'_>, scratch: &mut DefenseScratch) -> Verdict {
        if view.rel_residual() > self.hard_reject {
            return Verdict::Reject;
        }
        if view.recent.samples().len() < self.min_samples {
            return Verdict::Accept;
        }
        scratch.sort.clear();
        scratch
            .sort
            .extend(view.recent.samples().iter().map(|s| s.rel_residual));
        let Some(median) = median_in_place(&mut scratch.sort) else {
            return Verdict::Accept;
        };
        scratch.aux.clear();
        scratch
            .aux
            .extend(scratch.sort.iter().map(|r| (r - median).abs()));
        let mad = median_in_place(&mut scratch.aux).unwrap_or(0.0);
        // 1.4826 · MAD estimates σ for Gaussian noise; the tiny floor keeps
        // a degenerate (all-identical) window from arming a zero threshold.
        let threshold = (median + self.k * (1.4826 * mad).max(0.02)).max(self.floor);
        if view.rel_residual() > threshold {
            Verdict::Reject
        } else {
            Verdict::Accept
        }
    }

    fn label(&self) -> &'static str {
        "mad-outlier"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    mean: f64,
    var: f64,
    n: u64,
}

/// EWMA change-point detection on each neighbor's relative-residual
/// series (aggregated across observers).
///
/// Each neighbor gets an exponentially-weighted mean/variance of its
/// residuals; a sample deviating more than `k·σ` from the learned mean is
/// rejected and *not* absorbed into the baseline. Flags behavioral
/// change — but a steady lie present from the detector's first sight is
/// learned as normal, which is exactly why residual-based filters miss
/// consistent liars.
#[derive(Debug, Clone)]
pub struct EwmaChangePoint {
    /// EWMA smoothing factor (weight of the newest sample).
    pub alpha: f64,
    /// Rejection threshold in learned standard deviations.
    pub k: f64,
    /// Minimum samples per neighbor before the detector arms.
    pub min_samples: u64,
    /// Floor on the learned σ (relative-residual units), so a frozen
    /// series cannot arm a zero-width band.
    pub sigma_floor: f64,
    /// Per neighbor, indexed by node id.
    state: Vec<Ewma>,
}

impl EwmaChangePoint {
    /// Smooth with `alpha`, reject beyond `k` learned standard deviations.
    pub fn new(alpha: f64, k: f64) -> EwmaChangePoint {
        EwmaChangePoint {
            alpha,
            k,
            min_samples: 8,
            sigma_floor: 0.1,
            state: Vec::new(),
        }
    }
}

impl Default for EwmaChangePoint {
    fn default() -> Self {
        EwmaChangePoint::new(0.2, 4.0)
    }
}

impl DefenseStrategy for EwmaChangePoint {
    fn inspect_update(&mut self, view: &UpdateView<'_>, _s: &mut DefenseScratch) -> Verdict {
        let rel = view.rel_residual();
        let e = slot(&mut self.state, view.remote);
        if e.n >= self.min_samples
            && (rel - e.mean).abs() > self.k * e.var.sqrt().max(self.sigma_floor)
        {
            // Anomalies are rejected and excluded from the baseline, so a
            // detected shift keeps being detected instead of being learned.
            return Verdict::Reject;
        }
        let d = rel - e.mean;
        e.mean += self.alpha * d;
        e.var = (1.0 - self.alpha) * (e.var + self.alpha * d * d);
        e.n += 1;
        Verdict::Accept
    }

    fn label(&self) -> &'static str {
        "ewma-cpd"
    }
}

/// Cap on the drift velocity a neighbor may impose: the norm of the
/// **vector** mean pull it sustains over its recent window.
///
/// `Cc · w · (rtt − predicted) · u(observer − reported)` is the
/// displacement one Vivaldi sample inflicts, so a neighbor's mean pull
/// vector, held open round after round, is precisely the drift velocity
/// it feeds its victims (NPS: the persistent directional bias on the
/// Simplex fit). The mean is taken *vectorially*
/// (`RemoteHistory::mean_pull_norm`):
/// an honest-but-unembeddable hub (positive scalar residual to everyone —
/// the access-link/height effect) pulls its observers radially, the
/// directions cancel, and the cap stays silent; frog-boiling must pull
/// every victim along the shared collusion axis, so its mean survives at
/// full gap magnitude — the integrated lag, not the size of any one
/// step, is what trips this cap. The cap is also its own floor: a drag
/// whose lag settles below `max_drag_ms` is tolerated by construction
/// (at the default 80 ms, victims follow at ≈ 2.4 ms/tick, so a colluder
/// stepping below ~3 ms/round is flagged late or not at all — see
/// `arms-evasion-roc` and EXPERIMENTS.md, "Drift-cap detection floor").
/// Tripped neighbors are banned outright.
#[derive(Debug, Clone)]
pub struct DriftCap {
    /// Largest sustained mean-pull norm tolerated, ms per sample.
    pub max_drag_ms: f64,
    /// Minimum samples in a neighbor's window before the cap arms.
    pub min_samples: u64,
    /// Reputation decay / un-banning. `None` (the default) keeps today's
    /// permanent bans: the no-decay path is bitwise-identical to the
    /// pre-decay `DriftCap` (proven by the golden-figure suite and the
    /// infinite-half-life equivalence property test).
    pub decay: Option<DriftDecay>,
    /// Whether each node is banned right now, indexed by node id.
    banned: Vec<bool>,
    /// Per-node decayed flag weight and the round it was last decayed to,
    /// indexed by node id (a never-flagged node weighs zero as of any
    /// round). Only consulted when `decay` is configured.
    weights: Vec<(f64, u64)>,
    ban_events: Vec<usize>,
    reinstate_events: Vec<usize>,
}

impl DriftCap {
    /// Ban neighbors sustaining more than `max_drag_ms` mean pull.
    ///
    /// The cap arms only once a neighbor's full residual window
    /// (16 samples) has
    /// accumulated: a node that is momentarily mispositioned (just
    /// rebooted, unlucky neighbor draw) exerts a large but *transient*
    /// drag that its own honest updates erase within a few rounds — only
    /// a liar sustains the pull across a whole window.
    pub fn new(max_drag_ms: f64) -> DriftCap {
        DriftCap {
            max_drag_ms,
            min_samples: crate::history::RESIDUAL_WINDOW as u64,
            decay: None,
            banned: Vec::new(),
            weights: Vec::new(),
            ban_events: Vec::new(),
            reinstate_events: Vec::new(),
        }
    }

    /// [`DriftCap::new`] with reputation decay: bans are forgiven once the
    /// flag weight decays under the threshold *and* the node's evidence
    /// window has healed (see [`DriftDecay`]).
    pub fn with_decay(max_drag_ms: f64, decay: DriftDecay) -> DriftCap {
        DriftCap {
            decay: Some(decay),
            ..DriftCap::new(max_drag_ms)
        }
    }

    /// Whether `node` is banned right now (a reinstated node is not).
    pub(crate) fn is_banned(&self, node: usize) -> bool {
        self.banned.get(node).copied().unwrap_or(false)
    }

    /// Decayed flag weight of `node` as of the last round it was touched.
    pub(crate) fn flag_weight(&self, node: usize) -> f64 {
        self.weights.get(node).map_or(0.0, |&(w, _)| w)
    }

    /// Decay `node`'s flag weight to `round` and return it.
    fn decayed_weight(&mut self, node: usize, round: u64) -> f64 {
        let Some(decay) = self.decay else {
            return self.flag_weight(node);
        };
        let entry = slot(&mut self.weights, node);
        let elapsed = round.saturating_sub(entry.1) as f64;
        if elapsed > 0.0 {
            // Incremental exponential decay composes exactly:
            // 0.5^(a+b) = 0.5^a · 0.5^b.
            entry.0 *= 0.5f64.powf(elapsed / decay.half_life_rounds);
            entry.1 = round;
        }
        entry.0
    }
}

impl Default for DriftCap {
    fn default() -> Self {
        // Converged honest residuals are ±tens of ms zero-mean, so their
        // window means settle near zero; an attacker must hold a gap of
        // ~step / (share · Cc · w) ≈ hundreds of ms to drag the population.
        // 80 ms is the ROC corner of the `def-roc` sweep: full detection of
        // the default frog-boiling attack with near-zero false positives
        // (honest laggards being dragged by the attack sit below it).
        DriftCap::new(80.0)
    }
}

impl DefenseStrategy for DriftCap {
    fn inspect_update(&mut self, view: &UpdateView<'_>, _s: &mut DefenseScratch) -> Verdict {
        let h = view.remote_history;
        if self.is_banned(view.remote) {
            let Some(decay) = self.decay else {
                return Verdict::Reject; // permanent bans (the legacy path)
            };
            if view.provenance.is_quarantined() {
                // Readmission-lease evidence: the node is on loan, not
                // forgiven. The engine already keeps leased samples out of
                // the history windows; refusing to even *evaluate* the
                // healed/weight condition here means a lease can never be
                // the inspection that springs a reinstatement.
                return Verdict::Reject;
            }
            let weight = self.decayed_weight(view.remote, view.round);
            // The engine keeps recording every inspected sample, so the
            // window under the ban reflects the node's *current* conduct:
            // healed means a full window of honest-looking reports.
            let healed = h.samples() >= self.min_samples
                && h.mean_pull_norm()
                    .is_some_and(|drag| drag <= self.max_drag_ms);
            if weight < decay.reinstate_below && healed {
                self.banned[view.remote] = false;
                self.reinstate_events.push(view.remote);
                // Fall through to normal judging: the healed window
                // accepts, and any relapse re-bans with escalated weight.
            } else {
                return Verdict::Reject;
            }
        }
        if h.samples() >= self.min_samples {
            if let Some(drag) = h.mean_pull_norm() {
                if drag > self.max_drag_ms {
                    *slot(&mut self.banned, view.remote) = true;
                    self.ban_events.push(view.remote);
                    if self.decay.is_some() {
                        let w = self.decayed_weight(view.remote, view.round);
                        self.weights[view.remote] = (w + 1.0, view.round);
                    }
                    return Verdict::Reject;
                }
            }
        }
        Verdict::Accept
    }

    fn drain_reputation(&mut self, banned: &mut Vec<usize>, reinstated: &mut Vec<usize>) {
        banned.append(&mut self.ban_events);
        reinstated.append(&mut self.reinstate_events);
    }

    fn label(&self) -> &'static str {
        "drift-cap"
    }
}

/// Triangle-inequality consistency of a reported coordinate against the
/// observer's other recent neighbors.
///
/// For each recent neighbor `k` with reported coordinate `x_k` and measured
/// RTT `r_k`, the current report `x_j` (measured RTT `r_j`) must satisfy
/// both physical bounds up to `slack` and `margin_ms`:
///
/// * `d(x_j, x_k) ≤ slack · (r_j + r_k) + margin` — the claimed separation
///   cannot exceed any real path through the observer;
/// * `d(x_j, x_k) ≥ (|r_j − r_k| − margin) / slack` — nor undercut the RTT
///   difference a real triangle forces.
///
/// Inflation blows the upper bound; deflation (claiming a central position
/// while honest RTTs stay long) trips the lower one. A sample is rejected
/// when a majority of comparisons are violations.
#[derive(Debug, Clone)]
pub struct TriangleCheck {
    /// Multiplicative tolerance on both bounds.
    pub slack: f64,
    /// Additive tolerance, ms (absorbs jitter and embedding noise).
    pub margin_ms: f64,
    /// Minimum comparisons before a verdict is reached.
    pub min_checks: usize,
    /// Violation share above which the sample is rejected.
    pub max_violation_share: f64,
}

impl TriangleCheck {
    /// Check against recent neighbors with the given tolerances.
    pub fn new(slack: f64, margin_ms: f64) -> TriangleCheck {
        TriangleCheck {
            slack,
            margin_ms,
            min_checks: 4,
            max_violation_share: 0.5,
        }
    }
}

impl Default for TriangleCheck {
    fn default() -> Self {
        TriangleCheck::new(1.3, 30.0)
    }
}

impl DefenseStrategy for TriangleCheck {
    fn inspect_update(&mut self, view: &UpdateView<'_>, _s: &mut DefenseScratch) -> Verdict {
        let mut checks = 0usize;
        let mut violations = 0usize;
        let (mine, my_height) = (&view.reported_coord.vec, view.reported_coord.height);
        for (s, theirs, their_height) in view.recent.iter() {
            if s.remote == view.remote {
                continue;
            }
            let d = view
                .space
                .distance_flat(mine, my_height, theirs, their_height);
            let upper = self.slack * (view.rtt + s.rtt) + self.margin_ms;
            let lower = ((view.rtt - s.rtt).abs() - self.margin_ms).max(0.0) / self.slack;
            if d > upper || d < lower {
                violations += 1;
            }
            checks += 1;
        }
        if checks >= self.min_checks && violations as f64 > self.max_violation_share * checks as f64
        {
            Verdict::Reject
        } else {
            Verdict::Accept
        }
    }

    fn label(&self) -> &'static str {
        "triangle"
    }
}

/// The paper-style verified set: residuals observed from a configured
/// trusted population calibrate what "honest" looks like, and untrusted
/// reports are rejected when they exceed a multiple of that baseline's
/// upper quantile.
///
/// Trusted nodes (landmarks, surveyor infrastructure) are always accepted
/// — trust is an *assumption* here, exactly as in the paper's NPS threat
/// model ("landmarks are highly secure machines that never cheat"); a
/// compromised trusted node poisons the baseline, which the harness can
/// measure by including trusted ids in the attacker draw.
#[derive(Debug, Clone)]
pub struct TrustedBaseline {
    /// Rejection threshold as a multiple of the trusted upper quantile.
    pub slack: f64,
    /// Upper quantile of the trusted residual window used as the baseline.
    pub quantile: f64,
    /// Minimum trusted observations before the filter arms.
    pub min_trusted: usize,
    /// Whether each node is trusted, indexed by node id.
    trusted: Vec<bool>,
    window: Vec<f64>,
    cursor: usize,
    /// Quantile of the current window, recomputed only when a trusted
    /// sample mutates it — the untrusted majority of inspections would
    /// otherwise re-sort an unchanged window every time.
    cached_baseline: Option<f64>,
}

/// Trusted residual-window length.
const TRUSTED_WINDOW: usize = 64;

impl TrustedBaseline {
    /// Trust `ids`; hold everyone else to their observed residuals.
    pub fn new<I: IntoIterator<Item = usize>>(ids: I) -> TrustedBaseline {
        let mut trusted = Vec::new();
        for id in ids {
            *slot(&mut trusted, id) = true;
        }
        TrustedBaseline {
            slack: 3.0,
            quantile: 0.9,
            min_trusted: 8,
            trusted,
            window: Vec::new(),
            cursor: 0,
            cached_baseline: None,
        }
    }

    /// Whether `node` is in the configured trusted set.
    pub(crate) fn is_trusted(&self, node: usize) -> bool {
        self.trusted.get(node).copied().unwrap_or(false)
    }
}

impl DefenseStrategy for TrustedBaseline {
    fn inspect_update(&mut self, view: &UpdateView<'_>, scratch: &mut DefenseScratch) -> Verdict {
        let rel = view.rel_residual();
        if self.is_trusted(view.remote) {
            if self.window.len() < TRUSTED_WINDOW {
                self.window.push(rel);
            } else {
                self.window[self.cursor] = rel;
                self.cursor = (self.cursor + 1) % TRUSTED_WINDOW;
            }
            self.cached_baseline = None; // window changed: recompute lazily
            return Verdict::Accept;
        }
        if self.window.len() < self.min_trusted {
            return Verdict::Accept;
        }
        let baseline = match self.cached_baseline {
            Some(b) => b,
            None => {
                scratch.sort.clear();
                scratch.sort.extend_from_slice(&self.window);
                scratch
                    .sort
                    .sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let idx = ((scratch.sort.len() - 1) as f64 * self.quantile).round() as usize;
                let b = scratch.sort[idx].max(0.05);
                self.cached_baseline = Some(b);
                b
            }
        };
        if rel > self.slack * baseline {
            Verdict::Reject
        } else {
            Verdict::Accept
        }
    }

    fn label(&self) -> &'static str {
        "trusted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Defense, Update};
    use crate::strategy::Provenance;
    use vcoord_space::{Coord, Space};

    /// Drive `defense` with `n` samples from `remote` whose residual is
    /// fixed: the observer sits at the origin, the remote reports a
    /// coordinate at distance `predicted` and the probe measures `rtt`.
    fn feed(
        defense: &mut Defense,
        space: &Space,
        observer: usize,
        remote: usize,
        predicted: f64,
        rtt: f64,
        rounds: std::ops::Range<u64>,
    ) -> Vec<Verdict> {
        let me = Coord::origin(2);
        let them = Coord::from_vec(vec![predicted, 0.0]);
        rounds
            .map(|r| {
                defense.inspect(
                    space,
                    &me,
                    Update {
                        observer,
                        remote,
                        reported_coord: &them,
                        reported_error: 1.0,
                        rtt,
                        round: r,
                        now_ms: r * 1000,
                        provenance: Provenance::Normal,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn mad_outlier_rejects_loud_lie_and_spares_noise() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(ResidualOutlier::default()));
        // Build an honest residual population: predicted 100 vs rtt ~100±10
        // from several neighbors.
        for (k, rtt) in [95.0, 105.0, 98.0, 102.0, 110.0, 92.0].iter().enumerate() {
            feed(&mut d, &space, 0, k + 1, 100.0, *rtt, 0..3);
        }
        assert_eq!(d.stats().rejected, 0, "honest noise must pass");
        // A disorder-style lie: claims 5000 away, measured 100.
        let v = feed(&mut d, &space, 0, 9, 5000.0, 100.0, 18..19);
        assert_eq!(v, vec![Verdict::Reject]);
        // A consistent-ish small lie stays under the band — the blind spot.
        let v = feed(&mut d, &space, 0, 10, 120.0, 100.0, 19..20);
        assert_eq!(v, vec![Verdict::Accept]);
    }

    #[test]
    fn ewma_flags_change_point_but_learns_steady_lie() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(EwmaChangePoint::default()));
        // A neighbor with a stable small residual…
        let v = feed(&mut d, &space, 0, 1, 100.0, 95.0, 0..12);
        assert!(v.iter().all(|v| *v == Verdict::Accept));
        // …suddenly shifts behaviour: flagged.
        let v = feed(&mut d, &space, 0, 1, 400.0, 95.0, 12..13);
        assert_eq!(v, vec![Verdict::Reject], "change point missed");
        // A liar that was *always* lying steadily is learned as baseline.
        let v = feed(&mut d, &space, 0, 2, 300.0, 100.0, 13..30);
        assert!(
            v.iter().all(|v| *v == Verdict::Accept),
            "steady lies are the residual family's blind spot: {v:?}"
        );
    }

    #[test]
    fn drift_cap_bans_persistent_drag_and_spares_zero_mean_noise() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(DriftCap::new(40.0)));
        // Honest neighbor: alternating ±25 ms residuals (zero mean).
        let me = Coord::origin(2);
        for r in 0..20u64 {
            let rtt = if r % 2 == 0 { 125.0 } else { 75.0 };
            let them = Coord::from_vec(vec![100.0, 0.0]);
            let v = d.inspect(
                &space,
                &me,
                Update {
                    observer: 0,
                    remote: 1,
                    reported_coord: &them,
                    reported_error: 1.0,
                    rtt,
                    round: r,
                    now_ms: r * 1000,
                    provenance: Provenance::Normal,
                },
            );
            assert_eq!(v, Verdict::Accept, "zero-mean noise tripped the cap");
        }
        // Frog-style colluder: persistent −100 ms gap (predicted 200 vs
        // measured 100) — small relative residual, but directional.
        let v = feed(&mut d, &space, 0, 2, 200.0, 100.0, 20..40);
        assert!(
            v.contains(&Verdict::Reject),
            "persistent drag must trip the cap"
        );
        // Once banned, always rejected.
        assert_eq!(*v.last().unwrap(), Verdict::Reject);
        let trailing = feed(&mut d, &space, 3, 2, 100.0, 100.0, 40..41);
        assert_eq!(trailing, vec![Verdict::Reject], "bans persist");
    }

    #[test]
    fn drift_cap_decay_readmits_reformed_node_within_half_life() {
        let space = Space::Euclidean(2);
        let half_life = 30.0;
        let mut d = Defense::new(Box::new(DriftCap::with_decay(
            40.0,
            DriftDecay::new(half_life),
        )));
        // Persistent −100 ms drag: banned once the 16-sample window fills.
        let verdicts = feed(&mut d, &space, 0, 2, 200.0, 100.0, 0..20);
        let ban_round = verdicts
            .iter()
            .position(|v| *v == Verdict::Reject)
            .expect("the drag must trip the cap") as u64;
        // Reform: honest residuals from the ban onward. The window heals
        // within RESIDUAL_WINDOW samples; the flag weight needs one
        // half-life; the first Accept marks the reinstatement.
        let verdicts = feed(&mut d, &space, 0, 2, 100.0, 100.0, 20..90);
        let first_accept = verdicts
            .iter()
            .position(|v| *v == Verdict::Accept)
            .expect("a reformed node must be reinstated") as u64
            + 20;
        assert!(
            first_accept <= ban_round + half_life as u64 + 2,
            "reinstatement at round {first_accept}, ban at {ban_round}: \
             must land within the configured half-life (+1 round of slack)"
        );
        // The reinstate event flowed through the reputation channel.
        let (bans, reinstated) = d.drain_reputation();
        assert_eq!(bans, vec![2]);
        assert_eq!(reinstated, vec![2]);
        assert_eq!(d.stats().bans, 1);
        assert_eq!(d.stats().reinstated, 1);
    }

    #[test]
    fn drift_cap_decay_never_readmits_a_still_attacking_node() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(DriftCap::with_decay(40.0, DriftDecay::new(10.0))));
        // The attacker never reforms: the drag persists for many times the
        // half-life. Its window stays hot (every inspected sample is
        // recorded, rejected or not), so decayed weight alone never buys
        // it back in.
        let verdicts = feed(&mut d, &space, 0, 2, 200.0, 100.0, 0..200);
        let after_ban: Vec<_> = verdicts
            .iter()
            .skip_while(|v| **v == Verdict::Accept)
            .collect();
        assert!(!after_ban.is_empty(), "the cap must trip");
        assert!(
            after_ban.iter().all(|v| **v == Verdict::Reject),
            "a still-attacking node must stay banned through any number of \
             half-lives"
        );
        let (bans, reinstated) = d.drain_reputation();
        assert_eq!(bans, vec![2]);
        assert!(reinstated.is_empty());
    }

    /// [`feed`] with [`Provenance::Lease`] on every sample — the
    /// readmission-lease evidence channel.
    fn feed_leased(
        defense: &mut Defense,
        space: &Space,
        observer: usize,
        remote: usize,
        predicted: f64,
        rtt: f64,
        rounds: std::ops::Range<u64>,
    ) -> Vec<Verdict> {
        let me = Coord::origin(2);
        let them = Coord::from_vec(vec![predicted, 0.0]);
        rounds
            .map(|r| {
                defense.inspect(
                    space,
                    &me,
                    Update {
                        observer,
                        remote,
                        reported_coord: &them,
                        reported_error: 1.0,
                        rtt,
                        round: r,
                        now_ms: r * 1000,
                        provenance: Provenance::Lease,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn leased_evidence_never_heals_a_ban() {
        let space = Space::Euclidean(2);
        let half_life = 10.0;
        let mut d = Defense::new(Box::new(DriftCap::with_decay(
            40.0,
            DriftDecay::new(half_life),
        )));
        // Ban the node on persistent drag, as usual.
        let v = feed(&mut d, &space, 0, 2, 200.0, 100.0, 0..20);
        assert!(v.contains(&Verdict::Reject), "the cap must trip");
        // Reform — but every post-ban sample arrives on a lease. Honest
        // residuals, many half-lives of elapsed weight decay: without
        // quarantine this is exactly the stream that healed the window and
        // sprang the reinstatement (the probation leak). With it, the ban
        // holds forever.
        let v = feed_leased(&mut d, &space, 0, 2, 100.0, 100.0, 20..220);
        assert!(
            v.iter().all(|v| *v == Verdict::Reject),
            "leased evidence must never be the path back in"
        );
        let (bans, reinstated) = d.drain_reputation();
        assert_eq!(bans, vec![2]);
        assert!(
            reinstated.is_empty(),
            "quarantined evidence produced a reinstatement"
        );
        assert_eq!(d.stats().quarantined, 200);
        // The same reformed stream on normal provenance *does* reinstate —
        // the quarantine, not some other regression, is what held the ban.
        let v = feed(&mut d, &space, 0, 2, 100.0, 100.0, 220..300);
        assert!(
            v.contains(&Verdict::Accept),
            "normal-provenance reform must still be forgivable"
        );
    }

    #[test]
    fn drift_cap_decay_escalates_repeat_offenders() {
        let space = Space::Euclidean(2);
        let half_life = 20.0;
        let mut d = Defense::new(Box::new(DriftCap::with_decay(
            40.0,
            DriftDecay::new(half_life),
        )));
        // First offense → ban; reform → reinstate; relapse → re-ban. The
        // re-ban stacks +1.0 onto the not-yet-decayed remainder, so the
        // second ban-to-forgiveness span strictly exceeds the first.
        let _ = half_life;
        let v1 = feed(&mut d, &space, 0, 2, 200.0, 100.0, 0..20);
        let ban_1 = v1.iter().position(|v| *v == Verdict::Reject).unwrap() as u64;
        let v2 = feed(&mut d, &space, 0, 2, 100.0, 100.0, 20..70);
        let reinstate_1 = v2
            .iter()
            .position(|v| *v == Verdict::Accept)
            .expect("first reform must be forgiven") as u64
            + 20;
        let v3 = feed(&mut d, &space, 0, 2, 200.0, 100.0, 70..100);
        let ban_2 = v3.iter().position(|v| *v == Verdict::Reject).unwrap() as u64 + 70;
        let v4 = feed(&mut d, &space, 0, 2, 100.0, 100.0, 100..250);
        let reinstate_2 = v4
            .iter()
            .position(|v| *v == Verdict::Accept)
            .expect("second reform is eventually forgiven") as u64
            + 100;
        assert!(
            reinstate_2 - ban_2 > reinstate_1 - ban_1,
            "escalation: second forgiveness span ({} rounds) must exceed \
             the first ({} rounds)",
            reinstate_2 - ban_2,
            reinstate_1 - ban_1,
        );
        let (bans, reinstated) = d.drain_reputation();
        assert_eq!(bans, vec![2, 2], "two ban events");
        assert_eq!(reinstated, vec![2, 2], "two reinstatements");
    }

    #[test]
    fn drift_cap_without_decay_emits_ban_events_but_never_reinstates() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(DriftCap::new(40.0)));
        feed(&mut d, &space, 0, 2, 200.0, 100.0, 0..20);
        let verdicts = feed(&mut d, &space, 0, 2, 100.0, 100.0, 20..200);
        assert!(
            verdicts.iter().all(|v| *v == Verdict::Reject),
            "permanent bans never forgive, however reformed the node"
        );
        let (bans, reinstated) = d.drain_reputation();
        assert_eq!(bans, vec![2]);
        assert!(reinstated.is_empty());
    }

    #[test]
    fn triangle_check_catches_inflation_and_deflation() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(TriangleCheck::default()));
        // Populate the observer's recent ring with consistent neighbors
        // ~100 ms away in different directions.
        let me = Coord::origin(2);
        for (k, (x, y)) in [(100.0, 0.0), (0.0, 100.0), (-100.0, 0.0), (0.0, -100.0)]
            .iter()
            .enumerate()
        {
            for r in 0..2u64 {
                let them = Coord::from_vec(vec![*x, *y]);
                d.inspect(
                    &space,
                    &me,
                    Update {
                        observer: 0,
                        remote: k + 1,
                        reported_coord: &them,
                        reported_error: 1.0,
                        rtt: 100.0,
                        round: r,
                        now_ms: r,
                        provenance: Provenance::Normal,
                    },
                );
            }
        }
        // Inflation: claims a position 50 000 ms out while measuring 100.
        let inflated = Coord::from_vec(vec![50_000.0, 0.0]);
        let v = d.inspect(
            &space,
            &me,
            Update {
                observer: 0,
                remote: 9,
                reported_coord: &inflated,
                reported_error: 1.0,
                rtt: 100.0,
                round: 3,
                now_ms: 3,
                provenance: Provenance::Normal,
            },
        );
        assert_eq!(v, Verdict::Reject, "inflation must violate the upper bound");
        // Deflation: claims the observer's own position while the probe
        // measured 700 ms — the RTT difference to the 100 ms neighbors
        // forces a separation the claim undercuts.
        let deflated = Coord::from_vec(vec![0.1, 0.0]);
        let v = d.inspect(
            &space,
            &me,
            Update {
                observer: 0,
                remote: 10,
                reported_coord: &deflated,
                reported_error: 1.0,
                rtt: 700.0,
                round: 3,
                now_ms: 3,
                provenance: Provenance::Normal,
            },
        );
        assert_eq!(v, Verdict::Reject, "deflation must violate the lower bound");
        // An honest new neighbor passes.
        let honest = Coord::from_vec(vec![70.0, 70.0]);
        let v = d.inspect(
            &space,
            &me,
            Update {
                observer: 0,
                remote: 11,
                reported_coord: &honest,
                reported_error: 1.0,
                rtt: 99.0,
                round: 3,
                now_ms: 3,
                provenance: Provenance::Normal,
            },
        );
        assert_eq!(v, Verdict::Accept);
    }

    #[test]
    fn trusted_baseline_calibrates_from_trusted_and_rejects_outliers() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(TrustedBaseline::new([1, 2])));
        // Trusted nodes establish residuals ~5%.
        feed(&mut d, &space, 0, 1, 100.0, 97.0, 0..6);
        feed(&mut d, &space, 0, 2, 100.0, 104.0, 6..12);
        // Untrusted node within the band: accepted.
        let v = feed(&mut d, &space, 0, 7, 100.0, 95.0, 12..13);
        assert_eq!(v, vec![Verdict::Accept]);
        // Untrusted node far outside the trusted band: rejected.
        let v = feed(&mut d, &space, 0, 8, 300.0, 100.0, 13..14);
        assert_eq!(v, vec![Verdict::Reject]);
        // Trusted nodes are never rejected, whatever they report.
        let v = feed(&mut d, &space, 0, 1, 9000.0, 100.0, 14..15);
        assert_eq!(v, vec![Verdict::Accept], "trust is an assumption");
    }

    #[test]
    fn dampener_is_uniform() {
        let space = Space::Euclidean(2);
        let mut d = Defense::new(Box::new(Dampener::new(0.5)));
        let v = feed(&mut d, &space, 0, 1, 100.0, 100.0, 0..3);
        assert!(v.iter().all(|v| *v == Verdict::Dampen(0.5)));
        assert_eq!(d.stats().dampened, 3);
        assert_eq!(d.label(), "dampener");
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            NoDefense.label(),
            Dampener::new(1.0).label(),
            ResidualOutlier::default().label(),
            EwmaChangePoint::default().label(),
            DriftCap::default().label(),
            TriangleCheck::default().label(),
            TrustedBaseline::new([]).label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "duplicate labels: {labels:?}");
    }
}
