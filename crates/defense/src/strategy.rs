//! The generic defense seam: [`DefenseStrategy`], its [`Verdict`], the
//! read-only [`UpdateView`], and the reusable [`DefenseScratch`].
//!
//! The contract mirrors `vcoord-attackkit`'s adversary seam from the other
//! side of the protocol: where an attack strategy decides what a malicious
//! node *reports*, a defense strategy decides what an honest node *does*
//! with a report. A strategy sees exactly what a deployed victim could see —
//! the reported coordinate, the measured RTT, its own current coordinate and
//! the distance that coordinate pair implies — plus the accumulated
//! neighbor history the engine maintains. It never sees ground truth: the
//! simulators' `malicious` flags exist only in the harness, which uses them
//! *after the fact* to grade verdicts into a
//! [`Confusion`](vcoord_metrics::Confusion) matrix.

use vcoord_space::{Coord, Space};

use crate::history::{Recent, RemoteHistory};

/// Where a sample came from, as far as the defense is concerned.
///
/// Almost every sample is [`Normal`]: a probe of a reference the observer
/// freely chose (or was handed by membership). [`Lease`] marks evidence
/// from a *readmission lease* — a banned reference the NPS starvation
/// relief valve readmitted into the probe rotation without un-banning it.
/// Leased evidence is **quarantined** in the engine: it never enters the
/// remote-history windows that feed reputation decay's healed-window
/// condition, so a reformed attacker cannot launder its way back to
/// `Reinstate` through a channel the ban was supposed to close (the
/// probation-leak defect measured by `chaos-probation-leak`).
///
/// [`Normal`]: Provenance::Normal
/// [`Lease`]: Provenance::Lease
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Provenance {
    /// An ordinary probe of a freely chosen reference.
    #[default]
    Normal,
    /// A probe of a lease-readmitted, still-banned reference.
    Lease,
}

impl Provenance {
    /// Whether the engine quarantines this sample's evidence (keeps it out
    /// of the history windows that feed healed-window reinstatement).
    pub(crate) fn is_quarantined(&self) -> bool {
        matches!(self, Provenance::Lease)
    }
}

/// A strategy's decision about one incoming coordinate/RTT sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Apply the update unchanged.
    Accept,
    /// Drop the sample entirely (it never reaches the update rule).
    Reject,
    /// Apply the update at reduced strength: the factor scales Vivaldi's
    /// timestep `δ` (coordinate movement only; the error estimate update is
    /// untouched) and weights the sample's term in the NPS fit objective.
    ///
    /// `Dampen(1.0)` is **bit-identical** to [`Verdict::Accept`] — both
    /// simulators implement dampening as a trailing `× factor` on existing
    /// expressions, and `x × 1.0` preserves every bit of `x` — so a strategy
    /// may emit continuous confidence without a discontinuity at full trust.
    Dampen(f64),
}

impl Verdict {
    /// The update-strength factor this verdict applies: `Accept` = 1,
    /// `Reject` = 0, `Dampen(f)` = `f` clamped to `[0, 1]`. A
    /// non-finite `Dampen` payload (a strategy's 0/0 confidence ratio)
    /// clamps to 0 — `f64::clamp` would propagate the NaN straight into
    /// the victim's coordinates, silently and unflagged.
    pub fn factor(&self) -> f64 {
        match self {
            Verdict::Accept => 1.0,
            Verdict::Reject => 0.0,
            Verdict::Dampen(f) if f.is_nan() => 0.0,
            Verdict::Dampen(f) => f.clamp(0.0, 1.0),
        }
    }

    /// Whether this verdict counts as *flagging* the remote node for
    /// detection accounting: rejections and strict dampenings (factor
    /// below 1, including a NaN payload) do; `Accept` and the
    /// `Dampen(1.0)` identity do not.
    pub fn is_flag(&self) -> bool {
        match self {
            Verdict::Accept => false,
            Verdict::Reject => true,
            Verdict::Dampen(_) => self.factor() < 1.0,
        }
    }
}

/// Read-only view of one coordinate/RTT sample, as the observing node sees
/// it before applying its update rule.
///
/// `predicted` is the distance the observer's *current* coordinate implies
/// to the *reported* coordinate — the quantity every residual-based filter
/// compares against the measured RTT. The history references cover events
/// strictly before this sample (the engine records it only after the
/// verdict), so a strategy never judges a sample against itself.
pub struct UpdateView<'a> {
    /// The embedding space.
    pub space: &'a Space,
    /// The honest node applying the update.
    pub observer: usize,
    /// The node whose report is being judged.
    pub remote: usize,
    /// The observer's current coordinate.
    pub observer_coord: &'a Coord,
    /// The coordinate the remote reported (possibly a lie).
    pub reported_coord: &'a Coord,
    /// The error estimate the remote reported; `1.0` for systems that carry
    /// none (NPS).
    pub reported_error: f64,
    /// The measured RTT, ms (possibly adversarially delayed, never
    /// shortened).
    pub rtt: f64,
    /// Distance from `observer_coord` to `reported_coord`.
    pub predicted: f64,
    /// The system's round index (Vivaldi probe tick / NPS repositioning
    /// period).
    pub round: u64,
    /// Current simulated time, ms.
    pub now_ms: u64,
    /// Where the sample came from ([`Provenance::Lease`] evidence is
    /// quarantined by the engine and judged — but never *credited* — by
    /// reputation-decay strategies).
    pub provenance: Provenance,
    /// Accumulated history of the remote node's reports (all observers).
    pub remote_history: &'a RemoteHistory,
    /// The observer's recent samples across all its neighbors, unordered.
    pub recent: Recent<'a>,
}

impl UpdateView<'_> {
    /// Signed residual `rtt − predicted`, in ms. Its time-average is the
    /// directed pull this neighbor exerts on the observer: a Vivaldi sample
    /// moves the observer by `Cc · w · (rtt − predicted)` along the
    /// connecting direction.
    pub fn residual(&self) -> f64 {
        self.rtt - self.predicted
    }

    /// Relative residual `|predicted − rtt| / rtt` — the paper's fitting
    /// error `E_Ri`, the scale-free quantity outlier filters threshold.
    /// Infinite for non-positive RTTs (the simulators reject those before
    /// the defense ever sees them).
    pub(crate) fn rel_residual(&self) -> f64 {
        if self.rtt > 0.0 {
            (self.predicted - self.rtt).abs() / self.rtt
        } else {
            f64::INFINITY
        }
    }
}

/// Reusable working buffers threaded through every
/// [`DefenseStrategy::inspect_update`] call, like `PositionScratch` on the
/// NPS positioning path: strategies that need a sorted copy of a residual
/// window (median/MAD/percentile computations) sort into these instead of
/// allocating, so the steady-state inspection loop is allocation-free.
#[derive(Debug, Default, Clone)]
pub struct DefenseScratch {
    /// Primary sort buffer (values under test).
    pub sort: Vec<f64>,
    /// Secondary buffer (e.g. absolute deviations for MAD).
    pub aux: Vec<f64>,
}

impl DefenseScratch {
    /// A new, empty scratch; buffers grow on first use.
    pub fn new() -> DefenseScratch {
        DefenseScratch::default()
    }
}

/// Median of `values` after sorting them in place. `None` when empty.
pub(crate) fn median_in_place(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(values[values.len() / 2])
}

/// A strategy deciding what an observing node does with each incoming
/// coordinate/RTT sample, with per-round mutable state.
///
/// Strategies are system-agnostic: the same object screens Vivaldi spring
/// samples and NPS reference probes through [`crate::Defense`], which owns
/// the shared [`NeighborHistory`](crate::NeighborHistory) and invokes
/// [`DefenseStrategy::on_round`] once per elapsed round before the round's
/// first inspection.
///
/// `Send`, because a simulation carrying its defense moves between the
/// threads of an experiment's job pool.
pub trait DefenseStrategy: Send {
    /// Called exactly once per elapsed round (Vivaldi tick / NPS
    /// repositioning period), before the first
    /// [`DefenseStrategy::inspect_update`] of that round. Decay-based
    /// detectors advance their windows here.
    fn on_round(&mut self, _round: u64) {}

    /// Judge one sample.
    fn inspect_update(&mut self, view: &UpdateView<'_>, scratch: &mut DefenseScratch) -> Verdict;

    /// Drain the reputation events this strategy emitted since the last
    /// call, *appending* node ids to `banned` / `reinstated`.
    ///
    /// This is the `Verdict`-adjacent side channel of banning strategies:
    /// a [`Verdict::Reject`] says what to do with *one sample*, while a
    /// ban/reinstate event says what happened to the *node* — the
    /// simulators route bans into their structural machinery (NPS's
    /// ban/replacement channel, Vivaldi's quarantine bookkeeping) and a
    /// `Reinstate` event undoes it (NPS scrubs the node from every rolling
    /// ban list so the membership server can hand it out again; Vivaldi
    /// clears the quarantine flag and the neighbor relationship resumes).
    /// The default implementation emits nothing, so non-banning strategies
    /// and the pre-decay deployments are untouched.
    fn drain_reputation(&mut self, _banned: &mut Vec<usize>, _reinstated: &mut Vec<usize>) {}

    /// `true` for the null strategy only: the engine short-circuits
    /// inspection entirely (no history, no predicted-distance computation,
    /// no allocation) when this returns `true`.
    fn is_passthrough(&self) -> bool {
        false
    }

    /// A short label for CSV headers.
    fn label(&self) -> &'static str {
        "defense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_factors_and_flags() {
        assert_eq!(Verdict::Accept.factor(), 1.0);
        assert_eq!(Verdict::Reject.factor(), 0.0);
        assert_eq!(Verdict::Dampen(0.25).factor(), 0.25);
        assert_eq!(Verdict::Dampen(7.0).factor(), 1.0, "factor clamps to [0,1]");
        assert_eq!(
            Verdict::Dampen(f64::NAN).factor(),
            0.0,
            "a NaN confidence must not poison coordinates"
        );
        assert!(Verdict::Dampen(f64::NAN).is_flag());
        assert!(!Verdict::Accept.is_flag());
        assert!(Verdict::Reject.is_flag());
        assert!(Verdict::Dampen(0.5).is_flag());
        assert!(
            !Verdict::Dampen(1.0).is_flag(),
            "the identity dampening is not a flag"
        );
    }

    #[test]
    fn view_residuals() {
        let space = Space::Euclidean(2);
        let observer_coord = Coord::from_vec(vec![0.0, 0.0]);
        let reported = Coord::from_vec(vec![30.0, 40.0]);
        let remote_history = RemoteHistory::new();
        let view = UpdateView {
            space: &space,
            observer: 0,
            remote: 1,
            observer_coord: &observer_coord,
            reported_coord: &reported,
            reported_error: 1.0,
            rtt: 100.0,
            predicted: 50.0,
            round: 3,
            now_ms: 3000,
            provenance: Provenance::Normal,
            remote_history: &remote_history,
            recent: Recent::default(),
        };
        assert_eq!(view.residual(), 50.0);
        assert_eq!(view.rel_residual(), 0.5);
    }

    #[test]
    fn provenance_quarantine_flag() {
        assert!(!Provenance::Normal.is_quarantined());
        assert!(Provenance::Lease.is_quarantined());
        assert_eq!(Provenance::default(), Provenance::Normal);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median_in_place(&mut []), None);
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), Some(2.0));
        // Even length: upper median (index len/2) by convention.
        assert_eq!(median_in_place(&mut [4.0, 1.0, 3.0, 2.0]), Some(3.0));
    }
}
