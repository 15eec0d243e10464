//! The [`Defense`] engine: one strategy plus the shared history store,
//! scratch buffers, verdict accounting, and round bookkeeping.
//!
//! Simulators hold a `Defense` next to their attackkit `Scenario` slot and
//! route every incoming coordinate/RTT sample through [`Defense::inspect`]
//! before applying their update rule. The engine owns everything a
//! strategy needs but should not allocate per call: the
//! [`NeighborHistory`], a [`DefenseScratch`], and the running
//! [`DefenseStats`].
//!
//! The [`NoDefense`](crate::NoDefense) fast path is engine-level: a
//! passthrough strategy short-circuits `inspect` before any distance
//! computation or history bookkeeping, so an undefended (or
//! `NoDefense`-defended) simulation pays one branch and one counter
//! increment per sample — zero allocation, zero trajectory change.

use vcoord_metrics::Confusion;
use vcoord_space::{Coord, Space};

use crate::history::{slot, NeighborHistory, ObserverSample};
use crate::strategy::{DefenseScratch, DefenseStrategy, Provenance, UpdateView, Verdict};

/// One incoming sample, as the simulator hands it to [`Defense::inspect`].
///
/// `observer` and `remote` are the simulator's node indices. The engine and
/// every strategy keep their per-node state in tables indexed by them, as
/// long as the largest id seen: ids are expected to be dense and to start
/// near zero, not hashes or addresses.
#[derive(Debug, Clone, Copy)]
pub struct Update<'a> {
    /// The honest node about to apply the update.
    pub observer: usize,
    /// The node whose report is being judged.
    pub remote: usize,
    /// The coordinate the remote reported.
    pub reported_coord: &'a Coord,
    /// The error estimate the remote reported (`1.0` where the protocol
    /// carries none).
    pub reported_error: f64,
    /// The measured RTT, ms.
    pub rtt: f64,
    /// The system's round index.
    pub round: u64,
    /// Current simulated time, ms.
    pub now_ms: u64,
    /// Where the sample came from. [`Provenance::Lease`] evidence is
    /// quarantined: judged, tallied, but never recorded into the history
    /// windows that feed healed-window reinstatement or threshold
    /// calibration.
    pub provenance: Provenance,
}

/// Verdict tallies, overall and per remote node.
#[derive(Debug, Clone, Default)]
pub struct DefenseStats {
    /// Samples accepted.
    pub accepted: u64,
    /// Samples rejected.
    pub rejected: u64,
    /// Node-level ban events drained through the reputation channel.
    pub bans: u64,
    /// Node-level reinstatements drained through the reputation channel.
    pub reinstated: u64,
    /// Lease-provenance samples whose evidence was quarantined (judged and
    /// tallied above, but kept out of every history window).
    pub quarantined: u64,
    /// Per remote node, indexed by node id.
    pub(crate) nodes: Vec<NodeTally>,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeTally {
    /// Inspections of this node's reports.
    pub(crate) inspected: u64,
    /// Rejections of its reports.
    pub(crate) flags: u64,
}

impl DefenseStats {
    /// Total samples inspected.
    pub fn total(&self) -> u64 {
        self.accepted + self.rejected
    }

    /// Grade the per-node flags against a ground-truth malicious set: a
    /// node counts as *detected* when it accumulated at least `min_flags`
    /// flag events. Only nodes whose reports were inspected at least once
    /// are classified (a node the defense never saw cannot be judged).
    ///
    /// This is harness-side accounting — strategies never see `malicious`.
    pub fn confusion(&self, malicious: &[bool], min_flags: u64) -> Confusion {
        self.confusion_rated(malicious, min_flags, 0.0)
    }

    /// [`DefenseStats::confusion`] with an additional *rate* requirement:
    /// a node is detected only when it also had at least `min_rate` of its
    /// inspected samples flagged. Sample-level filters (MAD, EWMA) throw
    /// occasional tail rejections at honest nodes — a handful over
    /// hundreds of inspections — so an absolute count alone stops
    /// separating as runs get longer; the rate does not.
    pub fn confusion_rated(&self, malicious: &[bool], min_flags: u64, min_rate: f64) -> Confusion {
        let mut c = Confusion::new();
        for (node, t) in self.nodes.iter().enumerate() {
            if t.inspected == 0 {
                continue;
            }
            let flagged =
                t.flags >= min_flags.max(1) && t.flags as f64 >= min_rate * t.inspected as f64;
            c.record(malicious.get(node).copied().unwrap_or(false), flagged);
        }
        c
    }

    fn record(&mut self, remote: usize, verdict: &Verdict) {
        let tally = slot(&mut self.nodes, remote);
        tally.inspected += 1;
        match verdict {
            Verdict::Accept => self.accepted += 1,
            Verdict::Reject => {
                self.rejected += 1;
                tally.flags += 1;
            }
        }
    }
}

/// A deployed defense: strategy + history + scratch + verdict accounting.
pub struct Defense {
    strategy: Box<dyn DefenseStrategy>,
    history: NeighborHistory,
    scratch: DefenseScratch,
    stats: DefenseStats,
    last_round: Option<u64>,
    passthrough: bool,
    /// The reputation events of the last drain, reused across drains.
    banned: Vec<usize>,
    reinstated: Vec<usize>,
}

impl Defense {
    /// Deploy `strategy` with fresh history and accounting.
    pub fn new(strategy: Box<dyn DefenseStrategy>) -> Defense {
        let passthrough = strategy.is_passthrough();
        Defense {
            strategy,
            history: NeighborHistory::new(),
            scratch: DefenseScratch::new(),
            stats: DefenseStats::default(),
            last_round: None,
            passthrough,
            banned: Vec::new(),
            reinstated: Vec::new(),
        }
    }

    /// Verdict accounting so far.
    pub fn stats(&self) -> &DefenseStats {
        &self.stats
    }

    /// The accumulated neighbor history (for diagnostics and tests).
    pub fn history(&self) -> &NeighborHistory {
        &self.history
    }

    /// Drain the strategy's reputation events (bans and reinstatements)
    /// since the last drain, folding the counts into [`DefenseStats`], and
    /// return the node ids as `(banned, reinstated)`. The simulators poll
    /// this after inspections and route the events into their structural
    /// ban machinery; strategies that emit nothing (everything except a
    /// decay-configured [`DriftCap`](crate::DriftCap) today) return two
    /// empty slices. The buffers are the engine's own and are reused, so a
    /// drain allocates nothing once they have grown.
    pub fn drain_reputation(&mut self) -> (&[usize], &[usize]) {
        self.banned.clear();
        self.reinstated.clear();
        if !self.passthrough {
            self.strategy
                .drain_reputation(&mut self.banned, &mut self.reinstated);
            self.stats.bans += self.banned.len() as u64;
            self.stats.reinstated += self.reinstated.len() as u64;
            if vcoord_obs::enabled() {
                let round = self.last_round.unwrap_or(0);
                for &node in &self.banned {
                    vcoord_obs::event(
                        vcoord_obs::metric_id!("defense.ban"),
                        round,
                        node as u32,
                        1.0,
                    );
                }
                for &node in &self.reinstated {
                    vcoord_obs::event(
                        vcoord_obs::metric_id!("defense.reinstate"),
                        round,
                        node as u32,
                        1.0,
                    );
                }
            }
        }
        (&self.banned, &self.reinstated)
    }

    /// Judge one sample, advancing per-round strategy state first.
    ///
    /// `on_round` fires once per round elapsed since the last inspection
    /// (or since deployment), lazily at the round's first sample — the same
    /// cadence contract as attackkit's `Scenario::respond`.
    ///
    /// Samples the update rules would reject anyway (non-finite or
    /// non-positive RTT, non-finite coordinates) are accepted untouched:
    /// the simulators' own validity guards handle them, and counting them
    /// as defense flags would double-book.
    pub fn inspect(&mut self, space: &Space, observer_coord: &Coord, u: Update<'_>) -> Verdict {
        if self.passthrough {
            // NoDefense fast path: one branch + one counter (plus one
            // relaxed load for the disabled obs plane). No history, no
            // distance computation, no allocation — the defended update
            // loop is byte-identical (and near-cost-identical) to the
            // undefended one.
            self.stats.accepted += 1;
            vcoord_obs::counter_add(vcoord_obs::metric_id!("defense.accept"), 1);
            return Verdict::Accept;
        }
        if !(u.rtt.is_finite() && u.rtt > 0.0 && u.reported_coord.is_finite()) {
            return Verdict::Accept;
        }
        // Wall-clock attribution for the profiling plane. Per-sample, but
        // only past the passthrough/validity fast paths, so NoDefense stays
        // span-free and the timed region is the real detector work.
        let _span = vcoord_obs::span(vcoord_obs::metric_id!("defense.inspect_ns"));

        let from = self.last_round.unwrap_or(u.round);
        for r in from..u.round {
            self.strategy.on_round(r + 1);
        }
        self.last_round = Some(u.round.max(from));

        let predicted = space.distance(observer_coord, u.reported_coord);
        let (remote_history, recent) = self.history.inspecting(u.observer, u.remote);
        let view = UpdateView {
            space,
            observer: u.observer,
            remote: u.remote,
            observer_coord,
            reported_coord: u.reported_coord,
            reported_error: u.reported_error,
            rtt: u.rtt,
            predicted,
            round: u.round,
            now_ms: u.now_ms,
            provenance: u.provenance,
            remote_history,
            recent,
        };
        let residual = view.residual();
        let rel_residual = view.rel_residual();
        let verdict = self.strategy.inspect_update(&view, &mut self.scratch);

        // Record after judging — never judge a sample against itself. The
        // *remote* trail records every inspected sample, rejected or not:
        // detectors must keep observing flagged nodes. The *observer* ring
        // records only non-rejected samples: it is the reference
        // population thresholds calibrate against (MAD median, triangle
        // comparisons), and letting a persistent just-under-the-bound liar
        // fill it with its own rejected residuals would drag the threshold
        // up until the same lie passes — the filter defeated by the
        // samples it rejected.
        //
        // Leased samples are the exception: readmission-lease evidence is
        // judged (a relapser can still be flagged) but *quarantined* — it
        // enters neither the remote trail (whose healed window is the
        // reinstatement condition reputation decay checks) nor the observer
        // ring (the calibration population). A still-banned reference must
        // not be able to heal its own window through the relief channel.
        if u.provenance.is_quarantined() {
            self.stats.quarantined += 1;
            vcoord_obs::counter_add(vcoord_obs::metric_id!("defense.quarantined_evidence"), 1);
        } else {
            self.history.record_remote(
                observer_coord,
                u.remote,
                u.round,
                u.reported_coord,
                residual,
            );
            if verdict != Verdict::Reject {
                self.history.record_observer(
                    u.observer,
                    ObserverSample {
                        remote: u.remote,
                        rtt: u.rtt,
                        residual,
                        rel_residual,
                        round: u.round,
                    },
                    u.reported_coord,
                );
            }
        }
        self.stats.record(u.remote, &verdict);
        if vcoord_obs::enabled() {
            let which = match verdict {
                Verdict::Accept => vcoord_obs::metric_id!("defense.accept"),
                Verdict::Reject => vcoord_obs::metric_id!("defense.reject"),
            };
            vcoord_obs::counter_add(which, 1);
            if verdict == Verdict::Reject {
                vcoord_obs::event(
                    vcoord_obs::metric_id!("defense.flag"),
                    u.round,
                    u.remote as u32,
                    1.0,
                );
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// The verdict tally of `node`'s reports (zero if never inspected).
    fn tally(d: &Defense, node: usize) -> NodeTally {
        d.stats().nodes.get(node).copied().unwrap_or_default()
    }

    /// Rejects everything after `reject_after` inspections; counts rounds
    /// into a shared cell so tests can observe the cadence from outside.
    struct Trip {
        inspections: u64,
        rounds: Arc<Mutex<Vec<u64>>>,
        reject_after: u64,
    }

    impl DefenseStrategy for Trip {
        fn on_round(&mut self, round: u64) {
            self.rounds.lock().unwrap().push(round);
        }

        fn inspect_update(&mut self, _v: &UpdateView<'_>, _s: &mut DefenseScratch) -> Verdict {
            self.inspections += 1;
            if self.inspections > self.reject_after {
                Verdict::Reject
            } else {
                Verdict::Accept
            }
        }
    }

    fn update<'a>(remote: usize, coord: &'a Coord, rtt: f64, round: u64) -> Update<'a> {
        Update {
            observer: 0,
            remote,
            reported_coord: coord,
            reported_error: 1.0,
            rtt,
            round,
            now_ms: round * 1000,
            provenance: Provenance::Normal,
        }
    }

    #[test]
    fn passthrough_accepts_without_bookkeeping() {
        let space = Space::Euclidean(2);
        let me = Coord::origin(2);
        let them = Coord::from_vec(vec![30.0, 40.0]);
        let mut d = Defense::new(Box::new(crate::NoDefense));
        assert!(d.passthrough);
        for r in 0..5 {
            assert_eq!(
                d.inspect(&space, &me, update(1, &them, 50.0, r)),
                Verdict::Accept
            );
        }
        assert_eq!(d.stats().accepted, 5);
        assert!(
            d.history().remote(1).is_none(),
            "fast path keeps no history"
        );
        assert_eq!(tally(&d, 1).inspected, 0);
    }

    #[test]
    fn on_round_fires_once_per_elapsed_round() {
        let space = Space::Euclidean(2);
        let me = Coord::origin(2);
        let them = Coord::from_vec(vec![30.0, 40.0]);
        let rounds = Arc::new(Mutex::new(Vec::new()));
        let mut d = Defense::new(Box::new(Trip {
            inspections: 0,
            rounds: Arc::clone(&rounds),
            reject_after: u64::MAX,
        }));
        d.inspect(&space, &me, update(1, &them, 50.0, 5));
        d.inspect(&space, &me, update(1, &them, 50.0, 5));
        d.inspect(&space, &me, update(1, &them, 50.0, 8));
        d.inspect(&space, &me, update(1, &them, 50.0, 8));
        let history = d.history().remote(1).unwrap();
        assert_eq!(history.samples(), 4);
        // Deployment round 5 fires nothing; rounds 6,7,8 fire once each.
        assert_eq!(*rounds.lock().unwrap(), vec![6, 7, 8]);
    }

    #[test]
    fn stats_track_flags_and_confusion() {
        let space = Space::Euclidean(2);
        let me = Coord::origin(2);
        let them = Coord::from_vec(vec![30.0, 40.0]);
        let mut d = Defense::new(Box::new(Trip {
            inspections: 0,
            rounds: Arc::new(Mutex::new(Vec::new())),
            reject_after: 2,
        }));
        // Node 1: 2 accepts then 2 rejects. Node 2: rejects only.
        for r in 0..4 {
            d.inspect(&space, &me, update(1, &them, 50.0, r));
        }
        d.inspect(&space, &me, update(2, &them, 50.0, 4));
        assert_eq!(d.stats().accepted, 2);
        assert_eq!(d.stats().rejected, 3);
        assert_eq!(tally(&d, 1).flags, 2);
        assert_eq!(tally(&d, 2).flags, 1);
        assert_eq!(tally(&d, 1).inspected, 4);

        // Ground truth: node 1 malicious, node 2 honest.
        let malicious = vec![false, true, false];
        let c = d.stats().confusion(&malicious, 1);
        assert_eq!(c.true_positives, 1);
        assert_eq!(c.false_positives, 1);
        assert_eq!(c.total(), 2);
        // At min_flags 2 node 2's single flag no longer counts.
        let c2 = d.stats().confusion(&malicious, 2);
        assert_eq!(c2.true_positives, 1);
        assert_eq!(c2.false_positives, 0);
        assert_eq!(c2.true_negatives, 1);
    }

    #[test]
    fn leased_evidence_is_judged_but_never_recorded() {
        let space = Space::Euclidean(2);
        let me = Coord::origin(2);
        let them = Coord::from_vec(vec![30.0, 40.0]);
        let mut d = Defense::new(Box::new(Trip {
            inspections: 0,
            rounds: Arc::new(Mutex::new(Vec::new())),
            reject_after: u64::MAX,
        }));
        for r in 0..4 {
            let mut u = update(1, &them, 50.0, r);
            u.provenance = Provenance::Lease;
            assert_eq!(d.inspect(&space, &me, u), Verdict::Accept);
        }
        assert_eq!(d.stats().accepted, 4, "leased samples are still tallied");
        assert_eq!(d.stats().quarantined, 4);
        assert_eq!(
            d.history().remote(1).map(|h| h.samples()),
            Some(0),
            "quarantined evidence must not build a remote trail"
        );
        assert!(
            d.history().recent(0).samples().is_empty(),
            "quarantined evidence must not enter the calibration ring"
        );

        // A normal sample from the same remote still records.
        d.inspect(&space, &me, update(1, &them, 50.0, 4));
        assert_eq!(d.history().remote(1).unwrap().samples(), 1);
        assert_eq!(d.stats().quarantined, 4);
    }

    #[test]
    fn invalid_samples_bypass_the_strategy() {
        let space = Space::Euclidean(2);
        let me = Coord::origin(2);
        let them = Coord::from_vec(vec![30.0, 40.0]);
        let bad = Coord::from_vec(vec![f64::NAN, 0.0]);
        let mut d = Defense::new(Box::new(Trip {
            inspections: 0,
            rounds: Arc::new(Mutex::new(Vec::new())),
            reject_after: 0, // would reject everything it sees
        }));
        assert_eq!(
            d.inspect(&space, &me, update(1, &them, f64::NAN, 0)),
            Verdict::Accept
        );
        assert_eq!(
            d.inspect(&space, &me, update(1, &them, 0.0, 0)),
            Verdict::Accept
        );
        assert_eq!(
            d.inspect(&space, &me, update(1, &bad, 50.0, 0)),
            Verdict::Accept
        );
        assert_eq!(d.stats().total(), 0, "invalid samples are not accounted");
    }
}
