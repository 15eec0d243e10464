//! # vcoord-defense
//!
//! A pluggable defense/detection engine for Internet coordinate systems:
//! the single seam through which both systems under test (Vivaldi and NPS)
//! screen incoming coordinate/RTT samples — the mirror image of
//! `vcoord-attackkit` on the victim side of the protocol.
//!
//! The CoNEXT'06 paper demonstrates the attacks and stops short of
//! systematic countermeasures; this crate supplies the countermeasure side
//! of the sweep surface. Everything system-specific (when samples arrive,
//! what a rejection means to the update rule) stays in the simulators;
//! everything detection-specific lives here:
//!
//! * [`DefenseStrategy`] — the strategy trait, with per-round state
//!   ([`DefenseStrategy::on_round`]) and the read-only [`UpdateView`] of
//!   each sample (reported coordinate, measured RTT, predicted distance,
//!   neighbor history);
//! * [`Verdict`] — what to do with a sample: `Accept` or `Reject`, all or
//!   nothing like the paper's own defenses (§5.4: the NPS security filter
//!   eliminates a reference, the probe threshold discards a probe);
//! * [`Defense`] — the engine object a simulator holds next to its
//!   attackkit `Scenario` slot: strategy + shared [`NeighborHistory`] +
//!   reusable [`DefenseScratch`] + [`DefenseStats`] verdict accounting
//!   (graded into a [`vcoord_metrics::Confusion`] by the harness);
//! * the concrete detectors: residual-based
//!   ([`ResidualOutlier`], [`EwmaChangePoint`]) with their documented
//!   consistent-liar blind spot, structural ([`DriftCap`] — the one that
//!   catches frog-boiling — and [`TriangleCheck`]), the paper-style
//!   verified set ([`TrustedBaseline`]), and the zero-cost [`NoDefense`]
//!   null.
//!
//! ## Example
//!
//! ```
//! use vcoord_defense::{Defense, DriftCap, Provenance, Update, Verdict};
//! use vcoord_space::{Coord, Space};
//!
//! let space = Space::Euclidean(2);
//! let me = Coord::origin(2);
//! // A neighbor that persistently claims to sit farther away than the
//! // honestly-measured RTT supports: the frog-boiling signature.
//! let reported = Coord::from_vec(vec![250.0, 0.0]);
//!
//! let mut defense = Defense::new(Box::new(DriftCap::new(40.0)));
//! let mut last = Verdict::Accept;
//! // The cap arms once the neighbor's full 16-sample window has filled.
//! for round in 0..24 {
//!     last = defense.inspect(
//!         &space,
//!         &me,
//!         Update {
//!             observer: 0,
//!             remote: 7,
//!             reported_coord: &reported,
//!             reported_error: 0.01,
//!             rtt: 100.0,
//!             round,
//!             now_ms: round * 1000,
//!             provenance: Provenance::Normal,
//!         },
//!     );
//! }
//! assert_eq!(last, Verdict::Reject, "persistent drag gets banned");
//! assert!(defense.stats().rejected > 0);
//! ```

#![forbid(unsafe_code)]

mod engine;
mod history;
mod strategies;
mod strategy;
pub mod testing;

pub use engine::{Defense, DefenseStats, Update};
pub use history::{NeighborHistory, ObserverSample, Recent, RemoteHistory};
pub use strategies::{
    DriftCap, DriftDecay, EwmaChangePoint, NoDefense, ResidualOutlier, TriangleCheck,
    TrustedBaseline,
};
pub use strategy::{DefenseScratch, DefenseStrategy, Provenance, UpdateView, Verdict};

#[cfg(test)]
mod store_model {
    //! The node-indexed flat store against a model of the store it replaced.
    //!
    //! [`Model`] is the engine as it stood while every per-node store was a
    //! `HashMap`/`HashSet` keyed by node id, every ring slot its own `Vec`, and
    //! the mean pull an accumulator array: history, verdict accounting and the
    //! five detectors' decision rules, written straight-line over those
    //! containers. Random sample streams go through the model and through
    //! [`Defense`] side by side; every verdict, every window statistic's bits,
    //! every ring's contents and every tally must agree after every sample.

    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;
    use vcoord_metrics::Confusion;
    use vcoord_space::{Coord, Space};

    use crate::{
        Defense, DriftCap, DriftDecay, EwmaChangePoint, Provenance, ResidualOutlier, TriangleCheck,
        TrustedBaseline, Update, Verdict,
    };

    const RESIDUAL_WINDOW: usize = 16;
    const OBSERVER_WINDOW: usize = 24;
    const TRUSTED_WINDOW: usize = 64;

    #[derive(Default)]
    struct OldRemote {
        pulls: Vec<Vec<f64>>,
        cursor: usize,
        samples: u64,
    }

    impl OldRemote {
        fn mean_pull_norm(&self) -> Option<f64> {
            let mut acc = vec![0.0f64; self.pulls.first()?.len()];
            for pull in &self.pulls {
                for (a, c) in acc.iter_mut().zip(pull) {
                    *a += *c;
                }
            }
            let n = self.pulls.len() as f64;
            Some(acc.iter().map(|a| (a / n) * (a / n)).sum::<f64>().sqrt())
        }

        fn record(&mut self, observer: &Coord, reported: &Coord, res: f64) {
            let mut pull: Vec<f64> = observer
                .vec
                .iter()
                .zip(&reported.vec)
                .map(|(a, b)| a - b)
                .collect();
            let sq: f64 = pull.iter().fold(0.0, |sq, c| sq + c * c);
            let height = observer.height + reported.height;
            pull.push(height);
            let norm = sq.sqrt() + height;
            for c in pull.iter_mut() {
                *c = if norm > f64::EPSILON {
                    *c * (res / norm)
                } else {
                    0.0
                };
            }
            if self.pulls.len() < RESIDUAL_WINDOW {
                self.pulls.push(pull);
            } else {
                self.pulls[self.cursor] = pull;
                self.cursor = (self.cursor + 1) % RESIDUAL_WINDOW;
            }
            self.samples += 1;
        }
    }

    #[derive(Clone, PartialEq, Debug)]
    struct OldSample {
        remote: usize,
        coord: Coord,
        rtt: f64,
        residual: f64,
        rel_residual: f64,
        round: u64,
    }

    /// Which detector a case deploys, with the parameters the case drew.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Drift { cap: f64, half_life: Option<f64> },
        Ewma,
        Mad,
        Triangle,
        Trusted,
    }

    impl Kind {
        fn deploy(self) -> Defense {
            Defense::new(match self {
                Kind::Drift {
                    cap,
                    half_life: None,
                } => Box::new(DriftCap::new(cap)),
                Kind::Drift {
                    cap,
                    half_life: Some(h),
                } => Box::new(DriftCap::with_decay(cap, DriftDecay::new(h))),
                Kind::Ewma => Box::new(EwmaChangePoint::default()),
                Kind::Mad => Box::new(ResidualOutlier::default()),
                Kind::Triangle => Box::new(TriangleCheck),
                Kind::Trusted => Box::new(TrustedBaseline::new(TRUSTED)),
            })
        }
    }

    const TRUSTED: [usize; 3] = [0, 3, 7];

    #[derive(Default)]
    struct Model {
        remotes: HashMap<usize, OldRemote>,
        observers: HashMap<usize, (Vec<OldSample>, usize)>,
        flags: HashMap<usize, u64>,
        inspected: HashMap<usize, u64>,
        accepted: u64,
        rejected: u64,
        quarantined: u64,
        banned: HashSet<usize>,
        weights: HashMap<usize, (f64, u64)>,
        ban_events: Vec<usize>,
        reinstate_events: Vec<usize>,
        ewma: HashMap<usize, (f64, f64, u64)>,
        trusted_window: Vec<f64>,
        trusted_cursor: usize,
    }

    fn median(values: &mut [f64]) -> f64 {
        values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        values[values.len() / 2]
    }

    impl Model {
        fn decayed_weight(&mut self, half_life: f64, node: usize, round: u64) -> f64 {
            let entry = self.weights.entry(node).or_insert((0.0, round));
            let elapsed = round.saturating_sub(entry.1) as f64;
            if elapsed > 0.0 {
                entry.0 *= 0.5f64.powf(elapsed / half_life);
                entry.1 = round;
            }
            entry.0
        }

        fn judge(&mut self, kind: Kind, space: &Space, u: &Update<'_>, rel: f64) -> Verdict {
            let reject_if = |c: bool| if c { Verdict::Reject } else { Verdict::Accept };
            let recent = self.observers.get(&u.observer).map_or(&[][..], |o| &o.0);
            match kind {
                Kind::Drift { cap, half_life } => {
                    let h = &self.remotes[&u.remote];
                    let (armed, drag) = (h.samples >= RESIDUAL_WINDOW as u64, h.mean_pull_norm());
                    if self.banned.contains(&u.remote) {
                        let Some(half_life) = half_life else {
                            return Verdict::Reject;
                        };
                        if u.provenance.is_quarantined() {
                            return Verdict::Reject;
                        }
                        let weight = self.decayed_weight(half_life.max(1e-9), u.remote, u.round);
                        if !(weight < 0.5 && armed && drag.is_some_and(|d| d <= cap)) {
                            return Verdict::Reject;
                        }
                        self.banned.remove(&u.remote);
                        self.reinstate_events.push(u.remote);
                    }
                    if armed && drag.is_some_and(|d| d > cap) {
                        self.banned.insert(u.remote);
                        self.ban_events.push(u.remote);
                        if let Some(half_life) = half_life {
                            let w = self.decayed_weight(half_life.max(1e-9), u.remote, u.round);
                            self.weights.insert(u.remote, (w + 1.0, u.round));
                        }
                        return Verdict::Reject;
                    }
                    Verdict::Accept
                }
                Kind::Ewma => {
                    let (alpha, k, min_samples, sigma_floor) = (0.2, 4.0, 8, 0.1f64);
                    let e = self.ewma.entry(u.remote).or_default();
                    if e.2 >= min_samples && (rel - e.0).abs() > k * e.1.sqrt().max(sigma_floor) {
                        return Verdict::Reject;
                    }
                    let d = rel - e.0;
                    e.0 += alpha * d;
                    e.1 = (1.0 - alpha) * (e.1 + alpha * d * d);
                    e.2 += 1;
                    Verdict::Accept
                }
                Kind::Mad => {
                    if rel > 5.0 {
                        return Verdict::Reject;
                    }
                    if recent.len() < 12 {
                        return Verdict::Accept;
                    }
                    let mut sorted: Vec<f64> = recent.iter().map(|s| s.rel_residual).collect();
                    let med = median(&mut sorted);
                    let mut dev: Vec<f64> = sorted.iter().map(|r| (r - med).abs()).collect();
                    let mad = median(&mut dev);
                    reject_if(rel > (med + 3.0 * (1.4826 * mad).max(0.02)).max(0.5))
                }
                Kind::Triangle => {
                    let (slack, margin) = (1.3, 30.0);
                    let (mut checks, mut violations) = (0usize, 0usize);
                    for s in recent.iter().filter(|s| s.remote != u.remote) {
                        let d = space.distance(u.reported_coord, &s.coord);
                        let upper = slack * (u.rtt + s.rtt) + margin;
                        let lower = ((u.rtt - s.rtt).abs() - margin).max(0.0) / slack;
                        violations += usize::from(d > upper || d < lower);
                        checks += 1;
                    }
                    reject_if(checks >= 4 && violations as f64 > 0.5 * checks as f64)
                }
                Kind::Trusted => {
                    if TRUSTED.contains(&u.remote) {
                        if self.trusted_window.len() < TRUSTED_WINDOW {
                            self.trusted_window.push(rel);
                        } else {
                            self.trusted_window[self.trusted_cursor] = rel;
                            self.trusted_cursor = (self.trusted_cursor + 1) % TRUSTED_WINDOW;
                        }
                        return Verdict::Accept;
                    }
                    if self.trusted_window.len() < 8 {
                        return Verdict::Accept;
                    }
                    let mut sorted = self.trusted_window.clone();
                    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
                    let idx = ((sorted.len() - 1) as f64 * 0.9).round() as usize;
                    reject_if(rel > 3.0 * sorted[idx].max(0.05))
                }
            }
        }

        fn inspect(&mut self, kind: Kind, space: &Space, me: &Coord, u: Update<'_>) -> Verdict {
            if !(u.rtt.is_finite() && u.rtt > 0.0 && u.reported_coord.is_finite()) {
                return Verdict::Accept;
            }
            let predicted = space.distance(me, u.reported_coord);
            let (residual, rel) = (u.rtt - predicted, (predicted - u.rtt).abs() / u.rtt);
            self.remotes.entry(u.remote).or_default();
            self.observers.entry(u.observer).or_default();
            let verdict = self.judge(kind, space, &u, rel);
            if u.provenance.is_quarantined() {
                self.quarantined += 1;
            } else {
                let h = self.remotes.get_mut(&u.remote).unwrap();
                h.record(me, u.reported_coord, residual);
                if verdict != Verdict::Reject {
                    let (ring, cursor) = self.observers.get_mut(&u.observer).unwrap();
                    let sample = OldSample {
                        remote: u.remote,
                        coord: u.reported_coord.clone(),
                        rtt: u.rtt,
                        residual,
                        rel_residual: rel,
                        round: u.round,
                    };
                    if ring.len() < OBSERVER_WINDOW {
                        ring.push(sample);
                    } else {
                        ring[*cursor] = sample;
                        *cursor = (*cursor + 1) % OBSERVER_WINDOW;
                    }
                }
            }
            *self.inspected.entry(u.remote).or_insert(0) += 1;
            match verdict {
                Verdict::Reject => {
                    self.rejected += 1;
                    *self.flags.entry(u.remote).or_insert(0) += 1;
                }
                _ => self.accepted += 1,
            }
            verdict
        }

        fn confusion_rated(&self, malicious: &[bool], min_flags: u64, min_rate: f64) -> Confusion {
            let mut c = Confusion::new();
            for (&node, &seen) in self.inspected.iter().filter(|(_, &seen)| seen > 0) {
                let flags = self.flags.get(&node).copied().unwrap_or(0);
                let flagged = flags >= min_flags.max(1) && flags as f64 >= min_rate * seen as f64;
                c.record(malicious.get(node).copied().unwrap_or(false), flagged);
            }
            c
        }
    }

    /// One generated sample: `(observer, remote, components, rtt, round gap,
    /// provenance/validity selector)`.
    type Row = (usize, usize, Vec<f64>, f64, u64, u8);

    const NODES: usize = 14;

    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    fn check(kind: Kind, space: Space, rows: &[Row]) {
        let coord = |parts: &[f64]| Coord {
            vec: parts[..space.dim()].to_vec(),
            height: if space.has_height() {
                parts[6].abs()
            } else {
                0.0
            },
        };
        let mut defense = kind.deploy();
        let mut model = Model::default();
        // Nodes start on a lattice and move to every coordinate they report, so
        // the windows see moving observers and moving trails.
        let mut at: Vec<Coord> = (0..NODES)
            .map(|k| coord(&[k as f64 * 17.0, -(k as f64) * 9.0, 5.0, 0.0, 1.0, 2.0, 3.0]))
            .collect();
        let mut round = 0;
        for (observer, remote, parts, rtt, gap, sel) in rows {
            round += gap;
            at[*remote] = coord(parts);
            let update = Update {
                observer: *observer,
                remote: *remote,
                reported_coord: &at[*remote],
                reported_error: 1.0,
                // Selector 0: a sample the simulators' validity guards own.
                rtt: if *sel == 0 { -rtt } else { *rtt },
                round,
                now_ms: round * 1000,
                provenance: if *sel == 1 {
                    Provenance::Lease
                } else {
                    Provenance::Normal
                },
            };
            let got = defense.inspect(&space, &at[*observer], update);
            let want = model.inspect(kind, &space, &at[*observer], update);
            assert_eq!(got, want, "verdict at round {round}");

            let (bans, back) = defense.drain_reputation();
            assert_eq!(bans, std::mem::take(&mut model.ban_events));
            assert_eq!(back, std::mem::take(&mut model.reinstate_events));

            for node in [*observer, *remote] {
                let (new, old) = (defense.history().remote(node), model.remotes.get(&node));
                assert_eq!(new.is_some(), old.is_some(), "remote({node})");
                if let (Some(new), Some(old)) = (new, old) {
                    assert_eq!(new.samples(), old.samples);
                    assert_eq!(bits(new.mean_pull_norm()), bits(old.mean_pull_norm()));
                }
                let new: Vec<OldSample> = defense
                    .history()
                    .recent(node)
                    .iter()
                    .map(|(s, vec, height)| OldSample {
                        remote: s.remote,
                        coord: Coord {
                            vec: vec.to_vec(),
                            height,
                        },
                        rtt: s.rtt,
                        residual: s.residual,
                        rel_residual: s.rel_residual,
                        round: s.round,
                    })
                    .collect();
                let old = model.observers.get(&node).map_or(&[][..], |o| &o.0);
                assert_eq!(new, old, "recent({node})");
            }
        }
        let stats = defense.stats();
        assert_eq!(
            (stats.accepted, stats.rejected),
            (model.accepted, model.rejected)
        );
        assert_eq!(stats.quarantined, model.quarantined);
        let malicious: Vec<bool> = (0..NODES).map(|k| k % 3 == 0).collect();
        for node in 0..NODES + 2 {
            let get = |m: &HashMap<usize, u64>| m.get(&node).copied().unwrap_or(0);
            let tally = stats.nodes.get(node).copied().unwrap_or_default();
            assert_eq!(tally.flags, get(&model.flags));
            assert_eq!(tally.inspected, get(&model.inspected));
        }
        for (min_flags, min_rate) in [(0, 0.0), (1, 0.0), (3, 0.0), (1, 0.25), (2, 0.6)] {
            assert_eq!(
                stats.confusion_rated(&malicious, min_flags, min_rate),
                model.confusion_rated(&malicious, min_flags, min_rate)
            );
        }
    }

    fn rows() -> impl Strategy<Value = Vec<Row>> {
        prop::collection::vec(
            (
                0..NODES,
                0..NODES,
                prop::collection::vec(-250.0f64..250.0, 7..=7),
                1.0f64..500.0,
                0u64..3,
                0u8..12,
            ),
            1..400,
        )
    }

    fn space(sel: u8) -> Space {
        match sel {
            0 => Space::Euclidean(2),
            1 => Space::EuclideanHeight(2),
            _ => Space::Euclidean(6),
        }
    }

    proptest! {
        #[test]
        fn drift_cap_agrees_with_the_hashed_store(
            rows in rows(), sel in 0u8..3, cap in 5.0f64..200.0, half_life in 0.0f64..40.0,
        ) {
            // A third of the cases ban for good; the rest forgive.
            let half_life = (half_life >= 13.0).then_some(half_life - 12.0);
            check(Kind::Drift { cap, half_life }, space(sel), &rows);
        }

        #[test]
        fn sample_filters_agree_with_the_hashed_store(rows in rows(), sel in 0u8..3, which in 0u8..4) {
            let kind = [Kind::Ewma, Kind::Mad, Kind::Triangle, Kind::Trusted][which as usize];
            check(kind, space(sel), &rows);
        }
    }
}
