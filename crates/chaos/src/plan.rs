//! Declarative fault schedules.
//!
//! A [`ChaosPlan`] is plain data: a sorted churn timeline, partition
//! windows and an optional burst regime (the probe retry policy is fixed,
//! beside its reader in the runtime). Builders
//! that need randomness (victim selection for [`ChaosPlan::churn_wave`] and
//! [`ChaosPlan::split`]) draw from labelled streams derived from the plan's
//! own seed, so a plan is fully determined by its inputs and never touches
//! the sims' seed streams.
//!
//! All times in a plan are **relative to installation** (the sims install
//! chaos at the attack-injection instant), so the same plan composes with
//! any warmup length.

use crate::gilbert::BurstModel;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vcoord_netsim::SeedStream;

/// One churn transition for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// The node stops probing and stops answering; peers' probes to it
    /// time out. Its last coordinate stays visible in snapshots (stale).
    Crash,
    /// The node rejoins from scratch: the sims reset its coordinate state
    /// and it resumes probing on its old schedule.
    Restart,
}

/// A scheduled churn transition, `at_ms` relative to plan installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    pub at_ms: u64,
    pub node: usize,
    pub kind: ChurnKind,
}

/// A timed split: nodes inside `group` cannot exchange probes with nodes
/// outside it while `start_ms <= t - install < end_ms`. `group` is kept
/// sorted for binary-search membership tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    pub group: Vec<usize>,
}

impl PartitionWindow {
    /// Are `a` and `b` on opposite sides of this window's split at
    /// relative time `rel_ms`?
    pub(crate) fn separates(&self, a: usize, b: usize, rel_ms: u64) -> bool {
        if rel_ms < self.start_ms || rel_ms >= self.end_ms {
            return false;
        }
        self.group.binary_search(&a).is_ok() != self.group.binary_search(&b).is_ok()
    }
}

/// A complete seeded fault schedule. Start from [`ChaosPlan::none`] and
/// chain builders; an untouched plan is *inert* ([`ChaosPlan::is_empty`])
/// and a sim running one is bitwise identical to a sim without chaos.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed for the plan's private randomness (victim picks, burst chain).
    pub seed: u64,
    /// Churn timeline, sorted by `(at_ms, node)`.
    pub churn: Vec<ChurnEvent>,
    /// Partition windows (may overlap).
    pub partitions: Vec<PartitionWindow>,
    /// Gilbert–Elliott burst regime, if any.
    pub bursts: Option<BurstModel>,
}

/// Share of the nodes [`ChaosPlan::split`] partitions away from the rest.
const SPLIT_FRACTION: f64 = 0.5;

impl ChaosPlan {
    /// The inert plan: no faults, seed 0.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            churn: Vec::new(),
            partitions: Vec::new(),
            bursts: None,
        }
    }

    /// An inert plan carrying `seed` for later randomized builders.
    pub fn with_seed(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..Self::none()
        }
    }

    /// No faults scheduled: installing this plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.churn.is_empty() && self.partitions.is_empty() && self.bursts.is_none()
    }

    /// Crash a uniformly random `fraction` of the `n` nodes at `down_at_ms`
    /// and restart them `up_after_ms` later. Victims are drawn from the
    /// plan seed (label `chaos/churn`), not from any sim stream.
    pub fn churn_wave(
        mut self,
        n: usize,
        fraction: f64,
        down_at_ms: u64,
        up_after_ms: u64,
    ) -> Self {
        let count = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let mut ids: Vec<usize> = (0..n).collect();
        let mut rng = SeedStream::new(self.seed).rng("chaos/churn");
        ids.shuffle(&mut rng);
        ids.truncate(count);
        for node in ids {
            self.churn.push(ChurnEvent {
                at_ms: down_at_ms,
                node,
                kind: ChurnKind::Crash,
            });
            self.churn.push(ChurnEvent {
                at_ms: down_at_ms + up_after_ms,
                node,
                kind: ChurnKind::Restart,
            });
        }
        self.normalized()
    }

    /// Degree-targeted takedown: crash exactly `targets` (e.g. NPS layer-0
    /// landmarks) at `at_ms`, for good.
    pub fn takedown(mut self, targets: &[usize], at_ms: u64) -> Self {
        for &node in targets {
            self.churn.push(ChurnEvent {
                at_ms,
                node,
                kind: ChurnKind::Crash,
            });
        }
        self.normalized()
    }

    /// Partition an explicit `group` away from everyone else during
    /// `[start_ms, end_ms)`.
    pub fn partition(mut self, mut group: Vec<usize>, start_ms: u64, end_ms: u64) -> Self {
        group.sort_unstable();
        group.dedup();
        self.partitions.push(PartitionWindow {
            start_ms,
            end_ms,
            group,
        });
        self
    }

    /// Partition a random half of the `n` nodes (label `chaos/partition`)
    /// away from the rest during `[start_ms, end_ms)`.
    pub fn split(self, n: usize, start_ms: u64, end_ms: u64) -> Self {
        let count = ((n as f64) * SPLIT_FRACTION).round() as usize;
        let mut ids: Vec<usize> = (0..n).collect();
        let mut rng = SeedStream::new(self.seed).rng("chaos/partition");
        ids.shuffle(&mut rng);
        ids.truncate(count);
        self.partition(ids, start_ms, end_ms)
    }

    /// Install a Gilbert–Elliott burst regime.
    pub fn bursts(mut self, model: BurstModel) -> Self {
        self.bursts = Some(model);
        self
    }

    /// A fresh rng on the plan's private stream (used by the runtime for
    /// burst sampling and replacement picks).
    pub(crate) fn runtime_rng(&self) -> rand_chacha::ChaCha12Rng {
        SeedStream::new(self.seed).rng("chaos/runtime")
    }

    fn normalized(mut self) -> Self {
        self.churn
            .sort_by_key(|e| (e.at_ms, e.node, matches!(e.kind, ChurnKind::Restart)));
        self
    }
}

/// Pick a replacement peer for `node` that is none of `node` itself nor in
/// `exclude`; `None` when the pool is exhausted. Used for Vivaldi neighbor
/// replacement after staleness eviction.
pub(crate) fn pick_replacement<R: Rng + ?Sized>(
    n: usize,
    node: usize,
    exclude: &[usize],
    rng: &mut R,
) -> Option<usize> {
    let candidates = n.saturating_sub(1 + exclude.iter().filter(|&&e| e != node).count());
    if candidates == 0 {
        return None;
    }
    // Rejection-sample; the pool is large relative to a neighbor list in
    // every experiment scale, so this terminates fast.
    for _ in 0..8 * n.max(8) {
        let c = rng.gen_range(0..n);
        if c != node && !exclude.contains(&c) {
            return Some(c);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_builders_are_seed_deterministic() {
        assert!(ChaosPlan::none().is_empty());
        let a = ChaosPlan::with_seed(9).churn_wave(50, 0.2, 1000, 5000);
        let b = ChaosPlan::with_seed(9).churn_wave(50, 0.2, 1000, 5000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // 10 victims, crash + restart each.
        assert_eq!(a.churn.len(), 20);
        assert!(a.churn.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let c = ChaosPlan::with_seed(10).churn_wave(50, 0.2, 1000, 5000);
        assert_ne!(a, c, "different seeds must pick different victims");
    }

    #[test]
    fn takedown_hits_exact_targets() {
        let p = ChaosPlan::none().takedown(&[3, 1, 4], 100);
        assert_eq!(p.churn.len(), 3);
        assert!(p.churn.iter().all(|e| e.kind == ChurnKind::Crash));
        let mut nodes: Vec<usize> = p.churn.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 3, 4]);
    }

    #[test]
    fn partition_separates_only_across_the_split_inside_the_window() {
        let p = ChaosPlan::none().partition(vec![2, 0], 100, 200);
        let w = &p.partitions[0];
        assert!(w.separates(0, 1, 150));
        assert!(!w.separates(0, 2, 150), "same side never separated");
        assert!(!w.separates(1, 3, 150), "same side never separated");
        assert!(!w.separates(0, 1, 99), "before the window");
        assert!(!w.separates(0, 1, 200), "end is exclusive");
    }

    #[test]
    fn replacement_respects_exclusions() {
        let mut rng = SeedStream::new(3).rng("test");
        for _ in 0..64 {
            let r = pick_replacement(6, 2, &[0, 1, 3], &mut rng).unwrap();
            assert!(r == 4 || r == 5, "r={r}");
        }
        assert_eq!(pick_replacement(3, 0, &[1, 2], &mut rng), None);
    }

    #[test]
    fn composed_plans_stay_sorted_and_comparable() {
        let p = ChaosPlan::with_seed(5)
            .takedown(&[7], 9_000)
            .churn_wave(20, 0.25, 500, 2_000)
            .split(20, 100, 900)
            .bursts(BurstModel::mild());
        assert!(p.churn.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert_eq!(p.partitions[0].group.len(), 10);
        assert_eq!(p.clone(), p);
    }
}
