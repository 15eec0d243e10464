//! The per-run fault interpreter the sims thread through their probe paths.

use crate::gilbert::BurstFate;
use crate::plan::{pick_replacement, ChaosPlan, ChurnKind};
use rand_chacha::ChaCha12Rng;
use vcoord_obs as obs;

/// Running totals of every fault the interpreter injected or absorbed.
/// Mirrored into obs counters (`chaos.*`) when the obs plane is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Churn crashes applied.
    pub crashes: u64,
    /// Churn restarts applied.
    pub restarts: u64,
    /// Probe attempts that timed out (dead peer, partition, or burst loss).
    pub timeouts: u64,
    /// Timeouts attributable to the Gilbert–Elliott bad state.
    pub burst_losses: u64,
    /// Delivered probes that carried a burst RTT spike.
    pub spiked: u64,
    /// Retry attempts scheduled after a timeout.
    pub retries: u64,
    /// Vivaldi neighbors evicted for staleness.
    pub evictions: u64,
    /// NPS references failed over through membership replacement.
    pub failovers: u64,
    /// Readmission leases granted: banned NPS references re-admitted into
    /// the probe rotation — still on the ban ledger, their evidence
    /// quarantined — to relieve reference starvation.
    pub leases: u64,
    /// Leases ended early by a fresh ban on the leased reference.
    pub lease_returns: u64,
}

/// What the fault layer did to one probe attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeFate {
    /// The probe went through; measured RTT in ms (spike included).
    Delivered(f64),
    /// No response within the timeout: dead/partitioned peer or burst loss.
    Timeout,
}

// How probers cope with unresponsive peers: bounded retry with exponential
// backoff, then (for Vivaldi) staleness eviction of the neighbor or (for
// NPS) fail-over through membership replacement.

/// Time a prober waits before declaring one probe attempt dead, ms.
const PROBE_TIMEOUT_MS: f64 = 3_000.0;
/// Retries after the first failed attempt (so `PROBE_MAX_RETRIES + 1`
/// attempts total per probe cycle).
const PROBE_MAX_RETRIES: u32 = 2;
/// Backoff multiplier: retry `k` fires `PROBE_TIMEOUT_MS · PROBE_BACKOFF^k`
/// after its predecessor failed.
const PROBE_BACKOFF: f64 = 2.0;
/// Consecutive exhausted probe cycles to one peer before it is evicted /
/// failed over.
const PROBE_EVICT_AFTER: u32 = 2;

/// A [`ChaosPlan`] bound to a run: tracks which nodes are down, each
/// prober's burst-chain state, and the fault counters. All randomness
/// comes from the plan's private stream, so an empty plan draws nothing
/// and perturbs nothing.
#[derive(Debug, Clone)]
pub struct ChaosState {
    plan: ChaosPlan,
    installed_at: u64,
    next_churn: usize,
    down: Vec<bool>,
    burst_bad: Vec<bool>,
    rng: ChaCha12Rng,
    counters: ChaosCounters,
    restart_buf: Vec<usize>,
}

impl ChaosState {
    /// Bind `plan` to a run of `n` nodes installed at absolute sim time
    /// `installed_at` (all plan times are relative to this instant).
    pub fn new(mut plan: ChaosPlan, n: usize, installed_at: u64) -> Self {
        plan.churn
            .sort_by_key(|e| (e.at_ms, e.node, matches!(e.kind, ChurnKind::Restart)));
        let rng = plan.runtime_rng();
        ChaosState {
            plan,
            installed_at,
            next_churn: 0,
            down: vec![false; n],
            burst_bad: vec![false; n],
            rng,
            counters: ChaosCounters::default(),
            restart_buf: Vec::new(),
        }
    }

    /// The bound plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Fault totals so far.
    pub fn counters(&self) -> &ChaosCounters {
        &self.counters
    }

    /// Apply every churn event due by absolute time `now_ms`; returns the
    /// nodes that restarted during this call so the sim can reset their
    /// coordinate state. The returned slice borrows an internal buffer —
    /// no allocation on the (empty-timeline) fast path.
    pub fn advance(&mut self, now_ms: u64) -> &[usize] {
        self.restart_buf.clear();
        while let Some(e) = self.plan.churn.get(self.next_churn) {
            if self.installed_at.saturating_add(e.at_ms) > now_ms {
                break;
            }
            match e.kind {
                ChurnKind::Crash => {
                    if !self.down[e.node] {
                        self.down[e.node] = true;
                        self.counters.crashes += 1;
                        obs::counter_add(obs::metric_id!("chaos.crashes"), 1);
                        obs::event(obs::metric_id!("chaos.crash"), now_ms, e.node as u32, 0.0);
                    }
                }
                ChurnKind::Restart => {
                    if self.down[e.node] {
                        self.down[e.node] = false;
                        self.counters.restarts += 1;
                        self.restart_buf.push(e.node);
                        obs::counter_add(obs::metric_id!("chaos.restarts"), 1);
                        obs::event(obs::metric_id!("chaos.restart"), now_ms, e.node as u32, 0.0);
                    }
                }
            }
            self.next_churn += 1;
        }
        &self.restart_buf
    }

    /// Is `node` currently crashed?
    #[inline]
    pub fn is_down(&self, node: usize) -> bool {
        self.down[node]
    }

    /// Are `a` and `b` separated by an active partition window at absolute
    /// time `now_ms`?
    pub(crate) fn partitioned(&self, a: usize, b: usize, now_ms: u64) -> bool {
        if self.plan.partitions.is_empty() {
            return false;
        }
        let rel = now_ms.saturating_sub(self.installed_at);
        self.plan.partitions.iter().any(|w| w.separates(a, b, rel))
    }

    /// Decide the fate of one probe attempt from `observer` to `peer`
    /// whose (link-perturbed) RTT would be `rtt_ms`. Steps `observer`'s
    /// burst chain exactly once per attempt.
    pub fn probe_fate(
        &mut self,
        observer: usize,
        peer: usize,
        now_ms: u64,
        rtt_ms: f64,
    ) -> ProbeFate {
        if self.down[peer] || self.down[observer] || self.partitioned(observer, peer, now_ms) {
            self.counters.timeouts += 1;
            obs::counter_add(obs::metric_id!("chaos.timeouts"), 1);
            return ProbeFate::Timeout;
        }
        let Some(bursts) = self.plan.bursts else {
            return ProbeFate::Delivered(rtt_ms);
        };
        match bursts.step(&mut self.burst_bad[observer], &mut self.rng) {
            BurstFate::Clean => ProbeFate::Delivered(rtt_ms),
            BurstFate::Spiked(ms) => {
                self.counters.spiked += 1;
                obs::counter_add(obs::metric_id!("chaos.spiked"), 1);
                ProbeFate::Delivered(rtt_ms + ms)
            }
            BurstFate::Lost => {
                self.counters.timeouts += 1;
                self.counters.burst_losses += 1;
                obs::counter_add(obs::metric_id!("chaos.timeouts"), 1);
                obs::counter_add(obs::metric_id!("chaos.burst_losses"), 1);
                ProbeFate::Timeout
            }
        }
    }

    /// Delay before retry number `attempt` (1-based) of a probe cycle:
    /// `timeout * backoff^(attempt-1)` — exponential backoff anchored at
    /// the probe timeout.
    pub fn retry_delay_ms(&self, attempt: u32) -> f64 {
        PROBE_TIMEOUT_MS * PROBE_BACKOFF.powi(attempt.saturating_sub(1) as i32)
    }

    /// Retry budget per probe cycle (attempts beyond the first).
    #[inline]
    pub fn max_retries(&self) -> u32 {
        PROBE_MAX_RETRIES
    }

    /// Exhausted probe cycles tolerated before eviction/fail-over.
    #[inline]
    pub fn evict_after(&self) -> u32 {
        PROBE_EVICT_AFTER
    }

    /// Record a scheduled retry.
    pub fn note_retry(&mut self) {
        self.counters.retries += 1;
        obs::counter_add(obs::metric_id!("chaos.retries"), 1);
    }

    /// Record a Vivaldi staleness eviction.
    pub fn note_eviction(&mut self, node: usize, peer: usize, now_ms: u64) {
        self.counters.evictions += 1;
        obs::counter_add(obs::metric_id!("chaos.evictions"), 1);
        obs::event(
            obs::metric_id!("chaos.evict"),
            now_ms,
            node as u32,
            peer as f64,
        );
    }

    /// Record an NPS reference fail-over.
    pub fn note_failover(&mut self, node: usize, dead_ref: usize, now_ms: u64) {
        self.counters.failovers += 1;
        obs::counter_add(obs::metric_id!("chaos.failovers"), 1);
        obs::event(
            obs::metric_id!("chaos.failover"),
            now_ms,
            node as u32,
            dead_ref as f64,
        );
    }

    /// Record an NPS readmission lease. Under churn, starvation relief is
    /// a *lease*, not a verdict: when a node's reference set starves below
    /// the positioning constraint (dim+1) the sim re-admits its oldest
    /// banned reference into the probe rotation — but the reference stays
    /// on the ban ledger and its evidence is quarantined (`Lease`
    /// provenance) so the relief channel can never launder a ban away.
    pub fn note_lease(&mut self, node: usize, leased_ref: usize, now_ms: u64) {
        self.counters.leases += 1;
        obs::counter_add(obs::metric_id!("chaos.leases"), 1);
        obs::event(
            obs::metric_id!("chaos.lease"),
            now_ms,
            node as u32,
            leased_ref as f64,
        );
    }

    /// Record a lease ending early: the leased reference earned a fresh
    /// ban (relapse) and leaves the probe rotation again.
    pub fn note_lease_return(&mut self, node: usize, leased_ref: usize, now_ms: u64) {
        self.counters.lease_returns += 1;
        obs::counter_add(obs::metric_id!("chaos.lease_returns"), 1);
        obs::event(
            obs::metric_id!("chaos.lease_return"),
            now_ms,
            node as u32,
            leased_ref as f64,
        );
    }

    /// Pick a replacement peer for `node` avoiding `exclude` (drawn from
    /// the plan's private stream). Used by Vivaldi neighbor replacement so
    /// eviction keeps the spring count.
    pub fn replacement(&mut self, n: usize, node: usize, exclude: &[usize]) -> Option<usize> {
        pick_replacement(n, node, exclude, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gilbert::BurstModel;
    use crate::plan::ChurnEvent;

    #[test]
    fn churn_timeline_applies_in_order_and_reports_restarts() {
        let mut plan = ChaosPlan::none().takedown(&[1, 2], 100);
        plan.churn.extend([2, 1].map(|node| ChurnEvent {
            at_ms: 500,
            node,
            kind: ChurnKind::Restart,
        }));
        let mut st = ChaosState::new(plan, 4, 1_000);
        assert!(st.advance(1_050).is_empty());
        assert!(!st.is_down(1));
        assert!(st.advance(1_100).is_empty());
        assert!(st.is_down(1) && st.is_down(2) && !st.is_down(0));
        let restarted = st.advance(1_500).to_vec();
        assert_eq!(restarted, vec![1, 2]);
        assert!(!st.is_down(1) && !st.is_down(2));
        assert_eq!(st.counters().crashes, 2);
        assert_eq!(st.counters().restarts, 2);
    }

    #[test]
    fn probe_fate_times_out_on_down_or_partitioned_peers() {
        let plan = ChaosPlan::none()
            .takedown(&[3], 0)
            .partition(vec![0, 1], 0, 10_000);
        let mut st = ChaosState::new(plan, 6, 0);
        st.advance(0);
        assert_eq!(st.probe_fate(0, 3, 5, 10.0), ProbeFate::Timeout);
        assert_eq!(st.probe_fate(0, 2, 5, 10.0), ProbeFate::Timeout, "split");
        assert_eq!(
            st.probe_fate(0, 1, 5, 10.0),
            ProbeFate::Delivered(10.0),
            "same side"
        );
        assert_eq!(
            st.probe_fate(4, 5, 20_000, 10.0),
            ProbeFate::Delivered(10.0),
            "window over"
        );
        assert_eq!(st.counters().timeouts, 2);
    }

    #[test]
    fn empty_plan_draws_nothing_and_never_times_out() {
        let mut st = ChaosState::new(ChaosPlan::none(), 8, 0);
        let rng_before = format!("{:?}", st.rng);
        for t in 0..64u64 {
            assert!(st.advance(t * 1000).is_empty());
            assert_eq!(
                st.probe_fate(0, 1, t * 1000, 5.0),
                ProbeFate::Delivered(5.0)
            );
        }
        assert_eq!(
            format!("{:?}", st.rng),
            rng_before,
            "empty plan must not consume randomness"
        );
        assert_eq!(*st.counters(), ChaosCounters::default());
    }

    #[test]
    fn retry_delays_back_off_exponentially() {
        let st = ChaosState::new(ChaosPlan::none(), 2, 0);
        assert_eq!(st.retry_delay_ms(1), 3_000.0);
        assert_eq!(st.retry_delay_ms(2), 6_000.0);
        assert_eq!(st.retry_delay_ms(3), 12_000.0);
    }

    #[test]
    fn bursts_mark_and_spike_probes() {
        // p_enter = 1: the prober's first probe is in a burst, and every
        // later one too unless the burst just ended.
        let plan = ChaosPlan::with_seed(11).bursts(BurstModel { p_enter: 1.0 });
        let mut st = ChaosState::new(plan, 2, 0);
        let fates: Vec<ProbeFate> = (0..16).map(|t| st.probe_fate(0, 1, t, 10.0)).collect();
        assert_ne!(fates[0], ProbeFate::Delivered(10.0));
        let count = |fate: ProbeFate| fates.iter().filter(|f| **f == fate).count() as u64;
        let spiked = count(ProbeFate::Delivered(50.0));
        assert!(spiked > 0);
        assert_eq!(st.counters().spiked, spiked);
        assert_eq!(st.counters().burst_losses, count(ProbeFate::Timeout));
    }
}
