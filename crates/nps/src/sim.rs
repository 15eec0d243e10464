//! The NPS simulation world.
//!
//! Nodes join staggered by layer (reference layers first), then reposition
//! periodically. A positioning round is executed *atomically* at its timer:
//! all reference probes, the Simplex minimization, and the security filter
//! happen at one simulated instant. This is faithful at NPS timescales —
//! repositioning periods (≥ 60 s) dwarf probe RTTs (≤ 5 s threshold) — and
//! the adversarial delay is what matters to the algorithm, which sees it in
//! the *measured RTT value*; the authors' own event-driven simulator makes
//! the same simplification.
//!
//! Landmarks embed themselves at construction time by iterative rounds of
//! mutual positioning (each landmark runs the Simplex minimization against
//! the others — NPS's decentralization of GNP), and are pinned thereafter:
//! the paper's threat model assumes "landmarks are highly secure machines
//! that never cheat".

use crate::config::NpsConfig;
use crate::layers::{assign_layers, select_landmarks};
use crate::membership::Membership;
use crate::position::{position_node, PositionScratch, RefSample, SecurityPolicy};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use vcoord_attackkit::{AttackStrategy, CoordView, Lie, Probe, Protocol, Scenario};
use vcoord_chaos::{ChaosCounters, ChaosPlan, ChaosState, ProbeFate};
use vcoord_defense::{
    Defense, DefenseStats, DefenseStrategy, Provenance, Update as DefenseUpdate, Verdict,
};
use vcoord_metrics::FilterLedger;
use vcoord_netsim::{Engine, Injected, NodeId, Scheduler, SeedStream, World};
use vcoord_space::{Coord, Space};
use vcoord_topo::RttMatrix;

/// Length of one positioning round: each node's repositioning period (ms).
pub const ROUND_MS: u64 = 60_000;
/// Fraction of ordinary nodes placed in each middle (reference) layer.
pub(crate) const REF_FRACTION: f64 = 0.20;
/// Sensitivity constant `C` of the security filter.
pub(crate) const SECURITY_C: f64 = 4.0;
/// Absolute fitting-error floor of the security filter (condition 1).
pub(crate) const SECURITY_MIN_ERROR: f64 = 0.01;
/// Probes slower than this are discarded as suspicious (ms).
pub(crate) const PROBE_THRESHOLD_MS: f64 = 5_000.0;
/// Per-layer join stagger window (ms): layer `i` joins during
/// `[(i-1)·stagger, i·stagger)`.
const JOIN_STAGGER_MS: u64 = 120_000;
/// Passes of iterative landmark embedding at start-up.
const LANDMARK_ROUNDS: usize = 30;
/// Per-round movement damping α ∈ (0, 1]: a repositioning moves a node
/// `α · (fit − incumbent)`. First positionings are undamped. Damped
/// incremental refinement is what keeps the security filter's reference
/// frame stable under attack (see DESIGN.md calibration notes).
const UPDATE_DAMPING: f64 = 0.20;

const TAG_REPOSITION: u64 = 1;

/// Positioning/probe counters, exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NpsCounters {
    /// Successful positioning rounds.
    pub positionings: u64,
    /// Rounds skipped for lack of usable references.
    pub skipped_rounds: u64,
    /// Probes discarded by the probe threshold.
    pub probes_discarded: u64,
    /// References eliminated by the security filter.
    pub refs_filtered: u64,
    /// Replacement references granted by the membership server.
    pub refs_replaced: u64,
    /// Lies served by the adversary.
    pub lies_served: u64,
    /// Negative adversarial delays clamped (threat-model violations).
    pub delay_clamped: u64,
    /// Simplex objective evaluations across all positioning rounds
    /// (start-up landmark embedding excluded).
    pub objective_evals: u64,
    /// Probation re-measurements of banned references (evidence-only
    /// probes; see `NpsConfig::probation_every`).
    pub probation_probes: u64,
}

#[derive(Clone)]
struct NpsWorld {
    config: NpsConfig,
    /// Shared with every clone of this system.
    matrix: Arc<RttMatrix>,
    membership: Membership,
    layer: Vec<u8>,
    is_ref: Vec<bool>,
    coords: Vec<Coord>,
    positioned: Vec<bool>,
    refs: Vec<Vec<usize>>,
    /// Per-node rolling ban ledger, FIFO: `push_back` on ban, `pop_front`
    /// on window expiry and starvation-relief lease selection — a
    /// `VecDeque` so long ledgers under heavy churn stay O(1) per event
    /// instead of the old `Vec::remove(0)` front-pop going quadratic.
    banned: Vec<VecDeque<usize>>,
    /// Per-node readmission leases: references readmitted into the probe
    /// rotation by starvation relief while *still on the ban ledger*.
    /// Their samples carry `Provenance::Lease` and are quarantined by the
    /// defense engine. Always a subset of `refs[node]`; empty in every
    /// non-chaos run.
    leased: Vec<Vec<usize>>,
    malicious: Vec<bool>,
    scenario: Injected<Scenario>,
    defense: Injected<Defense>,
    ledger: FilterLedger,
    threshold_ledger: FilterLedger,
    counters: NpsCounters,
    probe_rng: ChaCha12Rng,
    adv_rng: ChaCha12Rng,
    /// Reusable Simplex/positioning buffers (allocation-free hot path).
    pos_scratch: PositionScratch,
    /// Recycled gathering buffer for one round's reference samples.
    samples_buf: Vec<RefSample>,
    /// Recycled copy of the repositioning node's reference set (decouples
    /// the probe loop from `self.refs` borrows without a per-round clone).
    refs_buf: Vec<usize>,
    /// Installed fault schedule, if any. `None` costs one discriminant
    /// check per reference probe; all chaos randomness lives on the plan's
    /// own stream, so a run with an empty plan is bitwise identical to a
    /// plain run.
    chaos: Injected<ChaosState>,
    /// Per-node positioning-round count, driving the probation cadence.
    probation_clock: Vec<u64>,
    /// Per-node round-robin cursor over the rolling ban list.
    probation_cursor: Vec<usize>,
}

impl NpsWorld {
    fn security(&self) -> SecurityPolicy {
        SecurityPolicy {
            enabled: self.config.security,
            c: SECURITY_C,
            min_error: SECURITY_MIN_ERROR,
        }
    }

    /// Gather one reference probe, applying adversary and threshold rules.
    /// Returns `None` if the probe was lost or discarded.
    fn probe_ref(&mut self, node: usize, r: usize, now_ms: u64) -> Option<RefSample> {
        // Floor the measured RTT at 0.1 ms, as a `LinkModel` does: a loaded
        // King matrix may hold cells below it.
        let true_rtt = self.matrix.rtt(node, r).max(0.1);
        let true_rtt = if self.chaos.is_some() {
            match self.chaos_probe(node, r, now_ms, true_rtt) {
                Some(v) => v,
                None => {
                    // The reference is unreachable after a full retry
                    // cycle: fail over through the existing membership /
                    // replacement channel, exactly like a distrusted one.
                    self.ban_ref(node, r, now_ms);
                    return None;
                }
            }
        } else {
            true_rtt
        };

        let lie = if let (true, Some(scenario)) = (self.malicious[r], self.scenario.as_mut()) {
            let view = CoordView {
                space: &self.config.space,
                coords: &self.coords,
                errors: &[],
                layer: &self.layer,
                malicious: &self.malicious,
                is_ref: &self.is_ref,
                round: now_ms / ROUND_MS,
                now_ms,
                params: Protocol {
                    probe_threshold_ms: PROBE_THRESHOLD_MS,
                    ..Protocol::default()
                },
            };
            scenario.respond(
                Probe {
                    attacker: r,
                    victim: node,
                    rtt: true_rtt,
                },
                &view,
                &mut self.adv_rng,
            )
        } else {
            None
        };

        let (coord, rtt) = match lie {
            // NPS carries no error-estimate field: `Lie::error` is ignored.
            Some(Lie {
                coord, delay_ms, ..
            }) => {
                self.counters.lies_served += 1;
                let delay = if delay_ms < 0.0 {
                    self.counters.delay_clamped += 1;
                    0.0
                } else {
                    delay_ms
                };
                (coord, true_rtt + delay)
            }
            None => (self.coords[r].clone(), true_rtt),
        };

        if rtt > PROBE_THRESHOLD_MS {
            // The paper: such probes are "considered suspicious" and
            // discarded. The requesting node additionally bans the offending
            // reference — no benign probe can exceed a 5 s threshold, so
            // this is a pure true-positive channel, and it is exactly what
            // the *sophisticated* anti-detection attack evades by only
            // striking nearby victims (§5.4.3).
            self.counters.probes_discarded += 1;
            self.threshold_ledger.record(self.malicious[r]);
            self.ban_ref(node, r, now_ms);
            return None;
        }

        // Was this reference handed out on a readmission lease? Leased
        // evidence is tagged so the defense engine quarantines it (the
        // `leased` lists are empty outside chaos runs, so this is one
        // scan of an empty Vec on the pre-chaos path).
        let provenance = if self.leased[node].contains(&r) {
            Provenance::Lease
        } else {
            Provenance::Normal
        };

        // Screen the surviving sample through the deployed defense (if
        // any) before it can enter the fit. No deployment and a
        // `NoDefense` deployment both leave `weight = 1.0`, bit-identical
        // to the unweighted objective.
        let mut weight = 1.0;
        if let Some(defense) = self.defense.as_mut() {
            let verdict = defense.inspect(
                &self.config.space,
                &self.coords[node],
                DefenseUpdate {
                    observer: node,
                    remote: r,
                    reported_coord: &coord,
                    reported_error: 1.0,
                    rtt,
                    round: now_ms / ROUND_MS,
                    now_ms,
                    provenance,
                },
            );
            // Arms-race feedback: a malicious reference observes whether
            // its report survived (an NPS victim that distrusts a
            // reference visibly drops it and draws a replacement).
            if self.malicious[r] {
                if let Some(scenario) = self.scenario.as_mut() {
                    scenario.feedback(r, node, verdict.is_flag());
                }
            }
            if verdict == Verdict::Reject {
                // Dropped from the round — and, like a probe-threshold
                // hit, routed through the rolling ban/replacement channel:
                // a deployed node that distrusts a reference asks the
                // membership server for another. Without the replacement a
                // permanently-banning strategy (the drift cap) would
                // silently starve the node's reference set until it can no
                // longer position at all.
                self.ban_ref(node, r, now_ms);
                return None;
            }
            weight = verdict.factor();
        }
        Some(RefSample {
            id: r,
            coord,
            rtt,
            weight,
            provenance,
        })
    }

    /// NPS positioning is atomic per round, so retries cannot be deferred
    /// timers: a node retries an unresponsive reference in-round, up to
    /// the policy's budget (each attempt steps the burst chain once), and
    /// gives up with `None` when the cycle is exhausted.
    fn chaos_probe(&mut self, node: usize, r: usize, now_ms: u64, rtt: f64) -> Option<f64> {
        let chaos = self.chaos.as_mut().expect("chaos_probe without chaos");
        let mut fate = chaos.probe_fate(node, r, now_ms, rtt);
        let mut attempt = 0;
        while fate == ProbeFate::Timeout && attempt < chaos.max_retries() {
            chaos.note_retry();
            attempt += 1;
            fate = chaos.probe_fate(node, r, now_ms, rtt);
        }
        match fate {
            ProbeFate::Delivered(v) => Some(v),
            ProbeFate::Timeout => {
                chaos.note_failover(node, r, now_ms);
                None
            }
        }
    }

    /// Ban reference `bad` for `node` and request a replacement from the
    /// membership server.
    fn ban_ref(&mut self, node: usize, bad: usize, now_ms: u64) {
        if let Some(pos) = self.leased[node].iter().position(|&l| l == bad) {
            // A leased reference earned a fresh ban: the loan is called in.
            // Its old ledger entries dissolve (the new ban below re-files it
            // at the FIFO tail, so it goes to the back of the relief queue).
            self.leased[node].swap_remove(pos);
            self.banned[node].retain(|&b| b != bad);
            if let Some(chaos) = self.chaos.as_mut() {
                chaos.note_lease_return(node, bad, now_ms);
            }
        }
        self.banned[node].push_back(bad);
        // Rolling exclusion window, not a permanent blacklist: NPS replaces
        // a rejected reference "for future repositioning"; an unbounded
        // blacklist would exhaust the reference pool under false positives
        // (and the paper's attackers demonstrably keep getting reprieves).
        let window = (2 * self.config.refs_per_node).max(8);
        if self.banned[node].len() > window {
            if let Some(expired) = self.banned[node].pop_front() {
                // If the expiring entry was the *last* ledger record of a
                // leased reference, the lease dissolves with it: the window
                // has rolled past the ban, so the reference is an ordinary
                // member again, exactly as a non-leased ban would age out.
                if !self.banned[node].contains(&expired) {
                    self.leased[node].retain(|&l| l != expired);
                }
            }
        }
        let had = self.refs[node].len();
        self.refs[node].retain(|&r| r != bad);
        if self.refs[node].len() == had {
            // `bad` was not an active reference (a probation re-measure of
            // an already-banned node): the window refreshed, but no slot
            // opened, so no replacement is due.
            return;
        }
        self.banned[node].make_contiguous();
        if let Some(replacement) = self.membership.replacement(
            node,
            self.layer[node],
            &self.refs[node],
            self.banned[node].as_slices().0,
            &mut self.probe_rng,
        ) {
            self.refs[node].push(replacement);
            self.counters.refs_replaced += 1;
        }
    }

    /// Drain the deployed defense's reputation events. A `Reinstate` event
    /// is routed through the ban/replacement channel in reverse: the
    /// forgiven node is scrubbed from **every** observer's rolling ban
    /// list, so the membership server can hand it out as a replacement
    /// again (the structural undo of the bans its `Reject` verdicts
    /// caused). Ban events need no extra routing — each `Reject` already
    /// went through [`NpsWorld::ban_ref`] at inspection time.
    fn drain_reputation_events(&mut self) {
        let Some(defense) = self.defense.as_mut() else {
            return;
        };
        let (_, reinstated) = defense.drain_reputation();
        for &id in reinstated {
            for list in self.banned.iter_mut() {
                list.retain(|&x| x != id);
            }
            // A strategy-level reinstatement clears leases too: the node is
            // genuinely forgiven, so holding it on quarantined evidence
            // would re-open the very gap the lease closed.
            for list in self.leased.iter_mut() {
                list.retain(|&x| x != id);
            }
        }
    }

    fn reposition(&mut self, node: usize, now_ms: u64) {
        let _span = vcoord_obs::span(vcoord_obs::metric_id!("nps.position_ns"));
        // Starvation relief, chaos runs only. A ban whose replacement
        // request found the membership pool exhausted loses the reference
        // slot permanently, and under churn that can starve a node's
        // reference set below the dim+1 positioning constraint — a
        // restarted (origin-reset) node would then skip every round
        // forever. Refill: first re-ask the membership server for
        // never-banned candidates (bans are scrubbed on reinstatement, so
        // the pool recovers over time), then fall back to *leasing* the
        // oldest banned references back into the rotation — readmission is
        // a loan, not forgiveness: the reference stays on the ban ledger
        // and every sample it produces is tagged `Provenance::Lease`, so
        // the defense quarantines its evidence instead of letting it heal
        // the ban. Without a chaos plan installed a starved node keeps a
        // valid incumbent coordinate, so the pre-chaos behavior (and its
        // goldens) is untouched. Gated on the plan carrying actual faults
        // — an empty plan must stay bitwise inert
        // (tests/chaos_properties.rs), and starvation without faults
        // cannot strand a node at the origin.
        if self.chaos.as_ref().is_some_and(|c| !c.plan().is_empty()) {
            let need = self.config.space.dim() + 1;
            while self.refs[node].len() < need {
                self.banned[node].make_contiguous();
                if let Some(repl) = self.membership.replacement(
                    node,
                    self.layer[node],
                    &self.refs[node],
                    self.banned[node].as_slices().0,
                    &mut self.probe_rng,
                ) {
                    self.refs[node].push(repl);
                    self.counters.refs_replaced += 1;
                    continue;
                }
                // FIFO over the ban ledger: oldest entry whose reference is
                // not already in the rotation (skips live leases — `leased`
                // is a subset of `refs` — and duplicate ledger entries).
                let candidate = self.banned[node]
                    .iter()
                    .copied()
                    .find(|b| !self.refs[node].contains(b));
                let Some(back) = candidate else {
                    break;
                };
                self.refs[node].push(back);
                self.leased[node].push(back);
                if let Some(chaos) = self.chaos.as_mut() {
                    chaos.note_lease(node, back, now_ms);
                }
            }
        }
        // Recycle the refs/samples gathering buffers across rounds: after
        // warm-up the probe loop runs without fresh allocations (the lie
        // coordinates inside each `RefSample` are the only per-probe values
        // still materialized).
        let mut refs = std::mem::take(&mut self.refs_buf);
        refs.clear();
        refs.extend_from_slice(&self.refs[node]);
        let mut samples = std::mem::take(&mut self.samples_buf);
        samples.clear();
        samples.extend(refs.iter().filter_map(|&r| self.probe_ref(node, r, now_ms)));
        self.refs_buf = refs;
        self.drain_reputation_events();

        let mut scratch = std::mem::take(&mut self.pos_scratch);
        let incumbent = if self.positioned[node] {
            Some(&self.coords[node])
        } else {
            None
        };
        let outcome = position_node(
            &self.config.space,
            &samples,
            &self.coords[node],
            incumbent,
            self.security(),
            &self.config.simplex,
            &mut scratch,
        );
        self.pos_scratch = scratch;
        self.samples_buf = samples;
        let Some(outcome) = outcome else {
            self.counters.skipped_rounds += 1;
            vcoord_obs::counter_add(vcoord_obs::metric_id!("nps.skipped_rounds"), 1);
            return;
        };
        self.counters.objective_evals += outcome.evals as u64;
        if vcoord_obs::enabled() {
            vcoord_obs::counter_add(vcoord_obs::metric_id!("nps.positionings"), 1);
            vcoord_obs::observe(
                vcoord_obs::metric_id!("nps.round_evals"),
                outcome.evals as f64,
            );
        }

        if self.positioned[node] {
            // Damped incremental refinement (see `UPDATE_DAMPING`).
            let disp = outcome.coord.sub(&self.coords[node]);
            let space = self.config.space;
            space.apply(&mut self.coords[node], &disp, UPDATE_DAMPING);
        } else {
            self.coords[node] = outcome.coord;
        }
        self.positioned[node] = true;
        self.counters.positionings += 1;

        if let Some(bad) = outcome.filtered {
            self.counters.refs_filtered += 1;
            self.ledger.record(self.malicious[bad]);
            vcoord_obs::event(
                vcoord_obs::metric_id!("nps.filter"),
                now_ms / ROUND_MS,
                bad as u32,
                if self.malicious[bad] { 1.0 } else { 0.0 },
            );
            self.ban_ref(node, bad, now_ms);
        }
    }

    /// The probation channel (`NpsConfig::probation_every`): every N-th
    /// positioning round a node re-measures one reference from its rolling
    /// ban list, round-robin. The probe runs the full adversary + defense
    /// path of [`NpsWorld::probe_ref`], so a decaying ban keeps receiving
    /// evidence about the banned node and can observe reform — but the
    /// returned sample is dropped here and never enters the fit. This is
    /// what lets reputation decay compose with membership-mediated
    /// banishment: without it, a ban cuts the evidence stream and
    /// forgiveness is structurally blind.
    fn maybe_probation(&mut self, node: usize, now_ms: u64) {
        let every = self.config.probation_every;
        if every == 0 || self.defense.is_none() {
            return;
        }
        self.probation_clock[node] += 1;
        if self.probation_clock[node] % every != 0 || self.banned[node].is_empty() {
            return;
        }
        let cursor = self.probation_cursor[node];
        // Skip ledger entries whose reference is out on a lease: a leased
        // reference already feeds (quarantined) evidence through the
        // regular probe rotation, and probing it here would double-count
        // the same round's sample — once as probation, once as lease.
        let len = self.banned[node].len();
        let mut candidate = None;
        for k in 0..len {
            let cand = self.banned[node][cursor.wrapping_add(k) % len];
            if !self.leased[node].contains(&cand) {
                candidate = Some(cand);
                self.probation_cursor[node] = cursor.wrapping_add(k + 1);
                break;
            }
        }
        let Some(candidate) = candidate else {
            // Every banned reference is currently leased: nothing to probe.
            self.probation_cursor[node] = cursor.wrapping_add(1);
            return;
        };
        self.counters.probation_probes += 1;
        vcoord_obs::counter_add(vcoord_obs::metric_id!("nps.probation_probes"), 1);
        vcoord_obs::event(
            vcoord_obs::metric_id!("nps.probation"),
            now_ms / ROUND_MS,
            node as u32,
            candidate as f64,
        );
        // Evidence only: the sample is discarded, the verdict (and any
        // reputation event it causes) is what matters.
        let _ = self.probe_ref(node, candidate, now_ms);
        self.drain_reputation_events();
    }
}

impl World for NpsWorld {
    type Payload = ();

    fn on_timer(&mut self, sched: &mut Scheduler<()>, node: NodeId, tag: u64) {
        debug_assert_eq!(tag, TAG_REPOSITION);
        // Jittered periodic repositioning.
        let jitter = self.probe_rng.gen_range(0..=ROUND_MS / 10);
        sched.timer_after(ROUND_MS + jitter, node, TAG_REPOSITION);

        if let Some(chaos) = self.chaos.as_mut() {
            for &r in chaos.advance(sched.now()) {
                // Ordinary nodes rejoin from scratch (they re-run the full
                // join positioning); restarted landmarks keep their pinned
                // embedding — the paper's "highly secure machines" reboot
                // with their coordinates intact.
                if self.layer[r] != 0 && !self.malicious[r] {
                    self.positioned[r] = false;
                    self.coords[r] = self.config.space.origin();
                }
            }
            if chaos.is_down(node) {
                return; // crashed nodes skip their rounds entirely
            }
        }
        if self.malicious[node] || self.layer[node] == 0 {
            return; // landmarks are pinned; infected nodes freeze
        }
        self.maybe_probation(node, sched.now());
        self.reposition(node, sched.now());
    }

    fn on_message(&mut self, _s: &mut Scheduler<()>, _f: NodeId, _t: NodeId, _p: ()) {
        unreachable!("NPS positioning is atomic; no messages are scheduled");
    }
}

/// A complete NPS system running on the discrete-event engine.
///
/// A clone of a clean system holds the same landmark embedding,
/// coordinates, reference sets, ban ledgers, event queue and random streams,
/// and shares the latency matrix, so advancing both equally keeps them
/// bit-equal. This is what lets several injections start from one
/// converged warm-up without re-embedding the landmarks.
///
/// # Panics
/// Cloning panics once an adversary, a defense or a fault plan has been
/// installed: a system is copied before the injection instant, never after.
#[derive(Clone)]
pub struct NpsSim {
    engine: Engine<()>,
    world: NpsWorld,
}

impl NpsSim {
    /// Build the hierarchy over `matrix`: select landmarks, embed them,
    /// assign layers and reference sets, and schedule staggered joins.
    ///
    /// # Panics
    /// Panics if the matrix is smaller than `landmarks + refs_per_node`.
    pub fn new(matrix: RttMatrix, config: NpsConfig, seeds: &SeedStream) -> NpsSim {
        // Construction embeds the landmark layer (Simplex fits per landmark
        // per round), which is real engine time that `nps.run_rounds_ns`
        // never sees; span it so profiles attribute it to the engine rather
        // than harness overhead.
        let _span = vcoord_obs::span(vcoord_obs::metric_id!("nps.embed_ns"));
        let n = matrix.len();
        assert!(
            n >= config.landmarks + 2,
            "matrix too small for {} landmarks",
            config.landmarks
        );

        let landmark_ids = select_landmarks(&matrix, config.landmarks);
        let layer = assign_layers(
            n,
            &landmark_ids,
            config.layers,
            REF_FRACTION,
            &mut seeds.rng("nps/layers"),
        );
        let membership = Membership::new(&layer, config.layers);
        let is_ref: Vec<bool> = layer
            .iter()
            .map(|&l| (l as usize) < config.layers - 1)
            .collect();

        // Landmark embedding: iterative decentralized GNP.
        let mut coords = vec![config.space.origin(); n];
        let mut lm_rng = seeds.rng("nps/landmarks");
        let scale = 150.0;
        for &l in &landmark_ids {
            coords[l] = config.space.random_coord(scale, &mut lm_rng);
        }
        let mut lm_scratch = PositionScratch::new();
        let mut lm_samples: Vec<RefSample> = Vec::with_capacity(landmark_ids.len());
        for _round in 0..LANDMARK_ROUNDS {
            for &l in &landmark_ids {
                lm_samples.clear();
                lm_samples.extend(
                    landmark_ids
                        .iter()
                        .filter(|&&o| o != l)
                        .map(|&o| RefSample::new(o, coords[o].clone(), matrix.rtt(l, o))),
                );
                if let Some(out) = position_node(
                    &config.space,
                    &lm_samples,
                    &coords[l],
                    None,
                    SecurityPolicy::off(),
                    &config.simplex,
                    &mut lm_scratch,
                ) {
                    coords[l] = out.coord;
                }
            }
        }

        // Reference assignment (static membership; bans accrue at runtime).
        let mut member_rng = seeds.rng("nps/membership");
        let refs: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                membership.assign_refs(i, layer[i], config.refs_per_node, &[], &mut member_rng)
            })
            .collect();

        let mut positioned = vec![false; n];
        for &l in &landmark_ids {
            positioned[l] = true;
        }

        let mut engine = Engine::new();
        let mut join_rng = seeds.rng("nps/join");
        for (i, &l) in layer.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let window_start = (l as u64 - 1) * JOIN_STAGGER_MS;
            let at = window_start + join_rng.gen_range(0..JOIN_STAGGER_MS);
            engine.scheduler().timer_at(at, i, TAG_REPOSITION);
        }

        let world = NpsWorld {
            is_ref,
            membership,
            layer,
            coords,
            positioned,
            refs,
            banned: vec![VecDeque::new(); n],
            leased: vec![Vec::new(); n],
            malicious: vec![false; n],
            scenario: Injected::default(),
            defense: Injected::default(),
            ledger: FilterLedger::new(),
            threshold_ledger: FilterLedger::new(),
            counters: NpsCounters::default(),
            probe_rng: seeds.rng("nps/probe"),
            adv_rng: seeds.rng("nps/adversary"),
            pos_scratch: lm_scratch,
            samples_buf: lm_samples,
            refs_buf: Vec::new(),
            chaos: Injected::default(),
            probation_clock: vec![0; n],
            probation_cursor: vec![0; n],
            matrix: Arc::new(matrix),
            config,
        };
        NpsSim { engine, world }
    }

    /// A clone with a latency matrix of its own, copied by the calling
    /// thread, so a fork run on a worker thread keeps no memory of the
    /// thread that built the original alive.
    ///
    /// # Panics
    /// As [`clone`](Clone::clone).
    pub fn fork(&self) -> NpsSim {
        let mut copy = self.clone();
        copy.world.matrix = Arc::new(RttMatrix::clone(&self.world.matrix));
        copy
    }

    /// Advance the simulation by `ms` simulated milliseconds.
    fn run_ms(&mut self, ms: u64) {
        let _span = vcoord_obs::span(vcoord_obs::metric_id!("nps.run_rounds_ns"));
        let target = self.engine.now() + ms;
        self.engine.run_until(&mut self.world, target);
    }

    /// Advance by `n` repositioning rounds (the NPS "tick").
    pub fn run_rounds(&mut self, n: u64) {
        self.run_ms(n * ROUND_MS);
    }

    /// Current simulated time (ms).
    pub fn now_ms(&self) -> u64 {
        self.engine.now()
    }

    /// Current round count (floor of now / reposition period).
    pub fn now_rounds(&self) -> u64 {
        self.engine.now() / ROUND_MS
    }

    /// The embedding space.
    pub fn space(&self) -> &Space {
        &self.world.config.space
    }

    /// The simulation parameters.
    pub fn config(&self) -> &NpsConfig {
        &self.world.config
    }

    /// The latency substrate.
    pub fn matrix(&self) -> &RttMatrix {
        &self.world.matrix
    }

    /// True current coordinates of every node.
    pub fn coords(&self) -> &[Coord] {
        &self.world.coords
    }

    /// Per-node layer (0 = landmark).
    pub fn layers_of(&self) -> &[u8] {
        &self.world.layer
    }

    /// Malicious flags.
    pub fn malicious(&self) -> &[bool] {
        &self.world.malicious
    }

    /// Whether each node has completed at least one positioning.
    pub fn positioned(&self) -> &[bool] {
        &self.world.positioned
    }

    /// Security-filter accounting (figures 20/22).
    pub fn ledger(&self) -> FilterLedger {
        self.world.ledger
    }

    /// Probe-threshold eliminations (all true positives by construction:
    /// no benign probe exceeds the threshold).
    pub fn threshold_ledger(&self) -> FilterLedger {
        self.world.threshold_ledger
    }

    /// Event counters.
    pub fn counters(&self) -> NpsCounters {
        self.world.counters
    }

    /// Nodes currently excluded through the ban/replacement channel: ids
    /// present in at least one observer's rolling ban list (probe-threshold
    /// hits, security-filter eliminations, and defense `Reject` verdicts
    /// all land here; a defense `Reinstate` event scrubs them out again).
    /// Sorted and deduplicated.
    pub fn currently_banned(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .world
            .banned
            .iter()
            .flat_map(|l| l.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Honest, positioned, non-landmark nodes — the evaluation population.
    pub fn eval_nodes(&self) -> Vec<usize> {
        (0..self.world.matrix.len())
            .filter(|&i| {
                self.world.layer[i] != 0 && !self.world.malicious[i] && self.world.positioned[i]
            })
            .collect()
    }

    /// Honest positioned nodes of one layer (figure 25 measures per-layer
    /// error propagation).
    pub fn eval_nodes_in_layer(&self, l: u8) -> Vec<usize> {
        self.eval_nodes()
            .into_iter()
            .filter(|&i| self.world.layer[i] == l)
            .collect()
    }

    /// Pick `fraction` of the *ordinary* (non-landmark) population as
    /// attackers; landmarks are assumed secure and never selected.
    pub fn pick_attackers(&mut self, fraction: f64) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..self.world.matrix.len())
            .filter(|&i| self.world.layer[i] != 0)
            .collect();
        pool.shuffle(&mut self.world.adv_rng);
        let k = ((pool.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        pool.truncate(k);
        pool.sort_unstable();
        pool
    }

    /// Turn `attackers` malicious under `strategy` (the injection
    /// scenario); all subsequent reference probes of malicious nodes route
    /// through the resulting [`Scenario`]. Attackers act when they serve as
    /// *reference points* in a victim's positioning round.
    ///
    /// The NPS reading of the generic [`vcoord_attackkit`] contract:
    ///
    /// * an NPS response carries reported coordinates and an added probe
    ///   delay; there is no error-estimate field in the protocol, so
    ///   [`Lie::error`] is ignored by the simulator;
    /// * the [`CoordView`] oracle exposes the hierarchy: `layer` (0 =
    ///   landmark), `is_ref` (reference-eligible nodes), and an empty
    ///   `errors` slice (NPS victims keep no error estimate); `round` is the
    ///   repositioning period index;
    /// * [`Protocol::probe_threshold_ms`] is the victim-side probe threshold
    ///   (a public protocol constant): measured RTTs above it are discarded
    ///   *and the reference banned*, which is what threshold-aware
    ///   strategies must stay under.
    pub fn inject_adversary(&mut self, attackers: &[usize], strategy: Box<dyn AttackStrategy>) {
        for &a in attackers {
            assert_ne!(self.world.layer[a], 0, "landmarks never cheat (paper §5.4)");
            self.world.malicious[a] = true;
        }
        let view = CoordView {
            space: &self.world.config.space,
            coords: &self.world.coords,
            errors: &[],
            layer: &self.world.layer,
            malicious: &self.world.malicious,
            is_ref: &self.world.is_ref,
            round: self.engine.now() / ROUND_MS,
            now_ms: self.engine.now(),
            params: Protocol {
                probe_threshold_ms: PROBE_THRESHOLD_MS,
                ..Protocol::default()
            },
        };
        vcoord_obs::event(
            vcoord_obs::metric_id!("nps.inject"),
            view.round,
            vcoord_obs::NO_NODE,
            attackers.len() as f64,
        );
        let mut scenario = Scenario::new(strategy);
        scenario.inject(attackers, &view, &mut self.world.adv_rng);
        *self.world.scenario = Some(scenario);
    }

    /// Deploy `strategy` as the system's defense: every reference probe of
    /// an ordinary node's positioning round is screened through the
    /// resulting [`Defense`] before the Simplex fit. Deployable at any
    /// time; replaces any previous deployment, history and accounting
    /// included.
    ///
    /// The NPS reading of the generic [`vcoord_defense`] contract (the
    /// mirror image of `VivaldiSim::deploy_defense`):
    ///
    /// * the inspected sample is a **reference probe**: the reference
    ///   point's reported coordinates plus the measured RTT, judged against
    ///   the repositioning node's current coordinate *before* the Simplex
    ///   fit; `reported_error` is `1.0` — the NPS protocol carries no error
    ///   field;
    /// * [`Verdict::Reject`] drops the reference sample from the round (it
    ///   neither enters the fit nor the security filter) **and** routes the
    ///   reference through NPS's rolling ban/replacement channel, exactly
    ///   like a probe-threshold hit: the membership server supplies a
    ///   substitute, so a strategy that permanently bans a neighbor (the
    ///   drift cap) shrinks the attacker's reach instead of starving the
    ///   victim's reference set; [`Verdict::Dampen`] weights the sample's
    ///   term in the fit objective (see [`RefSample::weight`]), while the
    ///   security filter still judges the reference at full strength;
    /// * `round` is the repositioning period index — the same clock the
    ///   adversary seam uses;
    /// * the defense inspects reference probes of *ordinary* repositioning
    ///   nodes only: landmarks are pinned and never reposition, so there is
    ///   nothing to screen for them.
    pub fn deploy_defense(&mut self, strategy: Box<dyn DefenseStrategy>) {
        *self.world.defense = Some(Defense::new(strategy));
    }

    /// Set the probation channel's period (`NpsConfig::probation_every`).
    /// The channel only runs while a defense is deployed, so a system with
    /// none follows the same trajectory under every period: several
    /// periods can be set on forks of one clean system.
    pub fn set_probation_every(&mut self, every: u64) {
        self.world.config.probation_every = every;
    }

    /// The deployed defense, if any.
    pub fn defense(&self) -> Option<&Defense> {
        self.world.defense.as_ref()
    }

    /// Verdict accounting of the deployed defense, if any.
    pub fn defense_stats(&self) -> Option<&DefenseStats> {
        self.world.defense.as_ref().map(|d| d.stats())
    }

    /// Install `plan` as the run's fault schedule, times relative to now
    /// (the harness installs at attack injection). Replaces any previous
    /// plan. An empty plan is inert: it draws nothing from any stream and
    /// the run stays bitwise identical to one without chaos (pinned by the
    /// `chaos_properties` proptests).
    pub fn install_chaos(&mut self, plan: ChaosPlan) {
        let n = self.world.matrix.len();
        *self.world.chaos = Some(ChaosState::new(plan, n, self.engine.now()));
    }

    /// Fault totals of the installed chaos plan, if any.
    pub fn chaos_counters(&self) -> Option<&ChaosCounters> {
        self.world.chaos.as_ref().map(|c| c.counters())
    }

    /// Ids of the layer-0 landmarks (the degree-targeted takedown set).
    pub fn landmark_ids(&self) -> Vec<usize> {
        (0..self.world.matrix.len())
            .filter(|&i| self.world.layer[i] == 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoord_metrics::EvalPlan;
    use vcoord_topo::{KingLike, KingLikeConfig};

    fn small_sim(n: usize, seed: u64) -> NpsSim {
        let seeds = SeedStream::new(seed);
        let matrix = KingLike::new(KingLikeConfig::with_nodes(n)).generate(&mut seeds.rng("topo"));
        let config = NpsConfig {
            landmarks: 12,
            refs_per_node: 12,
            space: Space::Euclidean(4),
            ..NpsConfig::default()
        };
        NpsSim::new(matrix, config, &seeds)
    }

    #[test]
    fn landmarks_embed_accurately() {
        let sim = small_sim(80, 1);
        // Landmark pairwise predicted vs actual must be decent.
        let lm: Vec<usize> = (0..80).filter(|&i| sim.layers_of()[i] == 0).collect();
        let mut errs = Vec::new();
        for (a, &i) in lm.iter().enumerate() {
            for &j in lm.iter().skip(a + 1) {
                let actual = sim.matrix().rtt(i, j);
                let predicted = sim.space().distance(&sim.coords()[i], &sim.coords()[j]);
                errs.push(vcoord_metrics::relative_error(actual, predicted));
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.35, "landmark embedding error {mean}");
    }

    #[test]
    fn system_converges_after_joins() {
        let mut sim = small_sim(80, 2);
        sim.run_ms(600_000); // 10 repositioning periods
        let eval = sim.eval_nodes();
        assert!(eval.len() > 50, "most nodes should have positioned");
        let plan = EvalPlan::with_params(&eval, 512, 256, &mut SeedStream::new(7).rng("plan"));
        let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        assert!(err < 0.8, "converged NPS error too high: {err}");
        assert!(sim.counters().positionings > 100);
    }

    #[test]
    fn strict_counters_record_objective_evals() {
        let mut sim = small_sim(60, 11);
        sim.run_ms(300_000);
        let c = sim.counters();
        assert!(c.objective_evals > 0);
        // Every positioning performs at least dim + 2 evaluations (the
        // initial simplex plus one trial) even with the duplicate-fit skip.
        assert!(c.objective_evals >= c.positionings * 6);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut sim = small_sim(60, seed);
            sim.run_ms(300_000);
            sim.coords().to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn clean_system_filters_nothing_catastrophic() {
        let mut sim = small_sim(80, 3);
        sim.run_ms(600_000);
        // Without attackers the ledger may see a few false positives from
        // embedding error, but not a flood.
        let total = sim.ledger().total();
        let positionings = sim.counters().positionings;
        assert!(
            (total as f64) < 0.2 * positionings as f64,
            "excessive filtering in clean system: {total}/{positionings}"
        );
    }

    #[test]
    fn nan_coordinate_adversary_is_named_by_the_filter_and_poisons_nobody() {
        // A reported NaN coordinate passes `probe_ref` (its RTT is finite).
        // It must count as a maximal fitting error — the filter names the
        // liar — instead of a NaN that hides every other reference's error.
        struct NanCoord;
        impl AttackStrategy for NanCoord {
            fn respond(
                &mut self,
                _probe: &Probe,
                _collusion: &mut vcoord_attackkit::Collusion,
                view: &CoordView<'_>,
                _rng: &mut ChaCha12Rng,
            ) -> Option<Lie> {
                let mut coord = view.space.origin();
                coord.vec[0] = f64::NAN;
                Some(Lie {
                    coord,
                    error: 1.0,
                    delay_ms: 0.0,
                })
            }
            fn label(&self) -> &'static str {
                "nan-coord"
            }
        }
        let mut sim = small_sim(80, 31);
        sim.run_ms(400_000);
        let before = sim.ledger();
        let attackers = sim.pick_attackers(0.2);
        sim.inject_adversary(&attackers, Box::new(NanCoord));
        sim.run_ms(400_000);
        assert!(sim.counters().lies_served > 0);
        for (i, c) in sim.coords().iter().enumerate() {
            assert!(sim.malicious()[i] || c.is_finite(), "node {i} at {c:?}");
        }
        let named = sim.ledger().filtered_malicious - before.filtered_malicious;
        assert!(named > 0, "the filter never named a NaN reporter");
    }

    #[test]
    fn rejecting_defense_starves_positioning() {
        // Rejecting every reference sample leaves rounds under-constrained:
        // ordinary nodes stop repositioning entirely.
        struct RejectAll;
        impl vcoord_defense::DefenseStrategy for RejectAll {
            fn inspect_update(
                &mut self,
                _v: &vcoord_defense::UpdateView<'_>,
                _s: &mut vcoord_defense::DefenseScratch,
            ) -> Verdict {
                Verdict::Reject
            }
            fn label(&self) -> &'static str {
                "reject-all"
            }
        }
        // Fewer refs than the eligible pool, so the membership server has
        // genuine replacements to hand out (at `refs == pool` the channel
        // is structurally exhausted and nodes just run short-handed).
        let seeds = SeedStream::new(23);
        let matrix = KingLike::new(KingLikeConfig::with_nodes(60)).generate(&mut seeds.rng("topo"));
        let config = NpsConfig {
            landmarks: 12,
            refs_per_node: 6,
            space: Space::Euclidean(4),
            ..NpsConfig::default()
        };
        let mut sim = NpsSim::new(matrix, config, &seeds);
        sim.run_ms(300_000);
        let before = sim.counters().positionings;
        let replaced_before = sim.counters().refs_replaced;
        sim.deploy_defense(Box::new(RejectAll));
        sim.run_ms(200_000);
        assert_eq!(
            sim.counters().positionings,
            before,
            "no round can position without accepted references"
        );
        assert!(sim.counters().skipped_rounds > 0);
        assert!(sim.defense_stats().unwrap().rejected > 0);
        // Each rejection routes through the ban/replacement channel, so
        // the membership server keeps supplying (equally doomed, here)
        // substitutes instead of the reference set silently emptying.
        assert!(sim.counters().refs_replaced > replaced_before);
    }

    #[test]
    fn reinstate_events_scrub_the_rolling_ban_lists() {
        // Drive the reputation channel end to end without waiting for a
        // real decay cycle: a strategy that bans a node once and
        // immediately reinstates it on the next inspection must leave no
        // trace of the ban in any observer's rolling ban list.
        struct BanOnce {
            target: usize,
            state: u8, // 0 = not yet banned, 1 = banned, 2 = done
            bans: Vec<usize>,
            reinstates: Vec<usize>,
        }
        impl vcoord_defense::DefenseStrategy for BanOnce {
            fn inspect_update(
                &mut self,
                v: &vcoord_defense::UpdateView<'_>,
                _s: &mut vcoord_defense::DefenseScratch,
            ) -> Verdict {
                if v.remote != self.target {
                    return Verdict::Accept;
                }
                match self.state {
                    0 => {
                        self.state = 1;
                        self.bans.push(v.remote);
                        Verdict::Reject
                    }
                    1 => {
                        self.state = 2;
                        self.reinstates.push(v.remote);
                        Verdict::Accept
                    }
                    _ => Verdict::Accept,
                }
            }
            fn drain_reputation(&mut self, banned: &mut Vec<usize>, reinstated: &mut Vec<usize>) {
                banned.append(&mut self.bans);
                reinstated.append(&mut self.reinstates);
            }
            fn label(&self) -> &'static str {
                "ban-once"
            }
        }

        let mut sim = small_sim(60, 24);
        sim.run_ms(300_000);
        // Pick a reference node some ordinary node actually uses.
        let target = (0..60)
            .find(|&i| sim.world.layer[i] == 1 && sim.world.refs.iter().any(|r| r.contains(&i)))
            .expect("layer-1 reference in use");
        sim.deploy_defense(Box::new(BanOnce {
            target,
            state: 0,
            bans: Vec::new(),
            reinstates: Vec::new(),
        }));
        sim.run_ms(600_000);
        let stats = sim.defense_stats().unwrap();
        assert_eq!(stats.bans, 1);
        assert_eq!(stats.reinstated, 1);
        // The Reject routed the target through ban/replacement; the
        // reinstate event scrubbed it from every rolling ban list again.
        assert!(
            sim.world.banned.iter().all(|l| !l.contains(&target)),
            "reinstatement must scrub the rolling ban lists"
        );
    }

    #[test]
    fn attackers_exclude_landmarks() {
        let mut sim = small_sim(80, 5);
        let attackers = sim.pick_attackers(0.5);
        assert!(attackers.iter().all(|&a| sim.layers_of()[a] != 0));
    }

    #[test]
    fn eval_per_layer_partitions() {
        let mut sim = small_sim(80, 6);
        sim.run_ms(600_000);
        let l1 = sim.eval_nodes_in_layer(1);
        let l2 = sim.eval_nodes_in_layer(2);
        let all = sim.eval_nodes();
        assert_eq!(l1.len() + l2.len(), all.len());
        assert!(!l1.is_empty() && !l2.is_empty());
    }

    #[test]
    fn landmark_takedown_fails_over_through_membership() {
        let mut sim = small_sim(80, 32);
        sim.run_ms(600_000);
        let landmarks = sim.landmark_ids();
        assert_eq!(landmarks.len(), 12);
        let replaced_before = sim.counters().refs_replaced;
        // Take down half the landmark backbone, permanently.
        sim.install_chaos(ChaosPlan::none().takedown(&landmarks[..6], 0, None));
        sim.run_ms(600_000);
        let c = sim.chaos_counters().unwrap();
        assert_eq!(c.crashes, 6);
        assert!(c.timeouts > 0 && c.retries > 0, "{c:?}");
        assert!(c.failovers > 0, "dead landmarks must be failed over: {c:?}");
        assert!(
            sim.counters().refs_replaced > replaced_before,
            "fail-over must route through membership replacement"
        );
        // Landmarks stay pinned even across a crash (no coordinate reset).
        assert!(sim.positioned()[landmarks[0]]);
    }

    #[test]
    fn restarted_ordinary_nodes_rejoin_from_scratch() {
        let mut sim = small_sim(60, 33);
        sim.run_ms(600_000);
        // Find a positioned ordinary node and bounce it for two rounds.
        let victim = (0..60)
            .find(|&i| sim.layers_of()[i] != 0 && sim.positioned()[i])
            .unwrap();
        let coord_before = sim.coords()[victim].clone();
        sim.install_chaos(ChaosPlan::none().takedown(&[victim], 0, Some(120_000)));
        sim.run_ms(600_000);
        assert!(
            sim.positioned()[victim],
            "restarted node must reposition again"
        );
        assert_eq!(sim.chaos_counters().unwrap().restarts, 1);
        // The rejoin started from scratch (origin + cold seed), so the
        // re-fit lands somewhere new rather than resuming the old state.
        assert_ne!(sim.coords()[victim], coord_before);
    }

    #[test]
    fn probation_lets_decay_compose_with_banishment() {
        use vcoord_attackkit::BurstThenReform;
        use vcoord_defense::{DriftCap, DriftDecay};

        let run = |probation_every: u64| {
            let seeds = SeedStream::new(34);
            let matrix =
                KingLike::new(KingLikeConfig::with_nodes(60)).generate(&mut seeds.rng("topo"));
            let config = NpsConfig {
                landmarks: 12,
                refs_per_node: 12,
                space: Space::Euclidean(4),
                probation_every,
                ..NpsConfig::default()
            };
            let mut sim = NpsSim::new(matrix, config, &seeds);
            sim.run_ms(600_000);
            let attackers = sim.pick_attackers(0.25);
            sim.inject_adversary(
                &attackers,
                // Attack hard for 10 rounds after injection, then reform —
                // the Vivaldi decay test's story, on the NPS seam.
                Box::new(BurstThenReform::new(10)),
            );
            sim.deploy_defense(Box::new(DriftCap::with_decay(40.0, DriftDecay::new(5.0))));
            sim.run_ms(3_000_000);
            let stats = sim.defense_stats().unwrap();
            (
                stats.bans,
                stats.reinstated,
                sim.counters().probation_probes,
            )
        };

        // Without the probation channel, membership-mediated banning cuts
        // the evidence stream: the decay never observes reform.
        let (bans_off, reinstated_off, probes_off) = run(0);
        assert!(bans_off > 0, "the burst must get banned");
        assert_eq!(probes_off, 0);
        // With probation, banned references keep being re-measured and the
        // reformed attackers earn reinstatement.
        let (bans_on, reinstated_on, probes_on) = run(2);
        assert!(bans_on > 0);
        assert!(probes_on > 0, "probation probes must flow");
        assert!(
            reinstated_on > reinstated_off,
            "probation must let decay forgive reformed references \
             (off: {reinstated_off}, on: {reinstated_on})"
        );
    }

    #[test]
    fn probation_never_double_samples_a_leased_reference() {
        use vcoord_defense::DriftCap;

        // The silent double-count seam: a reference that is banned AND out
        // on a readmission lease already feeds (quarantined) evidence
        // through the regular probe rotation every round. The probation
        // round-robin must skip it — one sample per round per reference,
        // tagged once — and move on to the next non-leased ledger entry.
        let mut sim = small_sim(60, 24);
        sim.run_ms(300_000);
        // An astronomically high cap never bans, so the ledgers below stay
        // exactly as staged.
        sim.deploy_defense(Box::new(DriftCap::new(1e12)));
        sim.set_probation_every(1);

        let node = (0..60)
            .find(|&i| sim.world.layer[i] != 0 && sim.world.positioned[i])
            .expect("a positioned ordinary node");
        let (a, b) = {
            let mut others = (0..60).filter(|&i| i != node && sim.world.layer[i] != 0);
            (others.next().unwrap(), others.next().unwrap())
        };
        // Stage: both a and b on the ban ledger (a oldest), a out on lease
        // (leases live inside the rotation, so it is also an active ref).
        sim.world.banned[node] = VecDeque::from(vec![a, b]);
        sim.world.refs[node].retain(|&r| r != a && r != b);
        sim.world.refs[node].push(a);
        sim.world.leased[node] = vec![a];
        sim.world.probation_clock[node] = 0;
        sim.world.probation_cursor[node] = 0;

        sim.world.maybe_probation(node, 600_000);
        assert_eq!(sim.world.counters.probation_probes, 1);
        // The cursor started on the leased entry; the probe must have
        // fallen through to `b`, whose evidence then lands in the defense
        // history — while the leased `a` got no probation sample at all.
        let history = sim.world.defense.as_ref().unwrap().history();
        assert_eq!(
            history.remote(b).map(|h| h.samples()),
            Some(1),
            "the non-leased ledger entry must take the probation probe"
        );
        assert_eq!(
            history.remote(a).map_or(0, |h| h.samples()),
            0,
            "a leased reference must never receive a probation probe"
        );
        assert_eq!(
            sim.world.probation_cursor[node], 2,
            "cursor skips past the lease"
        );

        // With every ledger entry leased, probation has nothing to probe.
        sim.world.refs[node].push(b);
        sim.world.leased[node] = vec![a, b];
        sim.world.maybe_probation(node, 660_000);
        assert_eq!(
            sim.world.counters.probation_probes, 1,
            "an all-leased ledger must emit no probation probe"
        );
    }
}
