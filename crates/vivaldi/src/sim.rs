//! The Vivaldi simulation world.
//!
//! Each node fires one probe per tick (with a per-node phase so probes
//! interleave), aimed at a random member of its spring set. The probed
//! node's response — honest state or an adversarial [`Lie`] — travels
//! back as a simulator message arriving after the *measured* RTT (true RTT
//! plus adversarial delay plus benign jitter), at which point the victim
//! applies the Vivaldi update rule.
//!
//! The response itself waits in a slab of in-flight slots and the message
//! carries only its slot id, so a queue entry stays 40 bytes. A delivered
//! slot keeps its coordinate buffer for the next honest response, and the
//! update rule moves the node in place: once the slab has grown to the
//! peak number of responses in flight, a probe cycle allocates nothing.
//!
//! State is stored struct-of-arrays (`coords`, `errors`, `malicious`) so
//! the whole coordinate table can be lent to adversaries as the knowledge
//! oracle without copies. The one per-node table is `springs`: each node's
//! [`Spring`]s carry the peer id together with the base RTT to it and its
//! chaos strike count, so a tick's probe reads one slot of the prober's own
//! ~1 KB row instead of a random cell of the n² latency matrix. The matrix
//! fills the table in [`VivaldiSim::new`] and is read again only on the rare
//! chaos paths (a retry, a replacement spring) and by the evaluation code.

use crate::config::VivaldiConfig;
use crate::neighbors::select_neighbors;
use crate::node::{vivaldi_update, CC};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;
use vcoord_attackkit::{AttackStrategy, CoordView, Lie, Probe, Protocol, Scenario};
use vcoord_chaos::{ChaosCounters, ChaosPlan, ChaosState, ProbeFate};
use vcoord_defense::{
    Defense, DefenseStats, DefenseStrategy, Provenance, Update as DefenseUpdate, Verdict,
};
use vcoord_netsim::{from_ms_f64, Engine, Injected, NodeId, Scheduler, SeedStream, World, TICK_MS};
use vcoord_space::{Coord, Space};
use vcoord_topo::RttMatrix;

/// Total neighbours (springs) per node.
pub(crate) const NEIGHBORS: usize = 64;
/// How many of the neighbours must be "near" (RTT below
/// [`NEAR_CUTOFF_MS`]), when enough exist.
pub(crate) const NEAR_NEIGHBORS: usize = 32;
/// RTT cutoff defining a near neighbour.
pub(crate) const NEAR_CUTOFF_MS: f64 = 50.0;
/// Local error estimate of a fresh (or restarted) node.
const INITIAL_ERROR: f64 = 1.0;

/// Timer tag: a node's probe tick.
const TAG_PROBE: u64 = 0;

/// Retry timers are odd tags packing the attempt and target peer:
/// `1 | attempt << 1 | peer << 33` — the attempt gets all 32 bits of
/// [`ChaosState::max_retries`](vcoord_chaos::ChaosState::max_retries), the
/// peer the 31 above them (a spring's peer id is a `u32`, and no n² matrix reaches
/// 2³¹ nodes). Only scheduled when chaos is installed and a probe timed
/// out, so a chaos-free run sees `TAG_PROBE` only.
const TAG_RETRY_BIT: u64 = 1;
const TAG_PEER_SHIFT: u32 = 33;

fn retry_tag(peer: usize, attempt: u32) -> u64 {
    debug_assert!(peer < 1 << (64 - TAG_PEER_SHIFT));
    TAG_RETRY_BIT | (u64::from(attempt) << 1) | ((peer as u64) << TAG_PEER_SHIFT)
}

fn retry_tag_decode(tag: u64) -> (usize, u32) {
    ((tag >> TAG_PEER_SHIFT) as usize, (tag >> 1) as u32)
}

/// A probe response in flight.
#[derive(Debug, Clone)]
struct Sample {
    coord: Coord,
    error: f64,
    rtt: f64,
}

/// The responses in flight, each in a slot whose id is the delivery
/// event's payload. A delivered slot goes back on the free list with its
/// coordinate buffer, so the next honest response copies into memory it
/// already holds; the slab grows only while every slot is in flight, so it
/// holds as many slots as the peak number of responses in flight.
#[derive(Clone, Default)]
struct InFlight {
    slots: Vec<Sample>,
    free: Vec<u32>,
}

impl InFlight {
    /// A slot for a new response: a free one, or a fresh one holding an
    /// empty coordinate.
    fn claim(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(Sample {
                coord: Coord {
                    vec: Vec::new(),
                    height: 0.0,
                },
                error: 0.0,
                rtt: 0.0,
            });
            u32::try_from(self.slots.len() - 1).expect("in-flight slot id fits u32")
        })
    }
}

/// One spring of a node: the neighbor it probes, the base RTT to it (a copy
/// of the latency matrix cell, bit for bit) and, under chaos, the count of
/// consecutive probe cycles to it that exhausted their retries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spring {
    peer: u32,
    strikes: u32,
    rtt: f64,
}

impl Spring {
    fn new(matrix: &RttMatrix, node: usize, peer: usize) -> Spring {
        Spring {
            peer: u32::try_from(peer).expect("peer id fits u32"),
            strikes: 0,
            rtt: matrix.rtt(node, peer),
        }
    }

    /// The neighbor at the other end.
    fn peer(&self) -> usize {
        self.peer as usize
    }
}

/// Probe/lie counters, exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Probes initiated by honest nodes.
    pub probes_sent: u64,
    /// Probes lost to the benign link fault model.
    pub probes_lost: u64,
    /// Samples applied to honest node state.
    pub samples_applied: u64,
    /// Responses served by the adversary (lies).
    pub lies_served: u64,
    /// Negative adversarial delays clamped (threat-model violations).
    pub delay_clamped: u64,
}

#[derive(Clone)]
struct VivaldiWorld {
    config: VivaldiConfig,
    /// Shared with every clone of this system.
    matrix: Arc<RttMatrix>,
    coords: Vec<Coord>,
    errors: Vec<f64>,
    springs: Vec<Vec<Spring>>,
    malicious: Vec<bool>,
    scenario: Injected<Scenario>,
    defense: Injected<Defense>,
    /// Nodes currently banned by the deployed defense (set on a ban event
    /// from the reputation channel, cleared on a reinstate event). Vivaldi
    /// deliberately keeps *probing* quarantined neighbors — the defense
    /// rejects their samples, but the evidence stream is what lets a
    /// decaying ban observe reform and forgive; cutting the probes (as
    /// NPS's membership-mediated banning does) would make forgiveness
    /// blind. The flags are the neighbor-set view of the ban state for the
    /// harness and diagnostics.
    quarantined: Vec<bool>,
    /// Installed fault schedule, if any. `None` costs one discriminant
    /// check per probe and keeps the run bitwise identical to a build
    /// without the chaos subsystem (all chaos randomness lives on the
    /// plan's own stream).
    chaos: Injected<ChaosState>,
    /// Responses in flight; their delivery events carry slot ids.
    in_flight: InFlight,
    probe_rng: ChaCha12Rng,
    update_rng: ChaCha12Rng,
    adv_rng: ChaCha12Rng,
    counters: Counters,
}

impl World for VivaldiWorld {
    type Payload = u32;

    fn on_timer(&mut self, sched: &mut Scheduler<u32>, node: NodeId, tag: u64) {
        if tag & TAG_RETRY_BIT != 0 {
            // A probe retry after a chaos timeout: re-probe the specific
            // peer unless the prober meanwhile crashed or turned.
            let (peer, attempt) = retry_tag_decode(tag);
            if self.malicious[node] {
                return;
            }
            if let Some(chaos) = self.chaos.as_ref() {
                if chaos.is_down(node) {
                    return;
                }
            }
            // The peer may have been evicted since the timeout, so the
            // retry reads the matrix rather than the spring table.
            let base_rtt = self.matrix.rtt(node, peer);
            self.send_probe(sched, node, peer, base_rtt, attempt);
            return;
        }
        debug_assert_eq!(tag, TAG_PROBE);
        // Keep ticking (even for malicious nodes, so a cured node could
        // resume; cheap either way).
        sched.timer_after(TICK_MS, node, TAG_PROBE);
        if let Some(chaos) = self.chaos.as_mut() {
            // Apply churn that came due. Restarted nodes rejoin from the
            // cold-start state; their strike counts are wiped.
            for &r in chaos.advance(sched.now()) {
                if !self.malicious[r] {
                    self.coords[r] = self.config.space.origin();
                    self.errors[r] = INITIAL_ERROR;
                }
                for spring in &mut self.springs[r] {
                    spring.strikes = 0;
                }
            }
            if chaos.is_down(node) {
                return; // crashed nodes neither probe nor tick forward state
            }
        }
        if self.malicious[node] {
            return; // infected nodes no longer maintain their own position
        }
        let Some(&spring) = self.springs[node].choose(&mut self.probe_rng) else {
            return;
        };
        debug_assert_eq!(
            spring.rtt.to_bits(),
            self.matrix.rtt(node, spring.peer()).to_bits(),
            "spring table out of sync with the matrix"
        );
        self.send_probe(sched, node, spring.peer(), spring.rtt, 0);
    }

    fn on_message(&mut self, sched: &mut Scheduler<u32>, from: NodeId, to: NodeId, slot: u32) {
        // Ignored if the prober was infected after the probe left or
        // crashed while the response was in flight.
        let crashed = self.chaos.as_ref().is_some_and(|chaos| chaos.is_down(to));
        if !self.malicious[to] && !crashed {
            self.apply_sample(sched, from, to, slot);
        }
        self.in_flight.free.push(slot);
    }
}

impl VivaldiWorld {
    /// One probe attempt from `node` to `peer` over a link of `base_rtt`
    /// (`attempt` 0 is the tick's regular probe; higher attempts are chaos
    /// retries). Chaos-free runs always take the `attempt == 0` path with
    /// no chaos branch taken.
    fn send_probe(
        &mut self,
        sched: &mut Scheduler<u32>,
        node: usize,
        peer: usize,
        base_rtt: f64,
        attempt: u32,
    ) {
        self.counters.probes_sent += 1;

        let Some(rtt) = self.config.link.apply(base_rtt, &mut self.probe_rng) else {
            self.counters.probes_lost += 1;
            return;
        };
        let rtt = match self.chaos.as_mut() {
            None => rtt,
            Some(chaos) => match chaos.probe_fate(node, peer, sched.now(), rtt) {
                ProbeFate::Delivered(rtt) => rtt,
                ProbeFate::Timeout => {
                    self.handle_timeout(sched, node, peer, attempt);
                    return;
                }
            },
        };
        if self.chaos.is_some() {
            // The peer answered: clear its staleness strikes.
            if let Some(spring) = self.springs[node].iter_mut().find(|s| s.peer() == peer) {
                spring.strikes = 0;
            }
        }

        let response =
            if let (true, Some(scenario)) = (self.malicious[peer], self.scenario.as_mut()) {
                let view = CoordView {
                    space: &self.config.space,
                    coords: &self.coords,
                    errors: &self.errors,
                    layer: &[],
                    malicious: &self.malicious,
                    is_ref: &[],
                    round: sched.now() / TICK_MS,
                    now_ms: sched.now(),
                    params: Protocol {
                        cc: CC,
                        probe_threshold_ms: f64::INFINITY,
                    },
                };
                scenario.respond(
                    Probe {
                        attacker: peer,
                        victim: node,
                        rtt,
                    },
                    &view,
                    &mut self.adv_rng,
                )
            } else {
                None
            };

        let id = self.in_flight.claim();
        let sample = &mut self.in_flight.slots[id as usize];
        match response {
            Some(Lie {
                coord,
                error,
                delay_ms,
            }) => {
                self.counters.lies_served += 1;
                let delay = if delay_ms < 0.0 {
                    // Threat model: probes can be delayed, never shortened.
                    self.counters.delay_clamped += 1;
                    0.0
                } else {
                    delay_ms
                };
                sample.coord = coord;
                sample.error = error;
                sample.rtt = rtt + delay;
            }
            None => {
                let truth = &self.coords[peer];
                sample.coord.vec.clone_from(&truth.vec);
                sample.coord.height = truth.height;
                sample.error = self.errors[peer];
                sample.rtt = rtt;
            }
        }
        sched.deliver_after(from_ms_f64(sample.rtt), peer, node, id);
    }

    /// A probe attempt to `peer` timed out: schedule the next
    /// exponential-backoff retry, or — once the cycle is exhausted — put a
    /// strike on the neighbor and evict it for staleness at the policy
    /// threshold, drawing a replacement from the chaos stream so the
    /// spring count survives churn.
    fn handle_timeout(
        &mut self,
        sched: &mut Scheduler<u32>,
        node: usize,
        peer: usize,
        attempt: u32,
    ) {
        let chaos = self.chaos.as_mut().expect("timeout without chaos");
        if attempt < chaos.max_retries() {
            chaos.note_retry();
            let delay = chaos.retry_delay_ms(attempt + 1);
            sched.timer_after(from_ms_f64(delay), node, retry_tag(peer, attempt + 1));
            return;
        }
        let springs = &mut self.springs[node];
        let Some(idx) = springs.iter().position(|s| s.peer() == peer) else {
            return; // already evicted by an earlier cycle
        };
        springs[idx].strikes += 1;
        if springs[idx].strikes < chaos.evict_after() {
            return;
        }
        springs.swap_remove(idx);
        chaos.note_eviction(node, peer, sched.now());
        // Exclude the dead peer itself from the replacement draw.
        let exclude: Vec<usize> = springs
            .iter()
            .map(Spring::peer)
            .chain(std::iter::once(peer))
            .collect();
        if let Some(repl) = chaos.replacement(self.matrix.len(), node, &exclude) {
            springs.push(Spring::new(&self.matrix, node, repl));
        }
    }

    fn apply_sample(&mut self, sched: &mut Scheduler<u32>, from: NodeId, to: NodeId, slot: u32) {
        let s = &self.in_flight.slots[slot as usize];
        // Screen the sample through the deployed defense (if any) before
        // the update rule sees it: a rejected sample never reaches it.
        if let Some(defense) = self.defense.as_mut() {
            let verdict = defense.inspect(
                &self.config.space,
                &self.coords[to],
                DefenseUpdate {
                    observer: to,
                    remote: from,
                    reported_coord: &s.coord,
                    reported_error: s.error,
                    rtt: s.rtt,
                    round: sched.now() / TICK_MS,
                    now_ms: sched.now(),
                    provenance: Provenance::Normal,
                },
            );
            // Route the reputation side channel into the quarantine
            // flags (no-op for strategies that emit no events).
            let (banned, reinstated) = defense.drain_reputation();
            for &b in banned {
                self.quarantined[b] = true;
            }
            for &r in reinstated {
                self.quarantined[r] = false;
            }
            // Arms-race feedback: a malicious node can observe whether
            // its report took hold, so the scenario learns the verdict.
            if self.malicious[from] {
                if let Some(scenario) = self.scenario.as_mut() {
                    scenario.feedback(from, to, verdict == Verdict::Reject);
                }
            }
            if verdict == Verdict::Reject {
                return; // dropped: coordinate and error untouched
            }
        }
        let applied = vivaldi_update(
            &self.config.space,
            &mut self.coords[to],
            &mut self.errors[to],
            &s.coord,
            s.error,
            s.rtt,
            &mut self.update_rng,
        );
        if applied.is_some() {
            self.counters.samples_applied += 1;
            vcoord_obs::counter_add(vcoord_obs::metric_id!("vivaldi.samples_applied"), 1);
        }
    }
}

/// A complete Vivaldi system running on the discrete-event engine.
///
/// A clone of a clean system holds the same coordinates, error estimates,
/// spring table, event queue and random streams, and shares the latency
/// matrix, so advancing both equally keeps them bit-equal. This is what
/// lets several injections start from one converged warm-up.
///
/// # Panics
/// Cloning panics once an adversary, a defense or a fault plan has been
/// installed: a system is copied before the injection instant, never after.
#[derive(Clone)]
pub struct VivaldiSim {
    engine: Engine<u32>,
    world: VivaldiWorld,
}

impl VivaldiSim {
    /// Build a system over `matrix` with per-node phase-jittered probe
    /// timers. All coordinates start at the origin (Vivaldi's cold start).
    ///
    /// # Panics
    /// Panics if the matrix has fewer than 2 nodes.
    pub fn new(matrix: RttMatrix, config: VivaldiConfig, seeds: &SeedStream) -> VivaldiSim {
        assert!(matrix.len() >= 2, "need at least two nodes");
        let n = matrix.len();
        let springs: Vec<Vec<Spring>> = (0..n)
            .map(|i| {
                let mut rng = seeds.rng_indexed("vivaldi/neighbors", i as u64);
                let peers = select_neighbors(
                    &matrix,
                    i,
                    NEIGHBORS,
                    NEAR_NEIGHBORS,
                    NEAR_CUTOFF_MS,
                    &mut rng,
                );
                peers.iter().map(|&j| Spring::new(&matrix, i, j)).collect()
            })
            .collect();

        let world = VivaldiWorld {
            coords: vec![config.space.origin(); n],
            errors: vec![INITIAL_ERROR; n],
            springs,
            malicious: vec![false; n],
            scenario: Injected::default(),
            defense: Injected::default(),
            quarantined: vec![false; n],
            chaos: Injected::default(),
            in_flight: InFlight::default(),
            probe_rng: seeds.rng("vivaldi/probe"),
            update_rng: seeds.rng("vivaldi/update"),
            adv_rng: seeds.rng("vivaldi/adversary"),
            counters: Counters::default(),
            matrix: Arc::new(matrix),
            config,
        };

        let mut engine = Engine::new();
        let mut phase_rng = seeds.rng("vivaldi/phase");
        for i in 0..n {
            let phase = phase_rng.gen_range(0..TICK_MS);
            engine.scheduler().timer_at(phase, i, TAG_PROBE);
        }
        VivaldiSim { engine, world }
    }

    /// A clone with a latency matrix of its own, copied by the calling
    /// thread, so a fork run on a worker thread keeps no memory of the
    /// thread that built the original alive.
    ///
    /// # Panics
    /// As [`clone`](Clone::clone).
    pub fn fork(&self) -> VivaldiSim {
        let mut copy = self.clone();
        copy.world.matrix = Arc::new(RttMatrix::clone(&self.world.matrix));
        copy
    }

    /// Advance the simulation by `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        let _span = vcoord_obs::span(vcoord_obs::metric_id!("vivaldi.run_ticks_ns"));
        vcoord_obs::counter_add(vcoord_obs::metric_id!("vivaldi.ticks"), n);
        let target = self.engine.now() + n * TICK_MS;
        self.engine.run_until(&mut self.world, target);
    }

    /// Current tick count (floor of now / tick length).
    pub fn now_ticks(&self) -> u64 {
        self.engine.now() / TICK_MS
    }

    /// Current simulated time in ms.
    pub fn now_ms(&self) -> u64 {
        self.engine.now()
    }

    /// The embedding space.
    pub fn space(&self) -> &Space {
        &self.world.config.space
    }

    /// The simulation parameters.
    pub fn config(&self) -> &VivaldiConfig {
        &self.world.config
    }

    /// The latency substrate.
    pub fn matrix(&self) -> &RttMatrix {
        &self.world.matrix
    }

    /// Current coordinates of every node (truth, not reported values).
    pub fn coords(&self) -> &[Coord] {
        &self.world.coords
    }

    /// Current local error estimates.
    pub fn errors(&self) -> &[f64] {
        &self.world.errors
    }

    /// Whether each node is malicious.
    pub fn malicious(&self) -> &[bool] {
        &self.world.malicious
    }

    /// Ids of currently honest nodes.
    pub fn honest_nodes(&self) -> Vec<usize> {
        (0..self.world.matrix.len())
            .filter(|&i| !self.world.malicious[i])
            .collect()
    }

    /// Probe/lie counters.
    pub fn counters(&self) -> Counters {
        self.world.counters
    }

    /// Pick `fraction` of the population uniformly at random as attackers
    /// (without yet activating them). Deterministic given the seed stream.
    pub fn pick_attackers(&mut self, fraction: f64) -> Vec<usize> {
        let n = self.world.matrix.len();
        let k = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut self.world.adv_rng);
        ids.truncate(k);
        ids.sort_unstable();
        ids
    }

    /// Turn `attackers` malicious under `strategy`, in place — the paper's
    /// *injection* scenario (attack a converged system, §5.2).
    ///
    /// The strategy's [`AttackStrategy::inject`] hook runs immediately with
    /// the current (converged) state as its knowledge oracle; all
    /// subsequent probes of malicious nodes route through the resulting
    /// [`Scenario`].
    ///
    /// The Vivaldi reading of the generic [`vcoord_attackkit`] contract:
    ///
    /// * a malicious node controls the **coordinates** and **error
    ///   estimate** it reports ([`Lie::coord`] / [`Lie::error`]), and may
    ///   **delay** the probe; the simulator clamps negative delays to zero
    ///   and counts the violation in [`Counters::delay_clamped`] — the
    ///   threat model forbids shortening measurements;
    /// * the [`CoordView`] handed to strategies is the knowledge oracle:
    ///   `coords` and `errors` are the true per-node state (attackers
    ///   legitimately learn victim positions "by means of previous
    ///   requests", paper §5.3.2), `round` is the probe tick, and
    ///   [`Protocol::cc`] is Vivaldi's public adaptive-timestep constant;
    /// * Vivaldi has no probe threshold, so [`Protocol::probe_threshold_ms`]
    ///   is infinite — strategies need no delay cap here.
    pub fn inject_adversary(&mut self, attackers: &[usize], strategy: Box<dyn AttackStrategy>) {
        for &a in attackers {
            self.world.malicious[a] = true;
        }
        let view = CoordView {
            space: &self.world.config.space,
            coords: &self.world.coords,
            errors: &self.world.errors,
            layer: &[],
            malicious: &self.world.malicious,
            is_ref: &[],
            round: self.engine.now() / TICK_MS,
            now_ms: self.engine.now(),
            params: Protocol {
                cc: CC,
                probe_threshold_ms: f64::INFINITY,
            },
        };
        vcoord_obs::event(
            vcoord_obs::metric_id!("vivaldi.inject"),
            view.round,
            vcoord_obs::NO_NODE,
            attackers.len() as f64,
        );
        let mut scenario = Scenario::new(strategy);
        scenario.inject(attackers, &view, &mut self.world.adv_rng);
        *self.world.scenario = Some(scenario);
    }

    /// Deploy `strategy` as the system's defense: every sample an honest
    /// node is about to apply is screened through the resulting
    /// [`Defense`] first. Deployable at any time (the harness arms it at
    /// attack-injection time, on the converged system); replaces any
    /// previous deployment, history and accounting included.
    ///
    /// The Vivaldi reading of the generic [`vcoord_defense`] contract:
    ///
    /// * the inspected sample is a **spring sample**: the reported
    ///   coordinate and error estimate of the probed peer plus the measured
    ///   RTT, judged at delivery time against the victim's *current*
    ///   coordinate;
    /// * [`Verdict::Reject`] drops the sample before the update rule runs
    ///   (coordinate and error estimate both untouched); an accepted one
    ///   runs it unchanged;
    /// * `round` is the probe tick, the same clock the adversary seam uses
    ///   — attack `on_round` and defense `on_round` advance in lockstep;
    /// * an undefended simulation (no [`Defense`] deployed) and a
    ///   [`NoDefense`](vcoord_defense::NoDefense) deployment are
    ///   byte-identical by construction: both leave every sample on the
    ///   same update path.
    pub fn deploy_defense(&mut self, strategy: Box<dyn DefenseStrategy>) {
        *self.world.defense = Some(Defense::new(strategy));
        self.world.quarantined.fill(false);
    }

    /// Which nodes the deployed defense currently holds banned, as routed
    /// through the reputation channel (ban events set a flag, reinstate
    /// events clear it). All `false` when no banning strategy is deployed.
    /// Quarantined neighbors keep being probed — see the field docs on the
    /// world struct for why the evidence stream stays open.
    pub fn quarantined(&self) -> &[bool] {
        &self.world.quarantined
    }

    /// The deployed defense, if any (verdict accounting and neighbor
    /// history are observable for diagnostics and the harness).
    pub fn defense(&self) -> Option<&Defense> {
        self.world.defense.as_ref()
    }

    /// Verdict accounting of the deployed defense, if any.
    pub fn defense_stats(&self) -> Option<&DefenseStats> {
        self.world.defense.as_ref().map(|d| d.stats())
    }

    /// Install `plan` as the run's fault schedule, times relative to now
    /// (the harness installs at attack injection, on the converged
    /// system). Replaces any previous plan. An empty plan is inert: it
    /// draws nothing from any stream and the run stays bitwise identical
    /// to one without chaos (pinned by the `chaos_properties` proptests).
    pub fn install_chaos(&mut self, plan: ChaosPlan) {
        let n = self.world.matrix.len();
        *self.world.chaos = Some(ChaosState::new(plan, n, self.engine.now()));
        for spring in self.world.springs.iter_mut().flatten() {
            spring.strikes = 0;
        }
    }

    /// Fault totals of the installed chaos plan, if any.
    pub fn chaos_counters(&self) -> Option<&ChaosCounters> {
        self.world.chaos.as_ref().map(|c| c.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoord_attackkit::Honest;
    use vcoord_metrics::EvalPlan;
    use vcoord_topo::{KingLike, KingLikeConfig};

    fn small_sim(n: usize, seed: u64) -> VivaldiSim {
        let seeds = SeedStream::new(seed);
        let matrix = KingLike::new(KingLikeConfig::with_nodes(n)).generate(&mut seeds.rng("topo"));
        VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds)
    }

    #[test]
    fn converges_on_king_like_topology() {
        let mut sim = small_sim(60, 1);
        let plan = EvalPlan::with_params(
            &sim.honest_nodes(),
            512,
            256,
            &mut SeedStream::new(9).rng("plan"),
        );
        let before = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        sim.run_ticks(200);
        let after = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        assert!(
            after < before * 0.2,
            "no convergence: before={before} after={after}"
        );
        assert!(after < 0.6, "converged error too high: {after}");
    }

    #[test]
    fn probes_flow_and_samples_apply() {
        let mut sim = small_sim(20, 2);
        sim.run_ticks(10);
        let c = sim.counters();
        assert!(c.probes_sent >= 150, "probes={}", c.probes_sent);
        assert!(c.samples_applied > 0);
        assert_eq!(c.lies_served, 0);
        assert_eq!(c.probes_lost, 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut sim = small_sim(30, seed);
            sim.run_ticks(50);
            sim.coords().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn malicious_nodes_freeze() {
        let mut sim = small_sim(20, 4);
        sim.run_ticks(50);
        let attackers = sim.pick_attackers(0.25);
        sim.inject_adversary(&attackers, Box::new(Honest));
        let frozen: Vec<Coord> = attackers.iter().map(|&a| sim.coords()[a].clone()).collect();
        sim.run_ticks(30);
        for (k, &a) in attackers.iter().enumerate() {
            assert_eq!(sim.coords()[a], frozen[k], "malicious node moved");
        }
    }

    #[test]
    fn rejecting_defense_freezes_victims() {
        // A defense that rejects everything stops all coordinate movement:
        // no sample ever reaches the update rule.
        struct RejectAll;
        impl vcoord_defense::DefenseStrategy for RejectAll {
            fn inspect_update(
                &mut self,
                _v: &vcoord_defense::UpdateView<'_>,
                _s: &mut vcoord_defense::DefenseScratch,
            ) -> Verdict {
                Verdict::Reject
            }
        }
        let mut sim = small_sim(20, 13);
        sim.run_ticks(30);
        sim.deploy_defense(Box::new(RejectAll));
        let frozen = sim.coords().to_vec();
        sim.run_ticks(20);
        assert_eq!(sim.coords(), &frozen[..]);
        let stats = sim.defense_stats().unwrap();
        assert!(stats.rejected > 0);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn decay_drift_cap_quarantines_then_reinstates_a_reformed_attacker() {
        use vcoord_attackkit::BurstThenReform;
        use vcoord_defense::{DriftCap, DriftDecay};

        let mut sim = small_sim(30, 17);
        sim.run_ticks(150);
        let attackers = sim.pick_attackers(0.2);
        sim.deploy_defense(Box::new(DriftCap::with_decay(40.0, DriftDecay::new(30.0))));

        // Attack hard for 60 rounds, then behave honestly forever — the
        // minimal reform story. A burst fills no drift-cap window at one
        // probe per tick, so six back-to-back bursts make up the attack.
        // During it: the cap bans, the quarantine flags rise.
        for _ in 0..6 {
            sim.inject_adversary(&attackers, Box::new(BurstThenReform::default()));
            sim.run_ticks(10);
        }
        let quarantined_attackers = attackers.iter().filter(|&&a| sim.quarantined()[a]).count();
        assert!(
            quarantined_attackers > 0,
            "the burst must quarantine attackers"
        );
        assert!(sim.defense_stats().unwrap().bans > 0);
        let reinstated_during_burst = sim.defense_stats().unwrap().reinstated;

        // After reform: the windows heal, the weights decay, and the
        // reputation channel clears the quarantine flags again.
        sim.run_ticks(150);
        let stats = sim.defense_stats().unwrap();
        assert!(
            stats.reinstated > reinstated_during_burst,
            "reformed attackers must be reinstated (bans {}, reinstated {})",
            stats.bans,
            stats.reinstated,
        );
        let still_quarantined = attackers.iter().filter(|&&a| sim.quarantined()[a]).count();
        assert!(
            still_quarantined < quarantined_attackers,
            "reinstatement must clear quarantine flags"
        );
    }

    #[test]
    fn permanent_drift_cap_never_reinstates() {
        use vcoord_attackkit::FrogBoiling;
        use vcoord_defense::DriftCap;

        let mut sim = small_sim(30, 18);
        sim.run_ticks(150);
        let attackers = sim.pick_attackers(0.2);
        sim.inject_adversary(&attackers, Box::new(FrogBoiling::new(8.0)));
        sim.deploy_defense(Box::new(DriftCap::new(40.0)));
        sim.run_ticks(200);
        let stats = sim.defense_stats().unwrap();
        assert!(stats.bans > 0, "the frog must get banned");
        assert_eq!(stats.reinstated, 0, "permanent bans never forgive");
        assert!(attackers.iter().any(|&a| sim.quarantined()[a]));
    }

    #[test]
    fn crashed_nodes_freeze_and_peers_shed_them() {
        let mut sim = small_sim(30, 22);
        sim.run_ticks(100);
        // Take down nodes 0..3 permanently at injection time.
        sim.install_chaos(ChaosPlan::none().takedown(&[0, 1, 2], 0));
        let frozen: Vec<Coord> = (0..3).map(|i| sim.coords()[i].clone()).collect();
        sim.run_ticks(120);
        for (i, f) in frozen.iter().enumerate() {
            assert_eq!(&sim.coords()[i], f, "crashed node {i} moved");
        }
        let c = sim.chaos_counters().unwrap();
        assert!(c.crashes == 3 && c.timeouts > 0 && c.retries > 0, "{c:?}");
        assert!(c.evictions > 0, "peers must evict dead neighbors: {c:?}");
        // Eviction keeps the spring count: replacements were drawn.
        let degree_ok = sim
            .world
            .springs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i >= 3)
            .all(|(_, ns)| !ns.is_empty());
        assert!(degree_ok);
    }

    /// Every spring's cached RTT is the matrix cell bit for bit, and no
    /// row lists a peer twice or its own node.
    fn assert_springs_true(sim: &VivaldiSim) {
        for (node, row) in sim.world.springs.iter().enumerate() {
            let mut peers: Vec<usize> = row.iter().map(Spring::peer).collect();
            assert!(!peers.contains(&node), "node {node} springs to itself");
            for s in row {
                assert_eq!(
                    s.rtt.to_bits(),
                    sim.matrix().rtt(node, s.peer()).to_bits(),
                    "stale rtt on spring {node}->{}",
                    s.peer()
                );
            }
            peers.sort_unstable();
            peers.dedup();
            assert_eq!(peers.len(), row.len(), "node {node} lists a peer twice");
        }
    }

    #[test]
    fn spring_table_stays_true_under_churn_and_bursts() {
        use vcoord_chaos::BurstModel;

        let mut sim = small_sim(40, 25);
        assert_springs_true(&sim);
        sim.run_ticks(60);
        sim.install_chaos(
            ChaosPlan::with_seed(7)
                .churn_wave(40, 0.25, 2 * TICK_MS, 40 * TICK_MS)
                .bursts(BurstModel::mild()),
        );
        sim.run_ticks(80);
        let c = sim.chaos_counters().unwrap();
        assert!(c.evictions > 0 && c.burst_losses > 0, "{c:?}");
        assert_eq!(c.restarts, 10);
        assert_springs_true(&sim);
    }

    /// Responses in flight: the slab's slots not on its free list.
    fn in_flight(sim: &VivaldiSim) -> usize {
        let slab = &sim.world.in_flight;
        slab.slots.len() - slab.free.len()
    }

    #[test]
    fn a_fork_with_responses_in_flight_advances_bit_equal() {
        let mut sim = small_sim(30, 28);
        sim.run_ticks(37);
        // One probe timer per node is always queued; the rest are responses.
        while sim.engine.scheduler().pending() < 32 {
            sim.engine.step(&mut sim.world);
        }
        assert_eq!(in_flight(&sim), sim.engine.scheduler().pending() - 30);
        let mut copy = sim.fork();
        sim.run_ticks(50);
        copy.run_ticks(50);
        let bits = |sim: &VivaldiSim| -> Vec<u64> {
            sim.coords()
                .iter()
                .flat_map(|c| c.vec.iter().chain([&c.height]))
                .chain(sim.errors())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&sim), bits(&copy));
        assert_eq!(sim.counters(), copy.counters());
        assert_eq!(sim.world.in_flight.free, copy.world.in_flight.free);
    }

    #[test]
    fn response_slots_stay_bounded_and_all_come_back_under_churn_and_bursts() {
        use vcoord_chaos::BurstModel;

        let n = 40;
        let mut sim = small_sim(n, 25);
        // Event by event: every slot in use is a response in the queue
        // (beside one probe timer per node, and retry timers under chaos),
        // and the slab grows only while all of its slots are in use.
        let mut peak = 0;
        let mut advance = |sim: &mut VivaldiSim, ticks: u64| {
            let end = sim.now_ms() + ticks * TICK_MS;
            while sim.now_ms() < end {
                sim.engine.step(&mut sim.world);
                let in_use = in_flight(sim);
                assert!(in_use <= sim.engine.scheduler().pending() - n);
                peak = peak.max(in_use);
                assert!(sim.world.in_flight.slots.len() <= peak);
            }
        };
        advance(&mut sim, 60);
        sim.install_chaos(
            ChaosPlan::with_seed(7)
                .churn_wave(40, 0.25, 2 * TICK_MS, 40 * TICK_MS)
                .bursts(BurstModel::mild()),
        );
        advance(&mut sim, 80);
        let c = sim.chaos_counters().unwrap();
        assert!(c.retries > 0 && c.burst_losses > 0, "{c:?}");
        assert_eq!(c.restarts, 10);
        // Stop every probe: the responses and retries drain, and every slot
        // is back on the free list exactly once.
        sim.world.malicious.fill(true);
        sim.run_ticks(10);
        assert_eq!(
            sim.engine.scheduler().pending(),
            n,
            "queue holds only ticks"
        );
        let slab = &sim.world.in_flight;
        let mut free = slab.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), slab.slots.len());
        assert_eq!(free.len(), slab.free.len());
    }

    #[test]
    fn restart_wipes_strike_counts() {
        use vcoord_chaos::{ChurnEvent, ChurnKind};

        // Four of ten nodes are dead for good, so node 9 collects strikes
        // on them until it crashes itself; a crashed node neither probes
        // nor retries, so its strikes stay put until the restart.
        const CRASH_TICK: u64 = 20;
        let mut sim = small_sim(10, 26);
        sim.run_ticks(20);
        let mut plan = ChaosPlan::none().takedown(&[0, 1, 2, 3], 0);
        let event = |at_ms, kind| ChurnEvent {
            at_ms,
            node: 9,
            kind,
        };
        plan.churn
            .push(event(CRASH_TICK * TICK_MS, ChurnKind::Crash));
        plan.churn
            .push(event((CRASH_TICK + 5) * TICK_MS, ChurnKind::Restart));
        sim.install_chaos(plan);
        let strikes =
            |sim: &VivaldiSim| -> u32 { sim.world.springs[9].iter().map(|s| s.strikes).sum() };
        sim.run_ticks(CRASH_TICK + 2);
        assert!(strikes(&sim) > 0, "node 9 never struck a dead peer");
        assert!(sim.world.springs[9]
            .iter()
            .all(|s| s.strikes == 0 || s.peer() < 4));
        // The event that restarts node 9 wipes its strikes.
        while sim.chaos_counters().unwrap().restarts == 0 {
            sim.engine.step(&mut sim.world);
        }
        assert_eq!(strikes(&sim), 0, "restart must wipe node 9's strikes");
        assert_springs_true(&sim);
    }

    #[test]
    fn retry_tag_round_trips_full_width_attempts() {
        for (peer, attempt) in [(0, 0), (4, 128), (1739, 200), ((1 << 31) - 1, u32::MAX)] {
            let tag = retry_tag(peer, attempt);
            assert_ne!(tag & TAG_RETRY_BIT, 0);
            assert_eq!(retry_tag_decode(tag), (peer, attempt));
        }
    }

    #[test]
    fn restarted_nodes_rejoin_and_reconverge() {
        let mut sim = small_sim(40, 23);
        sim.run_ticks(150);
        let plan = EvalPlan::with_params(
            &sim.honest_nodes(),
            512,
            256,
            &mut SeedStream::new(9).rng("plan"),
        );
        let steady = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        // A quarter of the population bounces: down for 10 ticks.
        sim.install_chaos(ChaosPlan::with_seed(5).churn_wave(40, 0.25, 2 * TICK_MS, 10 * TICK_MS));
        sim.run_ticks(15);
        let c = sim.chaos_counters().unwrap();
        assert_eq!(c.crashes, 10);
        assert_eq!(c.restarts, 10);
        // Mid-churn the restarted quarter is at the origin: error is up.
        let during = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        assert!(during > steady * 1.5, "steady={steady} during={during}");
        sim.run_ticks(250);
        let after = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        assert!(
            after < steady * 1.5 + 0.05,
            "no re-convergence: steady={steady} after={after}"
        );
    }

    #[test]
    fn partitions_time_probes_out_until_healed() {
        let mut sim = small_sim(20, 24);
        sim.run_ticks(30);
        sim.install_chaos(ChaosPlan::with_seed(2).split(20, 0, 20 * TICK_MS));
        sim.run_ticks(10);
        let mid = sim.chaos_counters().unwrap().timeouts;
        assert!(mid > 0, "cross-partition probes must time out");
        sim.run_ticks(40);
        let healed = sim.chaos_counters().unwrap().timeouts;
        sim.run_ticks(10);
        assert_eq!(
            sim.chaos_counters().unwrap().timeouts,
            healed,
            "after the window heals, probes flow again"
        );
    }

    #[test]
    fn probe_loss_reduces_samples() {
        let seeds = SeedStream::new(5);
        let matrix = KingLike::new(KingLikeConfig::with_nodes(20)).generate(&mut seeds.rng("topo"));
        let mut config = VivaldiConfig::default();
        config.link.loss = 0.5;
        let mut sim = VivaldiSim::new(matrix, config, &seeds);
        sim.run_ticks(20);
        let c = sim.counters();
        assert!(c.probes_lost > 0);
        let loss_rate = c.probes_lost as f64 / c.probes_sent as f64;
        assert!((0.35..0.65).contains(&loss_rate), "loss rate {loss_rate}");
    }
}
