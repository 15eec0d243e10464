//! The generic adversary seam: [`AttackStrategy`], its [`CoordView`]
//! oracle, and the lie/probe value types shared by every coordinate system.
//!
//! The contract encodes the paper's threat model for both Vivaldi and NPS:
//!
//! * a malicious node controls the **coordinates** (and, where the protocol
//!   carries one, the **error estimate**) it reports, and may **delay** the
//!   probe;
//! * it can never *shorten* a measurement — the simulators clamp negative
//!   delays to zero and count the violation;
//! * attackers may know their victims' true coordinates (the paper's
//!   "knowledge" parameter); the [`CoordView`] passed to a strategy is that
//!   oracle, and strategies decide how much of it to use.

use crate::collusion::Collusion;
use rand_chacha::ChaCha12Rng;
use vcoord_space::{Coord, Space};

/// Protocol constants a strategy may legitimately know (they are public
/// parameters of the deployed system, not secrets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protocol {
    /// Vivaldi's adaptive-timestep constant `Cc`. Defaults to the paper's
    /// 0.25; meaningless for NPS but kept at its default there so
    /// cross-system strategies can always read it.
    pub cc: f64,
    /// The victim-side probe threshold in ms (NPS discards and bans probes
    /// above it). `f64::INFINITY` for systems without one (Vivaldi).
    pub probe_threshold_ms: f64,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            cc: 0.25,
            probe_threshold_ms: f64::INFINITY,
        }
    }
}

/// Read-only view of the true system state offered to adversaries.
///
/// This is the knowledge *oracle* shared by both simulators. Fields a
/// system does not track are empty slices (Vivaldi fills `errors` but has
/// no `layer`; NPS fills `layer` but keeps no error estimates); use the
/// accessor methods, which substitute sane defaults, instead of indexing
/// optional slices directly.
pub struct CoordView<'a> {
    /// The embedding space.
    pub space: &'a Space,
    /// True current coordinates of every node.
    pub coords: &'a [Coord],
    /// True current local error estimates (empty when the system tracks
    /// none, e.g. NPS).
    pub errors: &'a [f64],
    /// Hierarchy layer of every node, 0 = landmark (empty for flat systems,
    /// e.g. Vivaldi).
    pub layer: &'a [u8],
    /// Which nodes are currently malicious.
    pub malicious: &'a [bool],
    /// Whether each node serves in a reference-eligible layer (empty for
    /// systems without reference roles).
    pub is_ref: &'a [bool],
    /// The system's round index: Vivaldi probe ticks, NPS repositioning
    /// periods. Drives per-round strategy state.
    pub round: u64,
    /// Current simulated time, ms.
    pub now_ms: u64,
    /// Public protocol constants.
    pub params: Protocol,
}

impl CoordView<'_> {
    /// Number of nodes in the system.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// `true` when the view covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Layer of `node`, or `u8::MAX` when the system has no hierarchy.
    pub fn layer_of(&self, node: usize) -> u8 {
        self.layer.get(node).copied().unwrap_or(u8::MAX)
    }

    /// Ids of currently honest nodes.
    pub fn honest_nodes(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.malicious[i]).collect()
    }
}

/// One probe of a malicious node: `victim` measured `rtt` ms to `attacker`
/// and awaits the attacker's reported state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// The malicious node being probed.
    pub attacker: usize,
    /// The honest node performing the measurement.
    pub victim: usize,
    /// The true RTT of the probe, ms.
    pub rtt: f64,
}

/// What a probed malicious node sends back.
#[derive(Debug, Clone)]
pub struct Lie {
    /// Reported coordinates.
    pub coord: Coord,
    /// Reported error estimate. Vivaldi victims weight samples by it; NPS
    /// carries no error field and ignores it.
    pub error: f64,
    /// Extra delay added to the probe, in ms. Clamped to `>= 0` by the
    /// simulators: the threat model forbids shortening RTTs.
    pub delay_ms: f64,
}

/// A strategy deciding how malicious nodes answer probes, with per-round
/// mutable state and access to the [`Collusion`] coordinator.
///
/// Strategies are system-agnostic: the same object drives Vivaldi and NPS
/// through [`crate::Scenario`], which owns the collusion state and invokes
/// [`AttackStrategy::on_round`] once per elapsed round before the round's
/// first response.
///
/// `Send`, because a simulation carrying its scenario moves between the
/// threads of an experiment's job pool.
pub trait AttackStrategy: Send {
    /// Called once when the attacker set is injected into the running
    /// system, before any lie is requested. Collusion strategies use this
    /// to form groups and agree on targets, axes and cluster positions.
    fn inject(
        &mut self,
        _attackers: &[usize],
        _collusion: &mut Collusion,
        _view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
    }

    /// Called exactly once per elapsed round (Vivaldi tick / NPS
    /// repositioning period), before the first [`AttackStrategy::respond`]
    /// of that round. Gradual strategies advance their drift state here.
    fn on_round(
        &mut self,
        _collusion: &mut Collusion,
        _view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
    }

    /// Produce the response to `probe`.
    ///
    /// Returning `None` means "behave honestly for this probe" (used by
    /// subset-targeted and colluding attacks when facing a non-victim).
    fn respond(
        &mut self,
        probe: &Probe,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie>;

    /// The arms-race feedback channel: called when the fate of one of this
    /// strategy's responses at the deployed defense becomes observable to
    /// the attacker — `flagged` is whether the defense rejected the sample
    /// `victim` received from `attacker`.
    ///
    /// The observation is realistic, not an oracle leak: a malicious node
    /// can tell whether its report took hold (the victim's next reported
    /// coordinate moved toward the lie, the NPS victim dropped it from its
    /// reference set and a replacement was drawn, probes stop arriving).
    /// Non-adaptive strategies ignore it; [`crate::ThresholdProbe`] is the
    /// canonical consumer, binary-searching the rejection boundary from
    /// exactly this bit. Never invoked when no defense is deployed — the
    /// undefended code path is byte-identical with or without this hook.
    fn feedback(
        &mut self,
        _attacker: usize,
        _victim: usize,
        _flagged: bool,
        _collusion: &mut Collusion,
    ) {
    }
}

/// The null strategy: every malicious node behaves honestly. Useful for
/// validating that injection plumbing alone does not perturb a system.
#[derive(Debug, Default, Clone, Copy)]
pub struct Honest;

impl AttackStrategy for Honest {
    fn respond(
        &mut self,
        _probe: &Probe,
        _collusion: &mut Collusion,
        _view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn honest_strategy_never_lies() {
        let space = Space::Euclidean(2);
        let coords = vec![Coord::origin(2); 2];
        let malicious = vec![true, false];
        let view = CoordView {
            space: &space,
            coords: &coords,
            errors: &[],
            layer: &[],
            malicious: &malicious,
            is_ref: &[],
            round: 0,
            now_ms: 0,
            params: Protocol::default(),
        };
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut coll = Collusion::new();
        let probe = Probe {
            attacker: 0,
            victim: 1,
            rtt: 10.0,
        };
        assert!(Honest.respond(&probe, &mut coll, &view, &mut rng).is_none());
    }

    #[test]
    fn view_accessors_default_missing_slices() {
        let space = Space::Euclidean(2);
        let coords = vec![Coord::origin(2); 3];
        let malicious = vec![false, true, false];
        let view = CoordView {
            space: &space,
            coords: &coords,
            errors: &[],
            layer: &[],
            malicious: &malicious,
            is_ref: &[],
            round: 7,
            now_ms: 0,
            params: Protocol::default(),
        };
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.layer_of(2), u8::MAX);
        assert_eq!(view.honest_nodes(), vec![0, 2]);
        assert!(view.params.probe_threshold_ms.is_infinite());
    }
}
