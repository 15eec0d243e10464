//! Attack strategies against Vivaldi (paper §5.3).
//!
//! In Vivaldi every node freely hands out its coordinates when probed, so
//! attackers legitimately learn victim positions "by means of previous
//! requests" (§5.3.2) — the strategies here therefore read the view oracle
//! directly. All of them implement the generic
//! [`vcoord_attackkit::AttackStrategy`] seam; the Vivaldi-specific part is
//! only which oracle fields they use (`errors`, `params.cc`).

use crate::attacks::geometry::repulsion_lie;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::{HashMap, HashSet};
use vcoord_attackkit::{AttackStrategy, Collusion, CoordView, Lie, Probe, LIE_ERROR, RANDOM_RANGE};
use vcoord_space::Coord;

/// §5.3.1 — the *disorder* attack.
///
/// When solicited, a malicious node sends a randomly selected coordinate
/// with a very low reported error (0.01) and delays the measurement by a
/// random value in `[100, 1000]` ms. No lie consistency is attempted: the
/// low reported error alone maximizes the victim's adaptive timestep.
///
/// The lie shape is exactly [`RandomLie`](vcoord_attackkit::RandomLie) —
/// this type only pins the paper's name and defaults on it, so the two can
/// never drift apart.
// `RandomLie` IS the paper's §5.3.1 parameter set.
#[derive(Debug, Clone, Default)]
pub struct VivaldiDisorder(vcoord_attackkit::RandomLie);

impl AttackStrategy for VivaldiDisorder {
    fn respond(
        &mut self,
        probe: &Probe,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        self.0.respond(probe, collusion, view, rng)
    }
}

/// §5.3.2 — the *repulsion* attack.
///
/// Each attacker independently fixes a coordinate `X_target` far from the
/// origin and consistently directs every victim (or a fixed-size random
/// subset of victims, figure 7) toward it: it reports the mirror point of
/// `X_target` through the victim's current position and delays the probe to
/// the paper's `RTT = d/δ + d`, so the lie is fully consistent.
///
/// `X_target`'s distance from the origin is drawn from
/// `[0.5, 1) ×` [`RANDOM_RANGE`]: "far away from the origin" at the
/// random-interval scale of §5.1. The paper leaves the magnitude open; at
/// this scale the attacked system degrades to the random-baseline regime
/// (see EXPERIMENTS.md calibration notes).
#[derive(Debug, Clone, Default)]
pub struct VivaldiRepulsion {
    /// If set, each attacker only attacks this many victims, chosen
    /// independently at injection (figure 7's modified attack).
    pub subset_size: Option<usize>,
    targets: HashMap<usize, Coord>,
    victims: HashMap<usize, HashSet<usize>>,
}

impl VivaldiRepulsion {
    /// Attack only `subset` victims per attacker (figure 7).
    pub(crate) fn with_subset(subset: usize) -> Self {
        VivaldiRepulsion {
            subset_size: Some(subset),
            ..Self::default()
        }
    }
}

impl AttackStrategy for VivaldiRepulsion {
    fn inject(
        &mut self,
        attackers: &[usize],
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        let population: Vec<usize> = (0..view.coords.len())
            .filter(|i| !view.malicious[*i])
            .collect();
        for &a in attackers {
            // "Each malicious node is selecting a random coordinate that is
            // far away from the origin."
            let mut target = view.space.origin();
            let dir = view.space.random_unit(rng);
            let magnitude = rng.gen_range(0.5..1.0) * RANDOM_RANGE;
            view.space.apply(&mut target, &dir, magnitude);
            self.targets.insert(a, target);

            if let Some(k) = self.subset_size {
                let mut pool = population.clone();
                pool.shuffle(rng);
                pool.truncate(k);
                self.victims.insert(a, pool.into_iter().collect());
            }
        }
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        if let Some(set) = self.victims.get(&probe.attacker) {
            if !set.contains(&probe.victim) {
                return None; // outside my subset: behave honestly
            }
        }
        let target = self.targets.get(&probe.attacker)?;
        let lie = repulsion_lie(
            view.space,
            &view.coords[probe.victim],
            target,
            view.params.cc,
            rng,
        );
        Some(Lie {
            coord: lie.coord,
            error: LIE_ERROR,
            delay_ms: lie.needed_rtt - probe.rtt,
        })
    }
}

/// §5.3.3 strategy 1 — *colluding isolation by repelling the world*.
///
/// All attackers agree on one target node and on a designated coordinate
/// per victim (computed radially away from the target at the agreed
/// `REPEL_DISTANCE`, frozen when first used), then collectively and
/// consistently repel every other honest node toward its designated
/// coordinate. The target itself is left alone; it ends up isolated
/// because everyone else has been moved away. [`Default`] isolates a
/// random honest node.
#[derive(Debug, Clone)]
pub struct VivaldiCollusionRepel {
    /// The designated target node (chosen at injection unless preset).
    pub target: Option<usize>,
    target_coord: Coord,
    designated: HashMap<usize, Coord>,
}

/// The repelling colluders' agreed isolation distance from the target, ms.
const REPEL_DISTANCE: f64 = 10_000.0;

impl Default for VivaldiCollusionRepel {
    fn default() -> Self {
        VivaldiCollusionRepel {
            target: None,
            target_coord: Coord::origin(0),
            designated: HashMap::new(),
        }
    }
}

impl VivaldiCollusionRepel {
    /// Collude against a specific node.
    pub fn against(target: usize) -> Self {
        VivaldiCollusionRepel {
            target: Some(target),
            ..Self::default()
        }
    }

    /// The victim's shared designated coordinate, fixed on first use so all
    /// colluders push consistently toward the same point.
    fn designated_for(
        &mut self,
        victim: usize,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Coord {
        if let Some(c) = self.designated.get(&victim) {
            return c.clone();
        }
        let dir = view
            .space
            .direction(&view.coords[victim], &self.target_coord, rng);
        let mut dest = self.target_coord.clone();
        view.space.apply(&mut dest, &dir, REPEL_DISTANCE);
        self.designated.insert(victim, dest.clone());
        dest
    }
}

impl AttackStrategy for VivaldiCollusionRepel {
    fn inject(
        &mut self,
        _attackers: &[usize],
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        if self.target.is_none() {
            let honest: Vec<usize> = (0..view.coords.len())
                .filter(|i| !view.malicious[*i])
                .collect();
            self.target = honest.choose(rng).copied();
        }
        if let Some(t) = self.target {
            self.target_coord = view.coords[t].clone();
        }
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let target = self.target?;
        if probe.victim == target {
            return None; // the target observes honest behaviour
        }
        let dest = self.designated_for(probe.victim, view, rng);
        let lie = repulsion_lie(
            view.space,
            &view.coords[probe.victim],
            &dest,
            view.params.cc,
            rng,
        );
        Some(Lie {
            coord: lie.coord,
            error: LIE_ERROR,
            delay_ms: lie.needed_rtt - probe.rtt,
        })
    }
}

/// §5.3.3 strategy 2 — *colluding isolation by luring the target*.
///
/// The attackers pretend to be clustered in a remote area of the coordinate
/// space (agreed before the attack) and convince the chosen victim that its
/// own coordinate lies within that cluster: every probe from the victim is
/// answered with a cluster coordinate and a near-zero error, so the victim
/// is pulled into the (empty) remote area. All other nodes see honest
/// behaviour. [`Default`] lures a random honest node.
#[derive(Debug, Clone, Default)]
pub struct VivaldiCollusionLure {
    /// The designated victim (chosen at injection unless preset).
    pub target: Option<usize>,
    cluster: HashMap<usize, Coord>,
}

/// Distance of the lure colluders' pretend cluster from the origin, ms.
const LURE_CLUSTER_RANGE: f64 = 10_000.0;
/// Scatter of individual lure attackers inside the cluster.
const LURE_CLUSTER_SPREAD: f64 = 50.0;

impl VivaldiCollusionLure {
    /// Lure a specific node.
    pub fn against(target: usize) -> Self {
        VivaldiCollusionLure {
            target: Some(target),
            ..Self::default()
        }
    }
}

impl AttackStrategy for VivaldiCollusionLure {
    fn inject(
        &mut self,
        attackers: &[usize],
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        if self.target.is_none() {
            let honest: Vec<usize> = (0..view.coords.len())
                .filter(|i| !view.malicious[*i])
                .collect();
            self.target = honest.choose(rng).copied();
        }
        // Agree on a remote cluster centre, then scatter members around it.
        let mut centre = view.space.origin();
        let dir = view.space.random_unit(rng);
        view.space.apply(&mut centre, &dir, LURE_CLUSTER_RANGE);
        for &a in attackers {
            let mut pos = centre.clone();
            let jitter = view.space.random_unit(rng);
            view.space
                .apply(&mut pos, &jitter, rng.gen_range(0.0..LURE_CLUSTER_SPREAD));
            self.cluster.insert(a, pos);
        }
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        _view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        if Some(probe.victim) != self.target {
            return None;
        }
        let coord = self.cluster.get(&probe.attacker)?.clone();
        // No delay needed: the huge reported distance versus the small true
        // RTT already pulls the victim toward the cluster with maximal
        // steps (rtt − dist ≪ 0).
        Some(Lie {
            coord,
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
    }
}

/// §5.3.4 — *combined attacks*: equal shares of disorder, repulsion and
/// colluding-isolation (strategy 1) attackers coexist, modelling the
/// long-tail aftermath of a worm outbreak.
pub struct VivaldiCombined {
    disorder: VivaldiDisorder,
    repulsion: VivaldiRepulsion,
    collusion: VivaldiCollusionRepel,
    assignment: HashMap<usize, u8>,
}

impl VivaldiCombined {
    /// Build with the workspace-default sub-strategies.
    pub fn new() -> Self {
        VivaldiCombined {
            disorder: VivaldiDisorder::default(),
            repulsion: VivaldiRepulsion::default(),
            collusion: VivaldiCollusionRepel::default(),
            assignment: HashMap::new(),
        }
    }
}

impl Default for VivaldiCombined {
    fn default() -> Self {
        Self::new()
    }
}

impl AttackStrategy for VivaldiCombined {
    fn inject(
        &mut self,
        attackers: &[usize],
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        // The paper uses equal percentages of each type.
        let mut shuffled = attackers.to_vec();
        shuffled.shuffle(rng);
        let third = shuffled.len().div_ceil(3);
        let (d, rest) = shuffled.split_at(third.min(shuffled.len()));
        let (r, c) = rest.split_at(third.min(rest.len()));
        for &a in d {
            self.assignment.insert(a, 0);
        }
        for &a in r {
            self.assignment.insert(a, 1);
        }
        for &a in c {
            self.assignment.insert(a, 2);
        }
        self.repulsion.inject(r, collusion, view, rng);
        self.collusion.inject(c, collusion, view, rng);
    }

    fn respond(
        &mut self,
        probe: &Probe,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        match self.assignment.get(&probe.attacker) {
            Some(0) => self.disorder.respond(probe, collusion, view, rng),
            Some(1) => self.repulsion.respond(probe, collusion, view, rng),
            Some(2) => self.collusion.respond(probe, collusion, view, rng),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vcoord_attackkit::Protocol;
    use vcoord_space::Space;

    /// How many attackers were assigned to each class (d, r, c).
    fn class_sizes(adv: &VivaldiCombined) -> (usize, usize, usize) {
        let mut d = 0;
        let mut r = 0;
        let mut c = 0;
        for v in adv.assignment.values() {
            match v {
                0 => d += 1,
                1 => r += 1,
                _ => c += 1,
            }
        }
        (d, r, c)
    }

    fn view_fixture<'a>(
        space: &'a Space,
        coords: &'a [Coord],
        errors: &'a [f64],
        malicious: &'a [bool],
    ) -> CoordView<'a> {
        CoordView {
            space,
            coords,
            errors,
            layer: &[],
            malicious,
            is_ref: &[],
            round: 0,
            now_ms: 0,
            params: Protocol {
                cc: 0.25,
                probe_threshold_ms: f64::INFINITY,
            },
        }
    }

    fn fixture() -> (Space, Vec<Coord>, Vec<f64>, Vec<bool>) {
        let space = Space::Euclidean(2);
        let coords = vec![
            Coord::from_vec(vec![0.0, 0.0]),
            Coord::from_vec(vec![100.0, 0.0]),
            Coord::from_vec(vec![0.0, 100.0]),
            Coord::from_vec(vec![50.0, 50.0]),
        ];
        let errors = vec![0.2; 4];
        let malicious = vec![true, false, false, false];
        (space, coords, errors, malicious)
    }

    fn probe(attacker: usize, victim: usize, rtt: f64) -> Probe {
        Probe {
            attacker,
            victim,
            rtt,
        }
    }

    #[test]
    fn disorder_lies_have_paper_shape() {
        let (space, coords, errors, malicious) = fixture();
        let view = view_fixture(&space, &coords, &errors, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut coll = Collusion::new();
        let mut adv = VivaldiDisorder::default();
        for _ in 0..50 {
            let lie = adv
                .respond(&probe(0, 1, 80.0), &mut coll, &view, &mut rng)
                .unwrap();
            assert_eq!(lie.error, 0.01);
            assert!((100.0..1000.0).contains(&lie.delay_ms));
            assert!(lie.coord.vec.iter().all(|x| x.abs() <= RANDOM_RANGE));
        }
    }

    #[test]
    fn repulsion_lie_is_consistent() {
        let (space, coords, errors, malicious) = fixture();
        let view = view_fixture(&space, &coords, &errors, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut coll = Collusion::new();
        let mut adv = VivaldiRepulsion::default();
        adv.inject(&[0], &mut coll, &view, &mut rng);
        let target = adv.targets.get(&0).unwrap().clone();
        assert!(
            target.magnitude() >= 0.5 * RANDOM_RANGE,
            "target must be far from origin"
        );

        let lie = adv
            .respond(&probe(0, 1, 80.0), &mut coll, &view, &mut rng)
            .unwrap();
        // Consistency: measured (rtt + delay) equals d/Cc + d for the
        // victim-target distance d.
        let d = space.distance(&coords[1], &target);
        let measured = 80.0 + lie.delay_ms;
        assert!(
            (measured - (d / 0.25 + d)).abs() < 1e-6,
            "lie must follow the paper's RTT formula"
        );
    }

    #[test]
    fn subset_repulsion_spares_non_victims() {
        let (space, coords, errors, malicious) = fixture();
        let view = view_fixture(&space, &coords, &errors, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut coll = Collusion::new();
        let mut adv = VivaldiRepulsion::with_subset(1);
        adv.inject(&[0], &mut coll, &view, &mut rng);
        let attacked: Vec<bool> = (1..4)
            .map(|v| {
                adv.respond(&probe(0, v, 80.0), &mut coll, &view, &mut rng)
                    .is_some()
            })
            .collect();
        assert_eq!(attacked.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn collusion_repel_spares_target_and_is_shared() {
        let (space, coords, errors, malicious) = fixture();
        let view = view_fixture(&space, &coords, &errors, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut coll = Collusion::new();
        let mut adv = VivaldiCollusionRepel::against(3);
        adv.inject(&[0], &mut coll, &view, &mut rng);
        assert!(adv
            .respond(&probe(0, 3, 80.0), &mut coll, &view, &mut rng)
            .is_none());
        // Designated coordinate for a victim is frozen across probes.
        let l1 = adv
            .respond(&probe(0, 1, 80.0), &mut coll, &view, &mut rng)
            .unwrap();
        let l2 = adv
            .respond(&probe(0, 1, 80.0), &mut coll, &view, &mut rng)
            .unwrap();
        assert_eq!(l1.coord, l2.coord);
        assert_eq!(l1.delay_ms, l2.delay_ms);
    }

    #[test]
    fn collusion_lure_attacks_only_target_with_cluster_coords() {
        let (space, coords, errors, malicious) = fixture();
        let view = view_fixture(&space, &coords, &errors, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut coll = Collusion::new();
        let mut adv = VivaldiCollusionLure::against(2);
        adv.inject(&[0], &mut coll, &view, &mut rng);
        assert!(adv
            .respond(&probe(0, 1, 80.0), &mut coll, &view, &mut rng)
            .is_none());
        let lie = adv
            .respond(&probe(0, 2, 80.0), &mut coll, &view, &mut rng)
            .unwrap();
        assert_eq!(lie.delay_ms, 0.0);
        assert!(
            lie.coord.magnitude() > 0.5 * LURE_CLUSTER_RANGE,
            "cluster must be remote, got {:?}",
            lie.coord
        );
    }

    #[test]
    fn combined_splits_equally() {
        let (space, coords, errors, malicious) = fixture();
        let view = view_fixture(&space, &coords, &errors, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut coll = Collusion::new();
        let mut adv = VivaldiCombined::new();
        let attackers: Vec<usize> = (0..9).collect();
        adv.inject(&attackers, &mut coll, &view, &mut rng);
        assert_eq!(class_sizes(&adv), (3, 3, 3));
    }
}
