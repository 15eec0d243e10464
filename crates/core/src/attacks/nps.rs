//! Attack strategies against NPS (paper §5.4).
//!
//! Attackers act in their role as *reference points*: they lie about their
//! coordinates and delay positioning probes. Unlike Vivaldi, NPS victims do
//! not hand their coordinates to arbitrary peers, so the strategies here
//! route all victim-coordinate access through the [`Knowledge`] model
//! (figures 19, 20 and 22 sweep it). All of them implement the generic
//! [`vcoord_attackkit::AttackStrategy`] seam; the NPS-specific part is
//! which oracle fields they use (`layer`, `params.probe_threshold_ms`).

use crate::attacks::geometry::{anti_detection_lie, sophistication_cut_ms};
use crate::knowledge::Knowledge;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::{HashMap, HashSet};
use vcoord_attackkit::{
    AttackStrategy, Collusion, CoordView, Lie, Probe, DISORDER_DELAY_MS, LIE_ERROR,
};
use vcoord_space::Coord;

/// §5.4.1 — *independent disorder*: a malicious reference point transmits
/// its **correct** coordinates but delays measurement probes by a random
/// `[100, 1000]` ms, without caring about lie consistency.
#[derive(Debug, Clone, Default)]
pub struct NpsSimpleDisorder;

impl AttackStrategy for NpsSimpleDisorder {
    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        Some(Lie {
            coord: view.coords[probe.attacker].clone(),
            error: LIE_ERROR,
            delay_ms: rng.gen_range(DISORDER_DELAY_MS.0..DISORDER_DELAY_MS.1),
        })
    }
}

/// §5.4.2/§5.4.3 — the *anti-detection* disorder attacks.
///
/// The attacker lies consistently: it pretends to sit `199 · d` away from
/// the victim and delays the probe by the corresponding amount,
/// keeping the victim-computed fitting error under the NPS filter's 0.01
/// floor. With probability given by [`Knowledge`] it knows the victim's
/// coordinates (perfect anchoring); otherwise it guesses the direction and
/// estimates the distance from the probe's one-way timestamp.
///
/// The `sophisticated` variant additionally refuses to attack victims it
/// believes to be farther than its victim cut (half the probe threshold), so the
/// inflated RTT stays below the victim's probe threshold and the attack
/// never trips the threshold check (§5.4.3: with a 5 s threshold and the
/// paper's parameters this cut is 25 ms).
#[derive(Debug, Clone)]
pub struct NpsAntiDetection {
    /// Victim-coordinate knowledge model.
    pub knowledge: Knowledge,
    /// Whether to avoid the probe-threshold mechanism (§5.4.3).
    pub sophisticated: bool,
}

/// How far the anti-detection attacker pushes, as a multiple of the
/// estimated victim distance.
const PUSH_FACTOR: f64 = 199.0;
/// Anti-detection aggression margin as a fraction of the filter's 1 % floor
/// (see `anti_detection_lie`).
const MARGIN: f64 = 0.25;

impl NpsAntiDetection {
    /// The naive variant (§5.4.2) with the paper's default half-knowledge.
    pub fn naive(knowledge: Knowledge) -> Self {
        NpsAntiDetection {
            knowledge,
            sophisticated: false,
        }
    }

    /// The sophisticated variant (§5.4.3).
    pub fn sophisticated(knowledge: Knowledge) -> Self {
        NpsAntiDetection {
            knowledge,
            sophisticated: true,
        }
    }

    /// The victim-distance cut used by the sophisticated variant, given the
    /// protocol's probe threshold.
    pub(crate) fn victim_cut_ms(&self, probe_threshold_ms: f64) -> f64 {
        sophistication_cut_ms(probe_threshold_ms, PUSH_FACTOR)
    }
}

impl AttackStrategy for NpsAntiDetection {
    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let knows = self.knowledge.knows(rng);
        // Distance estimate: the true RTT when the victim is known (the
        // attacker can correlate coordinates and measurements), otherwise
        // the one-way timestamp difference of the incoming probe (≈ rtt/2).
        let d_est = if knows { probe.rtt } else { probe.rtt / 2.0 };

        if self.sophisticated && d_est > self.victim_cut_ms(view.params.probe_threshold_ms) {
            return None; // too far: attacking would trip the probe threshold
        }

        let attacker_pos = &view.coords[probe.attacker];
        let anchor = if knows {
            view.coords[probe.victim].clone()
        } else {
            attacker_pos.clone()
        };
        let lie = anti_detection_lie(
            view.space,
            &anchor,
            attacker_pos,
            d_est,
            PUSH_FACTOR,
            MARGIN,
            knows,
            rng,
        );
        Some(Lie {
            coord: lie.coord,
            error: LIE_ERROR,
            delay_ms: lie.needed_rtt - probe.rtt,
        })
    }
}

/// §5.4.4 — *colluding isolation*.
///
/// The attackers behave honestly until at least 5 of them serve as
/// reference points in the agreed attack layer (layer 1). They then pick a
/// common victim set (`VICTIM_FRACTION` of the honest nodes) in the layer
/// below and, only when serving those victims,
/// pretend to be clustered in a remote region of the space while delaying
/// probes consistently with an agreed isolation point at the *opposite*
/// side — pushing every victim there. Non-victims always observe honest
/// behaviour, and by lying as a group the colluders drag the median fitting
/// error upward, blunting condition (2) of the NPS filter.
pub struct NpsCollusionIsolation {
    active: bool,
    cluster: HashMap<usize, Coord>,
    victims: HashSet<usize>,
    victims_preset: bool,
    isolation_point: Coord,
}

/// Fraction of the layer below the isolation colluders designate as common
/// victims.
pub(crate) const VICTIM_FRACTION: f64 = 0.2;
/// Colluders needed in the attack layer before the isolation attack
/// activates (the paper's activation threshold).
const MIN_ACTIVE: usize = 5;
/// The reference layer the isolation colluders attack from.
const ATTACK_LAYER: u8 = 1;
/// Distance of the isolation colluders' pretend cluster from the origin.
const ISOLATION_CLUSTER_RANGE: f64 = 10_000.0;
/// Scatter of isolation colluders within the cluster.
const ISOLATION_CLUSTER_SPREAD: f64 = 100.0;

impl Default for NpsCollusionIsolation {
    fn default() -> Self {
        NpsCollusionIsolation {
            active: false,
            cluster: HashMap::new(),
            victims: HashSet::new(),
            victims_preset: false,
            isolation_point: Coord::origin(0),
        }
    }
}

impl NpsCollusionIsolation {
    /// Preset the common victim set (otherwise chosen at injection). Used
    /// by the experiment harness so it can track exactly these nodes.
    pub fn preset_victims(&mut self, victims: HashSet<usize>) {
        self.victims = victims;
        self.victims_preset = true;
    }

    /// The agreed victim set (empty before activation).
    pub fn victims(&self) -> &HashSet<usize> {
        &self.victims
    }
}

impl AttackStrategy for NpsCollusionIsolation {
    fn inject(
        &mut self,
        attackers: &[usize],
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        let colluders: Vec<usize> = attackers
            .iter()
            .copied()
            .filter(|&a| view.layer_of(a) == ATTACK_LAYER)
            .collect();
        if colluders.len() < MIN_ACTIVE {
            return;
        }
        self.active = true;

        // Agree on the remote cluster and the opposite isolation point.
        // The cluster–isolation separation bounds the RTT the colluders
        // must claim (≈ 2·range); cap it safely under the victims' probe
        // threshold — the colluders know the protocol constant, and a lie
        // above it would simply be discarded and banned.
        let range = if view.params.probe_threshold_ms.is_finite() {
            ISOLATION_CLUSTER_RANGE.min(0.4 * view.params.probe_threshold_ms)
        } else {
            ISOLATION_CLUSTER_RANGE
        };
        let mut centre = view.space.origin();
        let dir = view.space.random_unit(rng);
        view.space.apply(&mut centre, &dir, range);
        let mut iso = view.space.origin();
        view.space.apply(&mut iso, &dir, -range);
        self.isolation_point = iso;
        for &a in &colluders {
            let mut pos = centre.clone();
            let jitter = view.space.random_unit(rng);
            view.space.apply(
                &mut pos,
                &jitter,
                rng.gen_range(0.0..ISOLATION_CLUSTER_SPREAD),
            );
            self.cluster.insert(a, pos);
        }

        // Common victim set: honest nodes of the layer below (unless the
        // caller preset one).
        if !self.victims_preset {
            let mut pool: Vec<usize> = (0..view.coords.len())
                .filter(|&i| view.layer_of(i) == ATTACK_LAYER + 1 && !view.malicious[i])
                .collect();
            pool.shuffle(rng);
            let k = ((pool.len() as f64) * VICTIM_FRACTION).round() as usize;
            pool.truncate(k.max(1));
            self.victims = pool.into_iter().collect();
        }
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        if !self.active || !self.victims.contains(&probe.victim) {
            return None; // honest toward everyone but the agreed victims
        }
        let pos = self.cluster.get(&probe.attacker)?;
        // Consistent with the victim sitting at the isolation point: the
        // positioning solution is dragged toward it.
        let needed = view.space.distance(pos, &self.isolation_point);
        Some(Lie {
            coord: pos.clone(),
            error: LIE_ERROR,
            delay_ms: needed - probe.rtt,
        })
    }
}

/// Figure 26 — *combined NPS attacks*: equal shares of independent
/// disorder, anti-detection sophisticated disorder (with the paper's
/// default half-knowledge), and colluding isolation attackers, modelling
/// the low-level residual infection after an outbreak.
pub struct NpsCombined {
    disorder: NpsSimpleDisorder,
    anti_detection: NpsAntiDetection,
    collusion: NpsCollusionIsolation,
    assignment: HashMap<usize, u8>,
}

impl Default for NpsCombined {
    fn default() -> Self {
        NpsCombined {
            disorder: NpsSimpleDisorder,
            anti_detection: NpsAntiDetection::sophisticated(Knowledge::half()),
            collusion: NpsCollusionIsolation::default(),
            assignment: HashMap::new(),
        }
    }
}

impl AttackStrategy for NpsCombined {
    fn inject(
        &mut self,
        attackers: &[usize],
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        let mut shuffled = attackers.to_vec();
        shuffled.shuffle(rng);
        // Give the collusion share first pick of reference-layer nodes so
        // the activation threshold has a fighting chance at low fractions,
        // then split the rest evenly.
        shuffled.sort_by_key(|&a| {
            if view.layer_of(a) == ATTACK_LAYER {
                0
            } else {
                1
            }
        });
        let third = attackers.len().div_ceil(3);
        let (c, rest) = shuffled.split_at(third.min(shuffled.len()));
        let (d, a) = rest.split_at(rest.len().div_ceil(2));
        for &x in c {
            self.assignment.insert(x, 2);
        }
        for &x in d {
            self.assignment.insert(x, 0);
        }
        for &x in a {
            self.assignment.insert(x, 1);
        }
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
            Some(1) => self.anti_detection.respond(probe, collusion, view, rng),
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

    /// How many attackers were assigned to each class (d, a, c).
    fn class_sizes(adv: &NpsCombined) -> (usize, usize, usize) {
        let mut d = 0;
        let mut a = 0;
        let mut c = 0;
        for v in adv.assignment.values() {
            match v {
                0 => d += 1,
                1 => a += 1,
                _ => c += 1,
            }
        }
        (d, a, c)
    }

    struct Fixture {
        space: Space,
        coords: Vec<Coord>,
        layer: Vec<u8>,
        malicious: Vec<bool>,
        is_ref: Vec<bool>,
    }

    fn fixture() -> Fixture {
        // 0..5 are layer-1 refs (malicious), 6..11 are layer-2 ordinary.
        let space = Space::Euclidean(2);
        let coords: Vec<Coord> = (0..12)
            .map(|i| Coord::from_vec(vec![10.0 * i as f64, 5.0 * i as f64]))
            .collect();
        let mut layer = vec![1u8; 6];
        layer.extend(vec![2u8; 6]);
        let mut malicious = vec![true; 6];
        malicious.extend(vec![false; 6]);
        let is_ref = layer.iter().map(|&l| l == 1).collect();
        Fixture {
            space,
            coords,
            layer,
            malicious,
            is_ref,
        }
    }

    fn view(f: &Fixture) -> CoordView<'_> {
        CoordView {
            space: &f.space,
            coords: &f.coords,
            errors: &[],
            layer: &f.layer,
            malicious: &f.malicious,
            is_ref: &f.is_ref,
            round: 0,
            now_ms: 0,
            params: Protocol {
                cc: 0.25,
                probe_threshold_ms: 5_000.0,
            },
        }
    }

    fn probe(attacker: usize, victim: usize, rtt: f64) -> Probe {
        Probe {
            attacker,
            victim,
            rtt,
        }
    }

    #[test]
    fn simple_disorder_reports_true_coords_with_delay() {
        let f = fixture();
        let v = view(&f);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut coll = Collusion::new();
        let mut adv = NpsSimpleDisorder;
        let lie = adv
            .respond(&probe(2, 7, 50.0), &mut coll, &v, &mut rng)
            .unwrap();
        assert_eq!(lie.coord, f.coords[2], "coords must be truthful");
        assert!((100.0..1000.0).contains(&lie.delay_ms));
    }

    #[test]
    fn anti_detection_with_knowledge_is_consistent() {
        let f = fixture();
        let v = view(&f);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut coll = Collusion::new();
        let mut adv = NpsAntiDetection::naive(Knowledge::Oracle);
        let rtt = f.space.distance(&f.coords[0], &f.coords[7]);
        let lie = adv
            .respond(&probe(0, 7, rtt), &mut coll, &v, &mut rng)
            .unwrap();
        // Victim-side fitting error at its current coordinates equals the
        // margin bound — under C·median for a typically-converged victim.
        let measured = rtt + lie.delay_ms;
        let implied = f.space.distance(&f.coords[7], &lie.coord);
        let fit = (implied - measured).abs() / measured;
        let bound = MARGIN / (1.0 - MARGIN);
        assert!((fit - bound).abs() < 1e-9, "fit {fit} vs bound {bound}");
        assert!(lie.delay_ms > 0.0);
    }

    #[test]
    fn sophisticated_skips_far_victims() {
        let f = fixture();
        let v = view(&f);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut coll = Collusion::new();
        let mut adv = NpsAntiDetection::sophisticated(Knowledge::Oracle);
        assert_eq!(adv.victim_cut_ms(5_000.0), 25.0);
        // Far victim (rtt 100 > 25): honest behaviour.
        assert!(adv
            .respond(&probe(0, 7, 100.0), &mut coll, &v, &mut rng)
            .is_none());
        // Near victim: attacked, and the inflated RTT stays under the
        // threshold.
        let lie = adv
            .respond(&probe(0, 7, 20.0), &mut coll, &v, &mut rng)
            .unwrap();
        assert!(
            20.0 + lie.delay_ms <= 5_000.0,
            "must not trip the threshold"
        );
    }

    #[test]
    fn collusion_stays_dormant_below_quorum() {
        let f = fixture();
        let v = view(&f);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut coll = Collusion::new();
        let mut adv = NpsCollusionIsolation::default();
        adv.inject(&[0, 1, 2, 3], &mut coll, &v, &mut rng); // only 4 < 5
        assert!(!adv.active);
        assert!(adv
            .respond(&probe(0, 7, 50.0), &mut coll, &v, &mut rng)
            .is_none());
    }

    #[test]
    fn collusion_activates_and_attacks_only_victims() {
        let f = fixture();
        let v = view(&f);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut coll = Collusion::new();
        let mut adv = NpsCollusionIsolation::default();
        adv.inject(&[0, 1, 2, 3, 4], &mut coll, &v, &mut rng);
        assert!(adv.active);
        let victims = adv.victims().clone();
        assert!(!victims.is_empty());
        assert!(victims.iter().all(|&w| f.layer[w] == 2 && !f.malicious[w]));
        for w in 6..12 {
            let lie = adv.respond(&probe(0, w, 50.0), &mut coll, &v, &mut rng);
            assert_eq!(lie.is_some(), victims.contains(&w));
        }
        // Cluster coordinates are remote and consistent across probes.
        let w = *victims.iter().next().unwrap();
        let l1 = adv
            .respond(&probe(1, w, 50.0), &mut coll, &v, &mut rng)
            .unwrap();
        let l2 = adv
            .respond(&probe(1, w, 50.0), &mut coll, &v, &mut rng)
            .unwrap();
        assert_eq!(l1.coord, l2.coord);
        // Cluster is remote, but its separation from the isolation point is
        // capped under the probe threshold (≈ 0.4 × 5000 = 2000 here).
        assert!(l1.coord.magnitude() > 1_000.0);
        assert!(
            50.0 + l1.delay_ms <= v.params.probe_threshold_ms,
            "lie must pass the threshold"
        );
    }

    #[test]
    fn combined_assigns_all_attackers() {
        let f = fixture();
        let v = view(&f);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut coll = Collusion::new();
        let mut adv = NpsCombined::default();
        let attackers = [0usize, 1, 2, 3, 4, 5];
        adv.inject(&attackers, &mut coll, &v, &mut rng);
        let (d, a, c) = class_sizes(&adv);
        assert_eq!(d + a + c, 6);
        assert!(d >= 1 && a >= 1 && c >= 1);
    }
}
