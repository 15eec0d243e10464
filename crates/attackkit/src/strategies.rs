//! Concrete attack strategies.
//!
//! Gradual / coordinated families beyond the CoNEXT'06 taxonomy:
//!
//! * [`FrogBoiling`] — all colluders drift their reported coordinates by a
//!   small shared step per round, staying under any per-update displacement
//!   threshold a detector might impose (cf. Chan-Tin et al., *The
//!   Frog-Boiling Attack*).
//! * [`Oscillation`] — reported coordinates swing sinusoidally around the
//!   truth, denying convergence without ever straying far.
//! * [`NetworkPartition`] — colluders split into two groups drifting in
//!   exactly opposite directions, tearing the coordinate space into two
//!   clusters (eclipse-style partitioning of the overlay).
//!
//! Plus generic re-expressions of the classic single-shape lies the
//! per-system modules used to hard-code:
//!
//! * [`Inflation`] — report coordinates pushed radially far outward.
//! * [`Deflation`] — report coordinates shrunk toward the origin.
//! * [`RandomLie`] — disorder: a fresh random coordinate every probe.
//! * [`BurstThenReform`] — a flagrant flat lie for a fixed number of
//!   rounds, then honesty forever.
//!
//! All strategies honour the delay-only threat model. The coordinate-lie
//! families (frog-boiling, oscillation, partition, inflation, deflation)
//! deliberately add **no delay at all**: the probe measures the true RTT,
//! so nothing trips an RTT plausibility check or the NPS probe threshold —
//! the attack lives entirely in the small residual between the reported
//! coordinate and the honestly-measured RTT, which is exactly the spring
//! force (Vivaldi) or fitting pull (NPS) that drags victims along the
//! attacker-chosen direction. A *perfectly* consistent lie (measured RTT
//! equal to the implied distance) would exert zero pull and do nothing.

use crate::collusion::Collusion;
use crate::strategy::{AttackStrategy, CoordView, Lie, Probe};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;
use vcoord_space::{Coord, Displacement};

/// Reported error estimate that drives a Vivaldi victim's sample weight
/// toward 1 (the paper's disorder value), sent with every lie; ignored by
/// NPS.
pub const LIE_ERROR: f64 = 0.01;

/// Probe delay range of the disorder lie, ms (§5.3.1), shared by the
/// Vivaldi and NPS disorder attacks.
pub const DISORDER_DELAY_MS: (f64, f64) = (100.0, 1000.0);

/// Half-width of §5.1's random interval `[-50000, 50000]`: the range of a
/// disorder lie's random coordinate components, the scale of the
/// repulsion target and of the worst-case random baseline.
pub const RANDOM_RANGE: f64 = 50_000.0;

/// Drift the true coordinate of `node` by `offset` along `axis` (shared
/// with the adaptive strategies in [`crate::adaptive`]).
pub(crate) fn drifted(
    view: &CoordView<'_>,
    node: usize,
    axis: &Displacement,
    offset: f64,
) -> Coord {
    let mut coord = view.coords[node].clone();
    view.space.apply(&mut coord, axis, offset);
    coord
}

/// *Frog-boiling*: every colluder reports its true position displaced by a
/// shared offset that grows by [`FrogBoiling::step`] ms per round.
///
/// Each individual lie is tiny — the per-round displacement of the reported
/// coordinate never exceeds `step`, so no displacement-threshold detector
/// fires — but the offsets integrate: after `r` rounds the whole malicious
/// population has coherently dragged its victims `r · step` ms off truth.
#[derive(Debug, Clone)]
pub struct FrogBoiling {
    /// Coordinate drift per round, ms. This is the attack's detectability
    /// budget: reported positions never move more than this per round.
    pub step: f64,
}

impl FrogBoiling {
    /// Drift by `step` ms per round, unbounded.
    pub fn new(step: f64) -> FrogBoiling {
        FrogBoiling { step }
    }
}

impl Default for FrogBoiling {
    fn default() -> Self {
        // Small against the topology's ~100 ms median RTT: each lie is
        // within benign-update magnitude.
        FrogBoiling::new(5.0)
    }
}

impl AttackStrategy for FrogBoiling {
    fn inject(
        &mut self,
        attackers: &[usize],
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        // One coherent group: all colluders share the drift axis and offset.
        collusion.form_groups(attackers, 1, view, rng);
    }

    fn on_round(
        &mut self,
        collusion: &mut Collusion,
        _view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
        collusion.advance_all(self.step);
    }

    fn respond(
        &mut self,
        probe: &Probe,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let group = collusion.group_for(probe.attacker)?;
        let coord = drifted(view, probe.attacker, &group.axis, group.offset);
        // No delay: the probe looks entirely benign. The small gap between
        // the honestly-measured RTT and the drifted coordinate is the pull
        // that walks the victim along the axis; as the population follows,
        // the gap re-closes and the next round's step re-opens it.
        Some(Lie {
            coord,
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
    }
}

/// *Oscillation*: each attacker's reported position swings sinusoidally
/// along a private axis — `offset = OSCILLATION_AMPLITUDE · sin(2π · round
/// / OSCILLATION_PERIOD)` — so victims chase a moving target and never
/// settle.
#[derive(Debug, Clone, Default)]
pub struct Oscillation {
    axes: HashMap<usize, Displacement>,
}

/// Peak displacement of an oscillating reported coordinate, ms.
const OSCILLATION_AMPLITUDE: f64 = 500.0;
/// Rounds per full oscillation cycle.
const OSCILLATION_PERIOD: u64 = 20;

impl AttackStrategy for Oscillation {
    fn inject(
        &mut self,
        attackers: &[usize],
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        for &a in attackers {
            self.axes.insert(a, view.space.random_unit(rng));
        }
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        // Late-infected attackers draw their axis on first use.
        let axis = self
            .axes
            .entry(probe.attacker)
            .or_insert_with(|| view.space.random_unit(rng));
        let phase = (view.round % OSCILLATION_PERIOD) as f64 / OSCILLATION_PERIOD as f64;
        let offset = OSCILLATION_AMPLITUDE * (2.0 * std::f64::consts::PI * phase).sin();
        let coord = drifted(view, probe.attacker, axis, offset);
        // No delay: victims chase the honestly-timed but swinging target.
        Some(Lie {
            coord,
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
    }
}

/// *Network partition*: the colluders split into exactly two groups whose
/// reported positions drift in opposite directions at `PARTITION_STEP` ms
/// per round, unbounded.
///
/// Victims anchored (through their probe mix) to either half get dragged
/// with it: the embedding tears into two mutually-distant clusters whose
/// inter-cluster distance estimates diverge — an eclipse-style partition of
/// the coordinate overlay without touching a single packet route.
#[derive(Debug, Clone, Default)]
pub struct NetworkPartition;

/// Per-round drift of each partition half, ms (the halves separate at
/// twice this per round).
const PARTITION_STEP: f64 = 25.0;

impl AttackStrategy for NetworkPartition {
    fn inject(
        &mut self,
        attackers: &[usize],
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        // Two coherent drift groups with antiparallel axes.
        collusion.form_groups(attackers, 2, view, rng);
    }

    fn on_round(
        &mut self,
        collusion: &mut Collusion,
        _view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
        collusion.advance_all(PARTITION_STEP);
    }

    fn respond(
        &mut self,
        probe: &Probe,
        collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let group = collusion.group_for(probe.attacker)?;
        let coord = drifted(view, probe.attacker, &group.axis, group.offset);
        // No delay (see FrogBoiling): each half's victims get walked in
        // that half's direction; the two sub-populations tear apart.
        Some(Lie {
            coord,
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
    }
}

/// *Inflation*: report coordinates pushed `INFLATION_MS` radially outward
/// from the origin, inflating every distance estimate involving an
/// attacker and stretching the space.
#[derive(Debug, Clone, Default)]
pub struct Inflation;

/// Radial push distance of an inflated report, ms.
const INFLATION_MS: f64 = 5_000.0;

impl AttackStrategy for Inflation {
    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let truth = &view.coords[probe.attacker];
        // Radially away from the origin (random direction at the origin).
        let axis = view.space.direction(truth, &view.space.origin(), rng);
        let coord = drifted(view, probe.attacker, &axis, INFLATION_MS);
        // No delay: the implied distance dwarfs the honestly-measured RTT,
        // so every sample yanks the victim hard toward the remote fake
        // position (rtt − dist ≪ 0 in the Vivaldi update).
        Some(Lie {
            coord,
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
    }
}

/// *Deflation*: report coordinates shrunk toward the origin by
/// `DEFLATION_SHRINK`, under-stating distances. The attacker cannot
/// shorten the matching RTT (delay-only model), so the lie is inherently
/// inconsistent — its signature is a cluster of implausibly central nodes
/// whose measured RTTs contradict their claimed positions.
#[derive(Debug, Clone, Default)]
pub struct Deflation;

/// Scale factor applied to a deflating attacker's true coordinates (0 =
/// collapse to the origin).
const DEFLATION_SHRINK: f64 = 0.05;

impl AttackStrategy for Deflation {
    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let mut coord = view.coords[probe.attacker].clone();
        for x in &mut coord.vec {
            *x *= DEFLATION_SHRINK;
        }
        coord.height *= DEFLATION_SHRINK;
        Some(Lie {
            coord,
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
    }
}

/// *Random lie* (disorder): a fresh random coordinate every probe, its
/// components drawn from §5.1's random interval ([`RANDOM_RANGE`]), with a
/// random delay — the generic re-expression of the paper's §5.3.1 attack.
#[derive(Debug, Clone, Default)]
pub struct RandomLie;

impl AttackStrategy for RandomLie {
    fn respond(
        &mut self,
        _probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        Some(Lie {
            coord: view.space.random_coord(RANDOM_RANGE, rng),
            error: LIE_ERROR,
            delay_ms: rng.gen_range(DISORDER_DELAY_MS.0..DISORDER_DELAY_MS.1),
        })
    }
}

/// *Burst, then reform*: every attacker reports its coordinate shifted a
/// flat 250 ms along axis 0 for the first `REFORM_AFTER_ROUNDS` rounds
/// after injection, then answers honestly forever — the minimal reform
/// story the reputation-decay and probation tests and figures are built
/// on. The flat offset is flagrant to a drift cap's vector-mean pull (no
/// per-observer cancellation), so every attacker lands in the defense's
/// ban set during the burst.
#[derive(Debug, Clone, Default)]
pub struct BurstThenReform {
    injected_at: Option<u64>,
}

/// Rounds a [`BurstThenReform`] attacker lies after injection before it
/// reforms.
const REFORM_AFTER_ROUNDS: u64 = 10;

impl AttackStrategy for BurstThenReform {
    fn inject(
        &mut self,
        _attackers: &[usize],
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
        self.injected_at = Some(view.round);
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let start = self.injected_at.unwrap_or(0);
        if view.round.saturating_sub(start) >= REFORM_AFTER_ROUNDS {
            return None; // reformed
        }
        let mut coord = view.coords[probe.attacker].clone();
        coord.vec[0] += 250.0;
        Some(Lie {
            coord,
            error: LIE_ERROR,
            delay_ms: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Protocol;
    use rand::SeedableRng;
    use vcoord_space::Space;

    struct Fixture {
        space: Space,
        coords: Vec<Coord>,
        malicious: Vec<bool>,
    }

    fn fixture() -> Fixture {
        let space = Space::Euclidean(2);
        let coords: Vec<Coord> = (0..8)
            .map(|i| Coord::from_vec(vec![20.0 * i as f64, 10.0 * i as f64]))
            .collect();
        let mut malicious = vec![true; 4];
        malicious.extend(vec![false; 4]);
        Fixture {
            space,
            coords,
            malicious,
        }
    }

    fn view_at(f: &Fixture, round: u64) -> CoordView<'_> {
        CoordView {
            space: &f.space,
            coords: &f.coords,
            errors: &[],
            layer: &[],
            malicious: &f.malicious,
            is_ref: &[],
            round,
            now_ms: round * 1000,
            params: Protocol::default(),
        }
    }

    fn probe(attacker: usize, victim: usize) -> Probe {
        Probe {
            attacker,
            victim,
            rtt: 50.0,
        }
    }

    #[test]
    fn frog_boiling_reported_drift_equals_offset() {
        let f = fixture();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut coll = Collusion::new();
        let mut adv = FrogBoiling::new(3.0);
        adv.inject(&[0, 1, 2, 3], &mut coll, &view_at(&f, 0), &mut rng);
        assert_eq!(coll.len(), 1, "frog-boiling is one coherent group");

        // Round 0: no drift yet — the lie is the truth.
        let l0 = adv
            .respond(&probe(0, 5), &mut coll, &view_at(&f, 0), &mut rng)
            .unwrap();
        assert_eq!(l0.coord, f.coords[0]);

        // After two rounds the reported coordinate sits exactly 2·step off.
        adv.on_round(&mut coll, &view_at(&f, 1), &mut rng);
        adv.on_round(&mut coll, &view_at(&f, 2), &mut rng);
        let l2 = adv
            .respond(&probe(0, 5), &mut coll, &view_at(&f, 2), &mut rng)
            .unwrap();
        let moved = f.space.distance(&l2.coord, &f.coords[0]);
        assert!((moved - 6.0).abs() < 1e-9, "drift {moved} != 6.0");
        assert!(l2.delay_ms >= 0.0);
    }

    #[test]
    fn oscillation_returns_to_truth_each_cycle() {
        let f = fixture();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut coll = Collusion::new();
        let mut adv = Oscillation::default();
        adv.inject(&[0], &mut coll, &view_at(&f, 0), &mut rng);
        let at = |round: u64, adv: &mut Oscillation, rng: &mut ChaCha12Rng| {
            adv.respond(
                &probe(0, 5),
                &mut Collusion::new(),
                &view_at(&f, round),
                rng,
            )
            .unwrap()
            .coord
        };
        // Phase 0 and a full period later: the truth.
        let period = OSCILLATION_PERIOD;
        assert!(f.space.distance(&at(0, &mut adv, &mut rng), &f.coords[0]) < 1e-9);
        assert!(
            f.space
                .distance(&at(period, &mut adv, &mut rng), &f.coords[0])
                < 1e-9
        );
        // Quarter period: peak amplitude.
        let peak = f
            .space
            .distance(&at(period / 4, &mut adv, &mut rng), &f.coords[0]);
        assert!((peak - OSCILLATION_AMPLITUDE).abs() < 1e-9, "peak {peak}");
    }

    #[test]
    fn partition_halves_drift_apart() {
        let f = fixture();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut coll = Collusion::new();
        let mut adv = NetworkPartition;
        adv.inject(&[0, 1, 2, 3], &mut coll, &view_at(&f, 0), &mut rng);
        assert_eq!(coll.len(), 2);
        for r in 1..=5 {
            adv.on_round(&mut coll, &view_at(&f, r), &mut rng);
        }
        // Pick one attacker per group; their lies move in opposite
        // directions relative to their true positions.
        let (a, b) = (coll.groups()[0].members[0], coll.groups()[1].members[0]);
        let la = adv
            .respond(&probe(a, 5), &mut coll, &view_at(&f, 5), &mut rng)
            .unwrap();
        let lb = adv
            .respond(&probe(b, 5), &mut coll, &view_at(&f, 5), &mut rng)
            .unwrap();
        let da: Vec<f64> = la
            .coord
            .vec
            .iter()
            .zip(&f.coords[a].vec)
            .map(|(x, t)| x - t)
            .collect();
        let db: Vec<f64> = lb
            .coord
            .vec
            .iter()
            .zip(&f.coords[b].vec)
            .map(|(x, t)| x - t)
            .collect();
        let dot: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum();
        assert!(dot < 0.0, "drifts must oppose: {da:?} vs {db:?}");
        let na = da.iter().map(|x| x * x).sum::<f64>().sqrt();
        let want = 5.0 * PARTITION_STEP;
        assert!((na - want).abs() < 1e-9, "each half moved 5·step: {na}");
    }

    #[test]
    fn inflation_pushes_outward_deflation_pulls_inward() {
        let f = fixture();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut coll = Collusion::new();
        let truth_mag = f.coords[2].magnitude();

        let li = Inflation
            .respond(&probe(2, 5), &mut coll, &view_at(&f, 0), &mut rng)
            .unwrap();
        assert!((li.coord.magnitude() - (truth_mag + INFLATION_MS)).abs() < 1e-6);

        let ld = Deflation
            .respond(&probe(2, 5), &mut coll, &view_at(&f, 0), &mut rng)
            .unwrap();
        assert!((ld.coord.magnitude() - DEFLATION_SHRINK * truth_mag).abs() < 1e-9);
        assert_eq!(ld.delay_ms, 0.0, "deflation cannot shorten probes");
    }

    #[test]
    fn random_lie_matches_disorder_shape() {
        let f = fixture();
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let mut coll = Collusion::new();
        let mut adv = RandomLie;
        for _ in 0..50 {
            let lie = adv
                .respond(&probe(0, 5), &mut coll, &view_at(&f, 0), &mut rng)
                .unwrap();
            assert_eq!(lie.error, 0.01);
            assert!((100.0..1000.0).contains(&lie.delay_ms));
            assert!(lie.coord.vec.iter().all(|x| x.abs() <= RANDOM_RANGE));
        }
    }

    #[test]
    fn coordinate_lie_families_never_delay_probes() {
        // The gradual/shape families must leave measured RTTs untouched —
        // their stealth (and their pull) lives in the coordinate residual.
        let f = fixture();
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut coll = Collusion::new();
        let attackers = [0usize, 1, 2, 3];
        let mut all: Vec<Box<dyn AttackStrategy>> = vec![
            Box::new(FrogBoiling::default()),
            Box::new(Oscillation::default()),
            Box::new(NetworkPartition),
            Box::new(Inflation),
            Box::new(Deflation),
        ];
        for (i, adv) in all.iter_mut().enumerate() {
            adv.inject(&attackers, &mut coll, &view_at(&f, 0), &mut rng);
            adv.on_round(&mut coll, &view_at(&f, 1), &mut rng);
            let lie = adv
                .respond(&probe(0, 5), &mut coll, &view_at(&f, 1), &mut rng)
                .unwrap();
            assert_eq!(lie.delay_ms, 0.0, "strategy {i} delayed a probe");
        }
    }
}
