//! Property tests over the detection-quality invariants the ISSUE pins
//! down, on whole Vivaldi simulations:
//!
//! * the drift-cap strategy flags frog-boiling colluders within a bounded
//!   number of rounds after its evidence window fills — **and**, at the
//!   same seed, keeps a false-positive rate of exactly zero on an
//!   all-honest run (honest converged residuals are zero-mean; only a
//!   sustained directed drag trips the cap);
//! * `Verdict::Dampen(1.0)` is bitwise-identical to `Verdict::Accept`
//!   through a full simulation (the dampened update path is a trailing
//!   `× 1.0` on the accept path).

use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use vcoord_attackkit::{DefenseModel, EvadingFrogBoil, FrogBoiling};
use vcoord_defense::{
    Dampener, Defense, DriftCap, DriftDecay, NoDefense, Provenance, Update, Verdict,
};
use vcoord_netsim::SeedStream;
use vcoord_space::{Coord, Space};
use vcoord_topo::{KingLike, KingLikeConfig};
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

/// Ticks a converged system runs before the attack/defense window (the
/// sim's own convergence test uses 200 at this scale — the honest
/// zero-false-positive claim is about *converged* systems, where residual
/// means have settled to zero).
const WARMUP_TICKS: u64 = 200;
/// Ticks of the defended window. The colluders' sustained gap has to
/// *grow* past the cap first (the offset integrates at `step` ms/round
/// while victims trail), then the per-remote evidence window (16 signed
/// residuals at ~1 probe/tick per attacker) has to fill above it; 150
/// ticks is several times that bound at the swept step sizes.
const DEFENDED_TICKS: u64 = 150;
/// Slowest frog-boiling step (ms/round) the property sweeps. The cap bounds
/// the *sustained pull*, so it has a floor of its own making: victims
/// dragged with an 80 ms gap follow at ≈ 2.4 ms/tick (`arms-evasion-roc`:
/// the evader that holds its pull just under the default cap realises
/// exactly that drift at tpr 0.00), and a colluder stepping no faster never
/// opens the gap any wider. Measured on 60 nodes, 30 % colluders: at 2
/// ms/round the cap stays silent for 600 ticks, at 3 the gap crosses it
/// after 225–600 ticks and on some seeds never, at 4 inside
/// [`DEFENDED_TICKS`] on 297 of 300 seeds, from 4.5 up on all 300 (worst
/// tpr 0.89) — EXPERIMENTS.md, "Drift-cap detection floor".
const MIN_DETECTABLE_STEP: f64 = 4.5;

fn converged_sim(n: usize, seed: u64) -> VivaldiSim {
    let seeds = SeedStream::new(seed);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(n)).generate(&mut seeds.rng("topo"));
    let mut sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds);
    sim.run_ticks(WARMUP_TICKS);
    sim
}

/// The counterexample the elevated CI pass shrank to while the property
/// still swept steps from 3 ms/round (`seed = 0, step = 3.0`, case 21/24 at
/// `VCOORD_PROPTEST_CASES=1024`), pinned: at the cap's floor the colluders'
/// gap takes four windows, not one, to integrate past 80 ms — the cap is
/// late, neither blind nor wrong about anyone.
#[test]
fn drift_cap_at_its_floor_flags_late_and_never_an_honest_node() {
    let mut sim = converged_sim(60, 0);
    let attackers = sim.pick_attackers(0.3);
    sim.inject_adversary(&attackers, Box::new(FrogBoiling::new(3.0)));
    sim.deploy_defense(Box::new(DriftCap::default()));
    let confusion_after = |sim: &mut VivaldiSim, ticks: u64| {
        sim.run_ticks(ticks);
        let stats = sim.defense_stats().expect("defense deployed");
        stats.confusion(sim.malicious(), 1)
    };

    let early = confusion_after(&mut sim, DEFENDED_TICKS);
    let tpr = early.tpr().expect("attackers present");
    assert!(tpr < 0.5, "3 ms/round inside one window: tpr {tpr:.2}");
    assert_eq!(early.fpr(), Some(0.0));

    let late = confusion_after(&mut sim, 3 * DEFENDED_TICKS);
    let tpr = late.tpr().expect("attackers present");
    assert!(tpr >= 0.9, "3 ms/round after four windows: tpr {tpr:.2}");
    assert_eq!(late.fpr(), Some(0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // ---- Drift cap: catches frog-boiling, never defames honest runs ----

    #[test]
    fn drift_cap_flags_frog_colluders_and_stays_silent_on_honest_runs(
        seed in 0u64..1000,
        step in MIN_DETECTABLE_STEP..8.0,
    ) {
        let n = 60;

        // Attacked run: frog-boiling colluders at 30 %, drift cap armed.
        let mut attacked = converged_sim(n, seed);
        let attackers = attacked.pick_attackers(0.3);
        attacked.inject_adversary(&attackers, Box::new(FrogBoiling::new(step)));
        attacked.deploy_defense(Box::new(DriftCap::default()));
        attacked.run_ticks(DEFENDED_TICKS);
        let stats = attacked.defense_stats().expect("defense deployed");
        let confusion = stats.confusion(attacked.malicious(), 1);
        let tpr = confusion.tpr().expect("attackers present");
        prop_assert!(
            tpr >= 0.5,
            "drift cap must flag most colluders within {DEFENDED_TICKS} ticks: \
             tpr {tpr:.2} (step {step:.1}, seed {seed})"
        );

        // All-honest control at the SAME seed: identical topology and
        // convergence, defense armed at the same instant, nobody lying.
        let mut honest = converged_sim(n, seed);
        honest.deploy_defense(Box::new(DriftCap::default()));
        honest.run_ticks(DEFENDED_TICKS);
        let stats = honest.defense_stats().expect("defense deployed");
        prop_assert_eq!(
            stats.rejected, 0,
            "drift cap rejected {} honest samples on the all-honest run (seed {})",
            stats.rejected, seed
        );
        let confusion = stats.confusion(honest.malicious(), 1);
        prop_assert_eq!(confusion.fpr(), Some(0.0));
    }

    // ---- Decay: forgiveness requires reform, at the same seed ----------

    #[test]
    fn decay_forgives_reform_but_never_a_persistent_attacker(
        half_life in 18.0f64..60.0,
        drag in 60.0f64..250.0,
        seed in 0u64..1000,
    ) {
        // Synthetic single-neighbor feeds with seeded RTT jitter: the same
        // seed drives a reforming and a persistent offender, so the pair
        // of outcomes is compared on identical noise.
        let space = Space::Euclidean(2);
        let feed = |d: &mut Defense, rng: &mut ChaCha12Rng, predicted: f64, rounds: std::ops::Range<u64>| -> Vec<(u64, Verdict)> {
            let me = Coord::origin(2);
            let them = Coord::from_vec(vec![predicted, 0.0]);
            rounds
                .map(|r| {
                    let rtt = 100.0 + rng.gen_range(-10.0..10.0);
                    let v = d.inspect(&space, &me, Update {
                        observer: 0,
                        remote: 2,
                        reported_coord: &them,
                        reported_error: 1.0,
                        rtt,
                        round: r,
                        now_ms: r * 1000,
                        provenance: Provenance::Normal,
                    });
                    (r, v)
                })
                .collect()
        };
        let cap = 40.0;
        let attack_predicted = 100.0 + drag; // sustained ≈ −drag ms residual
        let honest_predicted = 100.0;

        // Reforming offender: attack, get banned, then behave honestly.
        let mut d = Defense::new(Box::new(DriftCap::with_decay(cap, DriftDecay::new(half_life))));
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let v1 = feed(&mut d, &mut rng, attack_predicted, 0..30);
        let ban_round = v1.iter().find(|(_, v)| *v == Verdict::Reject)
            .map(|(r, _)| *r)
            .expect("a sustained over-cap drag must be banned");
        let horizon = 30 + (half_life as u64 + 40) * 2;
        let v2 = feed(&mut d, &mut rng, honest_predicted, 30..horizon);
        let reinstate = v2.iter().find(|(_, v)| *v == Verdict::Accept).map(|(r, _)| *r);
        // Forgiveness needs BOTH gates: the weight decays below 0.5 one
        // half-life after the ban, and the evidence window must refill
        // with honest samples after the reform (16 rounds at one
        // inspection per round) — whichever lands later, plus slack.
        let deadline = (ban_round + half_life as u64).max(30 + 16) + 3;
        prop_assert!(
            matches!(reinstate, Some(r) if r <= deadline),
            "reformed node not reinstated by round {deadline} (ban {ban_round}, \
             half-life {half_life:.0}, reinstate {reinstate:?})"
        );

        // Persistent offender at the SAME seed: never reinstated.
        let mut d = Defense::new(Box::new(DriftCap::with_decay(cap, DriftDecay::new(half_life))));
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let v1 = feed(&mut d, &mut rng, attack_predicted, 0..30);
        prop_assert!(v1.iter().any(|(_, v)| *v == Verdict::Reject));
        let v2 = feed(&mut d, &mut rng, attack_predicted, 30..horizon);
        prop_assert!(
            v2.iter().all(|(_, v)| *v == Verdict::Reject),
            "a still-attacking node must never be un-banned (half-life {half_life:.0})"
        );
    }

    // ---- Leases: quarantined evidence never heals a decaying ban -------

    #[test]
    fn leased_evidence_never_reaches_the_healed_window(
        half_life in 18.0f64..60.0,
        drag in 60.0f64..250.0,
        seed in 0u64..1000,
    ) {
        // The probation-leak fix, as an invariant: samples tagged
        // `Provenance::Lease` are judged (the banned branch still answers
        // Reject) but never recorded, so no volume of well-behaved leased
        // traffic can satisfy DriftDecay's healed-window condition — a
        // reformed attacker on a readmission lease stays banned no matter
        // how long the lease runs or where the decayed weight sits.
        let space = Space::Euclidean(2);
        let me = Coord::origin(2);
        let feed = |d: &mut Defense, rng: &mut ChaCha12Rng, predicted: f64,
                    provenance: Provenance, rounds: std::ops::Range<u64>| -> Vec<Verdict> {
            let them = Coord::from_vec(vec![predicted, 0.0]);
            rounds
                .map(|r| {
                    let rtt = 100.0 + rng.gen_range(-10.0..10.0);
                    d.inspect(&space, &me, Update {
                        observer: 0,
                        remote: 2,
                        reported_coord: &them,
                        reported_error: 1.0,
                        rtt,
                        round: r,
                        now_ms: r * 1000,
                        provenance,
                    })
                })
                .collect()
        };
        let cap = 40.0;
        let mut d = Defense::new(Box::new(DriftCap::with_decay(cap, DriftDecay::new(half_life))));
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let v1 = feed(&mut d, &mut rng, 100.0 + drag, Provenance::Normal, 0..30);
        prop_assert!(
            v1.contains(&Verdict::Reject),
            "a sustained over-cap drag must be banned (drag {drag:.0})"
        );
        // Honest-looking leased traffic far past every decay/half-life
        // horizon the reform test exercises: all of it must bounce.
        let horizon = 30 + (half_life as u64 + 40) * 4;
        let v2 = feed(&mut d, &mut rng, 100.0, Provenance::Lease, 30..horizon);
        prop_assert!(
            v2.iter().all(|v| *v == Verdict::Reject),
            "leased evidence must never be accepted (half-life {half_life:.0}, seed {seed})"
        );
        let (_, reinstated) = d.drain_reputation();
        prop_assert!(
            reinstated.is_empty(),
            "leased evidence must never reinstate: {reinstated:?} (seed {seed})"
        );
        prop_assert_eq!(d.stats().quarantined, horizon - 30);
    }

    // ---- No-decay ≡ never-firing decay, bitwise, on whole sims ---------

    #[test]
    fn no_decay_equals_never_firing_decay_bitwise(seed in 0u64..1000) {
        // The permanent-ban regression guard: a decay that can never fire
        // within the horizon (astronomical half-life) must leave the
        // decaying implementation bitwise-identical to the legacy
        // permanent-ban path on a full attacked simulation — the no-decay
        // code path is the same numerics, not a parallel reimplementation.
        let n = 40;
        let run = |decay: Option<DriftDecay>| {
            let mut sim = converged_sim(n, seed);
            let attackers = sim.pick_attackers(0.3);
            sim.inject_adversary(&attackers, Box::new(FrogBoiling::new(6.0)));
            sim.deploy_defense(match decay {
                None => Box::new(DriftCap::new(60.0)),
                Some(d) => Box::new(DriftCap::with_decay(60.0, d)),
            });
            sim.run_ticks(100);
            (sim.coords().to_vec(), sim.errors().to_vec(),
             sim.defense_stats().map(|s| (s.accepted, s.rejected)).unwrap())
        };
        let (c_none, e_none, s_none) = run(None);
        let (c_inf, e_inf, s_inf) = run(Some(DriftDecay::new(1e18)));
        prop_assert_eq!(s_none, s_inf, "verdict streams must match");
        for (a, b) in c_none.iter().zip(&c_inf) {
            prop_assert_eq!(a.height.to_bits(), b.height.to_bits());
            for (x, y) in a.vec.iter().zip(&b.vec) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (a, b) in e_none.iter().zip(&e_inf) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // ---- Evasion: the defense-aware frog beats the classic one ---------

    #[test]
    fn evading_frog_undercuts_classic_frog_detection_at_the_same_seed(
        seed in 0u64..1000,
    ) {
        // At the deployed = modeled cap, the defense-aware frog's
        // detection rate must fall strictly below the classic frog's at
        // the same seed and matched 5 ms/round budget (the arms-race
        // headline, as a per-seed invariant rather than one golden run).
        let n = 60;
        let cap = 80.0;
        let run = |evading: bool| {
            let mut sim = converged_sim(n, seed);
            let attackers = sim.pick_attackers(0.3);
            if evading {
                sim.inject_adversary(
                    &attackers,
                    Box::new(EvadingFrogBoil::new(5.0, DefenseModel::drift_cap(cap))),
                );
            } else {
                sim.inject_adversary(&attackers, Box::new(FrogBoiling::new(5.0)));
            }
            sim.deploy_defense(Box::new(DriftCap::new(cap)));
            sim.run_ticks(DEFENDED_TICKS);
            let stats = sim.defense_stats().expect("defense deployed");
            stats.confusion(sim.malicious(), 1).tpr().expect("attackers present")
        };
        let classic = run(false);
        let evading = run(true);
        prop_assert!(
            evading < classic,
            "evasion must undercut classic detection: evading tpr {evading:.2} \
             vs classic {classic:.2} (seed {seed})"
        );
        prop_assert!(
            evading < 0.3,
            "the evader must stay essentially undetected at the modeled cap: \
             tpr {evading:.2} (seed {seed})"
        );
    }

    // ---- Online cap learning: never worse than the fixed model ---------

    #[test]
    fn learned_model_evader_matches_or_beats_fixed_model_on_a_mismodeled_cap(
        seed in 0u64..1000,
    ) {
        // The deployed cap is HALF the modeled one: the fixed-model
        // evader throttles to a budget (0.8 × 80 = 64 ms) far above the
        // real cap (40 ms) and feeds its colluders straight into the
        // ban. The learning evader behaves identically until the first
        // flag, then collapses its bracket under the observed pull and
        // holds — saving whichever colluders' evidence windows had not
        // yet filled. Its detection rate must therefore never exceed the
        // fixed evader's at the same seed.
        let n = 60;
        let deployed = 40.0;
        let run = |learning: bool| {
            let mut sim = converged_sim(n, seed);
            let attackers = sim.pick_attackers(0.3);
            let model = DefenseModel::drift_cap(80.0);
            let adv = if learning {
                EvadingFrogBoil::learning(5.0, model)
            } else {
                EvadingFrogBoil::new(5.0, model)
            };
            sim.inject_adversary(&attackers, Box::new(adv));
            sim.deploy_defense(Box::new(DriftCap::new(deployed)));
            sim.run_ticks(DEFENDED_TICKS);
            let stats = sim.defense_stats().expect("defense deployed");
            stats.confusion(sim.malicious(), 1).tpr().expect("attackers present")
        };
        let fixed = run(false);
        let learned = run(true);
        prop_assert!(
            fixed > 0.0,
            "a budget 24 ms over the deployed cap must draw bans (seed {seed})"
        );
        prop_assert!(
            learned <= fixed,
            "online cap learning must match or beat the fixed model's TPR \
             collapse: learned {learned:.2} vs fixed {fixed:.2} (seed {seed})"
        );
    }

    // ---- Dampen(1.0) ≡ Accept, bitwise, through a full simulation ------

    #[test]
    fn dampen_identity_runs_are_bitwise_equal(seed in 0u64..1000) {
        let n = 40;
        let run = |strategy: Option<Box<dyn vcoord_defense::DefenseStrategy>>| {
            let mut sim = converged_sim(n, seed);
            if let Some(s) = strategy {
                sim.deploy_defense(s);
            }
            sim.run_ticks(40);
            (sim.coords().to_vec(), sim.errors().to_vec())
        };
        let (c_none, e_none) = run(None);
        let (c_pass, e_pass) = run(Some(Box::new(NoDefense)));
        let (c_damp, e_damp) = run(Some(Box::new(Dampener::new(1.0))));
        // Coordinates at the bit level (f64 PartialEq would let a
        // 0.0/-0.0 flip slide), each run against the undefended baseline.
        for (ca, cb) in c_none.iter().zip(c_pass.iter()).chain(c_none.iter().zip(&c_damp)) {
            prop_assert_eq!(ca.height.to_bits(), cb.height.to_bits());
            for (x, y) in ca.vec.iter().zip(&cb.vec) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Error estimates likewise — both runs, not a truncated chain.
        for other in [&e_pass, &e_damp] {
            prop_assert_eq!(e_none.len(), other.len());
            for (a, b) in e_none.iter().zip(other.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
