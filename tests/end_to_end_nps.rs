//! End-to-end NPS behaviour: hierarchy convergence, the security filter's
//! value against simple disorder, and the anti-detection loopholes.

use vcoord::prelude::*;

fn build(nodes: usize, seed: u64, config: NpsConfig) -> (NpsSim, SeedStream) {
    let seeds = SeedStream::new(seed);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topo"));
    (NpsSim::new(matrix, config, &seeds), seeds)
}

fn avg_error(sim: &NpsSim, seeds: &SeedStream) -> f64 {
    let plan = EvalPlan::with_params(&sim.eval_nodes(), 512, 256, &mut seeds.rng("plan"));
    plan.avg_error(sim.coords(), sim.space(), sim.matrix())
}

#[test]
fn hierarchy_converges_cleanly() {
    let (mut sim, seeds) = build(250, 1, NpsConfig::default());
    sim.run_rounds(25);
    let err = avg_error(&sim, &seeds);
    assert!(err < 0.6, "clean NPS error too high: {err}");
    assert!(
        sim.eval_nodes().len() > 200,
        "most nodes should be positioned"
    );
}

#[test]
fn four_layer_hierarchy_also_converges() {
    let (mut sim, seeds) = build(250, 2, NpsConfig::with_layers(4));
    sim.run_rounds(30);
    let err = avg_error(&sim, &seeds);
    assert!(err < 0.8, "clean 4-layer NPS error too high: {err}");
    for l in 1..=3u8 {
        assert!(
            !sim.eval_nodes_in_layer(l).is_empty(),
            "layer {l} must be populated"
        );
    }
}

#[test]
fn security_filter_mitigates_low_fraction_disorder() {
    // Figure 14's protective regime: at 10% simple disorder, security-on
    // must end up meaningfully better than security-off.
    let run = |security: bool| -> f64 {
        let config = NpsConfig {
            security,
            ..NpsConfig::default()
        };
        let (mut sim, seeds) = build(250, 3, config);
        sim.run_rounds(25);
        let attackers = sim.pick_attackers(0.10);
        sim.inject_adversary(&attackers, Box::new(NpsSimpleDisorder));
        sim.run_rounds(40);
        avg_error(&sim, &seeds)
    };
    let with_security = run(true);
    let without = run(false);
    assert!(
        with_security < 0.75 * without,
        "filter should mitigate 10% disorder: on={with_security} off={without}"
    );
}

#[test]
fn heavy_disorder_defeats_the_filter() {
    // Figure 14's breakdown regime: at 50% the filter no longer saves the
    // system (median skew) — errors blow up regardless.
    let config = NpsConfig {
        security: true,
        ..NpsConfig::default()
    };
    let (mut sim, seeds) = build(250, 4, config);
    sim.run_rounds(25);
    let clean = avg_error(&sim, &seeds);
    let attackers = sim.pick_attackers(0.50);
    sim.inject_adversary(&attackers, Box::new(NpsSimpleDisorder));
    sim.run_rounds(40);
    let attacked = avg_error(&sim, &seeds);
    assert!(
        attacked > 4.0 * clean,
        "50% disorder must defeat the filter: {clean} -> {attacked}"
    );
}

#[test]
fn filter_catches_disorder_but_not_oracle_anti_detection() {
    // The core of figures 18/20/22: inconsistent delayers are filterable;
    // consistent anti-detection lies from knowing attackers are not.
    let run = |adversary: Box<dyn vcoord::attackkit::AttackStrategy>| -> (f64, u64, u64) {
        let (mut sim, _seeds) = build(250, 5, NpsConfig::default());
        sim.run_rounds(25);
        let before = sim.ledger();
        let attackers = sim.pick_attackers(0.20);
        sim.inject_adversary(&attackers, adversary);
        sim.run_rounds(40);
        let after = sim.ledger();
        (
            after
                .filtered_malicious
                .saturating_sub(before.filtered_malicious) as f64,
            after.filtered_malicious - before.filtered_malicious,
            after.filtered_honest - before.filtered_honest,
        )
    };
    let (_, disorder_caught, _) = run(Box::<NpsSimpleDisorder>::default());
    let (_, oracle_caught, _) = run(Box::new(NpsAntiDetection::naive(Knowledge::Oracle)));
    assert!(
        disorder_caught > 5 * oracle_caught.max(1),
        "oracle anti-detection must evade the filter: disorder {disorder_caught} vs oracle {oracle_caught}"
    );
}

#[test]
fn sophisticated_attack_avoids_threshold_bans() {
    let run = |sophisticated: bool| -> u64 {
        let adv = if sophisticated {
            NpsAntiDetection::sophisticated(Knowledge::half())
        } else {
            NpsAntiDetection::naive(Knowledge::half())
        };
        let (mut sim, _seeds) = build(250, 6, NpsConfig::default());
        sim.run_rounds(25);
        let attackers = sim.pick_attackers(0.20);
        sim.inject_adversary(&attackers, Box::new(adv));
        sim.run_rounds(40);
        sim.threshold_ledger().total()
    };
    let naive_bans = run(false);
    let sophisticated_bans = run(true);
    assert!(
        naive_bans > 10 * sophisticated_bans.max(1),
        "sophistication must evade the probe threshold: naive {naive_bans} vs sophisticated {sophisticated_bans}"
    );
}

#[test]
fn collusion_activates_and_hits_designated_victims_hardest() {
    let (mut sim, seeds) = build(250, 7, NpsConfig::default());
    sim.run_rounds(25);
    let attackers = sim.pick_attackers(0.30);
    // Preset victims so we can measure them.
    let victims: Vec<usize> = (0..250)
        .filter(|i| sim.layers_of()[*i] == 2 && !attackers.contains(i))
        .take(20)
        .collect();
    let mut adv = NpsCollusionIsolation::default();
    adv.preset_victims(victims.iter().copied().collect());
    sim.inject_adversary(&attackers, Box::new(adv));
    sim.run_rounds(40);

    let plan = EvalPlan::with_params(&sim.eval_nodes(), 512, 256, &mut seeds.rng("plan"));
    let errs = plan.per_node_errors(sim.coords(), sim.space(), sim.matrix());
    let (mut victim_sum, mut victim_n, mut other_sum, mut other_n) = (0.0, 0, 0.0, 0);
    for (k, &node) in plan.nodes().iter().enumerate() {
        if victims.contains(&node) {
            victim_sum += errs[k];
            victim_n += 1;
        } else {
            other_sum += errs[k];
            other_n += 1;
        }
    }
    let victim_avg = victim_sum / victim_n.max(1) as f64;
    let other_avg = other_sum / other_n.max(1) as f64;
    assert!(
        victim_avg > 3.0 * other_avg,
        "designated victims should fare much worse: victims {victim_avg} vs others {other_avg}"
    );
}

#[test]
fn no_attacker_ever_shortens_a_probe() {
    let (mut sim, _seeds) = build(200, 8, NpsConfig::default());
    sim.run_rounds(20);
    let attackers = sim.pick_attackers(0.30);
    sim.inject_adversary(&attackers, Box::new(NpsCombined::default()));
    sim.run_rounds(30);
    assert_eq!(
        sim.counters().delay_clamped,
        0,
        "attack strategies must respect the delay-only threat model"
    );
}
