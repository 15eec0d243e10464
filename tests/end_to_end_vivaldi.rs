//! End-to-end Vivaldi behaviour: clean convergence, attack impact, and the
//! paper's qualitative shape claims at small scale.

use vcoord::prelude::*;
use vcoord::vivaldi::ConvergenceTracker;

fn build(nodes: usize, seed: u64, space: Space) -> (VivaldiSim, SeedStream) {
    let seeds = SeedStream::new(seed);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topo"));
    (
        VivaldiSim::new(matrix, VivaldiConfig::in_space(space), &seeds),
        seeds,
    )
}

/// Each node's *median* relative error against every other node of
/// `nodes` — the robust per-node statistic convergence detection needs (a
/// node's mean error is dominated by its smallest-RTT peers, whose
/// relative errors swing wildly on tiny coordinate movements).
fn per_node_median_errors(sim: &VivaldiSim, nodes: &[usize]) -> Vec<f64> {
    let (coords, space, matrix) = (sim.coords(), sim.space(), sim.matrix());
    nodes
        .iter()
        .map(|&i| {
            let mut errs: Vec<f64> = nodes
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| relative_error(matrix.rtt(i, j), space.distance(&coords[i], &coords[j])))
                .collect();
            errs.sort_by(f64::total_cmp);
            errs[(errs.len() - 1) / 2]
        })
        .collect()
}

#[test]
fn clean_system_converges_to_low_error() {
    let (mut sim, seeds) = build(120, 1, Space::Euclidean(2));
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    sim.run_ticks(300);
    let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
    assert!(err < 0.45, "clean Vivaldi error too high: {err}");
}

#[test]
fn convergence_criterion_fires_on_clean_system() {
    // The paper's criterion (±0.02 held for 10 ticks by every node) is
    // tuned for 1740-node systems, where per-node error curves are smooth:
    // each node averages 64 springs drawn from 1739 candidates. At this
    // test's 80-node scale every node is a spring of every other and
    // per-node medians still breathe by ~0.1–0.2, so the band is widened
    // to ±0.25 while keeping the 10-tick hold; the paper-exact parameters
    // are covered by `ConvergenceTracker::paper` unit tests.
    let (mut sim, _) = build(80, 2, Space::Euclidean(2));
    let nodes = sim.honest_nodes();
    let mut tracker = ConvergenceTracker::new(nodes.len(), 0.25, 10);
    let mut converged_at = None;
    for tick in 0..800 {
        sim.run_ticks(1);
        tracker.record(&per_node_median_errors(&sim, &nodes));
        if tracker.converged() {
            converged_at = Some(tick);
            break;
        }
    }
    let at = converged_at.expect("clean system should stabilize per the tick criterion");
    assert!(at > 10, "cannot converge before the window fills");
}

#[test]
fn disorder_injection_degrades_then_more_attackers_degrade_more() {
    let (mut sim, seeds) = build(120, 3, Space::Euclidean(2));
    sim.run_ticks(250);
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let clean = plan.avg_error(sim.coords(), sim.space(), sim.matrix());

    let run_attacked = |seed: u64, fraction: f64| -> f64 {
        let (mut sim, seeds) = build(120, seed, Space::Euclidean(2));
        sim.run_ticks(250);
        let attackers = sim.pick_attackers(fraction);
        sim.inject_adversary(&attackers, Box::new(VivaldiDisorder::default()));
        sim.run_ticks(150);
        let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
        plan.avg_error(sim.coords(), sim.space(), sim.matrix())
    };
    let at10 = run_attacked(3, 0.10);
    let at50 = run_attacked(3, 0.50);
    assert!(
        at10 > 3.0 * clean,
        "10% disorder should hurt: {clean} -> {at10}"
    );
    assert!(
        at50 > at10,
        "more attackers must hurt more: {at10} vs {at50}"
    );
}

#[test]
fn larger_systems_resist_better() {
    // The paper's salient finding (figures 4/8/13): same attacker fraction,
    // larger group ⇒ smaller error.
    let run = |nodes: usize| -> f64 {
        let (mut sim, seeds) = build(nodes, 4, Space::Euclidean(2));
        sim.run_ticks(250);
        let attackers = sim.pick_attackers(0.30);
        sim.inject_adversary(&attackers, Box::new(VivaldiDisorder::default()));
        sim.run_ticks(150);
        let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
        plan.avg_error(sim.coords(), sim.space(), sim.matrix())
    };
    let small = run(60);
    let large = run(240);
    assert!(
        large < small,
        "larger system should be more resilient: n=60 -> {small}, n=240 -> {large}"
    );
}

#[test]
fn repulsion_is_consistent_and_damaging() {
    let (mut sim, seeds) = build(120, 5, Space::Euclidean(2));
    sim.run_ticks(250);
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let clean = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
    let attackers = sim.pick_attackers(0.3);
    sim.inject_adversary(&attackers, Box::new(VivaldiRepulsion::default()));
    sim.run_ticks(150);
    let plan2 = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let attacked = plan2.avg_error(sim.coords(), sim.space(), sim.matrix());
    assert!(
        attacked > 5.0 * clean,
        "repulsion too weak: {clean} -> {attacked}"
    );
    // Attackers never shorten probes.
    assert_eq!(sim.counters().delay_clamped, 0, "threat-model violation");
}

#[test]
fn collusion_isolates_the_designated_target() {
    let (mut sim, seeds) = build(120, 6, Space::Euclidean(2));
    sim.run_ticks(250);
    let attackers = sim.pick_attackers(0.3);
    let victim = (0..120)
        .find(|v| !attackers.contains(v))
        .expect("honest node");
    sim.inject_adversary(&attackers, Box::new(VivaldiCollusionRepel::against(victim)));
    sim.run_ticks(200);
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let errs = plan.per_node_errors(sim.coords(), sim.space(), sim.matrix());
    let victim_err = errs[plan
        .nodes()
        .iter()
        .position(|&n| n == victim)
        .expect("honest")];
    assert!(
        victim_err > 10.0,
        "designated target should be badly isolated: {victim_err}"
    );
}

#[test]
fn benign_faults_do_not_destroy_convergence() {
    // smoltcp-style fault injection must degrade gracefully, not break.
    let seeds = SeedStream::new(7);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(100)).generate(&mut seeds.rng("topo"));
    let config = VivaldiConfig {
        link: LinkModel {
            loss: 0.2,
            jitter_ms: 5.0,
        },
        ..VivaldiConfig::default()
    };
    let mut sim = VivaldiSim::new(matrix, config, &seeds);
    sim.run_ticks(300);
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
    assert!(
        err < 0.8,
        "20% loss + 5ms jitter should still converge: {err}"
    );
}

#[test]
fn height_model_space_also_converges() {
    let (mut sim, seeds) = build(100, 8, Space::EuclideanHeight(2));
    sim.run_ticks(300);
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
    assert!(err < 0.5, "height-model Vivaldi should converge: {err}");
    // Heights stay physical.
    assert!(sim.coords().iter().all(|c| c.height >= 0.0));
}
