//! The overlay use-case behind the isolation attack: a victim using
//! coordinates for *closest-node selection* (the paper's motivating
//! application) gets steered to an attacker replica after a colluding
//! isolation attack on Vivaldi.
//!
//! ```text
//! cargo run --release --example colluding_isolation -- \
//!     [--strategy repel|lure] [--malicious 0.3] [--nodes 300] [--seed 2006]
//! ```

use vcoord::prelude::*;

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The node the victim would pick as "closest" from coordinates, and the
/// true RTT cost of that pick versus the optimum.
fn closest_by_coords(sim: &VivaldiSim, victim: usize) -> (usize, f64, usize, f64) {
    let n = sim.matrix().len();
    let mut best_pred = (usize::MAX, f64::INFINITY);
    let mut best_true = (usize::MAX, f64::INFINITY);
    for j in 0..n {
        if j == victim {
            continue;
        }
        let pred = sim
            .space()
            .distance(&sim.coords()[victim], &sim.coords()[j]);
        let actual = sim.matrix().rtt(victim, j);
        if pred < best_pred.1 {
            best_pred = (j, pred);
        }
        if actual < best_true.1 {
            best_true = (j, actual);
        }
    }
    (
        best_pred.0,
        sim.matrix().rtt(victim, best_pred.0),
        best_true.0,
        best_true.1,
    )
}

fn main() {
    let strategy: String = arg("--strategy", "repel".to_string());
    let fraction: f64 = arg("--malicious", 0.3);
    let nodes: usize = arg("--nodes", 300);
    let seed: u64 = arg("--seed", 2006);

    let seeds = SeedStream::new(seed);
    let matrix =
        KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topology"));
    let mut sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds);
    sim.run_ticks(250);

    // Pick the victim and measure its clean closest-node choice.
    let attackers = sim.pick_attackers(fraction);
    let victim = (0..nodes)
        .find(|v| !attackers.contains(v))
        .expect("an honest node exists");
    let (pick, pick_rtt, optimal, optimal_rtt) = closest_by_coords(&sim, victim);
    println!("victim node {victim} before the attack:");
    println!(
        "  coordinate-selected neighbour: {pick} ({pick_rtt:.1} ms; true optimum {optimal} at {optimal_rtt:.1} ms)"
    );

    let adversary: Box<dyn AttackStrategy> = match strategy.as_str() {
        "repel" => Box::new(VivaldiCollusionRepel::against(victim, 10_000.0)),
        "lure" => Box::new(VivaldiCollusionLure::against(victim, 10_000.0)),
        other => {
            eprintln!("unknown strategy {other:?} (repel|lure)");
            std::process::exit(2);
        }
    };
    println!(
        "\n{} colluding attackers ({}%) target node {victim} (strategy: {strategy})...",
        attackers.len(),
        (fraction * 100.0) as u32
    );
    sim.inject_adversary(&attackers, adversary);

    let plan = EvalPlan::new(&sim.honest_nodes(), &mut seeds.rng("plan"));
    let victim_idx = plan
        .nodes()
        .iter()
        .position(|&n| n == victim)
        .expect("victim is honest");
    println!("\n tick   victim err   system err");
    for _ in 0..10 {
        sim.run_ticks(30);
        let errs = plan.per_node_errors(sim.coords(), sim.space(), sim.matrix());
        let avg = errs.iter().sum::<f64>() / errs.len() as f64;
        println!(
            "{:5}   {:10.2}   {avg:10.2}",
            sim.now_ticks(),
            errs[victim_idx]
        );
    }

    let (pick, pick_rtt, optimal, optimal_rtt) = closest_by_coords(&sim, victim);
    let malicious_pick = sim.malicious()[pick];
    println!("\nvictim node {victim} after the attack:");
    println!(
        "  coordinate-selected neighbour: {pick} ({pick_rtt:.1} ms{}; true optimum {optimal} at {optimal_rtt:.1} ms)",
        if malicious_pick { ", MALICIOUS" } else { "" }
    );
    println!(
        "  selection penalty: {:.1}× the optimal RTT",
        pick_rtt / optimal_rtt
    );
    if malicious_pick {
        println!("  => the victim now routes through an accomplice (man-in-the-middle position).");
    }
}
