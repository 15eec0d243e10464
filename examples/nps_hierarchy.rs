//! Build the NPS hierarchy (landmarks, reference layers, membership
//! server), converge it, then attack it with the security mechanism on or
//! off.
//!
//! ```text
//! cargo run --release --example nps_hierarchy -- \
//!     [--layers 3] [--nodes 300] [--seed 2006] \
//!     [--attack none|disorder|antidetect|sophisticated|collusion] \
//!     [--malicious 0.2] [--security on|off]
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

fn main() {
    let layers: usize = arg("--layers", 3);
    let nodes: usize = arg("--nodes", 300);
    let seed: u64 = arg("--seed", 2006);
    let attack: String = arg("--attack", "disorder".to_string());
    let fraction: f64 = arg("--malicious", 0.2);
    let security: String = arg("--security", "on".to_string());

    let seeds = SeedStream::new(seed);
    let matrix =
        KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topology"));
    let mut config = NpsConfig::with_layers(layers);
    config.security = security == "on";

    let mut sim = NpsSim::new(matrix, config, &seeds);
    println!(
        "hierarchy ({} nodes, {} layers, security {security}):",
        nodes, layers
    );
    for l in 0..layers {
        let count = sim.layers_of().iter().filter(|&&x| x as usize == l).count();
        let role = match l {
            0 => "permanent landmarks",
            x if x == layers - 1 => "ordinary nodes",
            _ => "reference points (20%)",
        };
        println!("  layer {l}: {count:4} nodes — {role}");
    }

    // Converge.
    sim.run_rounds(25);
    let plan = EvalPlan::with_params(&sim.eval_nodes(), 512, 256, &mut seeds.rng("plan"));
    let clean = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
    println!(
        "\nconverged after {} rounds: avg relative error {clean:.3}",
        sim.now_rounds()
    );
    for l in 1..layers as u8 {
        let nodes_l = sim.eval_nodes_in_layer(l);
        let plan_l = EvalPlan::with_params(&nodes_l, 512, 256, &mut seeds.rng("plan-layer"));
        let err = plan_l.avg_error(sim.coords(), sim.space(), sim.matrix());
        println!("  layer {l}: {err:.3}");
    }

    if attack == "none" {
        return;
    }

    // Attack.
    let attackers = sim.pick_attackers(fraction);
    let adversary: Box<dyn AttackStrategy> = match attack.as_str() {
        "disorder" => Box::new(NpsSimpleDisorder::default()),
        "antidetect" => Box::new(NpsAntiDetection::naive(Knowledge::half())),
        "sophisticated" => Box::new(NpsAntiDetection::sophisticated(Knowledge::half())),
        "collusion" => Box::new(NpsCollusionIsolation::new(0.2)),
        other => {
            eprintln!("unknown attack {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "\ninjecting {} {attack} attackers ({}%)...",
        attackers.len(),
        (fraction * 100.0) as u32
    );
    let ledger_before = sim.ledger();
    sim.inject_adversary(&attackers, adversary);

    let plan = EvalPlan::with_params(&sim.eval_nodes(), 512, 256, &mut seeds.rng("plan-post"));
    println!("\nround   avg err   ratio");
    for _ in 0..8 {
        sim.run_rounds(5);
        let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        println!("{:5}  {err:8.3}  {:6.2}×", sim.now_rounds(), err / clean);
    }

    let ledger = sim.ledger();
    let caught = ledger.filtered_malicious - ledger_before.filtered_malicious;
    let blamed = ledger.filtered_honest - ledger_before.filtered_honest;
    let threshold = sim.threshold_ledger().total();
    println!(
        "\nsecurity filter: {caught} malicious + {blamed} honest references eliminated \
         ({} threshold bans)",
        threshold
    );
    if caught + blamed > 0 {
        println!(
            "true-positive share: {:.0}% (figures 20/22 of the paper)",
            100.0 * caught as f64 / (caught + blamed) as f64
        );
    }
}
