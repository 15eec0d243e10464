//! Inject any of the paper's Vivaldi attacks into a converged system and
//! watch the accuracy degrade, with smoltcp-style benign fault injection
//! available on the same probes.
//!
//! ```text
//! cargo run --release --example vivaldi_attack_demo -- \
//!     [--attack disorder|repulsion|collusion|lure|combined] \
//!     [--malicious 0.3] [--nodes 300] [--seed 2006] \
//!     [--loss 0.0] [--jitter 0.0]
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

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    values
        .iter()
        .map(|v| BARS[((v / max) * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

fn main() {
    let attack: String = arg("--attack", "disorder".to_string());
    let fraction: f64 = arg("--malicious", 0.3);
    let nodes: usize = arg("--nodes", 300);
    let seed: u64 = arg("--seed", 2006);
    let loss: f64 = arg("--loss", 0.0);
    let jitter: f64 = arg("--jitter", 0.0);

    let seeds = SeedStream::new(seed);
    let matrix =
        KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topology"));
    let config = VivaldiConfig {
        link: LinkModel {
            loss,
            jitter_ms: jitter,
        },
        ..VivaldiConfig::default()
    };
    let mut sim = VivaldiSim::new(matrix, config, &seeds);

    // Clean convergence.
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let mut series = Vec::new();
    for _ in 0..15 {
        sim.run_ticks(20);
        series.push(plan.avg_error(sim.coords(), sim.space(), sim.matrix()));
    }
    let clean = *series.last().expect("non-empty");
    println!(
        "converged: avg relative error {clean:.3} after {} ticks",
        sim.now_ticks()
    );

    // Injection.
    let attackers = sim.pick_attackers(fraction);
    let adversary: Box<dyn AttackStrategy> = match attack.as_str() {
        "disorder" => Box::new(VivaldiDisorder::default()),
        "repulsion" => Box::new(VivaldiRepulsion::default()),
        "collusion" => Box::new(VivaldiCollusionRepel::default()),
        "lure" => Box::new(VivaldiCollusionLure::default()),
        "combined" => Box::new(VivaldiCombined::new()),
        other => {
            eprintln!("unknown attack {other:?} (disorder|repulsion|collusion|lure|combined)");
            std::process::exit(2);
        }
    };
    println!(
        "injecting {} {attack} attackers ({}% of {} nodes) at tick {}...\n",
        attackers.len(),
        (fraction * 100.0) as u32,
        nodes,
        sim.now_ticks()
    );
    sim.inject_adversary(&attackers, adversary);

    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan2"));
    let mut attacked = Vec::new();
    println!(" tick   avg err   ratio");
    for _ in 0..15 {
        sim.run_ticks(20);
        let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        attacked.push(err);
        println!("{:5}  {err:8.2}  {:7.1}×", sim.now_ticks(), err / clean);
    }

    println!("\nclean    {}", sparkline(&series));
    println!("attacked {}", sparkline(&attacked));
    let c = sim.counters();
    println!(
        "\nprobes={} lies={} lost={} (loss={loss}, jitter={jitter}ms)",
        c.probes_sent, c.lies_served, c.probes_lost
    );
}
