//! Quickstart: build a Vivaldi coordinate system on a synthetic Internet
//! topology, let it converge, and use the coordinates to predict latencies.
//!
//! ```text
//! cargo run --release --example quickstart [-- --nodes N --seed S]
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
    let nodes: usize = arg("--nodes", 200);
    let seed: u64 = arg("--seed", 2006);

    // 1. A King-like latency substrate (see DESIGN.md for the synthesis
    //    model; use `vcoord::topo::king::load_file` for the real data set).
    let seeds = SeedStream::new(seed);
    let matrix =
        KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topology"));
    let stats = TopoStats::analyze(&matrix, 20_000, &mut seeds.rng("stats"));
    println!("topology: {stats}");

    // 2. A Vivaldi system with the paper's parameters (2-D, Cc = 0.25,
    //    64 springs of which 32 near).
    let mut sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds);

    // 3. Converge: watch the average relative error settle (measured over
    //    all pairs up to 512 nodes, over 256 sampled peers a node above).
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    println!("\n tick   avg relative error");
    for _ in 0..10 {
        sim.run_ticks(30);
        let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
        println!("{:5}   {:.4}", sim.now_ticks(), err);
    }

    // 4. Predict a few latencies from coordinates alone.
    println!("\npair        actual     predicted   rel.err");
    let mut rng = seeds.rng("pairs");
    for _ in 0..8 {
        let i = rand::Rng::gen_range(&mut rng, 0..nodes);
        let mut j = rand::Rng::gen_range(&mut rng, 0..nodes);
        while j == i {
            j = rand::Rng::gen_range(&mut rng, 0..nodes);
        }
        let actual = sim.matrix().rtt(i, j);
        let predicted = sim.space().distance(&sim.coords()[i], &sim.coords()[j]);
        println!(
            "{i:4}-{j:<4}  {actual:7.1} ms  {predicted:7.1} ms   {:.3}",
            relative_error(actual, predicted)
        );
    }
    println!(
        "\nWith coordinates, any of the {} × {} distances can be predicted",
        nodes, nodes
    );
    println!("without further probing — which is exactly why attacking the");
    println!("coordinate system (see the other examples) is so damaging.");
}
