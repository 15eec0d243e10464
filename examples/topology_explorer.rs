//! Inspect the latency substrate: synthesize the King-equivalent topology
//! (or load the real King matrix) and print its distributional fingerprint,
//! the statistics the substitution in DESIGN.md is calibrated against.
//!
//! ```text
//! cargo run --release --example topology_explorer -- \
//!     [--nodes 1740] [--seed 2006] [--king path/to/king.matrix] \
//!     [--unit us|ms] [--subset N]
//! ```

use vcoord::prelude::*;
use vcoord::topo::king::{load_file, RttUnit};

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn histogram(matrix: &RttMatrix, buckets: usize, width: usize) {
    let mut vals: Vec<f64> = matrix.pairs().map(|(_, _, v)| v).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let max = *vals.last().expect("non-empty");
    let mut counts = vec![0usize; buckets];
    for v in &vals {
        let b = ((v / max) * (buckets as f64 - 1.0)) as usize;
        counts[b] += 1;
    }
    let peak = *counts.iter().max().expect("non-empty") as f64;
    println!("\nRTT distribution ({} pairs):", vals.len());
    for (b, &c) in counts.iter().enumerate() {
        let lo = max * b as f64 / buckets as f64;
        let hi = max * (b + 1) as f64 / buckets as f64;
        let bar = "#".repeat(((c as f64 / peak) * width as f64).round() as usize);
        println!("{lo:7.0}-{hi:<7.0} ms |{bar}");
    }
}

fn main() {
    let nodes: usize = arg("--nodes", 1740);
    let seed: u64 = arg("--seed", 2006);
    let king_path: String = arg("--king", String::new());
    let unit: String = arg("--unit", "us".to_string());
    let subset: usize = arg("--subset", 0);

    let seeds = SeedStream::new(seed);
    let mut matrix = if king_path.is_empty() {
        println!("synthesizing King-equivalent topology ({nodes} nodes, seed {seed})...");
        KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topology"))
    } else {
        let unit = if unit == "ms" {
            RttUnit::Millis
        } else {
            RttUnit::Micros
        };
        println!("loading {king_path} ({unit:?})...");
        match load_file(&king_path, unit) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("failed to load: {e}");
                std::process::exit(1);
            }
        }
    };

    if subset > 0 {
        matrix = matrix.random_subset(subset, &mut seeds.rng("subset"));
        println!("restricted to a random subset of {} nodes", matrix.len());
    }

    matrix.validate().expect("valid matrix");
    let stats = TopoStats::analyze(&matrix, 100_000, &mut seeds.rng("stats"));
    println!("\n{stats}");
    println!(
        "\ncalibration targets (King, per DESIGN.md): median ≈ 98 ms, heavy right tail,\n\
         a few percent triangle-inequality violations, near pairs under 50 ms present."
    );
    histogram(&matrix, 16, 48);
}
