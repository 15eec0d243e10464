//! Round-trip the real-data loaders: write King-format files, load them,
//! validate, sub-sample, and feed them into a simulation.

use std::io::Write;
use vcoord::prelude::*;
use vcoord::topo::king::{load_file, RttUnit};

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("vcoord-test-{name}-{}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

#[test]
fn triple_format_roundtrip() {
    // Emulate the p2psim king.matrix format: 1-based ids, microseconds.
    let seeds = SeedStream::new(1);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(30)).generate(&mut seeds.rng("topo"));
    let mut text = String::from("# synthetic king-format file\n");
    for (i, j, v) in matrix.pairs() {
        text.push_str(&format!("{} {} {:.0}\n", i + 1, j + 1, v * 1000.0));
    }
    let path = write_temp("triples", &text);
    let loaded = load_file(&path, RttUnit::Micros).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.len(), 30);
    loaded.validate().expect("valid");
    // Values survive within rounding (1 µs).
    for (i, j, v) in matrix.pairs() {
        assert!((loaded.rtt(i, j) - v).abs() < 0.01, "pair ({i},{j})");
    }
}

#[test]
fn matrix_format_roundtrip() {
    let seeds = SeedStream::new(2);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(12)).generate(&mut seeds.rng("topo"));
    let mut text = String::new();
    for i in 0..12 {
        let row: Vec<String> = (0..12)
            .map(|j| format!("{:.3}", matrix.rtt(i, j)))
            .collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    let path = write_temp("matrix", &text);
    let loaded = load_file(&path, RttUnit::Millis).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.len(), 12);
    for (i, j, v) in matrix.pairs() {
        assert!((loaded.rtt(i, j) - v).abs() < 0.01);
    }
}

#[test]
fn loaded_matrix_drives_a_simulation() {
    // The documented workflow: load real data, sub-sample a group, run.
    let seeds = SeedStream::new(3);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(60)).generate(&mut seeds.rng("topo"));
    let mut text = String::new();
    for (i, j, v) in matrix.pairs() {
        text.push_str(&format!("{i} {j} {v}\n"));
    }
    let path = write_temp("sim", &text);
    let loaded = load_file(&path, RttUnit::Millis).expect("load");
    std::fs::remove_file(&path).ok();

    let group = loaded.random_subset(40, &mut seeds.rng("group"));
    let mut sim = VivaldiSim::new(group, VivaldiConfig::default(), &seeds);
    sim.run_ticks(150);
    let plan = EvalPlan::with_params(&sim.honest_nodes(), 512, 256, &mut seeds.rng("plan"));
    let err = plan.avg_error(sim.coords(), sim.space(), sim.matrix());
    assert!(
        err < 0.7,
        "simulation on loaded data should converge: {err}"
    );
}

#[test]
fn loader_rejects_malformed_input() {
    let path = write_temp("bad", "0 1 abc\n");
    assert!(load_file(&path, RttUnit::Millis).is_err());
    std::fs::remove_file(&path).ok();

    let path = write_temp("empty", "# nothing here\n");
    assert!(load_file(&path, RttUnit::Millis).is_err());
    std::fs::remove_file(&path).ok();
}
