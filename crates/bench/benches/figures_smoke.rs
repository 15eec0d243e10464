//! End-to-end smoke benches over representative figure runners.
//!
//! One runner per figure *family* (time-series, CDF, sweep, ledger,
//! diagram) at a micro scale, proving the whole harness — topology
//! synthesis, both simulators, attacks, metrics, aggregation — executes
//! end-to-end under `cargo bench` and tracking its wall-clock cost.
//! The complete per-figure regeneration lives in the `figures` binary;
//! `tests/figures_smoke.rs` covers every id.

use criterion::{criterion_group, Criterion};
use vcoord::experiments::{registry, Scale};

fn micro_scale() -> Scale {
    Scale {
        nodes: 48,
        repetitions: 1,
        vivaldi_warmup_ticks: 40,
        vivaldi_attack_ticks: 60,
        vivaldi_record_every: 10,
        nps_warmup_rounds: 6,
        nps_attack_rounds: 10,
        nps_record_every: 2,
        eval_all_pairs_threshold: 64,
        eval_sample_peers: 32,
    }
}

fn bench_figures(c: &mut Criterion) {
    let scale = micro_scale();
    let mut group = c.benchmark_group("figures_micro");
    group.sample_size(10);
    // One per family: Vivaldi ratio-vs-time, Vivaldi CDF, NPS
    // security-on/off time series, NPS ledger sweep, static diagram.
    for id in ["fig1", "fig5", "fig14", "fig22", "fig17"] {
        group.bench_function(id, |b| {
            b.iter(|| registry::run_figure(id, &scale, 1).expect("known id"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(8)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_figures
}
fn main() {
    vcoord_bench::install_env();
    benches();
}
