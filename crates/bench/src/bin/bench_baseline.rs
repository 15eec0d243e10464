//! Persistent perf baseline: `BENCH_<scale>.json`.
//!
//! ```text
//! bench-baseline [IDS...] [--smoke|--quick] [--seed N] [--out DIR]
//!
//!   IDS        figure ids to wall-clock (default: all)
//!   --smoke    72-node scale (default; the committed baseline)
//!   --quick    400-node scale (slower, closer to real workloads)
//!   --seed N   master seed (default 2006)
//!   --out DIR  output directory (default .)
//! ```
//!
//! Emits one machine-readable JSON file (schema 4) holding (a) per-figure
//! wall-clock seconds at the chosen scale — figures are timed one at a time,
//! as the `figures` binary runs them, each on its own job grid, so pin
//! `VCOORD_THREADS` (recorded in the JSON as `"threads"`) when comparing
//! numbers across machines — (b) a per-figure
//! `"obs"` block: the figure sweep runs with `vcoord-obs` in `Metrics` mode
//! and each figure's drained counters and histogram summaries (count, mean,
//! p50/p90/p95/p99; wall-clock ones included — this file is a perf record,
//! not a byte-compared trace) land beside its wall-clock; Simplex objective
//! evaluations per NPS positioning round are its `nps.round_evals`
//! histogram (Vivaldi-only figures hold none) — and (c) hot-kernel timings:
//! one entry per row of `vcoord_bench::kernel_rows`, the one table of
//! isolated kernels, timed in-process by `time_kernel` below.
//! Kernel entries carry mean/median/trimmed-mean/p95/min/max: compare the
//! robust columns (`trimmed_mean_s`, `p95_s`, `median_s`) across runs —
//! the raw mean is kept for schema continuity but one preempted sample
//! can invert it between paired kernels.
//! Committing a `BENCH_smoke.json` per perf-relevant PR gives the repo a
//! perf trajectory that review can diff instead of trusting prose; CI
//! regenerates and prints it on every run.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vcoord::experiments::{registry, Scale};
use vcoord::obs::json::json_escape;

struct Args {
    ids: Vec<String>,
    scale: Scale,
    scale_name: &'static str,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut scale = Scale::smoke();
    let mut scale_name = "smoke";
    let mut seed = 2006u64;
    let mut out = PathBuf::from(".");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => {
                scale = Scale::smoke();
                scale_name = "smoke";
            }
            "--quick" => {
                scale = Scale::quick();
                scale_name = "quick";
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--out" => out = PathBuf::from(argv.next().ok_or("--out needs a value")?),
            "--help" | "-h" => {
                return Err(
                    "usage: bench-baseline [IDS...|all] [--smoke|--quick] [--seed N] [--out DIR]"
                        .into(),
                );
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    Ok(Args {
        ids,
        scale,
        scale_name,
        seed,
        out,
    })
}

/// Summary of repeated single-call timings of one kernel.
struct KernelStats {
    mean_s: f64,
    median_s: f64,
    /// 20 % symmetrically trimmed mean — the robust headline number (one
    /// preempted sample can invert the raw means of paired kernels).
    trimmed_mean_s: f64,
    /// 95th-percentile (nearest-rank) single-call time.
    p95_s: f64,
    min_s: f64,
    max_s: f64,
    samples: usize,
}

/// Time `f` repeatedly (one timing per call, recorded per `divisor`-th of
/// a call) until the budget is spent.
fn time_kernel<F: FnMut()>(budget: Duration, divisor: f64, mut f: F) -> KernelStats {
    f(); // warm-up (page in code and scratch buffers)
    let mut samples: Vec<f64> = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget && samples.len() < 4096 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() / divisor);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    let cut = n / 10; // 10 % per tail
    let kept = &samples[cut..n - cut];
    KernelStats {
        mean_s: samples.iter().sum::<f64>() / n as f64,
        median_s: samples[n / 2],
        trimmed_mean_s: kept.iter().sum::<f64>() / kept.len() as f64,
        p95_s: samples[((n as f64 - 1.0) * 0.95).round() as usize],
        min_s: samples[0],
        max_s: samples[n - 1],
        samples: n,
    }
}

fn main() {
    vcoord_bench::install_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    // --- Kernel timings -------------------------------------------------
    // One loop over the ledger's table (vcoord_bench::kernel_rows), before
    // the sweep switches recording on: every row times the disabled path.
    let budget = Duration::from_millis(400);
    let kernels: Vec<(&str, KernelStats)> = vcoord_bench::kernel_rows()
        .into_iter()
        .map(|mut row| (row.name, time_kernel(budget, row.divisor, &mut row.sample)))
        .collect();
    for (name, s) in &kernels {
        println!(
            "{name:<40} {:>9.3e} s median ({} samples, trimmed {:.3e}, p95 {:.3e})",
            s.median_s, s.samples, s.trimmed_mean_s, s.p95_s
        );
    }

    // --- Figure wall-clocks ---------------------------------------------
    let ids: Vec<String> = if args.ids.is_empty() || args.ids.iter().any(|i| i == "all") {
        registry::figure_ids()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args.ids.clone()
    };
    let mut figures: Vec<(String, f64)> = Vec::new();
    // Per-figure obs summaries for the "obs" block. The sweep (and only the
    // sweep) runs in Metrics mode: kernel timings above stay on the
    // disabled path, comparable with pre-obs baselines.
    let mut figure_obs: Vec<(String, vcoord::obs::ObsReport)> = Vec::new();
    let round_evals = vcoord::obs::metric("nps.round_evals");
    vcoord::obs::set_mode(vcoord::obs::ObsMode::Metrics);
    let sweep_start = Instant::now();
    for id in &ids {
        let start = Instant::now();
        vcoord::obs::reset();
        match registry::run_figure(id, &args.scale, args.seed) {
            Some(_) => {
                let secs = start.elapsed().as_secs_f64();
                let report = vcoord::obs::drain();
                match report.hists().iter().find(|(m, _)| *m == round_evals) {
                    Some((_, h)) => println!(
                        "{id:<20} {secs:>8.2}s  {:>7.1} evals/round over {} rounds",
                        h.mean(),
                        h.count
                    ),
                    None => println!("{id:<20} {secs:>8.2}s"),
                }
                figure_obs.push((id.clone(), report));
                figures.push((id.clone(), secs));
            }
            None => {
                eprintln!("unknown figure id: {id} (try --list on the figures binary)");
                std::process::exit(1);
            }
        }
    }
    let figures_total = sweep_start.elapsed().as_secs_f64();
    vcoord::obs::set_mode(vcoord::obs::ObsMode::Off);

    // --- JSON -----------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": {},\n",
        vcoord::obs::diff::BENCH_SCHEMA
    ));
    json.push_str(&format!("  \"scale\": \"{}\",\n", args.scale_name));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!(
        "  \"threads\": {},\n",
        vcoord::metrics::worker_threads()
    ));
    json.push_str("  \"kernels\": {\n");
    for (i, (name, s)) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"mean_s\": {:e}, \"median_s\": {:e}, \"trimmed_mean_s\": {:e}, \"p95_s\": {:e}, \"min_s\": {:e}, \"max_s\": {:e}, \"samples\": {}}}{}\n",
            json_escape(name),
            s.mean_s,
            s.median_s,
            s.trimmed_mean_s,
            s.p95_s,
            s.min_s,
            s.max_s,
            s.samples,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"obs\": {\n");
    for (i, (id, report)) in figure_obs.iter().enumerate() {
        json.push_str(&format!("    \"{}\": {{", json_escape(id)));
        json.push_str("\"counters\": {");
        for (k, &(metric, value)) in report.counters().iter().enumerate() {
            json.push_str(&format!(
                "{}\"{}\": {value}",
                if k > 0 { ", " } else { "" },
                json_escape(vcoord::obs::metric_name(metric)),
            ));
        }
        json.push_str("}, \"hists\": {");
        for (k, (metric, h)) in report.hists().iter().enumerate() {
            let (p50, p90, p95, p99) = h.percentiles();
            json.push_str(&format!(
                "{}\"{}\": {{\"count\": {}, \"mean\": {:e}, \"p50\": {p50:e}, \"p90\": {p90:e}, \"p95\": {p95:e}, \"p99\": {p99:e}}}",
                if k > 0 { ", " } else { "" },
                json_escape(vcoord::obs::metric_name(*metric)),
                h.count,
                h.mean(),
            ));
        }
        json.push_str(&format!(
            "}}}}{}\n",
            if i + 1 < figure_obs.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"figures\": {\n");
    for (i, (id, secs)) in figures.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {:.3}{}\n",
            json_escape(id),
            secs,
            if i + 1 < figures.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"figures_total_s\": {figures_total:.3}\n"));
    json.push_str("}\n");

    std::fs::create_dir_all(&args.out).expect("create output directory");
    let path = args.out.join(format!("BENCH_{}.json", args.scale_name));
    let mut file = std::fs::File::create(&path).expect("create baseline file");
    file.write_all(json.as_bytes()).expect("write baseline");
    println!(
        "# wrote {} ({} kernels, {} figures, {:.1}s total figure time)",
        path.display(),
        kernels.len(),
        figures.len(),
        figures_total
    );
}
