//! Compare two runs — JSONL traces, trace directories, or `BENCH_*.json`
//! baselines — and fail when a seed-derived key moved.
//!
//! ```text
//! obs-diff [--verbose] BASE NEW
//!
//!   BASE, NEW  a trace file (figures --trace-out), a directory of
//!              *.jsonl traces, or a BENCH_*.json baseline; BASE and
//!              NEW must be the same kind
//!   --verbose  also print the keys that did not regress
//! ```
//!
//! One rule (see `vcoord-obs::diff`): every key both runs hold must be
//! equal unless it is a wall-clock timing (BENCH kernels and figure
//! seconds, `*_ns` histograms), which is compared and only reported.
//!
//! Exit codes: 0 every gated key equal, 1 regression (or a base trace
//! missing from a NEW directory), 2 usage error, 3 unreadable or
//! unparseable input, or two runs that share no gated key.

use std::path::Path;
use vcoord::obs::diff::{diff_samples, samples_from_bench, samples_from_trace, Sample};
use vcoord::obs::json::parse_json;
use vcoord::obs::{parse_jsonl, TraceLine};

const USAGE: &str = "usage: obs-diff [--verbose] BASE NEW";

fn die_input(msg: &str) -> ! {
    eprintln!("obs-diff: {msg}");
    std::process::exit(3);
}

/// Parse one file as either a JSONL trace (first) or a BENCH baseline.
fn samples_from_file(path: &Path) -> Vec<Sample> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die_input(&format!("{}: {e}", path.display())));
    match parse_jsonl(&text) {
        Ok(lines) => {
            let fig = lines
                .iter()
                .find_map(|l| match l {
                    TraceLine::Meta { fig, .. } => Some(fig.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| {
                    die_input(&format!("{}: trace has no meta line", path.display()))
                });
            samples_from_trace(&fig, &lines)
        }
        Err(trace_err) => {
            let bench =
                parse_json(&text).and_then(|j| samples_from_bench(&j).map_err(|e| e.to_string()));
            bench.unwrap_or_else(|bench_err| {
                die_input(&format!(
                    "{}: not a trace ({trace_err}) and not a BENCH baseline ({bench_err})",
                    path.display()
                ))
            })
        }
    }
}

/// Sorted `*.jsonl` names in a directory.
fn trace_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| die_input(&format!("{}: {e}", dir.display())))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.ends_with(".jsonl").then_some(name)
        })
        .collect();
    names.sort();
    names
}

fn main() {
    let mut verbose = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--verbose" => verbose = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
            other => paths.push(other.to_string()),
        }
    }
    let [base, new] = paths.as_slice() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let base = Path::new(base);
    let new = Path::new(new);

    // Directories compare per-name: a base trace missing from the new run
    // is itself a regression (the suite shrank); extra new traces are
    // informational (the suite grew).
    let mut missing_files = 0usize;
    let (base_samples, new_samples) = if base.is_dir() || new.is_dir() {
        if !(base.is_dir() && new.is_dir()) {
            die_input("BASE and NEW must both be directories (or both files)");
        }
        let base_names = trace_names(base);
        let new_names = trace_names(new);
        if base_names.is_empty() {
            die_input(&format!("{}: no *.jsonl traces", base.display()));
        }
        let mut b = Vec::new();
        let mut n = Vec::new();
        for name in &base_names {
            if new_names.contains(name) {
                b.extend(samples_from_file(&base.join(name)));
                n.extend(samples_from_file(&new.join(name)));
            } else {
                println!("missing in new: {name}  REGRESSION");
                missing_files += 1;
            }
        }
        for name in &new_names {
            if !base_names.contains(name) {
                println!("only in new: {name}");
            }
        }
        (b, n)
    } else {
        (samples_from_file(base), samples_from_file(new))
    };

    let report = diff_samples(&base_samples, &new_samples);
    print!("{}", report.to_text(verbose));
    if report.gated() == 0 {
        die_input("BASE and NEW share no seed-derived key: nothing to compare");
    }
    if report.regressions() + missing_files > 0 {
        std::process::exit(1);
    }
}
