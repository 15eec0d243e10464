//! End-to-end tests of the `obs-diff` and `obs-report` binaries: exit
//! codes (0 pass / 1 regression / 2 usage / 3 input), trace-dir and
//! BENCH-baseline comparison modes, the one rule (seed-derived keys must
//! match, timings only report) both ways, and the injected-regression
//! self-test CI relies on (a doubled `nps.round_evals` mean must gate, an
//! unmodified rebuild must pass clean).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn obs_diff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs-diff"))
        .args(args)
        .output()
        .expect("spawn obs-diff binary")
}

fn obs_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs-report"))
        .args(args)
        .output()
        .expect("spawn obs-report binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("obs-diff-cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A minimal valid schema-2 trace (shape mirrors `render_jsonl`).
fn trace(fig: &str, ticks: u64, evals_mean: f64) -> String {
    format!(
        "{{\"type\":\"meta\",\"schema\":2,\"run\":\"t-seed1\",\"fig\":\"{fig}\",\"seed\":1,\"scale\":\"smoke\"}}\n\
         {{\"type\":\"counter\",\"metric\":\"vivaldi.ticks\",\"value\":{ticks}}}\n\
         {{\"type\":\"hist\",\"metric\":\"nps.round_evals\",\"count\":10,\"sum\":{},\"min\":1,\"max\":{evals_mean},\"p50\":{evals_mean},\"p90\":{evals_mean},\"p95\":{evals_mean},\"p99\":{evals_mean}}}\n",
        evals_mean * 10.0,
    )
}

fn write_traces(dir: &Path, figs: &[(&str, u64, f64)]) {
    for (fig, ticks, evals) in figs {
        std::fs::write(dir.join(format!("{fig}.jsonl")), trace(fig, *ticks, *evals)).unwrap();
    }
}

/// Path to the committed repo-root baseline.
fn committed_bench() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_smoke.json")
}

#[test]
fn identical_trace_dirs_pass() {
    let root = tmp("identical");
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    write_traces(&a, &[("fig1", 100, 200.0), ("fig2", 50, 180.0)]);
    write_traces(&b, &[("fig1", 100, 200.0), ("fig2", 50, 180.0)]);
    let out = obs_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 regressions"), "{}", stdout(&out));
}

#[test]
fn moved_counter_gates() {
    let root = tmp("moved");
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    write_traces(&a, &[("fig1", 100, 200.0)]);
    write_traces(&b, &[("fig1", 101, 200.0)]); // one tick more
    let out = obs_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("fig1/vivaldi.ticks") && stdout(&out).contains("REGRESSION"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn runs_without_a_shared_gated_key_are_bad_input() {
    // Two one-counter traces of different figures share no key: the diff
    // proves nothing, as when a CI path points at the wrong file.
    let root = tmp("disjoint");
    for fig in ["fig1", "fig2"] {
        let meta_and_counter: String = trace(fig, 100, 200.0)
            .lines()
            .take(2)
            .map(|line| format!("{line}\n"))
            .collect();
        std::fs::write(root.join(format!("{fig}.jsonl")), meta_and_counter).unwrap();
    }
    let (a, b) = (root.join("fig1.jsonl"), root.join("fig2.jsonl"));
    let out = obs_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("share no seed-derived key"), "{err}");
}

#[test]
fn missing_trace_file_is_a_regression() {
    let root = tmp("missing");
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    write_traces(&a, &[("fig1", 100, 200.0), ("fig2", 50, 180.0)]);
    write_traces(&b, &[("fig1", 100, 200.0)]); // fig2 vanished
    let out = obs_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("missing in new"), "{}", stdout(&out));
}

#[test]
fn usage_and_input_errors_have_distinct_codes() {
    assert_eq!(obs_diff(&[]).status.code(), Some(2), "no args is usage");
    assert_eq!(
        obs_diff(&["--frobnicate", "a", "b"]).status.code(),
        Some(2),
        "unknown flag is usage"
    );
    let root = tmp("input-errors");
    let missing = root.join("nope.jsonl");
    assert_eq!(
        obs_diff(&[missing.to_str().unwrap(), missing.to_str().unwrap()])
            .status
            .code(),
        Some(3),
        "unreadable input is exit 3"
    );
    let garbage = root.join("garbage.jsonl");
    std::fs::write(&garbage, "not json at all\n").unwrap();
    assert_eq!(
        obs_diff(&[garbage.to_str().unwrap(), garbage.to_str().unwrap()])
            .status
            .code(),
        Some(3),
        "unparseable input is exit 3"
    );
}

#[test]
fn committed_baseline_self_diff_passes_clean() {
    // The CI gate's clean half: a baseline compared against itself must
    // never regress, whatever the tolerances.
    let bench = committed_bench();
    let bench = bench.to_str().unwrap();
    let out = obs_diff(&[bench, bench]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 regressions"), "{}", stdout(&out));
}

/// `text` with the number after the first `"{field}": ` following each
/// `"{key}": ` scaled by `factor` (the first occurrence only unless
/// `every`), and how many numbers moved.
fn scaled(text: &str, key: &str, field: &str, factor: f64, every: bool) -> (String, usize) {
    let (key, field) = (format!("\"{key}\": "), format!("\"{field}\": "));
    let mut out = String::new();
    let mut rest = text;
    let mut moved = 0;
    while let Some(at) = rest.find(&key).filter(|_| every || moved == 0) {
        let from = at + rest[at..].find(&field).expect("field follows key") + field.len();
        let to = from + rest[from..].find([',', '}', '\n']).expect("number ends");
        let value: f64 = rest[from..to].trim().parse().expect("a number");
        out.push_str(&rest[..from]);
        out.push_str(&format!("{:e}", value * factor));
        rest = &rest[to..];
        moved += 1;
    }
    out.push_str(rest);
    (out, moved)
}

/// Diff the committed baseline against a copy of it edited by [`scaled`].
fn diff_edited(name: &str, key: &str, field: &str, factor: f64, every: bool) -> Output {
    let text = std::fs::read_to_string(committed_bench()).unwrap();
    let (edited, moved) = scaled(&text, key, field, factor, every);
    assert!(moved > 0, "BENCH_smoke.json holds no {key}.{field}");
    let hot = tmp(&format!("edited-{name}")).join("BENCH_smoke.json");
    std::fs::write(&hot, edited).unwrap();
    obs_diff(&[committed_bench().to_str().unwrap(), hot.to_str().unwrap()])
}

#[test]
fn injected_evals_regression_gates() {
    // The CI gate's dirty half (the acceptance self-test): double every
    // `nps.round_evals` mean in a copy of the committed baseline and the
    // diff must exit 1, attributing the regression to that histogram.
    let out = diff_edited("doubled", "nps.round_evals", "mean", 2.0, true);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a 2x evals-per-round regression must gate:\n{}",
        stdout(&out)
    );
    assert!(
        stdout(&out).contains("/nps.round_evals.mean"),
        "regression must be attributed to nps.round_evals:\n{}",
        stdout(&out)
    );

    // Any quantile of the seed-derived histogram gates too: move the first
    // figure's `nps.round_evals` p50 by half.
    let out = diff_edited("p50", "nps.round_evals", "p50", 1.5, false);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("/nps.round_evals.p50") && stdout(&out).contains(": 1 regressions"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn moved_timings_only_report() {
    // Wall-clock keys vary with the host: a `_ns` histogram quantile, a
    // kernel median and a figure's seconds may move without gating.
    let kernel = std::fs::read_to_string(committed_bench()).unwrap();
    let kernel = kernel
        .split("\"kernels\": {")
        .nth(1)
        .and_then(|k| k.split('"').nth(1))
        .expect("a kernel row")
        .to_string();
    for (name, key, field) in [
        ("rep-ns", "figure.rep_ns", "p50"),
        ("kernel", kernel.as_str(), "median_s"),
        ("figure", "figures", "fig1"),
    ] {
        let out = diff_edited(name, key, field, 3.0, false);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stdout(&out));
        assert!(stdout(&out).contains(": 0 regressions"), "{}", stdout(&out));
    }
}

#[test]
fn other_schemas_are_bad_input_not_a_diff() {
    // A schema-1 trace and a schema-3 BENCH file: nobody holds either, and
    // neither is read as if it were the current format. obs-report exits 1
    // and obs-diff 3, the code each uses for corrupt input.
    let root = tmp("old-schemas");
    let old_trace = root.join("old.jsonl");
    std::fs::write(
        &old_trace,
        trace("fig1", 100, 200.0).replace("\"schema\":2", "\"schema\":1"),
    )
    .unwrap();
    let out = obs_report(&[old_trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("line 1: trace schema 1"), "{err}");

    let old_bench = root.join("BENCH_old.json");
    let text = std::fs::read_to_string(committed_bench()).unwrap();
    std::fs::write(
        &old_bench,
        text.replacen("\"schema\": 4", "\"schema\": 3", 1),
    )
    .unwrap();
    for file in [&old_trace, &old_bench] {
        let out = obs_diff(&[file.to_str().unwrap(), file.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(3), "{}", file.display());
    }
    let err =
        String::from_utf8_lossy(&obs_diff(&[old_bench.to_str().unwrap(); 2]).stderr).into_owned();
    assert!(err.contains("BENCH schema 3, this reader takes 4"), "{err}");
}

#[test]
fn obs_report_summary_and_empty_input_codes() {
    let root = tmp("report");
    let traces = root.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    write_traces(&traces, &[("fig1", 100, 200.0)]);
    let out = obs_report(&["--summary", traces.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("fig1"), "{}", stdout(&out));
    // Empty directory: the mis-pointed-CI-path error, its own exit code.
    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = obs_report(&["--summary", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    // No paths at all is usage, not input.
    assert_eq!(obs_report(&[]).status.code(), Some(2));
}
