//! End-to-end tests of the `obs-diff` and `obs-report` binaries: exit
//! codes (0 pass / 1 regression / 2 usage / 3 input), trace-dir and
//! BENCH-baseline comparison modes, tolerance specs, and the
//! injected-regression self-test CI relies on (a doubled
//! `evals_per_round` must gate, an unmodified rebuild must pass clean).

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
fn moved_counter_gates_and_report_only_does_not() {
    let root = tmp("moved");
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    write_traces(&a, &[("fig1", 100, 200.0)]);
    write_traces(&b, &[("fig1", 200, 200.0)]); // counter doubled: exact section
    let out = obs_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("REGRESSION"), "{}", stdout(&out));
    let out = obs_diff(&["--report-only", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "--report-only must not gate");
}

#[test]
fn tolerance_spec_absorbs_movement() {
    let root = tmp("tolerated");
    let (a, b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    write_traces(&a, &[("fig1", 100, 200.0)]);
    write_traces(&b, &[("fig1", 130, 200.0)]);
    let spec = root.join("tol.toml");
    std::fs::write(&spec, "[counters]\ndefault_rel = 0.5\n").unwrap();
    let out = obs_diff(&[
        "--tolerances",
        spec.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
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

#[test]
fn injected_evals_regression_gates() {
    // The CI gate's dirty half (the acceptance self-test): double every
    // evals_per_round mean in a copy of the committed baseline and the
    // diff must exit 1, attributing the regression to that section.
    let text = std::fs::read_to_string(committed_bench()).unwrap();
    let mut lines: Vec<String> = Vec::new();
    let mut in_evals = false;
    let mut doubled = 0;
    for line in text.lines() {
        let mut line = line.to_string();
        if line.contains("\"evals_per_round\"") {
            in_evals = true;
        } else if in_evals && line.trim_start().starts_with('}') {
            in_evals = false;
        } else if in_evals {
            if let Some(pos) = line.find("\"mean\": ") {
                let rest = &line[pos + 8..];
                let end = rest.find(',').unwrap();
                let mean: f64 = rest[..end].trim().parse().unwrap();
                line = format!(
                    "{}\"mean\": {:.3}{}",
                    &line[..pos],
                    mean * 2.0,
                    &rest[end..]
                );
                doubled += 1;
            }
        }
        lines.push(line);
    }
    assert!(
        doubled > 0,
        "baseline has no evals_per_round means to double"
    );
    let root = tmp("injected");
    let hot = root.join("BENCH_doubled.json");
    std::fs::write(&hot, lines.join("\n") + "\n").unwrap();
    let out = obs_diff(&[committed_bench().to_str().unwrap(), hot.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a 2x evals_per_round regression must gate:\n{}",
        stdout(&out)
    );
    assert!(
        stdout(&out).contains("evals_per_round"),
        "regression must be attributed to evals_per_round:\n{}",
        stdout(&out)
    );

    // Under CI's spec the one seed-derived histogram gates exactly, and the
    // wall-clock ones beside it in the same section still only report: move
    // the first `nps.round_evals` p50 by half, then the first
    // `figure.rep_ns` one.
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci-tolerances.toml");
    let with_p50_moved = |metric: &str| {
        let at = text.find(&format!("\"{metric}\": {{")).expect("metric");
        let from = at + text[at..].find("\"p50\": ").expect("p50") + 7;
        let to = from + text[from..].find(',').expect("p90 follows");
        let p50: f64 = text[from..to].trim().parse().expect("a number");
        let hot = root.join(format!("BENCH_{metric}.json"));
        let moved = format!("{}{:e}{}", &text[..from], p50 * 1.5, &text[to..]);
        std::fs::write(&hot, moved).unwrap();
        obs_diff(&[
            "--tolerances",
            spec.to_str().unwrap(),
            committed_bench().to_str().unwrap(),
            hot.to_str().unwrap(),
        ])
    };
    let out = with_p50_moved("nps.round_evals");
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("/nps.round_evals.p50") && stdout(&out).contains("1 regressions"),
        "{}",
        stdout(&out)
    );
    let out = with_p50_moved("figure.rep_ns");
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
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
