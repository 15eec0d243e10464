//! End-to-end tests of the `figures` binary CLI: argument parsing, the
//! figure index, error paths, and CSV output.

use std::path::Path;
use std::process::{Command, Output};

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn run(args: &[&str]) -> Output {
    figures().args(args).output().expect("spawn figures binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn list_prints_every_figure_id() {
    let out = run(&["--list"]);
    assert!(out.status.success(), "--list must exit 0");
    // One line per row of the figure table, in table order: the id, then
    // the title the figure's CSV opens with.
    let text = stdout(&out);
    let listed: Vec<&str> = text
        .lines()
        .skip(1)
        .map(|line| line.split_whitespace().next().expect("an id per line"))
        .collect();
    assert_eq!(listed, vcoord::experiments::figure_ids(), "{text}");
    assert!(
        text.contains("fig2    Injected Disorder attack on Vivaldi: CDF of relative error\n"),
        "--list should print each figure's title:\n{text}"
    );
}

#[test]
fn help_exits_nonzero_with_usage() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn unknown_flag_is_rejected() {
    // `--profile` was a flag until its one reader, a CI schema check, went;
    // `--jobs` until a figure's own job grid became the run's one pool.
    for args in [&["--frobnicate"][..], &["--profile", "x"], &["--jobs", "2"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2));
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown flag {}", args[0])), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
}

#[test]
fn bad_seed_is_rejected() {
    let out = run(&["--seed", "not-a-number"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("bad seed"));
}

#[test]
fn missing_seed_value_is_rejected() {
    let out = run(&["--seed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--seed needs a value"));
}

#[test]
fn thread_pin_reaches_the_one_pool_without_a_flag() {
    let dir = tempdir("thread-pin");
    let out = figures()
        .env("VCOORD_THREADS", "2")
        .args(["fig17", "--smoke", "--out", dir.to_str().unwrap()])
        .output()
        .expect("spawn figures binary");
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let header = text.lines().next().expect("a header line");
    assert!(header.starts_with("# vcoord figure harness — "), "{header}");
    assert!(header.ends_with(" seed=2006 threads=2"), "{header}");
}

#[test]
fn unknown_figure_id_exits_one() {
    let dir = tempdir("unknown-id");
    let out = run(&["fig99", "--smoke", "--out", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown figure id: fig99"));
}

#[test]
fn unwritable_out_dir_exits_three_without_a_panic() {
    let dir = tempdir("unwritable-out");
    let blocker = dir.join("not-a-directory");
    std::fs::write(&blocker, "a regular file").unwrap();
    let out_dir = blocker.join("results");
    let out = run(&["fig17", "--smoke", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "stderr:\n{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains(&format!("figures: cannot write {}:", out_dir.display())),
        "stderr:\n{err}"
    );
    assert!(!err.contains("panicked"), "stderr:\n{err}");
}

#[test]
fn smoke_run_writes_csv_with_rows() {
    let dir = tempdir("smoke-fig17");
    // fig17 evaluates closed-form geometry — the cheapest figure.
    let out = run(&[
        "fig17",
        "--smoke",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "figures fig17 --smoke failed:\n{}",
        stderr(&out)
    );
    let csv_path = dir.join("fig17.csv");
    assert!(csv_path.exists(), "expected {}", csv_path.display());
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let data_rows: Vec<&str> = csv
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert!(
        data_rows.len() >= 2,
        "CSV needs a header plus at least one data row:\n{csv}"
    );
    // Header then numeric rows.
    assert!(
        data_rows[0].contains(','),
        "header should be comma-separated"
    );
    for cell in data_rows[1].split(',') {
        cell.parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric cell {cell:?} in:\n{csv}"));
    }
    // Stdout carries the rendered table and the completion line.
    let text = stdout(&out);
    assert!(text.contains("== fig17"));
    assert!(text.contains("# done: 1 figures"));
}

#[test]
fn attack_sweep_figures_write_csvs_under_smoke() {
    let dir = tempdir("atk-sweeps");
    let out = run(&[
        "atk-sweep-vivaldi",
        "atk-frog-drift",
        "--smoke",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "attack figures --smoke failed:\n{}",
        stderr(&out)
    );
    for id in ["atk-sweep-vivaldi", "atk-frog-drift"] {
        let csv_path = dir.join(format!("{id}.csv"));
        assert!(csv_path.exists(), "expected {}", csv_path.display());
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let data_rows: Vec<&str> = csv
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();
        assert!(
            data_rows.len() >= 2,
            "{id}: header plus rows needed:\n{csv}"
        );
        for cell in data_rows[1].split(',') {
            cell.parse::<f64>()
                .unwrap_or_else(|_| panic!("{id}: non-numeric cell {cell:?}"));
        }
    }
    // The sweep carries both error and drift columns per strategy.
    let sweep = std::fs::read_to_string(dir.join("atk-sweep-vivaldi.csv")).unwrap();
    assert!(sweep.contains("err_frog_boiling"));
    assert!(sweep.contains("drift_partition"));
}

#[test]
fn attack_sweep_ids_are_listed() {
    let out = run(&["--list"]);
    let text = stdout(&out);
    for id in ["atk-sweep-vivaldi", "atk-sweep-nps", "atk-frog-drift"] {
        assert!(text.contains(id), "--list missing {id}:\n{text}");
    }
}

#[test]
fn defense_sweep_ids_are_listed() {
    let out = run(&["--list"]);
    let text = stdout(&out);
    for id in [
        "def-sweep-vivaldi",
        "def-sweep-nps",
        "def-frog-drift",
        "def-roc",
    ] {
        assert!(text.contains(id), "--list missing {id}:\n{text}");
    }
}

#[test]
fn defense_figures_write_csvs_under_smoke() {
    let dir = tempdir("def-figs");
    let out = run(&[
        "def-frog-drift",
        "def-roc",
        "--smoke",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "defense figures --smoke failed:\n{}",
        stderr(&out)
    );
    for id in ["def-frog-drift", "def-roc"] {
        let csv_path = dir.join(format!("{id}.csv"));
        assert!(csv_path.exists(), "expected {}", csv_path.display());
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let data_rows: Vec<&str> = csv
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();
        assert!(
            data_rows.len() >= 2,
            "{id}: header plus rows needed:\n{csv}"
        );
        for cell in data_rows[1].split(',') {
            cell.parse::<f64>()
                .unwrap_or_else(|_| panic!("{id}: non-numeric cell {cell:?}"));
        }
    }
    // The drift study carries per-defense drift and error columns; the ROC
    // carries the (fpr, tpr) pairs of both swept detectors.
    let drift = std::fs::read_to_string(dir.join("def-frog-drift.csv")).unwrap();
    assert!(drift.contains("drift_drift_cap"));
    assert!(drift.contains("err_mad_outlier"));
    let roc = std::fs::read_to_string(dir.join("def-roc.csv")).unwrap();
    assert!(roc.contains("tpr_drift_cap"));
    assert!(roc.contains("fpr_mad"));
}

#[test]
fn arms_sweep_ids_are_listed() {
    let out = run(&["--list"]);
    let text = stdout(&out);
    for id in [
        "arms-sweep-vivaldi",
        "arms-sweep-nps",
        "arms-evasion-roc",
        "arms-decay-tradeoff",
        "arms-evasion-learning",
    ] {
        assert!(text.contains(id), "--list missing {id}:\n{text}");
    }
}

#[test]
fn chaos_ids_are_listed() {
    let out = run(&["--list"]);
    let text = stdout(&out);
    for id in [
        "chaos-churn-vivaldi",
        "chaos-churn-nps",
        "chaos-landmark-takedown",
        "chaos-loss-bursts",
        "chaos-frog-hides-in-churn",
        "chaos-partition-recovery",
        "chaos-probation-nps",
    ] {
        assert!(text.contains(id), "--list missing {id}:\n{text}");
    }
}

#[test]
fn chaos_figures_write_csvs_under_smoke() {
    let dir = tempdir("chaos-figs");
    let out = run(&[
        "chaos-loss-bursts",
        "--smoke",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "chaos figures --smoke failed:\n{}",
        stderr(&out)
    );
    let csv_path = dir.join("chaos-loss-bursts.csv");
    assert!(csv_path.exists(), "expected {}", csv_path.display());
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let data_rows: Vec<&str> = csv
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert!(
        data_rows.len() >= 2,
        "chaos-loss-bursts: header plus rows needed:\n{csv}"
    );
    for cell in data_rows[1].split(',') {
        cell.parse::<f64>()
            .unwrap_or_else(|_| panic!("chaos-loss-bursts: non-numeric cell {cell:?}"));
    }
    // Every chaos figure carries the recovery accounting plus the injected
    // fault tallies from the sim-side chaos counters.
    assert!(csv.contains("recovery_ratio"));
    assert!(csv.contains("burst_losses"));
}

#[test]
fn arms_figures_write_csvs_under_smoke() {
    let dir = tempdir("arms-figs");
    let out = run(&[
        "arms-evasion-roc",
        "arms-decay-tradeoff",
        "--smoke",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "arms figures --smoke failed:\n{}",
        stderr(&out)
    );
    for id in ["arms-evasion-roc", "arms-decay-tradeoff"] {
        let csv_path = dir.join(format!("{id}.csv"));
        assert!(csv_path.exists(), "expected {}", csv_path.display());
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let data_rows: Vec<&str> = csv
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();
        assert!(
            data_rows.len() >= 2,
            "{id}: header plus rows needed:\n{csv}"
        );
        for cell in data_rows[1].split(',') {
            cell.parse::<f64>()
                .unwrap_or_else(|_| panic!("{id}: non-numeric cell {cell:?}"));
        }
    }
    // The evasion ROC carries both attackers' detection rates and drifts;
    // the decay trade-off carries the forgiveness accounting.
    let roc = std::fs::read_to_string(dir.join("arms-evasion-roc.csv")).unwrap();
    assert!(roc.contains("tpr_evading"));
    assert!(roc.contains("drift_frog"));
    let decay = std::fs::read_to_string(dir.join("arms-decay-tradeoff.csv")).unwrap();
    assert!(decay.contains("half_life_rounds"));
    assert!(decay.contains("reinstated"));
    assert!(decay.contains("banned_honest_final"));
}

#[test]
fn same_seed_same_csv_bytes() {
    let a = tempdir("repro-a");
    let b = tempdir("repro-b");
    for dir in [&a, &b] {
        let out = run(&[
            "fig17",
            "--smoke",
            "--seed",
            "11",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }
    let csv_a = std::fs::read(a.join("fig17.csv")).unwrap();
    let csv_b = std::fs::read(b.join("fig17.csv")).unwrap();
    assert_eq!(
        csv_a, csv_b,
        "identical seeds must reproduce identical CSVs"
    );
}

#[test]
fn trace_out_is_digestible_by_obs_report() {
    // The observability contract on the figure harness: `--trace-out`
    // emits one schema-valid JSONL per figure and the obs-report binary
    // digests it without error. (That its bytes depend only on figure,
    // scale and seed is `csv_and_trace_bytes_do_not_depend_on_the_grid_width`.)
    let dir = tempdir("trace-digest");
    let out = run(&[
        "def-frog-drift",
        "fig1",
        "--smoke",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
        "--trace-out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "figures --trace-out failed:\n{}",
        stderr(&out)
    );
    // The defended figure's trace carries the verdict counters and flag
    // events the EXPERIMENTS.md digest is built from.
    let drift = std::fs::read_to_string(dir.join("def-frog-drift.jsonl")).unwrap();
    assert!(drift.starts_with("{\"type\":\"meta\""), "meta line first");
    assert!(drift.contains("defense.accept"));
    assert!(drift.contains("\"type\":\"event\""));

    // obs-report digests both traces, in both renderings.
    let trace_path = dir.join("def-frog-drift.jsonl");
    let report = Command::new(env!("CARGO_BIN_EXE_obs-report"))
        .arg(&trace_path)
        .output()
        .expect("spawn obs-report");
    assert!(
        report.status.success(),
        "obs-report failed:\n{}",
        stderr(&report)
    );
    let text = stdout(&report);
    assert!(text.contains("trace def-frog-drift"), "{text}");
    assert!(text.contains("defense.accept"), "{text}");
    let csv = Command::new(env!("CARGO_BIN_EXE_obs-report"))
        .arg("--csv")
        .arg(&trace_path)
        .output()
        .expect("spawn obs-report --csv");
    assert!(csv.status.success());
    assert!(stdout(&csv).starts_with("kind,metric,round,count,sum,min,max"));

    // A malformed trace is a hard error with the offending line number.
    let bad = dir.join("corrupt.jsonl");
    std::fs::write(&bad, "{\"type\":\"meta\",\"schema\":2,\"run\":\"r\",\"fig\":\"f\",\"seed\":7,\"scale\":\"smoke\"}\nnot json\n").unwrap();
    let fail = Command::new(env!("CARGO_BIN_EXE_obs-report"))
        .arg(&bad)
        .output()
        .expect("spawn obs-report on corrupt input");
    assert_eq!(fail.status.code(), Some(1));
    assert!(stderr(&fail).contains("line 2"), "{}", stderr(&fail));
}

#[test]
fn csv_and_trace_bytes_do_not_depend_on_the_grid_width() {
    // A figure is one (cell, repetition) job grid on the run's one pool: a
    // multi-cell Vivaldi figure, a multi-cell NPS figure and a 3-repetition
    // chaos figure, with `VCOORD_THREADS` the width of each one's grid.
    // Width 1 is the cells one after the other.
    let ids = ["def-sweep-vivaldi", "fig16", "chaos-churn-nps"];
    let dirs = ["1", "2", "3"].map(|threads| {
        let dir = tempdir(&format!("grid-width-{threads}"));
        let out = figures()
            .env("VCOORD_THREADS", threads)
            .args(ids)
            .args(["--smoke", "--seed", "2006"])
            .args(["--out", dir.to_str().unwrap()])
            .args(["--trace-out", dir.to_str().unwrap()])
            .output()
            .expect("spawn figures binary");
        assert!(
            out.status.success(),
            "figures at VCOORD_THREADS={threads} failed:\n{}",
            stderr(&out)
        );
        dir
    });
    for id in ids {
        for ext in ["csv", "jsonl"] {
            let file = format!("{id}.{ext}");
            let narrow = std::fs::read(dirs[0].join(&file)).unwrap();
            assert!(!narrow.is_empty(), "{file} is empty");
            for (dir, width) in dirs[1..].iter().zip([2, 3]) {
                assert!(
                    narrow == std::fs::read(dir.join(&file)).unwrap(),
                    "{file} differs between a 1-wide and a {width}-wide grid"
                );
            }
        }
    }
}

/// A unique, test-scoped output directory under the target tmp dir.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("figures-cli-{tag}"));
    // Stale contents from a previous run are fine to clobber.
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    base
}
