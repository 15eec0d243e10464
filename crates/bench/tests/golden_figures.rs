//! Golden-figure regression test: regenerate the full smoke-scale figure
//! suite with the committed seed and diff every CSV byte-for-byte against
//! the files committed under `results/`.
//!
//! This is the CI teeth behind every "numerics-preserving" refactor claim:
//! the Simplex kernel, the `EvalPlan` snapshot path, the figure job grid,
//! and the defense slot threaded through both simulators are all allowed
//! to change wall-clock time only — a single flipped output byte fails
//! here. The run pins `VCOORD_THREADS=2` so the parallel grid itself is the
//! thing being proven byte-stable.
//!
//! The divergence report is partitioned by provenance, read off the id's
//! family prefix. `fig*`, `ext-*` and `atk-*` existed before the defense
//! subsystem landed: with no defense deployed the simulators run the
//! pre-existing code path (scale 1.0 updates, weight 1.0 fits), so a diff
//! there means the undefended (`NoDefense`-equivalent) path itself changed
//! numerically — the exact regression the defense subsystem promised never
//! to cause. A diff in `def-*` means the PR-4 defended paths moved (the
//! arms-race layer promised *not* to perturb them: no-decay drift caps are
//! bitwise-identical to the pre-decay implementation). A diff in `arms-*`
//! is drift in the adaptive-attacker figures only. `chaos-*` are the only
//! figures that install a `ChaosPlan`, so a diff anywhere else also means
//! the chaos seam leaked into fault-free numerics — the regression
//! `tests/chaos_properties.rs` exists to prevent.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The committed reference CSVs: `<workspace root>/results`.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn smoke_suite_reproduces_committed_csvs_byte_for_byte() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-figures");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();

    // The committed results were produced by `figures all --smoke --seed
    // 2006`; EXPERIMENTS.md records that provenance.
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .env("VCOORD_THREADS", "2")
        .args(["all", "--smoke", "--seed", "2006"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn figures binary");
    assert!(
        run.status.success(),
        "figures all --smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let reference = results_dir();
    let csv_names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("csv"))
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    // Two-way set equality first: a figure added to the registry without a
    // committed golden CSV (or removed without cleaning results/) must fail
    // here, not silently narrow the comparison.
    let committed = csv_names(&reference);
    let fresh_names = csv_names(&out);
    assert_eq!(
        committed, fresh_names,
        "committed results/ and the freshly generated suite disagree on the \
         figure set; commit the golden CSV for every registry id (figures \
         <ids> --smoke --seed 2006 --out results)"
    );

    let mut diverged_legacy: Vec<String> = Vec::new();
    let mut diverged_def: Vec<String> = Vec::new();
    let mut diverged_arms: Vec<String> = Vec::new();
    let mut diverged_chaos: Vec<String> = Vec::new();
    for name in &committed {
        let family = name.split('-').next().unwrap_or_default();
        let bucket = match family {
            "ext" | "atk" => &mut diverged_legacy,
            f if f.starts_with("fig") => &mut diverged_legacy,
            "def" => &mut diverged_def,
            "arms" => &mut diverged_arms,
            "chaos" => &mut diverged_chaos,
            _ => panic!("unknown figure family: {name}"),
        };
        let committed_bytes = std::fs::read(reference.join(name)).unwrap();
        let fresh_bytes = std::fs::read(out.join(name)).unwrap();
        if committed_bytes != fresh_bytes {
            bucket.push(name.clone());
        }
    }
    assert!(
        committed.len() >= 49,
        "expected the full 49-figure suite under results/, found {} CSVs",
        committed.len()
    );
    assert!(
        diverged_legacy.is_empty(),
        "PRE-DEFENSE CSV bytes diverged from committed results/ for: \
         {diverged_legacy:?}\n\
         With no defense deployed the simulators must run the pre-existing \
         numerics unchanged (scale 1.0 updates, weight 1.0 fits); this \
         failure means the NoDefense/undefended path itself shifted. Do not \
         re-record — find the flipped bit"
    );
    assert!(
        diverged_def.is_empty(),
        "def-* CSV bytes diverged from committed results/ for: {diverged_def:?}\n\
         The PR-4 defended paths must survive the arms-race layer untouched: \
         a no-decay drift cap is bitwise-identical to the pre-decay \
         implementation, and the feedback/reputation seams are inert for \
         non-adaptive strategies. Do not re-record — find the flipped bit"
    );
    assert!(
        diverged_arms.is_empty(),
        "arms-* CSV bytes diverged from committed results/ for: {diverged_arms:?}\n\
         A numerics-preserving change must not alter any figure output; if \
         the change is *intentionally* numeric, re-record the affected CSVs \
         (figures <ids> --smoke --seed 2006) and explain the delta in \
         EXPERIMENTS.md"
    );
    assert!(
        diverged_chaos.is_empty(),
        "chaos-* CSV bytes diverged from committed results/ for: \
         {diverged_chaos:?}\n\
         The fault schedules draw from the plan's private seeded stream, so \
         these figures are as deterministic as every other; if the change is \
         *intentionally* numeric, re-record the affected CSVs (figures <ids> \
         --smoke --seed 2006) and explain the delta in EXPERIMENTS.md"
    );
}

/// The *enabled*-path half of the observability invariant: with full
/// tracing on (`--trace-out`), every golden CSV still reproduces
/// byte-for-byte — the obs plane reads the simulations but never perturbs
/// them — and every figure emits a schema-valid JSONL trace.
#[test]
fn traced_smoke_suite_matches_committed_csvs_and_emits_valid_traces() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-figures-traced");
    let traces = out.join("traces");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();

    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .env("VCOORD_THREADS", "2")
        .args(["all", "--smoke", "--seed", "2006"])
        .arg("--out")
        .arg(&out)
        .arg("--trace-out")
        .arg(&traces)
        .output()
        .expect("spawn figures binary");
    assert!(
        run.status.success(),
        "figures all --smoke --trace-out failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let reference = results_dir();
    let mut diverged: Vec<String> = Vec::new();
    let mut meta_only: Vec<String> = Vec::new();
    let mut ids = 0usize;
    for entry in std::fs::read_dir(&reference).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        ids += 1;
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let committed_bytes = std::fs::read(&path).unwrap();
        let fresh_bytes = std::fs::read(out.join(&name)).unwrap();
        if committed_bytes != fresh_bytes {
            diverged.push(name.clone());
        }

        // Trace sidecar: present, parseable, and stamped with this run's
        // identity.
        let id = name.trim_end_matches(".csv");
        let trace_path = traces.join(format!("{id}.jsonl"));
        let text = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("missing trace {}: {e}", trace_path.display()));
        let lines = vcoord::obs::parse_jsonl(&text)
            .unwrap_or_else(|e| panic!("{id}.jsonl does not parse: {e}"));
        match &lines[0] {
            vcoord::obs::TraceLine::Meta {
                schema,
                fig,
                seed,
                scale,
                ..
            } => {
                assert_eq!(*schema, 2);
                assert_eq!(fig, id);
                assert_eq!(*seed, 2006);
                assert_eq!(scale, "smoke");
            }
            other => panic!("{id}.jsonl first line is not meta: {other:?}"),
        }
        if lines.len() == 1 {
            meta_only.push(id.to_string());
        }

        // Every fault-injection figure must account for its injected
        // faults in the trace: at least one `chaos.*` counter or event.
        // A silent fault (injected but unrecorded) is exactly the class
        // of bug a chaos run exists to surface.
        if id.starts_with("chaos-") {
            let observed_fault = lines.iter().any(|line| match line {
                vcoord::obs::TraceLine::Counter { metric, .. }
                | vcoord::obs::TraceLine::Hist { metric, .. }
                | vcoord::obs::TraceLine::Event { metric, .. } => metric.starts_with("chaos."),
                vcoord::obs::TraceLine::Meta { .. } => false,
            });
            assert!(
                observed_fault,
                "{id}.jsonl records no chaos.* metric — the fault schedule \
                 ran unobserved (or never fired)"
            );
        }
    }
    assert!(ids >= 49, "expected the full 49-figure suite, saw {ids}");

    // A few figures are closed-form (no simulation — fig17's geometric
    // evaluation, for example) and legitimately trace nothing; every
    // simulating figure must have recorded at least one counter or event.
    assert!(
        meta_only.len() <= 3,
        "too many meta-only traces — simulating figures ran unobserved: \
         {meta_only:?}"
    );
    assert!(
        diverged.is_empty(),
        "CSV bytes diverged from committed results/ WITH TRACING ON for: \
         {diverged:?}\n\
         The obs plane must be numerics-inert: recording may observe the \
         simulations but never perturb them. Do not re-record — find the \
         flipped bit (a span or counter on a code path that consumes \
         randomness, reorders float ops, or mutates state)"
    );
}
