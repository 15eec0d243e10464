//! Ledger hygiene for the obs names, both ways.
//!
//! * `benchmark/src/layers.rs` reads the program's obs metrics *by string
//!   name*, and a name nobody emits silently reads 0. Every name it passes
//!   to `obs.counter(..)` / `obs.hist_*(..)` must therefore appear as a
//!   `metric_id!("…")` literal in the non-test code under `crates/*/src` —
//!   so renaming a metric fails this test instead of flattening a
//!   per-layer number. `benchmark/` is frozen by the benchmark contract,
//!   which is why the check lives here.
//! * Every name the crates emit has a reader: a consumer that compares or
//!   reports it. A record nobody reads is cost without a use.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use vcoord::obs::json::{parse_json, Json};

/// Names `layers.rs` reads that nothing emits, with the reason each is
/// tolerated. The test also fails when an entry stops being needed.
const NO_EMITTER: [(&str, &str); 1] = [(
    "simplex.warm_start",
    "no emitter since PR 17; retire `space.cold_restart_share` in the next `benchmark` PR",
)];

/// Names the crates emit that no consumer reads, each with the reason and
/// the ROADMAP direction or PR that gives it a reader or removes it. The
/// test also fails when an entry stops being needed.
const NO_READER: [(&str, &str); 14] = [
    ("attack.feedback", TRACE_EVENT),
    ("attack.offset_advance", TRACE_EVENT),
    ("chaos.crash", TRACE_EVENT),
    ("chaos.evict", TRACE_EVENT),
    ("chaos.failover", TRACE_EVENT),
    ("chaos.lease", TRACE_EVENT),
    ("chaos.lease_return", TRACE_EVENT),
    ("chaos.restart", TRACE_EVENT),
    ("defense.flag", TRACE_EVENT),
    (
        "evalplan.worker_ns",
        "wall-clock per-worker sweep time; no smoke-scale plan sweeps \
         in parallel, so no BENCH row holds it; ROADMAP direction 7's reconcile table \
         reads it, or it goes",
    ),
    ("nps.filter", TRACE_EVENT),
    ("nps.inject", TRACE_EVENT),
    ("nps.probation", TRACE_EVENT),
    ("vivaldi.inject", TRACE_EVENT),
];

/// The reason shared by the trace events in [`NO_READER`].
const TRACE_EVENT: &str = "a trace event: obs-report's per-round digest prints every \
    event without naming any, and nothing compares it; ROADMAP direction 9 \
    (`obs-report --explain`) reads it, or it goes";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The string literal opening at the start of `text` (after whitespace).
fn leading_literal(text: &str) -> Option<&str> {
    let rest = text.trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Every string literal between `open` and the next `]` in `text`.
fn literals_in_list(text: &str, open: &str) -> Vec<String> {
    let start = text.find(open).expect("the list opens") + open.len();
    let list = &text[start..start + text[start..].find(']').expect("the list closes")];
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// The obs names `layers.rs` looks up.
fn names_read_by_the_benchmark() -> BTreeSet<String> {
    let path = repo_root().join("benchmark/src/layers.rs");
    let text = std::fs::read_to_string(&path).expect("benchmark/src/layers.rs is readable");
    let mut names = BTreeSet::new();
    for (at, _) in text.match_indices("obs.") {
        let call = &text[at + "obs.".len()..];
        let method_len = call
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(call.len());
        let method = &call[..method_len];
        if !(method == "counter" || method.starts_with("hist_")) {
            continue;
        }
        let Some(args) = call[method_len..].strip_prefix('(') else {
            continue;
        };
        match leading_literal(args) {
            Some(name) => {
                names.insert(name.to_string());
            }
            None => {
                // The one computed name: the `chaos.{name}` loop.
                assert!(
                    args.starts_with("&metric)") && text.contains(r#"format!("chaos.{name}")"#),
                    "layers.rs looks up a computed obs name this test cannot expand: obs.{method}({}",
                    args.lines().next().unwrap_or("")
                );
                for name in literals_in_list(&text, "for name in [") {
                    names.insert(format!("chaos.{name}"));
                }
            }
        }
    }
    names
}

/// `path` as CI's code-size rule counts it: everything from the first
/// `#[cfg(test)]` line on is cut, and `//`, `///` and `//!` lines are
/// skipped.
fn non_test_code(path: &Path) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
    let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
    let code: Vec<&str> = code.filter(|l| !l.trim_start().starts_with("//")).collect();
    code.join("\n")
}

/// Every `metric_id!("…")` literal in the non-test code under
/// `crates/*/src`.
fn names_emitted_by_the_crates() -> BTreeSet<String> {
    fn walk(dir: &Path, out: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("source directory is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = non_test_code(&path);
                for (at, open) in text.match_indices("metric_id!(") {
                    if let Some(name) = leading_literal(&text[at + open.len()..]) {
                        out.insert(name.to_string());
                    }
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("crates/ is readable") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    out
}

#[test]
fn every_obs_name_the_benchmark_reads_has_an_emitter() {
    let read = names_read_by_the_benchmark();
    let emitted = names_emitted_by_the_crates();
    assert!(
        read.len() >= 20,
        "the scan of layers.rs found only {read:?}"
    );
    let missing: Vec<&String> = read
        .iter()
        .filter(|name| !emitted.contains(*name))
        .filter(|name| !NO_EMITTER.iter().any(|(n, _)| n == name))
        .collect();
    assert!(
        missing.is_empty(),
        "benchmark/src/layers.rs reads obs names no `metric_id!` under crates/*/src emits \
         (they would read 0): {missing:?}"
    );
    for (name, why) in NO_EMITTER {
        assert!(
            read.contains(name) && !emitted.contains(name),
            "`{name}` no longer needs its exception ({why}): remove it from NO_EMITTER"
        );
    }
}

/// The obs names some consumer reads:
///
/// * a counter or histogram key of a figure's `obs` block in
///   `BENCH_smoke.json`, which `obs-diff` compares;
/// * a key of `ci-tolerances.toml`;
/// * a name `benchmark/src/layers.rs` looks up;
/// * a name of `emitted` that is a string literal in the non-test code of
///   `crates/obs/src/{report,diff}.rs` or `benchmark/src/layers.rs`.
fn names_with_a_reader(emitted: &BTreeSet<String>) -> BTreeSet<String> {
    let root = repo_root();
    let mut read = names_read_by_the_benchmark();

    let text = std::fs::read_to_string(root.join("BENCH_smoke.json")).expect("BENCH_smoke.json");
    let bench = parse_json(&text).expect("BENCH_smoke.json parses");
    let Some(Json::Obj(figures)) = bench.get("obs") else {
        panic!("BENCH_smoke.json has no obs block");
    };
    for (_, figure) in figures {
        for section in ["counters", "hists"] {
            if let Some(Json::Obj(fields)) = figure.get(section) {
                read.extend(fields.iter().map(|(name, _)| name.clone()));
            }
        }
    }

    let text = std::fs::read_to_string(root.join("ci-tolerances.toml")).expect("ci-tolerances");
    for line in text.lines().map(str::trim) {
        if let (false, Some((key, _))) = (line.starts_with('#'), line.split_once('=')) {
            read.insert(key.trim().trim_matches('"').to_string());
        }
    }

    let quoted = [
        "crates/obs/src/report.rs",
        "crates/obs/src/diff.rs",
        "benchmark/src/layers.rs",
    ]
    .map(|file| non_test_code(&root.join(file)))
    .join("\n");
    let literal = |name: &&String| quoted.contains(&format!("\"{name}\""));
    read.extend(emitted.iter().filter(literal).cloned());
    read
}

#[test]
fn every_obs_name_the_crates_emit_has_a_reader() {
    let emitted = names_emitted_by_the_crates();
    assert!(
        emitted.len() >= 40,
        "the scan of crates/*/src found only {emitted:?}"
    );
    let read = names_with_a_reader(&emitted);
    let unread: BTreeSet<&String> = emitted
        .iter()
        .filter(|name| !read.contains(*name))
        .collect();
    let unlisted: Vec<&&String> = unread
        .iter()
        .filter(|name| !NO_READER.iter().any(|(n, _)| n == **name))
        .collect();
    assert!(
        unlisted.is_empty(),
        "the crates emit obs names no consumer reads: {unlisted:?}; give each a reader, \
         stop emitting it, or list it in NO_READER with the change that will"
    );
    for (name, why) in NO_READER {
        assert!(
            unread.iter().any(|n| *n == name),
            "`{name}` no longer needs its exception ({why}): remove it from NO_READER"
        );
    }
}
