//! Ledger hygiene for the repo benchmark: `benchmark/src/layers.rs` reads
//! the program's obs metrics *by string name*, and a name nobody emits
//! silently reads 0. Every name it passes to `obs.counter(..)` /
//! `obs.hist_*(..)` must therefore appear as a `metric_id!("…")` literal
//! under `crates/*/src` — so renaming a metric fails this test instead of
//! flattening a per-layer number. `benchmark/` is frozen by the benchmark
//! contract, which is why the check lives here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Names `layers.rs` reads that nothing emits, with the reason each is
/// tolerated. The test also fails when an entry stops being needed.
const NO_EMITTER: [(&str, &str); 1] = [(
    "simplex.warm_start",
    "no emitter since PR 17; retire `space.cold_restart_share` in the next `benchmark` PR",
)];

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

/// Every `metric_id!("…")` literal under `crates/*/src`.
fn names_emitted_by_the_crates() -> BTreeSet<String> {
    fn walk(dir: &Path, out: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("source directory is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source file is readable");
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
