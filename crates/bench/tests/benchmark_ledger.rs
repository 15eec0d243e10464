//! Ledger hygiene for the obs names, both ways, and for the `pub` items.
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
//! * Every `pub` item (as CI's "Code size per crate" step counts them) has a
//!   reader outside its crate, or a listed reason to stay public: an item
//!   nobody outside reads is API without a user.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use vcoord::obs::json::{parse_json, Json};

/// Names `layers.rs` reads that nothing emits, with the reason each is
/// tolerated. The test also fails when an entry stops being needed.
const NO_EMITTER: [(&str, &str); 3] = [
    (
        "defense.dampen",
        "no emitter since the graduated-trust verdict went; it always read 0 in \
         `defense.inspects`: drop it from that sum in the next `benchmark` PR",
    ),
    (
        "evalplan.parallel_sweeps",
        "no emitter since `EvalPlan` sweeps on the calling thread; it read 0 on every \
         workload before: retire `metrics.parallel_sweeps` in the next `benchmark` PR",
    ),
    (
        "simplex.warm_start",
        "no emitter since PR 17; retire `space.cold_restart_share` in the next `benchmark` PR",
    ),
];

/// Names the crates emit that no consumer reads, each with the reason and
/// the ROADMAP direction or PR that gives it a reader or removes it. The
/// test also fails when an entry stops being needed.
const NO_READER: [(&str, &str); 13] = [
    ("attack.feedback", TRACE_EVENT),
    ("attack.offset_advance", TRACE_EVENT),
    ("chaos.crash", TRACE_EVENT),
    ("chaos.evict", TRACE_EVENT),
    ("chaos.failover", TRACE_EVENT),
    ("chaos.lease", TRACE_EVENT),
    ("chaos.lease_return", TRACE_EVENT),
    ("chaos.restart", TRACE_EVENT),
    ("defense.flag", TRACE_EVENT),
    ("nps.filter", TRACE_EVENT),
    ("nps.inject", TRACE_EVENT),
    ("nps.probation", TRACE_EVENT),
    ("vivaldi.inject", TRACE_EVENT),
];

/// The reason shared by the trace events in [`NO_READER`].
const TRACE_EVENT: &str = "a trace event: obs-report's per-round digest prints every \
    event without naming any, and nothing compares it; ROADMAP direction 11 \
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
    without_comments(counted_lines(path).iter().map(String::as_str))
}

/// `lines` without their `//`, `///` and `//!` lines, joined.
fn without_comments<'a>(lines: impl Iterator<Item = &'a str>) -> String {
    let code: Vec<&str> = lines
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect();
    code.join("\n")
}

/// Every `metric_id!("…")` literal in the non-test code under
/// `crates/*/src`.
fn names_emitted_by_the_crates() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for dir in crate_dirs() {
        for file in rust_files(&dir.join("src")) {
            let text = non_test_code(&file);
            for (at, open) in text.match_indices("metric_id!(") {
                if let Some(name) = leading_literal(&text[at + open.len()..]) {
                    out.insert(name.to_string());
                }
            }
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

/// `pub` items (CI's size rule) with no reader outside their crate, each
/// with the reason it stays public. An entry names an item by path (a
/// method's runs through its type); an entry naming a module or a type
/// covers everything declared in it, and the root `pub use` of its name.
/// The test also fails when an entry stops being needed.
const PUB_NO_READER: [(&str, &str); 8] = [
    (
        "vcoord_obs::testing",
        "the counting global allocator; each no-alloc suite under crates/*/tests \
         installs it in its own test binary, so no library code can read it",
    ),
    (
        "vcoord_attackkit::adaptive::EvadingFrogBoil::worst_estimated_pull",
        "tests/properties.rs pins it strictly under the modeled cap across drawn \
         populations; the evader reads it in-crate",
    ),
    (
        "vcoord_attackkit::collusion::Collusion::groups",
        "tests/properties.rs checks NetworkPartition's groups are two and coherent",
    ),
    (
        "vcoord_attackkit::collusion::Collusion::group_of",
        "tests/properties.rs checks every colluder joined a group",
    ),
    (
        "vcoord::attacks::nps::NpsCollusionIsolation::preset_victims",
        "tests/end_to_end_nps.rs fixes the victims so it can measure them hardest hit",
    ),
    (
        "vcoord::attacks::nps::NpsCombined",
        "fig26's attack; tests/end_to_end_nps.rs runs it through the prelude, which \
         lists every paper attack",
    ),
    (
        "vcoord_netsim::engine::Scheduler::deliver_at",
        "tests/engine_properties.rs schedules messages at absolute (and past) \
         times against a reference queue",
    ),
    (
        "vcoord_vivaldi::convergence::ConvergenceTracker",
        "the paper's convergence criterion; only its unit tests and \
         tests/end_to_end_vivaldi.rs read it, because figures warm up for fixed \
         horizons. ROADMAP direction 1's claims read it, or it goes",
    ),
];

/// The item keywords of CI's "Code size per crate" rule,
/// `^\s*pub (fn|struct|type|const|enum|mod|use|trait)\b`.
const PUB_KINDS: [&str; 8] = [
    "fn", "struct", "type", "const", "enum", "mod", "use", "trait",
];

/// One line CI's size rule counts as a `pub` item.
struct PubItem {
    /// The defining crate's directory under `crates/`.
    krate: String,
    /// `file:line` of the declaration.
    at: String,
    kind: &'static str,
    /// `vcoord_obs::testing::CountingAllocator`; a method's path runs
    /// through its type.
    path: String,
    /// The module or type the item is declared in: the crate's name for a
    /// root item.
    parent: String,
    /// The names it brings into scope: its own, or each leaf of a `pub use`.
    names: Vec<String>,
    /// The type whose inherent `impl` declares it.
    owner: Option<String>,
    /// What a user of the item sees: a fn's header, a type's public fields
    /// or variants, a trait's body, an alias or a constant.
    signature: String,
}

/// A source file that can read `pub` items: every identifier in its code
/// and every `a::b` step of the paths it spells out.
struct Reader {
    /// The crate whose items it cannot read (its own), if any.
    own: Option<String>,
    words: BTreeSet<String>,
    steps: BTreeSet<(String, String)>,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers in `text`.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The lines from `lines[0]` up to the first that contains `end`.
fn through(lines: &[&str], end: char) -> String {
    let stop = lines
        .iter()
        .position(|l| l.contains(end))
        .unwrap_or(lines.len() - 1);
    lines[..=stop].join("\n")
}

/// Tokens of a `use` tree: identifiers and `::`, `{`, `}`, `,`, `*`.
fn use_tokens(tree: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut rest = tree;
    while let Some(c) = rest.chars().next() {
        let len = if rest.starts_with("::") {
            2
        } else if is_ident(c) {
            rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len())
        } else {
            c.len_utf8()
        };
        if !c.is_whitespace() {
            tokens.push(rest[..len].to_string());
        }
        rest = &rest[len..];
    }
    tokens
}

/// Every path a `use` tree names, with the name it binds:
/// `a::{b, c::d as e}` gives (`a::b`, `b`) and (`a::c::d`, `e`).
fn expand_use(tokens: &[String], at: &mut usize, prefix: &[String]) -> Vec<(Vec<String>, String)> {
    let mut path = prefix.to_vec();
    while let Some(token) = tokens.get(*at) {
        *at += 1;
        match token.as_str() {
            "::" => {}
            "{" => {
                let mut out = Vec::new();
                while tokens.get(*at).is_some_and(|t| t != "}") {
                    out.extend(expand_use(tokens, at, &path));
                    if tokens.get(*at).is_some_and(|t| t == ",") {
                        *at += 1;
                    }
                }
                *at += 1;
                return out;
            }
            "as" => {
                let alias = tokens.get(*at).cloned().unwrap_or_default();
                *at += 1;
                return vec![(path, alias)];
            }
            "," | "}" => {
                *at -= 1;
                break;
            }
            "self" => {}
            segment => path.push(segment.to_string()),
        }
    }
    let name = path.last().cloned().unwrap_or_default();
    vec![(path, name)]
}

/// The `use` tree of the statement opening at `lines[0]`, if one does.
fn use_tree(lines: &[&str]) -> Option<String> {
    let line = lines[0].trim_start();
    let line = line.strip_prefix("pub(crate) ").unwrap_or(line);
    let line = line.strip_prefix("pub ").unwrap_or(line);
    line.strip_prefix("use ")?;
    let text = through(lines, ';');
    let tree = &text[text.find("use ")? + "use ".len()..];
    Some(tree[..tree.find(';')?].to_string())
}

/// The type an `impl` header (`impl<T> Trait for Engine<T>`) is for.
fn impl_self_type(header: &str) -> String {
    let mut rest = header.trim_start().trim_start_matches("impl");
    if rest.starts_with('<') {
        let mut depth = 0;
        for (i, c) in rest.char_indices() {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            if depth == 0 {
                rest = &rest[i + 1..];
                break;
            }
        }
    }
    if let Some(at) = rest.rfind(" for ") {
        rest = &rest[at + " for ".len()..];
    }
    let path = rest
        .trim_start()
        .split(['<', '{', ' ', '\n'])
        .next()
        .unwrap_or("");
    path.rsplit("::").next().unwrap_or("").to_string()
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The package name of `crates/<dir>`, as a path segment (`vcoord_obs`).
fn crate_ident(dir: &Path) -> String {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
    let name = manifest
        .lines()
        .find_map(|l| l.strip_prefix("name = "))
        .expect("a package name");
    name.trim_matches('"').replace('-', "_")
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                out.extend(rust_files(&path));
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The lines of `path` that CI's size rule reads: everything before the
/// first `#[cfg(test)]`.
fn counted_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(String::from)
        .collect()
}

/// The crate directories under `crates/`, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(repo_root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Every `pub` item CI's size rule counts in the library crates.
fn pub_items() -> Vec<PubItem> {
    let root = repo_root();
    let mut items = Vec::new();
    for dir in crate_dirs() {
        let krate = dir.file_name().unwrap().to_string_lossy().to_string();
        let ident = crate_ident(&dir);
        let src = dir.join("src");
        for file in rust_files(&src) {
            let rel = file.strip_prefix(&src).unwrap().with_extension("");
            let mut modules = vec![ident.clone()];
            modules.extend(
                rel.iter()
                    .map(|s| s.to_string_lossy().to_string())
                    .filter(|s| !matches!(s.as_str(), "lib" | "main" | "mod")),
            );
            let shown = file.strip_prefix(&root).unwrap().display().to_string();
            let lines = counted_lines(&file);
            let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
            // Inline modules and `impl` blocks around the current line, by
            // the indentation of their opening line (rustfmt's layout).
            let mut scopes: Vec<(usize, String, bool)> = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                while scopes.last().is_some_and(|(d, _, _)| *d >= indent(line)) {
                    scopes.pop();
                }
                let trimmed = line.trim_start();
                if trimmed.starts_with("impl ") || trimmed.starts_with("impl<") {
                    let header = through(&lines[i..], '{');
                    scopes.push((indent(line), impl_self_type(&header), true));
                    continue;
                }
                let Some(rest) = trimmed.strip_prefix("pub ") else {
                    continue;
                };
                // The rule's closing `\b`: a field whose name starts with a
                // keyword (`pub model: ..`) declares no item.
                let Some(kind) = PUB_KINDS
                    .into_iter()
                    .find(|k| rest.starts_with(k) && !rest[k.len()..].starts_with(is_ident))
                else {
                    continue;
                };
                let mut parents = modules.clone();
                parents.extend(scopes.iter().map(|(_, s, _)| s.clone()));
                let owner = scopes.last().filter(|s| s.2).map(|s| s.1.clone());
                let after = rest[kind.len()..].trim_start();
                let after = if kind == "const" {
                    after.strip_prefix("fn ").unwrap_or(after)
                } else {
                    after
                };
                let own_name = idents(after).next().unwrap_or("").to_string();
                let (names, signature) = match kind {
                    "use" => {
                        let tree = use_tree(&lines[i..]).expect("a pub use statement");
                        let leaves = expand_use(&use_tokens(&tree), &mut 0, &[]);
                        (
                            leaves.into_iter().map(|(_, name)| name).collect(),
                            String::new(),
                        )
                    }
                    "mod" => {
                        if line.contains('{') {
                            scopes.push((indent(line), own_name.clone(), false));
                        }
                        (vec![own_name], String::new())
                    }
                    "fn" => {
                        let text = through(&lines[i..], '{');
                        let end = text.find(['{', ';']).unwrap_or(text.len());
                        (vec![own_name], text[..end].to_string())
                    }
                    "struct" | "enum" | "trait" => {
                        let head = through(&lines[i..], '{');
                        let signature = if head.contains(';') && !head.ends_with('{') {
                            head[..=head.find(';').unwrap()].to_string()
                        } else {
                            let close = lines[i..]
                                .iter()
                                .position(|l| {
                                    indent(l) == indent(line) && l.trim_start().starts_with('}')
                                })
                                .map_or(lines.len(), |k| i + k);
                            let body = lines[i + 1..close].iter();
                            let shown = body
                                .filter(|l| kind != "struct" || l.trim_start().starts_with("pub "));
                            let mut text = lines[i].to_string();
                            for l in shown {
                                text.push('\n');
                                text.push_str(l);
                            }
                            text
                        };
                        (vec![own_name], signature)
                    }
                    _ => (vec![own_name], through(&lines[i..], ';')),
                };
                let path = match kind {
                    "use" => format!("{}::{{{}}}", parents.join("::"), names.join(", ")),
                    _ => format!("{}::{}", parents.join("::"), names[0]),
                };
                items.push(PubItem {
                    krate: krate.clone(),
                    at: format!("{shown}:{}", i + 1),
                    kind,
                    path,
                    parent: parents.last().unwrap().clone(),
                    names,
                    owner,
                    signature,
                });
            }
        }
    }
    items
}

/// The files that can read a crate's `pub` items: every file under another
/// crate's `src`, the binaries, the examples and `benchmark/src`.
fn pub_readers() -> Vec<Reader> {
    let root = repo_root();
    let mut files: Vec<(Option<String>, PathBuf)> = Vec::new();
    for dir in crate_dirs() {
        let krate = dir.file_name().unwrap().to_string_lossy().to_string();
        let bin = dir.join("src/bin");
        for file in rust_files(&dir.join("src")) {
            let own = (!file.starts_with(&bin)).then(|| krate.clone());
            files.push((own, file));
        }
        files.extend(
            rust_files(&dir.join("examples"))
                .into_iter()
                .map(|f| (None, f)),
        );
    }
    for dir in ["examples", "benchmark/src"] {
        files.extend(rust_files(&root.join(dir)).into_iter().map(|f| (None, f)));
    }
    files
        .into_iter()
        .map(|(own, file)| {
            // Whole files: a unit test in another crate reaches an item
            // through its public path as any other caller does.
            let text = std::fs::read_to_string(&file).expect("source file is readable");
            let code = without_comments(text.lines());
            let lines: Vec<&str> = code.lines().collect();
            let mut steps = BTreeSet::new();
            let mut step = |path: &[String]| {
                for pair in path.windows(2) {
                    steps.insert((pair[0].clone(), pair[1].clone()));
                }
            };
            for i in 0..lines.len() {
                if let Some(tree) = use_tree(&lines[i..]) {
                    for (path, _) in expand_use(&use_tokens(&tree), &mut 0, &[]) {
                        step(&path);
                    }
                }
            }
            // Paths spelled out in code: `vcoord::obs::set_mode(..)`.
            let tokens = use_tokens(&code);
            for pair in tokens.windows(3) {
                if pair[1] == "::" && pair[0].starts_with(is_ident) && pair[2].starts_with(is_ident)
                {
                    step(&[pair[0].clone(), pair[2].clone()]);
                }
            }
            Reader {
                own,
                words: idents(&code).map(String::from).collect(),
                steps,
            }
        })
        .collect()
}

/// Which of `items` have a reader: a `mod` whose path some reader steps
/// through (`obs::json`), any other item whose name a reader spells, or a
/// type, alias, trait or re-export named in the signature of an item that
/// has one. A method or associated constant also needs its type to have a
/// reader.
fn items_with_a_reader(items: &[PubItem], readers: &[Reader], listed: &[bool]) -> Vec<bool> {
    let named: Vec<bool> = items
        .iter()
        .map(|item| {
            let mut outside = readers
                .iter()
                .filter(|r| r.own.as_deref() != Some(&item.krate));
            if item.kind == "mod" {
                // A module is reached through its parent, or from the crate
                // root (its name or the facade's alias, `vcoord::obs`) when
                // it is a root module or re-exported there.
                let ident = item.path.split("::").next().unwrap_or_default();
                let parents = [item.parent.as_str(), ident, item.krate.as_str()];
                let name = &item.names[0];
                outside.any(|r| {
                    parents
                        .iter()
                        .any(|p| r.steps.contains(&(p.to_string(), name.clone())))
                })
            } else {
                outside.any(|r| item.names.iter().any(|n| r.words.contains(n)))
            }
        })
        .collect();
    // A re-export shows and is shown like the type it names.
    let is_type =
        |item: &PubItem| matches!(item.kind, "struct" | "enum" | "type" | "trait" | "use");
    let mut read = vec![false; items.len()];
    loop {
        // The names in the signatures that show: those of items with a
        // reader or kept public by PUB_NO_READER, each with the type it is
        // declared in. A type's own header and its own methods do not show
        // it.
        let seen: BTreeSet<(&str, &str)> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| read[*i] || listed[*i])
            .flat_map(|(_, item)| {
                let home = item.owner.as_deref().unwrap_or(&item.names[0]);
                idents(&item.signature).map(move |w| (w, home))
            })
            .collect();
        let type_read = |krate: &str, name: &str| {
            items.iter().zip(&read).any(|(item, r)| {
                *r && item.krate == krate && is_type(item) && item.names.iter().any(|n| n == name)
            })
        };
        let next: Vec<bool> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let signed = is_type(item)
                    && item.names.iter().any(|n| {
                        seen.range((n.as_str(), "")..)
                            .take_while(|(w, _)| w == n)
                            .any(|(_, home)| home != n)
                    });
                let owner_read = item
                    .owner
                    .as_ref()
                    .map_or(true, |t| type_read(&item.krate, t));
                read[i] || ((named[i] || signed) && owner_read)
            })
            .collect();
        if next == read {
            return read;
        }
        read = next;
    }
}

#[test]
fn pub_items_have_readers() {
    let items = pub_items();
    assert!(
        items.len() >= 300,
        "the scan of crates/*/src found only {} pub items",
        items.len()
    );
    let covers = |entry: &str, item: &PubItem| {
        let name = entry.rsplit("::").next().unwrap_or(entry);
        item.path == entry
            || item.path.starts_with(&format!("{entry}::"))
            || (item.kind == "use"
                && item.names.iter().any(|n| n == name)
                && entry.starts_with(&format!("{}::", item.parent)))
    };
    let listed: Vec<bool> = items
        .iter()
        .map(|item| PUB_NO_READER.iter().any(|(entry, _)| covers(entry, item)))
        .collect();
    let read = items_with_a_reader(&items, &pub_readers(), &listed);
    let unread: Vec<&PubItem> = items
        .iter()
        .zip(&read)
        .filter(|(_, r)| !**r)
        .map(|(i, _)| i)
        .collect();
    let unlisted: Vec<String> = (0..items.len())
        .filter(|&i| !read[i] && !listed[i])
        .map(|i| format!("{}: pub {} {}", items[i].at, items[i].kind, items[i].path))
        .collect();
    assert!(
        unlisted.is_empty(),
        "{} pub items have no reader outside their crate (another crate's src, a binary, \
         an example or benchmark/src), nor a signature that shows them; make each \
         pub(crate) or private, delete it, or list it in PUB_NO_READER with a reason:\n{}",
        unlisted.len(),
        unlisted.join("\n")
    );
    for (entry, why) in PUB_NO_READER {
        assert!(
            unread.iter().any(|item| covers(entry, item)),
            "`{entry}` no longer needs its exception ({why}): remove it from PUB_NO_READER"
        );
    }
}
