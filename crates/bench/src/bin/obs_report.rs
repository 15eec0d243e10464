//! Digest `vcoord-obs` trace files into per-round tables, or fan a whole
//! trace directory into one health matrix.
//!
//! ```text
//! obs-report [--summary] PATH...
//!
//!   PATH...    JSONL traces written by `figures --trace-out DIR`, or
//!              directories thereof (expanded to their *.jsonl files,
//!              sorted by name)
//!   --summary  one health-matrix row per trace (bans, reinstates, chaos
//!              faults/recoveries) instead of the full per-trace digests
//! ```
//!
//! Each file is parsed against the schema documented in the `vcoord-obs`
//! crate root and reduced to whole-run counters, histogram summaries, and
//! per-round event aggregates (events collapse over repetitions and
//! nodes). A malformed file aborts with the offending line number and
//! exit 1 so CI catches schema drift; empty input (no files named, or
//! directories holding no traces) is its own error, exit 3 — a silently
//! empty report once masked a mis-pointed CI path.

use std::path::Path;
use vcoord::obs::{digest, parse_jsonl, summarize, summary_text};

fn main() {
    let mut summary = false;
    let mut paths = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--summary" => summary = true,
            "--help" | "-h" => {
                eprintln!("usage: obs-report [--summary] PATH...");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: obs-report [--summary] PATH...");
        std::process::exit(2);
    }

    // Expand directories to their *.jsonl files, sorted for stable output.
    let mut files: Vec<String> = Vec::new();
    for path in &paths {
        if Path::new(path).is_dir() {
            let mut found: Vec<String> = match std::fs::read_dir(path) {
                Ok(entries) => entries
                    .filter_map(|entry| {
                        let p = entry.ok()?.path();
                        let is_trace = p.extension().is_some_and(|e| e == "jsonl");
                        is_trace.then(|| p.to_string_lossy().into_owned())
                    })
                    .collect(),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            };
            found.sort();
            files.extend(found);
        } else {
            files.push(path.clone());
        }
    }
    if files.is_empty() {
        eprintln!("obs-report: no *.jsonl traces in the given directories");
        std::process::exit(3);
    }

    let mut rows = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                std::process::exit(1);
            }
        };
        let lines = match parse_jsonl(&text) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("{file}: {e}");
                std::process::exit(1);
            }
        };
        let d = digest(&lines);
        if summary {
            rows.push(summarize(&d));
        } else {
            print!("{}", d.to_text());
        }
    }
    if summary {
        print!("{}", summary_text(&rows));
    }
}
