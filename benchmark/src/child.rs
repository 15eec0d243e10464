//! One repetition in a fresh process: `vcoord-benchmark run-one <workload>
//! --seed S [--traced --trace-out PATH --rep-id ID] [--setup-only]`.
//!
//! A fresh process per repetition gives each one its own allocator state,
//! page cache footprint and `VmHWM`, and lets the parent pin the program's
//! process-global worker budget and obs mode per workload. The child prints
//! one JSON line, which [`RepReport::parse`] reads back in the parent.

use std::io::Write as _;

use vcoord::metrics::{parallel::set_worker_budget, worker_threads};
use vcoord::obs::{self, ObsMode};

use crate::json::Json;
use crate::layers;
use crate::spans::{self, Tracer};
use crate::workloads::{self, Workload};

/// What a child reports to its parent.
#[derive(Debug, Clone, PartialEq)]
pub struct RepReport {
    /// `worker_threads()` after the pin.
    pub threads: usize,
    pub wall_s: f64,
    /// The part of `wall_s` before the first simulated event (the parent
    /// adds what the process itself cost).
    pub setup_s: f64,
    pub updates: u64,
    pub rel_err: f64,
    pub peak_rss_mb: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub digest: u64,
    pub problems: Vec<String>,
    /// Per-layer metrics; empty unless traced.
    pub layers: Vec<(String, f64)>,
}

impl RepReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", Json::Num(self.threads as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("setup_s", Json::Num(self.setup_s)),
            ("updates", Json::Num(self.updates as f64)),
            // A non-finite error is a failed op already; null keeps the line JSON.
            ("rel_err", Json::Num(self.rel_err)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }

    /// Read a child's report line back.
    pub fn parse(line: &str) -> Result<RepReport, String> {
        let doc = Json::parse(line)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("report has no number {key:?}"))
        };
        let digest = doc
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("report has no digest")?;
        Ok(RepReport {
            threads: num("threads")? as usize,
            wall_s: num("wall_s")?,
            setup_s: num("setup_s")?,
            updates: num("updates")? as u64,
            rel_err: doc
                .get("rel_err")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            peak_rss_mb: num("peak_rss_mb")?,
            ops_attempted: num("ops_attempted")? as u64,
            ops_failed: num("ops_failed")? as u64,
            digest,
            problems: doc
                .get("problems")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            layers: doc
                .get("layers")
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
        })
    }
}

/// Options of one `run-one` invocation.
pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub setup_only: bool,
    /// Traced repetition: obs metrics on, spans recorded and appended to
    /// this file under this repetition id.
    pub trace: Option<(String, String)>,
}

/// Peak resident set of this process so far, from `VmHWM` (kB) in
/// `/proc/self/status`; 0 where that file does not exist.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the repetition and print its report line.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let budget = args.workload.thread_budget();
    set_worker_budget(budget);
    let threads = worker_threads();

    let traced = args.trace.is_some();
    if traced {
        obs::set_mode(ObsMode::Metrics);
        obs::reset();
    }
    let tracer = Tracer::new(traced);
    let mut outcome = tracer.span("rep", || {
        workloads::run(args.workload, args.seed, &tracer, args.setup_only)
    });
    outcome.ops.check(threads == budget, || {
        format!("thread pin did not take: asked {budget}, pools use {threads}")
    });

    let mut layer_values = Vec::new();
    if let Some((path, rep_id)) = &args.trace {
        let report = obs::drain();
        let all = tracer.finish();
        let sheet = layers::build(
            &all,
            &report,
            &outcome.counts,
            args.workload.kind.sample_every(),
            outcome.wall_s,
            threads,
        );
        layer_values = sheet.iter().map(|(k, v)| (k.to_string(), v)).collect();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(spans::render_jsonl(&all, rep_id).as_bytes()))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    }

    let report = RepReport {
        threads,
        wall_s: outcome.wall_s,
        setup_s: outcome.setup_s,
        updates: outcome.updates,
        rel_err: outcome.rel_err,
        peak_rss_mb: peak_rss_mb(),
        ops_attempted: outcome.ops.attempted,
        ops_failed: outcome.ops.failed,
        digest: outcome.digest,
        problems: outcome.ops.problems,
        layers: layer_values,
    };
    println!("{}", report.to_json().render());
    Ok(())
}
