//! Cross-run comparison: reduce two runs (JSONL traces or `BENCH_*.json`
//! baselines) to flat `(section, key, value)` samples and compare the keys
//! both runs hold — the library half of the `obs-diff` binary.
//!
//! One rule, no knobs: every run here is seeded, so a key that is not a
//! wall-clock timing is a pure function of the seed and must match
//! exactly; any movement is a behaviour change and a regression. Timings —
//! the `kernels` and `figures` sections of a BENCH file and every
//! histogram whose metric name ends in `_ns` (the test
//! [`ObsReport::strip_timings`](crate::ObsReport::strip_timings) applies)
//! — vary with the host, so they are compared and reported but never
//! regress. Keys present on one side only are listed, never regressions:
//! instrumentation grows.
//!
//! | section   | source                                | gates           |
//! |-----------|---------------------------------------|-----------------|
//! | `counters`| trace / BENCH obs counters            | yes             |
//! | `hists`   | trace / BENCH obs histogram summaries | unless `*_ns`   |
//! | `figures` | BENCH per-figure wall-clock seconds   | no              |
//! | `kernels` | BENCH kernel timings                  | no              |

use crate::export::TraceLine;
use crate::json::Json;
use crate::record::is_timing;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Sample extraction.

/// One comparable scalar from a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// `counters`, `hists`, `figures` or `kernels` (see the module docs).
    pub section: &'static str,
    pub key: String,
    pub value: f64,
}

impl Sample {
    /// Whether this key must match exactly: everything but a timing.
    /// Histogram keys are `fig/metric.field`.
    fn gates(&self) -> bool {
        match self.section {
            "kernels" | "figures" => false,
            "hists" => !self
                .key
                .rsplit_once('.')
                .is_some_and(|(metric, _)| is_timing(metric)),
            _ => true,
        }
    }
}

fn sample(section: &'static str, key: String, value: f64) -> Option<Sample> {
    value.is_finite().then_some(Sample {
        section,
        key,
        value,
    })
}

/// Reduce one parsed trace to samples, prefixing keys with `fig/` so
/// multi-trace runs stay disjoint. Wall-clock (`*_ns`) histograms never
/// appear in traces, so every sample here gates.
pub fn samples_from_trace(fig: &str, lines: &[TraceLine]) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in lines {
        match line {
            TraceLine::Counter { metric, value } => {
                out.extend(sample("counters", format!("{fig}/{metric}"), *value as f64));
            }
            TraceLine::Hist {
                metric,
                count,
                sum,
                quantiles,
                ..
            } => {
                let key = |f: &str| format!("{fig}/{metric}.{f}");
                out.extend(sample("hists", key("count"), *count as f64));
                out.extend(sample("hists", key("mean"), sum / (*count).max(1) as f64));
                for (name, q) in ["p50", "p90", "p95", "p99"].into_iter().zip(quantiles) {
                    out.extend(sample("hists", key(name), *q));
                }
            }
            _ => {}
        }
    }
    out
}

/// The `schema` number `bench-baseline` writes, and the only one
/// [`samples_from_bench`] reads.
pub const BENCH_SCHEMA: u32 = 4;

/// A JSON document that is not a BENCH baseline of [`BENCH_SCHEMA`]: the
/// integer `schema` it carries, if it carries one.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSchemaError(pub Option<i128>);

impl std::fmt::Display for BenchSchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(found) => write!(f, "BENCH schema {found}, this reader takes {BENCH_SCHEMA}"),
            None => write!(f, "not a BENCH baseline: no integer \"schema\" field"),
        }
    }
}

/// Reduce one parsed `BENCH_*.json` baseline to samples. A partial
/// re-record is fine: an absent block contributes nothing, and the
/// shared-key comparison skips the rest.
pub fn samples_from_bench(bench: &Json) -> Result<Vec<Sample>, BenchSchemaError> {
    match bench.get("schema").and_then(Json::as_int::<i128>) {
        Some(found) if found == BENCH_SCHEMA as i128 => {}
        found => return Err(BenchSchemaError(found)),
    }
    let num = |v: &Json| v.as_num().unwrap_or(f64::NAN);
    let mut out = Vec::new();
    if let Some(kernels) = bench.get("kernels").and_then(Json::as_obj) {
        for (name, stats) in kernels {
            for field in ["mean_s", "median_s", "trimmed_mean_s", "p95_s"] {
                if let Some(v) = stats.get(field) {
                    let short = field.strip_suffix("_s").expect("static suffix");
                    out.extend(sample("kernels", format!("{name}.{short}"), num(v)));
                }
            }
        }
    }
    if let Some(figures) = bench.get("figures").and_then(Json::as_obj) {
        for (fig, v) in figures {
            out.extend(sample("figures", fig.clone(), num(v)));
        }
    }
    if let Some(total) = bench.get("figures_total_s").and_then(Json::as_num) {
        out.extend(sample("figures", "total".to_string(), total));
    }
    if let Some(obs) = bench.get("obs").and_then(Json::as_obj) {
        for (fig, block) in obs {
            if let Some(counters) = block.get("counters").and_then(Json::as_obj) {
                for (metric, v) in counters {
                    out.extend(sample("counters", format!("{fig}/{metric}"), num(v)));
                }
            }
            if let Some(hists) = block.get("hists").and_then(Json::as_obj) {
                for (metric, stats) in hists {
                    for (field, v) in stats.as_obj().into_iter().flatten() {
                        out.extend(sample("hists", format!("{fig}/{metric}.{field}"), num(v)));
                    }
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Comparison.

/// One key both runs hold.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    pub section: &'static str,
    pub key: String,
    pub base: f64,
    pub new: f64,
    /// Not a timing: any movement is a regression.
    pub gated: bool,
    pub regression: bool,
}

/// The outcome of one comparison: per-key rows plus the keys seen on only
/// one side (informational, never regressions).
#[derive(Debug, Default, Clone)]
pub struct DiffReport {
    pub rows: Vec<DeltaRow>,
    pub only_base: Vec<(&'static str, String)>,
    pub only_new: Vec<(&'static str, String)>,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regression).count()
    }

    /// Shared keys that must match. Zero means the two runs have nothing
    /// deterministic in common — two different figures, or a mis-pointed
    /// path — and the comparison proves nothing.
    pub fn gated(&self) -> usize {
        self.rows.iter().filter(|r| r.gated).count()
    }

    /// Render the report. `verbose` includes the rows that did not regress
    /// and the names of keys seen on one side; otherwise only regressions
    /// and the counts appear.
    pub fn to_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        let shown: Vec<&DeltaRow> = self
            .rows
            .iter()
            .filter(|r| verbose || r.regression)
            .collect();
        if !shown.is_empty() {
            let _ = writeln!(
                out,
                "{:<10} {:<44} {:>14} {:>14} {:>11}  status",
                "section", "key", "base", "new", "delta"
            );
            for r in shown {
                let status = match (r.regression, r.gated) {
                    (true, _) => "REGRESSION",
                    (false, true) => "ok",
                    (false, false) => "timing",
                };
                let _ = writeln!(
                    out,
                    "{:<10} {:<44} {:>14.6} {:>14.6} {:>+11.4}  {status}",
                    r.section,
                    r.key,
                    r.base,
                    r.new,
                    r.new - r.base,
                );
            }
        }
        for (label, list) in [
            ("only in base", &self.only_base),
            ("only in new", &self.only_new),
        ] {
            if !list.is_empty() {
                let _ = writeln!(out, "{label}: {} keys", list.len());
                if verbose {
                    for (section, key) in list {
                        let _ = writeln!(out, "  {section} {key}");
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "compared {} keys, {} gated: {} regressions",
            self.rows.len(),
            self.gated(),
            self.regressions()
        );
        out
    }
}

/// Compare two sample sets key by key. Only keys present on both sides are
/// judged; a key that is not a timing regresses on any change.
pub fn diff_samples(base: &[Sample], new: &[Sample]) -> DiffReport {
    fn index(samples: &[Sample]) -> BTreeMap<(&'static str, &str), &Sample> {
        samples
            .iter()
            .map(|s| ((s.section, s.key.as_str()), s))
            .collect()
    }
    let base_map = index(base);
    let new_map = index(new);
    let mut report = DiffReport::default();
    for (&(section, key), b) in &base_map {
        match new_map.get(&(section, key)) {
            None => report.only_base.push((section, key.to_string())),
            Some(n) => {
                let gated = b.gates();
                report.rows.push(DeltaRow {
                    section,
                    key: key.to_string(),
                    base: b.value,
                    new: n.value,
                    gated,
                    regression: gated && n.value != b.value,
                });
            }
        }
    }
    for &(section, key) in new_map.keys() {
        if !base_map.contains_key(&(section, key)) {
            report.only_new.push((section, key.to_string()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn trace_samples_extract_counters_and_quantiles() {
        let lines = vec![
            TraceLine::Counter {
                metric: "defense.ban".into(),
                value: 4,
            },
            TraceLine::Hist {
                metric: "nps.round_evals".into(),
                count: 10,
                sum: 500.0,
                min: 10.0,
                max: 100.0,
                quantiles: [40.5, 90.5, 95.5, 99.5],
            },
        ];
        let samples = samples_from_trace("figX", &lines);
        let find = |key: &str| {
            samples
                .iter()
                .find(|s| s.key == key)
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        assert_eq!(find("figX/defense.ban").value, 4.0);
        assert_eq!(find("figX/nps.round_evals.mean").value, 50.0);
        assert_eq!(find("figX/nps.round_evals.p99").value, 99.5);
        assert!(samples.iter().all(Sample::gates));
    }

    #[test]
    fn bench_samples_cover_all_blocks() {
        let bench = parse_json(
            r#"{
                "schema": 4,
                "kernels": {"k1": {"mean_s": 1e-6, "median_s": 9e-7, "trimmed_mean_s": 9.5e-7, "p95_s": 2e-6, "min_s": 8e-7, "max_s": 5e-6, "samples": 100}},
                "obs": {"fig14": {"counters": {"simplex.evals": 123}, "hists": {"figure.rep_ns": {"count": 6, "mean": 1e6}, "nps.round_evals": {"count": 5000, "p50": 237.5}}}},
                "figures": {"fig14": 0.4},
                "figures_total_s": 8.0
            }"#,
        )
        .expect("parses");
        let samples = samples_from_bench(&bench).expect("extracts");
        let find = |section: &str, key: &str| {
            samples
                .iter()
                .find(|s| s.section == section && s.key == key)
                .unwrap_or_else(|| panic!("missing {section} {key}"))
        };
        assert_eq!(find("kernels", "k1.mean").value, 1e-6);
        assert_eq!(find("counters", "fig14/simplex.evals").value, 123.0);
        assert_eq!(find("hists", "fig14/figure.rep_ns.mean").value, 1e6);
        assert_eq!(find("hists", "fig14/nps.round_evals.p50").value, 237.5);
        assert_eq!(find("figures", "total").value, 8.0);
        // Seed-derived keys gate; timings only report.
        assert!(find("counters", "fig14/simplex.evals").gates());
        assert!(find("hists", "fig14/nps.round_evals.count").gates());
        assert!(!find("hists", "fig14/figure.rep_ns.count").gates());
        assert!(!find("kernels", "k1.p95").gates());
        assert!(!find("figures", "fig14").gates());
        // A partial record (no obs block) still extracts.
        let partial = parse_json(r#"{"schema": 4, "figures": {"fig14": 0.5}}"#).expect("parses");
        assert_eq!(samples_from_bench(&partial).expect("extracts").len(), 1);
        // Another schema, and JSON that is no baseline at all, are refused.
        let old = parse_json(r#"{"schema": 3, "figures": {"fig14": 0.5}}"#).expect("parses");
        assert_eq!(samples_from_bench(&old), Err(BenchSchemaError(Some(3))));
        for not_bench in ["{}", r#"{"schema": 4.5}"#, r#"{"schema": "4"}"#] {
            let json = parse_json(not_bench).expect("parses");
            assert_eq!(samples_from_bench(&json), Err(BenchSchemaError(None)));
        }
    }

    fn s(section: &'static str, key: &str, value: f64) -> Sample {
        Sample {
            section,
            key: key.to_string(),
            value,
        }
    }

    #[test]
    fn diff_flags_regressions_by_sidedness() {
        let base = vec![
            s("counters", "f/defense.ban", 10.0),
            s("counters", "f/defense.accept", 10.0),
            s("hists", "f/nps.round_evals.mean", 100.0),
            s("hists", "f/figure.rep_ns.p50", 100.0),
            s("kernels", "k.median", 1.0),
            s("figures", "gone", 1.0),
        ];
        let new = vec![
            // Either direction of a seed-derived key regresses.
            s("counters", "f/defense.ban", 11.0),
            s("counters", "f/defense.accept", 9.0),
            s("hists", "f/nps.round_evals.mean", 100.0),
            // Timings move freely, slower or faster.
            s("hists", "f/figure.rep_ns.p50", 300.0),
            s("kernels", "k.median", 0.5),
            s("figures", "added", 1.0),
        ];
        let report = diff_samples(&base, &new);
        assert_eq!(report.regressions(), 2);
        assert_eq!(report.gated(), 3);
        let by_key = |k: &str| report.rows.iter().find(|r| r.key == k).expect("row");
        assert!(by_key("f/defense.ban").regression);
        assert!(by_key("f/defense.accept").regression);
        assert!(!by_key("f/nps.round_evals.mean").regression);
        assert!(!by_key("f/figure.rep_ns.p50").regression);
        assert!(!by_key("k.median").regression);
        assert_eq!(report.only_base, vec![("figures", "gone".to_string())]);
        assert_eq!(report.only_new, vec![("figures", "added".to_string())]);
        let text = report.to_text(false);
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("3 gated: 2 regressions"), "{text}");
        assert!(report.to_text(true).contains("timing"));
        // Identical runs pass clean.
        let clean = diff_samples(&base, &base);
        assert_eq!(clean.regressions(), 0);
    }
}
