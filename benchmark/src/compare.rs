//! Comparing two sets of runs under the benchmark's own bounds.

use crate::driver::{self, OUT_DIR};
use crate::json::Json;
use crate::spec::{Better, MetricSpec, END_TO_END};
use crate::stats;
use crate::workloads::WORKLOADS;

/// Two sets of runs of one end-to-end metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub median_a: f64,
    pub median_b: f64,
    /// Share of `median_a` by which `median_b` is worse (negative: better).
    pub worse_by: f64,
    /// Quartile distance over median of each set; `None` below two runs.
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    /// `worse_by` exceeds the metric's bound.
    pub regressed: bool,
    /// Both spreads stay within the bound, so the comparison resolves.
    /// `setup_s` is exempt: its spread is reported, not bounded.
    pub steady: bool,
}

/// Compare set `b` against set `a` (the baseline) under `spec.bound`.
///
/// # Panics
/// Panics on an empty set or a metric without a bound.
pub fn compare(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.expect("only end-to-end metrics are compared");
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let delta = match spec.better {
        Better::Lower => median_b - median_a,
        Better::Higher => median_a - median_b,
    };
    let worse_by = if median_a == 0.0 {
        0.0
    } else {
        delta / median_a.abs()
    };
    let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
    let within = |s: Option<f64>| s.map_or(true, |s| s <= bound);
    Verdict {
        median_a,
        median_b,
        worse_by,
        spread_a,
        spread_b,
        regressed: worse_by > bound,
        steady: spec.name == "setup_s" || (within(spread_a) && within(spread_b)),
    }
}

/// Two sets of runs of the same build, interleaved run by run (A1 B1 A2 B2
/// …) and round-robin over the workloads, one seed per pair, as the
/// driver's acceptance check does. Prints and records the observed spread
/// of every end-to-end metric beside its bound.
pub fn aa(runs: u64, seconds: f64) -> Result<bool, String> {
    // sets[A or B][workload][metric] -> one value per run
    let blank = || vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut sets = [blank(), blank()];
    let mut ok = true;
    for seed in 1..=runs {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for (label, set) in ["A", "B"].iter().zip(sets.iter_mut()) {
                let result = driver::run_end_to_end(workload, seed, seconds);
                if !result.correct() {
                    result.print_table(&format!("{} seed {seed} set {label}", workload.name));
                    ok = false;
                }
                for (m, spec) in END_TO_END.iter().enumerate() {
                    set[w][m].push(result.value(spec.name).unwrap_or(f64::NAN));
                }
            }
            eprintln!("aa: seed {seed}/{runs} {} done", workload.name);
        }
    }

    let mut records = Vec::new();
    println!(
        "{:<24} {:<14} {:>13} {:>13} {:>9} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, spec) in END_TO_END.iter().enumerate() {
            let v = compare(spec, &sets[0][w][m], &sets[1][w][m]);
            let verdict = match (v.regressed, v.steady) {
                (true, _) => "DIFFERS",
                (false, false) => "UNSTEADY",
                (false, true) => "ok",
            };
            ok &= verdict == "ok";
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{:<24} {:<14} {:>13.6} {:>13.6} {:>8.2}% {:>9} {:>9} {:>5.0}%  {verdict}",
                workload.name,
                spec.name,
                v.median_a,
                v.median_b,
                v.worse_by * 100.0,
                pct(v.spread_a),
                pct(v.spread_b),
                spec.bound.unwrap_or(0.0) * 100.0,
            );
            let num = |s: Option<f64>| s.map_or(Json::Null, Json::Num);
            records.push(Json::obj([
                ("workload", Json::Str(workload.name.to_string())),
                ("metric", Json::Str(spec.name.to_string())),
                ("unit", Json::Str(spec.unit.to_string())),
                ("n", Json::Num(runs as f64)),
                ("median_a", Json::Num(v.median_a)),
                ("median_b", Json::Num(v.median_b)),
                ("b_worse_by", Json::Num(v.worse_by)),
                ("spread_a", num(v.spread_a)),
                ("spread_b", num(v.spread_b)),
                ("bound", num(spec.bound)),
                (
                    "values_a",
                    Json::Arr(sets[0][w][m].iter().map(|&v| Json::Num(v)).collect()),
                ),
                (
                    "values_b",
                    Json::Arr(sets[1][w][m].iter().map(|&v| Json::Num(v)).collect()),
                ),
                ("verdict", Json::Str(verdict.to_string())),
            ]));
        }
    }
    let path = format!("{OUT_DIR}/aa.json");
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.render()))
        .collect();
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n"))))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("{} (recorded in {path})", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: MetricSpec = MetricSpec {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const RATE: MetricSpec = MetricSpec {
        name: "updates_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.10),
    };

    /// Ten runs around `centre` with a deterministic ±`jitter` share.
    fn runs(centre: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre * (1.0 + jitter * ((i * 7 % 10) as f64 / 4.5 - 1.0)))
            .collect()
    }

    #[test]
    fn flags_a_fifteen_percent_slowdown() {
        let v = compare(&WALL, &runs(4.0, 0.01), &runs(4.6, 0.01));
        assert!(v.regressed && v.steady, "{v:?}");
        assert!((v.worse_by - 0.15).abs() < 0.01);
        // The same slowdown read as a rate: 1/1.15 of the throughput.
        let v = compare(&RATE, &runs(1000.0, 0.01), &runs(1000.0 / 1.15, 0.01));
        assert!(v.regressed && (v.worse_by - 0.13).abs() < 0.01, "{v:?}");
    }

    #[test]
    fn passes_three_percent_jitter_and_any_improvement() {
        let v = compare(&WALL, &runs(4.0, 0.03), &runs(4.04, 0.03));
        assert!(!v.regressed && v.steady, "{v:?}");
        let v = compare(&WALL, &runs(4.0, 0.01), &runs(3.0, 0.01));
        assert!(!v.regressed && v.worse_by < -0.2, "{v:?}");
        let v = compare(&RATE, &runs(1000.0, 0.01), &runs(1300.0, 0.01));
        assert!(!v.regressed, "{v:?}");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_except_for_setup() {
        let wide = runs(4.0, 0.3);
        let v = compare(&WALL, &wide, &wide);
        assert!(!v.regressed && !v.steady, "{v:?}");
        let setup = MetricSpec {
            name: "setup_s",
            ..WALL
        };
        assert!(compare(&setup, &wide, &wide).steady);
        // A single run has no spread to hold against it.
        assert!(compare(&WALL, &[4.0], &[4.1]).steady);
    }
}
