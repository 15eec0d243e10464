//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository root
//! states the same thing for the driver; a unit test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// How long one run measures by default (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// End-to-end metrics, measured with tracing off (README.md has the
/// per-workload definitions and the reasoning behind each bound).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("updates_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("rel_err", "ratio", Better::Lower, 0.15),
];

/// Per-layer metrics, derived from one traced repetition. A metric of a
/// layer the workload never enters reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("topo.generate_s", "s"),
    lower("topo.matrix_mb", "MB"),
    lower("vivaldi.new_s", "s"),
    lower("vivaldi.step_s", "s"),
    lower("vivaldi.tick_us_p50", "us"),
    lower("vivaldi.tick_us_q3", "us"),
    higher("vivaldi.samples_applied", "count"),
    lower("vivaldi.probes_sent", "count"),
    lower("vivaldi.probes_lost", "count"),
    higher("vivaldi.samples_per_s", "1/s"),
    higher("netsim.events_per_s", "1/s"),
    lower("attackkit.lies_served", "count"),
    lower("defense.inspects", "count"),
    lower("defense.inspect_s", "s"),
    lower("defense.inspect_ns_p50", "ns"),
    lower("defense.inspect_ns_p99", "ns"),
    lower("defense.reject_share", "ratio"),
    lower("defense.bans", "count"),
    lower("defense.reinstated", "count"),
    lower("defense.quarantined", "count"),
    lower("chaos.crashes", "count"),
    lower("chaos.timeouts", "count"),
    lower("chaos.retries", "count"),
    lower("chaos.evictions", "count"),
    lower("chaos.burst_losses", "count"),
    lower("chaos.retry_share", "ratio"),
    lower("nps.new_s", "s"),
    lower("nps.step_s", "s"),
    lower("nps.round_ms_p50", "ms"),
    lower("nps.round_ms_q3", "ms"),
    higher("nps.positionings", "count"),
    higher("nps.positionings_per_s", "1/s"),
    lower("nps.skipped_rounds", "count"),
    lower("nps.refs_filtered", "count"),
    lower("nps.refs_replaced", "count"),
    lower("nps.filter_s", "s"),
    lower("nps.position_self_s", "s"),
    lower("space.simplex_fits", "count"),
    lower("space.simplex_fit_s", "s"),
    lower("space.simplex_fit_us_p50", "us"),
    lower("space.simplex_fit_us_p99", "us"),
    lower("space.simplex_evals", "count"),
    lower("space.objective_evals", "count"),
    lower("space.embed_evals", "count"),
    lower("space.evals_per_fit", "count"),
    lower("space.evals_per_positioning", "count"),
    lower("space.ns_per_eval", "ns"),
    lower("space.cold_restart_share", "ratio"),
    lower("metrics.plan_build_s", "s"),
    lower("metrics.eval_s", "s"),
    lower("metrics.eval_ms_p50", "ms"),
    lower("metrics.eval_ms_q3", "ms"),
    lower("metrics.pair_dists", "count"),
    higher("metrics.pair_dists_per_s", "1/s"),
    lower("metrics.parallel_sweeps", "count"),
    lower("core.family_s.paper-vivaldi", "s"),
    lower("core.family_s.paper-nps", "s"),
    lower("core.family_s.ext", "s"),
    lower("core.family_s.atk", "s"),
    lower("core.family_s.def", "s"),
    lower("core.family_s.arms", "s"),
    lower("core.family_s.chaos", "s"),
    lower("core.figure_s_max", "s"),
    lower("core.rep_s_p50", "s"),
    lower("core.residual_s", "s"),
    lower("core.csv_render_s", "s"),
    lower("core.csv_bytes", "count"),
    lower("core.pool_idle_share", "ratio"),
    lower("obs.trace_overhead_share", "ratio"),
    lower("obs.hist_samples", "count"),
    lower("obs.counters", "count"),
    lower("trace.unattributed_share", "ratio"),
];

/// Names are `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`; the driver refuses others.
pub fn valid_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.len() <= 64
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("é"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn setup_s_has_the_largest_bound_and_no_bound_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25 && bound <= setup.bound.unwrap());
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    fn metric_rows(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn spec_rows(specs: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
        specs
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_states_the_same_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(metric_rows(&doc, "end_to_end"), spec_rows(END_TO_END));
        assert_eq!(metric_rows(&doc, "per_layer"), spec_rows(PER_LAYER));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, expected);
        assert!(expected
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
