//! Per-layer metrics of one traced repetition, from two sources: the
//! benchmark's own spans and the program's `vcoord::obs` report. Program
//! metrics are looked up by *string* name, so one that a later change
//! renames or removes reads as absent (0) here instead of breaking the
//! build.

use std::collections::{BTreeMap, HashMap};

use vcoord::obs::{metric_name, HistData, ObsReport};

use crate::spans::{self, SpanRec};
use crate::spec::PER_LAYER;
use crate::stats;

/// Every per-layer metric by name; starts at 0 (layer not entered).
pub struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    pub fn new() -> Sheet {
        Sheet(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// # Panics
    /// Panics when `name` is not in [`PER_LAYER`]: a typo must not
    /// silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("{name} is not a per-layer metric"),
        }
    }

    /// `name` = entry `num` ÷ entry `den`, 0 when the denominator is 0.
    fn set_ratio(&mut self, name: &str, num: &str, den: &str) {
        self.set(name, ratio(self.get(num), self.get(den)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// `a / b`, or 0 when the denominator is 0 (layer not entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The program's obs report, indexed by metric name.
pub struct ObsView<'a> {
    counters: HashMap<&'static str, u64>,
    hists: HashMap<&'static str, &'a HistData>,
}

impl<'a> ObsView<'a> {
    pub fn new(report: &'a ObsReport) -> ObsView<'a> {
        ObsView {
            counters: report
                .counters()
                .iter()
                .map(|&(id, n)| (metric_name(id), n))
                .collect(),
            hists: report
                .hists()
                .iter()
                .map(|(id, h)| (metric_name(*id), h))
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn hist_count(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.count as f64)
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.sum)
    }

    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.quantile(q))
    }
}

/// Everything the program's own counters and timing histograms say. Valid
/// for every workload; sim workloads then overwrite the entries their own
/// spans and the sims' counter structs measure more directly.
fn fill_from_obs(sheet: &mut Sheet, obs: &ObsView<'_>) {
    let ns = 1e-9;
    sheet.set(
        "vivaldi.samples_applied",
        obs.counter("vivaldi.samples_applied"),
    );
    sheet.set("vivaldi.step_s", obs.hist_sum("vivaldi.run_ticks_ns") * ns);

    let inspects = obs.counter("defense.accept")
        + obs.counter("defense.reject")
        + obs.counter("defense.dampen");
    sheet.set("defense.inspects", inspects);
    sheet.set("defense.inspect_s", obs.hist_sum("defense.inspect_ns") * ns);
    sheet.set(
        "defense.inspect_ns_p50",
        obs.hist_quantile("defense.inspect_ns", 0.50),
    );
    sheet.set(
        "defense.inspect_ns_p99",
        obs.hist_quantile("defense.inspect_ns", 0.99),
    );
    sheet.set(
        "defense.reject_share",
        ratio(obs.counter("defense.reject"), inspects),
    );
    sheet.set(
        "defense.quarantined",
        obs.counter("defense.quarantined_evidence"),
    );

    for name in [
        "crashes",
        "timeouts",
        "retries",
        "evictions",
        "burst_losses",
    ] {
        let metric = format!("chaos.{name}");
        sheet.set(&metric, obs.counter(&metric));
    }

    let positionings = obs.counter("nps.positionings");
    let fit_s = obs.hist_sum("simplex.fit_ns") * ns;
    let filter_s = obs.hist_sum("nps.filter_ns") * ns;
    let embed_s = obs.hist_sum("nps.embed_ns") * ns;
    sheet.set("nps.new_s", embed_s);
    sheet.set("nps.step_s", obs.hist_sum("nps.run_rounds_ns") * ns);
    sheet.set("nps.positionings", positionings);
    sheet.set("nps.skipped_rounds", obs.counter("nps.skipped_rounds"));
    sheet.set("nps.filter_s", filter_s);
    // Repositioning outside its Simplex fits and its filter. The landmark
    // embedding runs fits and filters too, outside any positioning span;
    // nearly all of `nps.embed_ns` is those, so discount it (approximate).
    let positioning_s = obs.hist_sum("nps.position_ns") * ns;
    if positioning_s > 0.0 {
        sheet.set(
            "nps.position_self_s",
            positioning_s - (fit_s + filter_s - embed_s),
        );
    }

    let fits = obs.hist_count("simplex.fit_ns");
    let evals = obs.counter("simplex.evals");
    let cold = obs.counter("simplex.cold_restart");
    sheet.set("space.simplex_fits", fits);
    sheet.set("space.simplex_fit_s", fit_s);
    sheet.set(
        "space.simplex_fit_us_p50",
        obs.hist_quantile("simplex.fit_ns", 0.50) / 1e3,
    );
    sheet.set(
        "space.simplex_fit_us_p99",
        obs.hist_quantile("simplex.fit_ns", 0.99) / 1e3,
    );
    sheet.set("space.simplex_evals", evals);
    sheet.set("space.ns_per_eval", ratio(fit_s / ns, evals));
    sheet.set(
        "space.cold_restart_share",
        ratio(cold, cold + obs.counter("simplex.warm_start")),
    );

    sheet.set(
        "metrics.parallel_sweeps",
        obs.counter("evalplan.parallel_sweeps"),
    );
    sheet.set(
        "core.rep_s_p50",
        obs.hist_quantile("figure.rep_ns", 0.50) * ns,
    );
    sheet.set(
        "obs.hist_samples",
        obs.hists.values().map(|h| h.count as f64).sum(),
    );
    sheet.set("obs.counters", obs.counters.len() as f64);
}

/// `total` = Σ spans named `span`, and two order statistics of the per-call
/// durations divided by `per_call` units and scaled by `scale` (a 25-tick
/// call in µs per tick: `per_call` 25, `scale` 1e6). Leaves the sheet
/// alone when the workload recorded no such span.
pub fn fill_call_stats(
    sheet: &mut Sheet,
    all: &[SpanRec],
    span: &str,
    total: &str,
    quantiles: [(&str, f64); 2],
    per_call: f64,
    scale: f64,
) {
    let calls = spans::durations_s(all, span);
    if calls.is_empty() {
        return;
    }
    sheet.set(total, calls.iter().sum());
    let unit: Vec<f64> = calls.iter().map(|d| d / per_call * scale).collect();
    for (name, q) in quantiles {
        sheet.set(name, stats::quantile(&unit, q));
    }
}

/// The figure family of a registry id: `fig1`–`fig13` are the paper's
/// Vivaldi figures, `fig14`–`fig26` its NPS figures, the rest carry their
/// family as a prefix.
pub fn figure_family(id: &str) -> &'static str {
    if let Some(n) = id.strip_prefix("fig").and_then(|n| n.parse::<u32>().ok()) {
        return if n <= 13 {
            "paper-vivaldi"
        } else {
            "paper-nps"
        };
    }
    match id.split('-').next() {
        Some("atk") => "atk",
        Some("def") => "def",
        Some("arms") => "arms",
        Some("chaos") => "chaos",
        _ => "ext",
    }
}

/// What the benchmark's own spans say.
fn fill_from_spans(sheet: &mut Sheet, all: &[SpanRec], sample_every: u64) {
    for (span, metric) in [
        ("topo.generate", "topo.generate_s"),
        ("vivaldi.new", "vivaldi.new_s"),
        ("nps.new", "nps.new_s"),
        ("metrics.plan_build", "metrics.plan_build_s"),
        ("core.csv_render", "core.csv_render_s"),
    ] {
        if all.iter().any(|s| s.name == span) {
            sheet.set(metric, spans::total_s(all, span));
        }
    }
    let every = sample_every as f64;
    fill_call_stats(
        sheet,
        all,
        "vivaldi.step",
        "vivaldi.step_s",
        [("vivaldi.tick_us_p50", 0.5), ("vivaldi.tick_us_q3", 0.75)],
        every,
        1e6,
    );
    fill_call_stats(
        sheet,
        all,
        "nps.step",
        "nps.step_s",
        [("nps.round_ms_p50", 0.5), ("nps.round_ms_q3", 0.75)],
        every,
        1e3,
    );
    fill_call_stats(
        sheet,
        all,
        "metrics.eval",
        "metrics.eval_s",
        [("metrics.eval_ms_p50", 0.5), ("metrics.eval_ms_q3", 0.75)],
        1.0,
        1e3,
    );
    let mut slowest: f64 = 0.0;
    for s in all.iter().filter(|s| s.name == "core.run_figure") {
        let metric = format!("core.family_s.{}", figure_family(&s.detail));
        sheet.set(&metric, sheet.get(&metric) + s.dur_s());
        slowest = slowest.max(s.dur_s());
    }
    sheet.set("core.figure_s_max", slowest);
    sheet.set("trace.unattributed_share", unattributed_share(all));
}

/// Ratios of the raw entries, computed last so they see the most direct
/// source of each.
fn fill_ratios(sheet: &mut Sheet, obs: &ObsView<'_>, wall_s: f64, threads: usize) {
    sheet.set_ratio(
        "vivaldi.samples_per_s",
        "vivaldi.samples_applied",
        "vivaldi.step_s",
    );
    sheet.set_ratio("nps.positionings_per_s", "nps.positionings", "nps.step_s");
    sheet.set_ratio(
        "metrics.pair_dists_per_s",
        "metrics.pair_dists",
        "metrics.eval_s",
    );
    sheet.set_ratio("chaos.retry_share", "chaos.retries", "vivaldi.probes_sent");
    sheet.set_ratio(
        "space.evals_per_fit",
        "space.simplex_evals",
        "space.simplex_fits",
    );

    // The obs counter sees every Simplex evaluation; the sim's own counter
    // leaves out the landmark embedding. Report the difference.
    let inside = sheet.get("space.objective_evals");
    if inside > 0.0 {
        sheet.set(
            "space.embed_evals",
            sheet.get("space.simplex_evals") - inside,
        );
    }
    let repositioning = sheet.get("space.simplex_evals") - sheet.get("space.embed_evals");
    sheet.set(
        "space.evals_per_positioning",
        ratio(repositioning, sheet.get("nps.positionings")),
    );

    // Figure workloads: what the repetition pool left idle, and the wall
    // clock the engines do not account for (harness, evaluation, topology).
    let rep_s = obs.hist_sum("figure.rep_ns") * 1e-9;
    if rep_s > 0.0 {
        sheet.set(
            "core.pool_idle_share",
            1.0 - rep_s / (threads as f64 * wall_s),
        );
        let engines =
            sheet.get("vivaldi.step_s") + sheet.get("nps.step_s") + sheet.get("nps.new_s");
        sheet.set("core.residual_s", rep_s - engines);
    }
}

/// The whole sheet of one traced repetition. `counts` are per-layer values
/// read off the sims' public counter structs; they win over the obs report.
pub fn build(
    all: &[SpanRec],
    report: &ObsReport,
    counts: &[(&'static str, f64)],
    sample_every: u64,
    wall_s: f64,
    threads: usize,
) -> Sheet {
    let obs = ObsView::new(report);
    let mut sheet = Sheet::new();
    fill_from_obs(&mut sheet, &obs);
    fill_from_spans(&mut sheet, all, sample_every);
    for &(name, value) in counts {
        sheet.set(name, value);
    }
    fill_ratios(&mut sheet, &obs, wall_s, threads);
    sheet
}

/// Share of the root span's duration that no direct child covers. The
/// root is span 0, the whole repetition.
pub fn unattributed_share(all: &[SpanRec]) -> f64 {
    match all.first() {
        Some(root) if root.dur_s() > 0.0 => spans::self_time_s(all, 0) / root.dur_s(),
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            detail: String::new(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn sheet_starts_at_zero_and_rejects_unknown_names() {
        let mut sheet = Sheet::new();
        assert_eq!(sheet.iter().count(), PER_LAYER.len());
        assert!(sheet.iter().all(|(_, v)| v == 0.0));
        sheet.set("nps.step_s", 2.5);
        assert_eq!(sheet.get("nps.step_s"), 2.5);
        assert!(std::panic::catch_unwind(move || sheet.set("nps.stepp_s", 1.0)).is_err());
    }

    #[test]
    fn absent_program_metrics_read_as_zero() {
        let report = ObsReport::default();
        let mut sheet = Sheet::new();
        fill_from_obs(&mut sheet, &ObsView::new(&report));
        assert!(
            sheet.iter().all(|(_, v)| v == 0.0),
            "0/0 ratios must not be NaN"
        );
    }

    #[test]
    fn unattributed_share_is_root_self_time() {
        let all = vec![
            rec("rep", 0, 1000, None),
            rec("step", 0, 600, Some(0)),
            rec("eval", 600, 960, Some(0)),
        ];
        assert_eq!(unattributed_share(&all), 0.04);
        assert_eq!(unattributed_share(&[]), 1.0);
    }

    #[test]
    fn call_stats_scale_per_unit() {
        let all = vec![
            rec("step", 0, 250_000_000, None),
            rec("step", 250_000_000, 750_000_000, None),
            rec("step", 750_000_000, 1_500_000_000, None),
        ];
        let mut sheet = Sheet::new();
        fill_call_stats(
            &mut sheet,
            &all,
            "step",
            "vivaldi.step_s",
            [("vivaldi.tick_us_p50", 0.5), ("vivaldi.tick_us_q3", 0.75)],
            25.0,
            1e6,
        );
        let close = |name: &str, want: f64| {
            let got = sheet.get(name);
            assert!((got - want).abs() < 1e-9 * want, "{name}: {got} vs {want}");
        };
        close("vivaldi.step_s", 1.5);
        close("vivaldi.tick_us_p50", 20_000.0);
        close("vivaldi.tick_us_q3", 30_000.0);
        fill_call_stats(
            &mut sheet,
            &[],
            "step",
            "nps.step_s",
            [("nps.round_ms_p50", 0.5); 2],
            1.0,
            1.0,
        );
        assert_eq!(sheet.get("nps.step_s"), 0.0);
    }
}
