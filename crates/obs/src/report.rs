//! Render a parsed trace into a per-round digest — the library half of the
//! `obs-report` binary, kept here so the aggregation is unit-testable.

use crate::export::TraceLine;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One histogram row of a [`Digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    pub metric: String,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// `[p50, p90, p95, p99]`.
    pub quantiles: [f64; 4],
}

/// One per-round aggregation row of a [`Digest`]: how many events of
/// `metric` fired in `round`, and their summed value.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRow {
    pub metric: String,
    pub round: u64,
    pub events: u64,
    pub sum: f64,
}

/// A trace reduced to tables: run identity, whole-run counters and
/// histogram summaries, and per-round event aggregates.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Digest {
    pub run: String,
    pub fig: String,
    pub seed: u64,
    pub scale: String,
    /// `(metric, value)`, sorted by metric name.
    pub counters: Vec<(String, u64)>,
    /// Sorted by metric name.
    pub hists: Vec<HistRow>,
    /// Sorted by metric name, then round.
    pub rounds: Vec<RoundRow>,
}

/// Aggregate parsed trace lines into a [`Digest`]. Events collapse over
/// repetitions and nodes onto `(metric, round)`.
pub fn digest(lines: &[TraceLine]) -> Digest {
    let mut d = Digest::default();
    let mut rounds: BTreeMap<(String, u64), (u64, f64)> = BTreeMap::new();
    for line in lines {
        match line {
            TraceLine::Meta {
                run,
                fig,
                seed,
                scale,
                ..
            } => {
                d.run = run.clone();
                d.fig = fig.clone();
                d.seed = *seed;
                d.scale = scale.clone();
            }
            TraceLine::Counter { metric, value } => d.counters.push((metric.clone(), *value)),
            TraceLine::Hist {
                metric,
                count,
                sum,
                min,
                max,
                quantiles,
            } => d.hists.push(HistRow {
                metric: metric.clone(),
                count: *count,
                sum: *sum,
                min: *min,
                max: *max,
                quantiles: *quantiles,
            }),
            TraceLine::Event {
                metric,
                round,
                value,
                ..
            } => {
                let slot = rounds.entry((metric.clone(), *round)).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += value;
            }
        }
    }
    d.counters.sort();
    d.hists.sort_by(|a, b| a.metric.cmp(&b.metric));
    d.rounds = rounds
        .into_iter()
        .map(|((metric, round), (events, sum))| RoundRow {
            metric,
            round,
            events,
            sum,
        })
        .collect();
    d
}

impl Digest {
    /// Human-readable tables.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} (run {}, seed {}, scale {})",
            self.fig, self.run, self.seed, self.scale
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (metric, value) in &self.counters {
                let _ = writeln!(out, "  {metric:<36} {value:>12}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "histograms: {:<25} {:>10} {:>14} {:>14} {:>14} {:>14} {:>14}",
                "", "count", "mean", "min", "max", "p50", "p99"
            );
            for h in &self.hists {
                let [p50, _, _, p99] = h.quantiles;
                let _ = writeln!(
                    out,
                    "  {:<34} {:>10} {:>14.1} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
                    h.metric,
                    h.count,
                    h.sum / h.count.max(1) as f64,
                    h.min,
                    h.max,
                    p50,
                    p99
                );
            }
        }
        if !self.rounds.is_empty() {
            let _ = writeln!(
                out,
                "per-round events: {:<19} {:>10} {:>10} {:>14}",
                "", "round", "events", "sum"
            );
            for r in &self.rounds {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>10} {:>10} {:>14.1}",
                    r.metric, r.round, r.events, r.sum
                );
            }
        }
        out
    }

    /// Machine-readable CSV:
    /// `kind,metric,round,count,sum,min,max,p50,p90,p95,p99` with empty
    /// cells where a column does not apply.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,metric,round,count,sum,min,max,p50,p90,p95,p99\n");
        for (metric, value) in &self.counters {
            let _ = writeln!(out, "counter,{metric},,{value},,,,,,,");
        }
        for h in &self.hists {
            let [p50, p90, p95, p99] = h.quantiles;
            let _ = writeln!(
                out,
                "hist,{},,{},{},{},{},{p50},{p90},{p95},{p99}",
                h.metric, h.count, h.sum, h.min, h.max
            );
        }
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "round,{},{},{},{},,,,,,",
                r.metric, r.round, r.events, r.sum
            );
        }
        out
    }
}

/// One row of the cross-trace health matrix: the defense / chaos vitals of
/// a single figure's trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    pub fig: String,
    pub accepts: u64,
    pub rejects: u64,
    pub bans: u64,
    pub reinstates: u64,
    /// Injected faults: `chaos.crashes + chaos.timeouts + chaos.burst_losses`.
    pub faults: u64,
    /// Recovery actions: `chaos.restarts + chaos.retries + chaos.failovers
    /// + chaos.leases`.
    pub recoveries: u64,
}

/// Reduce one digest to its health-matrix row.
pub fn summarize(d: &Digest) -> SummaryRow {
    let c = |name: &str| -> u64 {
        d.counters
            .iter()
            .find(|(m, _)| m == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    SummaryRow {
        fig: d.fig.clone(),
        accepts: c("defense.accept"),
        rejects: c("defense.reject"),
        bans: c("defense.ban"),
        reinstates: c("defense.reinstate"),
        faults: c("chaos.crashes") + c("chaos.timeouts") + c("chaos.burst_losses"),
        recoveries: c("chaos.restarts")
            + c("chaos.retries")
            + c("chaos.failovers")
            + c("chaos.leases"),
    }
}

/// Render the health matrix (one row per trace) as an aligned text table.
pub fn summary_text(rows: &[SummaryRow]) -> String {
    let mut out = format!(
        "{:<28} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}\n",
        "fig", "accepts", "rejects", "bans", "reinst", "faults", "recover"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
            r.fig, r.accepts, r.rejects, r.bans, r.reinstates, r.faults, r.recoveries
        );
    }
    out
}

/// Render the health matrix as CSV.
pub fn summary_csv(rows: &[SummaryRow]) -> String {
    let mut out = String::from("fig,accepts,rejects,bans,reinstates,faults,recoveries\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.fig, r.accepts, r.rejects, r.bans, r.reinstates, r.faults, r.recoveries
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lines() -> Vec<TraceLine> {
        vec![
            TraceLine::Meta {
                schema: 2,
                run: "r".into(),
                fig: "figX".into(),
                seed: 9,
                scale: "smoke".into(),
            },
            TraceLine::Counter {
                metric: "b.counter".into(),
                value: 3,
            },
            TraceLine::Counter {
                metric: "a.counter".into(),
                value: 1,
            },
            TraceLine::Event {
                metric: "e.flag".into(),
                rep: 0,
                round: 2,
                node: Some(1),
                value: 1.0,
            },
            TraceLine::Event {
                metric: "e.flag".into(),
                rep: 1,
                round: 2,
                node: Some(4),
                value: 1.0,
            },
            TraceLine::Event {
                metric: "e.flag".into(),
                rep: 0,
                round: 5,
                node: Some(1),
                value: 1.0,
            },
        ]
    }

    #[test]
    fn digest_sorts_counters_and_collapses_rounds() {
        let d = digest(&sample_lines());
        assert_eq!(d.fig, "figX");
        assert_eq!(
            d.counters,
            vec![("a.counter".to_string(), 1), ("b.counter".to_string(), 3)]
        );
        assert_eq!(
            d.rounds,
            vec![
                RoundRow {
                    metric: "e.flag".into(),
                    round: 2,
                    events: 2,
                    sum: 2.0
                },
                RoundRow {
                    metric: "e.flag".into(),
                    round: 5,
                    events: 1,
                    sum: 1.0
                },
            ]
        );
        let text = d.to_text();
        assert!(text.contains("trace figX"));
        assert!(text.contains("a.counter"));
        let csv = d.to_csv();
        assert!(csv.starts_with("kind,metric,round,count,sum,min,max,p50,p90,p95,p99\n"));
        assert!(csv.contains("round,e.flag,2,2,2,,,,,,"));
    }

    #[test]
    fn hist_quantiles_flow_into_digest_outputs() {
        let lines = vec![
            TraceLine::Meta {
                schema: 2,
                run: "r".into(),
                fig: "figQ".into(),
                seed: 9,
                scale: "smoke".into(),
            },
            TraceLine::Hist {
                metric: "h.q".into(),
                count: 4,
                sum: 10.0,
                min: 1.0,
                max: 4.0,
                quantiles: [2.5, 4.5, 4.5, 4.5],
            },
        ];
        let d = digest(&lines);
        assert_eq!(d.hists[0].quantiles, [2.5, 4.5, 4.5, 4.5]);
        assert!(d.to_csv().contains("hist,h.q,,4,10,1,4,2.5,4.5,4.5,4.5"));
        assert!(d.to_text().contains("p50"));
    }

    #[test]
    fn summary_reduces_vitals() {
        let mk = |fig: &str, counters: Vec<(&str, u64)>| Digest {
            fig: fig.to_string(),
            counters: counters
                .into_iter()
                .map(|(m, v)| (m.to_string(), v))
                .collect(),
            ..Digest::default()
        };
        let chaos = mk(
            "chaos-x",
            vec![
                ("chaos.crashes", 3),
                ("chaos.restarts", 2),
                ("chaos.retries", 5),
                ("defense.ban", 7),
                ("defense.reinstate", 1),
            ],
        );
        let quiet = mk("fig1", vec![]);
        let rows = vec![summarize(&chaos), summarize(&quiet)];
        assert_eq!(rows[0].faults, 3);
        assert_eq!(rows[0].recoveries, 7);
        assert_eq!(rows[0].bans, 7);
        let text = summary_text(&rows);
        assert!(text.contains("chaos-x"));
        let csv = summary_csv(&rows);
        assert!(csv.starts_with("fig,accepts,"));
        assert!(csv.contains("chaos-x,0,0,7,1,3,7\n"));
        assert!(csv.contains("fig1,0,0,0,0,0,0\n"));
    }
}
