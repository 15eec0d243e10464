//! Figure runners for the `attackkit` scenario families (beyond the
//! paper's evaluation): attack-strength sweeps of the generic strategies —
//! frog-boiling, oscillation, network partition, inflation, deflation —
//! against both Vivaldi and NPS, plus a drift-velocity study of
//! frog-boiling step sizes.
//!
//! Each sweep CSV reports, per malicious fraction and strategy, the
//! converged relative error of the honest population *and* its drift
//! velocity (mean coordinate displacement per round). The two metrics
//! separate the attack families: random/inflation lies blow the error up
//! immediately, while gradual attacks keep the error low at first and show
//! up as a steady non-zero drift — the signature any displacement-threshold
//! defence has to contend with.

use crate::experiments::harness::{plain, repeat_all, RunSpec, System};
use crate::experiments::registry::Figure;
use crate::experiments::shapes::{
    attacked_err, cross, mean_series, pct, series_rows, Attack, Cell,
};
use crate::experiments::{FigureResult, Scale};
use vcoord_attackkit::{Deflation, FrogBoiling, Inflation, NetworkPartition, Oscillation};
use vcoord_nps::NpsSim;
use vcoord_vivaldi::VivaldiSim;

/// The generic strategies swept by the attack figures, in CSV column order
/// (shared with the defense sweeps in `experiments::defense_figs`).
pub(crate) const STRATEGIES: [Attack; 5] = [
    ("frog_boiling", || Box::new(FrogBoiling::default())),
    ("oscillation", || Box::new(Oscillation::default())),
    ("partition", || Box::new(NetworkPartition)),
    ("inflation", || Box::new(Inflation)),
    ("deflation", || Box::new(Deflation)),
];

/// Malicious fractions swept by the attack-strength figures.
const FRACTIONS: [f64; 3] = [0.10, 0.30, 0.50];

/// One attack-strength sweep: for each fraction, per-strategy converged
/// error and drift velocity on system `S`.
fn atk_sweep<S: System>(scale: &Scale, seed: u64) -> FigureResult {
    let mut columns = vec!["fraction_pct".to_string()];
    columns.extend(STRATEGIES.iter().map(|(s, _)| format!("err_{s}")));
    columns.extend(STRATEGIES.iter().map(|(s, _)| format!("drift_{s}")));
    let mut fig = FigureResult::new(columns);
    let adversaries = STRATEGIES.map(|(_, make)| plain(make));
    let specs: Vec<_> = cross(&FRACTIONS, &adversaries)
        .map(|(&fraction, adversary)| RunSpec::<S> {
            fraction,
            adversary,
            ..RunSpec::new(scale, seed)
        })
        .collect();
    let cells = Cell::all(&specs);
    for (&fraction, cells) in FRACTIONS.iter().zip(cells.chunks(STRATEGIES.len())) {
        let mut row = vec![fraction * 100.0];
        row.extend(cells.iter().map(|c| c.err));
        row.extend(cells.iter().map(|c| c.drift));
        fig.rows.push(row);
        fig.notes.push(format!(
            "{}% malicious: err frog {:.2} / osc {:.2} / part {:.2} / infl {:.2} / defl {:.2}; drift frog {:.2} / part {:.2} ms/round",
            pct(fraction),
            cells[0].err,
            cells[1].err,
            cells[2].err,
            cells[3].err,
            cells[4].err,
            cells[0].drift,
            cells[2].drift,
        ));
    }
    fig
}

/// `atk-frog-drift` — frog-boiling on Vivaldi: honest-population drift
/// velocity over time for several step sizes (30 % malicious).
///
/// The point of the attack is that the *victim-side* drift stays roughly
/// proportional to the configured step — small enough per round to pass
/// under displacement thresholds — while the offsets integrate without
/// bound.
fn atk_frog_drift(scale: &Scale, seed: u64) -> FigureResult {
    let steps = [1.0, 5.0, 25.0];
    let mut fig = FigureResult::new(vec!["tick".to_string()]);
    let adversaries = steps.map(|step| plain(move || Box::new(FrogBoiling::new(step))));
    let specs: Vec<_> = adversaries
        .iter()
        .map(|adversary| RunSpec::<VivaldiSim> {
            fraction: 0.30,
            adversary,
            ..RunSpec::new(scale, seed)
        })
        .collect();
    let runs = repeat_all(&specs);
    let mut per_step = Vec::new();
    for (&step, runs) in steps.iter().zip(&runs) {
        fig.columns.push(format!("drift_step_{step:.0}ms"));
        let avg = mean_series(runs, |r| r.drift_series.clone());
        fig.notes.push(format!(
            "step {step} ms/round: steady drift {:.2} ms/tick, final error {:.2}",
            avg.tail_mean(3),
            attacked_err(runs)
        ));
        per_step.push(avg);
    }
    fig.rows = series_rows(&per_step);
    fig
}

/// The attackkit figures: the strength sweep on Vivaldi and on NPS (default
/// 3-layer hierarchy, security filter on), then the frog-boiling drift
/// study.
pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        id: "atk-sweep-vivaldi",
        title: "attackkit strategies on Vivaldi: error and drift velocity vs malicious share",
        run: atk_sweep::<VivaldiSim>,
    },
    Figure {
        id: "atk-sweep-nps",
        title: "attackkit strategies on NPS: error and drift velocity vs malicious share",
        run: atk_sweep::<NpsSim>,
    },
    Figure {
        id: "atk-frog-drift",
        title: "Frog-boiling on Vivaldi: drift velocity vs time by step size",
        run: atk_frog_drift,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_figure;

    #[test]
    fn sweep_vivaldi_smoke_has_expected_shape() {
        let scale = Scale::smoke();
        let fig = run_figure("atk-sweep-vivaldi", &scale, 7).expect("a row");
        assert_eq!(fig.id, "atk-sweep-vivaldi");
        assert_eq!(fig.columns.len(), 1 + 2 * STRATEGIES.len());
        assert_eq!(fig.rows.len(), FRACTIONS.len());
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len());
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Gradual attacks must produce non-zero drift at 50% malicious.
        let last = fig.rows.last().expect("rows");
        let drift_frog = last[1 + STRATEGIES.len()];
        assert!(drift_frog > 0.0, "frog-boiling drift missing: {last:?}");
    }

    #[test]
    fn frog_drift_smoke_tracks_time() {
        let scale = Scale::smoke();
        let fig = atk_frog_drift(&scale, 9);
        assert_eq!(fig.columns.len(), 4);
        assert!(!fig.rows.is_empty());
    }
}
