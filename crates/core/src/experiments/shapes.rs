//! Figure shapes: the reductions and table layouts the figure families
//! share, each written once over any [`System`].
//!
//! * per-cell aggregation — [`Cell`] reduces one scenario's repetitions to
//!   the means every sweep tabulates (error, drift, detection quality,
//!   defense and fault accounting);
//! * [`series_rows`] / [`cdf_rows`] — the time-series and CDF tables;
//! * [`Matrix`] — attack × defense matrices (`def-sweep-*`, `arms-sweep-*`);
//! * [`LevelSweep`] — one-parameter sweeps tabulated against their first
//!   level, and its *recovery sweep* over fault plans (`chaos-*`).

use crate::experiments::harness::{
    plain, repeat_all, DefenseOutcome, Faults, Run, RunSpec, System,
};
use crate::experiments::{average_series, FigureResult};
use vcoord_attackkit::AttackStrategy;
use vcoord_chaos::{ChaosCounters, ChaosPlan};
use vcoord_defense::DefenseStrategy;
use vcoord_metrics::{Cdf, Confusion, TimeSeries};

/// A malicious fraction as the whole percentage the column names and
/// notes print.
pub(crate) fn pct(fraction: f64) -> u32 {
    (fraction * 100.0).round() as u32
}

/// Every `(row, column)` pair, row-major: the cell order of a two-axis
/// sweep, which `chunks(columns.len())` reads back row by row.
pub(crate) fn cross<'a, A, B>(
    rows: &'a [A],
    columns: &'a [B],
) -> impl Iterator<Item = (&'a A, &'a B)> + 'a {
    rows.iter()
        .flat_map(move |row| columns.iter().map(move |column| (row, column)))
}

/// Mean of `value` over one scenario's repetitions.
pub(crate) fn mean_of(runs: &[Run], value: impl Fn(&Run) -> f64) -> f64 {
    runs.iter().map(value).sum::<f64>() / runs.len().max(1) as f64
}

/// Tail-mean of one series per run, averaged across repetitions — the
/// "value after (re)convergence" of the sweep figures.
pub(crate) fn mean_tails(runs: &[Run], series: impl Fn(&Run) -> &TimeSeries) -> f64 {
    mean_of(runs, |r| series(r).tail_mean(3))
}

/// Converged honest error of a scenario, averaged across repetitions.
pub(crate) fn attacked_err(runs: &[Run]) -> f64 {
    mean_tails(runs, |r| &r.attack_series)
}

/// One series per run, averaged pointwise across repetitions.
pub(crate) fn mean_series(runs: &[Run], series: impl Fn(&Run) -> TimeSeries) -> TimeSeries {
    average_series(&runs.iter().map(series).collect::<Vec<_>>())
}

/// CDF of the final per-node errors pooled over repetitions.
pub(crate) fn pooled_cdf(runs: &[Run]) -> Cdf {
    let all: Vec<f64> = runs.iter().flat_map(|r| r.final_errors.clone()).collect();
    Cdf::from_samples(&all)
}

/// Rows of a time-series table: the shared clock (read off the first
/// series), then one value per series, down to the shortest series.
pub(crate) fn series_rows(series: &[TimeSeries]) -> Vec<Vec<f64>> {
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..len)
        .map(|k| {
            let mut row = vec![series[0].points()[k].0 as f64];
            row.extend(series.iter().map(|s| s.points()[k].1));
            row
        })
        .collect()
}

/// Rows of a CDF table: 51 quantiles (0, 0.02, …, 1), one error column per
/// CDF.
pub(crate) fn cdf_rows(cdfs: &[Cdf]) -> Vec<Vec<f64>> {
    (0..=50)
        .map(|k| {
            let q = k as f64 / 50.0;
            let mut row = vec![q];
            row.extend(cdfs.iter().map(|c| c.quantile(q)));
            row
        })
        .collect()
}

/// CDF figure: one error-CDF column per malicious fraction of `base`;
/// `note` words a column's shape note from its percentage, runs and CDF.
pub(crate) fn cdf_by_fraction<S: System>(
    base: &RunSpec<'_, S>,
    fractions: &[f64],
    note: impl Fn(u32, &[Run], &Cdf) -> String,
) -> FigureResult {
    let mut fig = FigureResult::new(vec!["quantile".to_string()]);
    let specs: Vec<_> = fractions
        .iter()
        .map(|&fraction| RunSpec {
            fraction,
            ..base.clone()
        })
        .collect();
    let runs = repeat_all(&specs);
    let mut cdfs = Vec::new();
    for (&fraction, runs) in fractions.iter().zip(&runs) {
        fig.columns.push(format!("err_{}pct", pct(fraction)));
        let cdf = pooled_cdf(runs);
        fig.notes.push(note(pct(fraction), runs, &cdf));
        cdfs.push(cdf);
    }
    fig.rows = cdf_rows(&cdfs);
    fig
}

/// One sweep cell: a scenario's repetitions reduced to what the sweep
/// figures tabulate. Defense and fault tallies are per-repetition means
/// (a repetition without a defense or a fault plan counts as zeros).
pub(crate) struct Cell {
    /// Converged honest error (tail mean of the attack series).
    pub err: f64,
    /// Converged drift velocity.
    pub drift: f64,
    /// Node-level detection quality, merged over repetitions.
    pub confusion: Confusion,
    /// Samples rejected, summed over repetitions.
    pub rejected: u64,
    pub bans: f64,
    pub reinstated: f64,
    pub banned_honest: f64,
    pub banned_malicious: f64,
    pub quarantined: f64,
    pub crashes: f64,
    pub restarts: f64,
    pub timeouts: f64,
    pub retries: f64,
    pub evictions: f64,
    pub failovers: f64,
    pub burst_losses: f64,
    pub spiked: f64,
    pub leases: f64,
}

impl Cell {
    /// Every repetition of every spec as one job grid, reduced per spec.
    pub(crate) fn all<S: System>(specs: &[RunSpec<'_, S>]) -> Vec<Cell> {
        repeat_all(specs)
            .iter()
            .map(|runs| Cell::of(runs))
            .collect()
    }

    pub(crate) fn of(runs: &[Run]) -> Cell {
        let total = |count: &dyn Fn(&Run) -> u64| runs.iter().map(count).sum::<u64>();
        let mean = |count: &dyn Fn(&Run) -> u64| total(count) as f64 / runs.len().max(1) as f64;
        let defense = |count: fn(&DefenseOutcome) -> u64| {
            mean(&|r: &Run| r.defense.as_ref().map_or(0, count))
        };
        let chaos =
            |count: fn(&ChaosCounters) -> u64| mean(&|r: &Run| r.chaos.as_ref().map_or(0, count));
        let mut confusion = Confusion::new();
        for outcome in runs.iter().filter_map(|r| r.defense.as_ref()) {
            confusion.merge(&outcome.confusion);
        }
        Cell {
            err: attacked_err(runs),
            drift: mean_tails(runs, |r| &r.drift_series),
            confusion,
            rejected: total(&|r| r.defense.as_ref().map_or(0, |d| d.rejected)),
            bans: defense(|d| d.bans),
            reinstated: defense(|d| d.reinstated),
            banned_honest: defense(|d| d.banned_honest_final),
            banned_malicious: defense(|d| d.banned_malicious_final),
            quarantined: defense(|d| d.quarantined),
            crashes: chaos(|c| c.crashes),
            restarts: chaos(|c| c.restarts),
            timeouts: chaos(|c| c.timeouts),
            retries: chaos(|c| c.retries),
            evictions: chaos(|c| c.evictions),
            failovers: chaos(|c| c.failovers),
            burst_losses: chaos(|c| c.burst_losses),
            spiked: chaos(|c| c.spiked),
            leases: chaos(|c| c.leases),
        }
    }

    /// True-positive rate (0 when no malicious node was inspected).
    pub(crate) fn tpr(&self) -> f64 {
        self.confusion.tpr().unwrap_or(0.0)
    }

    /// False-positive rate (0 when no honest node was inspected).
    pub(crate) fn fpr(&self) -> f64 {
        self.confusion.fpr().unwrap_or(0.0)
    }
}

/// An entry of an attack menu: its label, which names CSV columns and
/// notes, and its workspace-default instance.
pub(crate) type Attack = (&'static str, fn() -> Box<dyn AttackStrategy>);

/// An entry of a defense menu: its label and its instance over the
/// system's verified set ([`System::trusted`]), which only the
/// trusted-baseline defense reads.
pub(crate) type Defense = (&'static str, fn(&[usize]) -> Box<dyn DefenseStrategy>);

/// A column block of a [`Matrix`]: one column per defense, named
/// `<prefix>_<defense>`, leaving out the first `skip` defenses:
/// `(prefix, skip, value)`.
pub(crate) type Block = (&'static str, usize, fn(&Cell) -> f64);

/// An attack × defense matrix figure: one row per attack, and per block of
/// `blocks` one column per defense.
pub(crate) struct Matrix<'a, S: System> {
    /// Every cell's run, up to the adversary and the defense.
    pub base: RunSpec<'a, S>,
    pub attacks: &'a [Attack],
    pub defenses: &'a [Defense],
    pub blocks: &'a [Block],
    /// The row's note, from its attack label and its cells in defense order.
    pub note: fn(&str, &[Cell]) -> String,
}

impl<S: System> Matrix<'_, S> {
    /// The (attack × defense) cells, attack-major, as one job grid.
    pub(crate) fn cells(&self) -> Vec<Cell> {
        let attacks: Vec<_> = self.attacks.iter().map(|&(_, make)| plain(make)).collect();
        let defenses: Vec<_> = self
            .defenses
            .iter()
            .map(|&(_, make)| move |sim: &S| make(&sim.trusted()))
            .collect();
        let specs: Vec<_> = cross(&attacks, &defenses)
            .map(|(attack, defense)| RunSpec {
                adversary: attack,
                defense: Some(defense),
                ..self.base.clone()
            })
            .collect();
        Cell::all(&specs)
    }

    pub(crate) fn figure(&self) -> FigureResult {
        let mut fig = FigureResult::new(vec!["attack_idx".to_string()]);
        for (prefix, skip, _) in self.blocks {
            let defenses = self.defenses.iter().skip(*skip);
            fig.columns
                .extend(defenses.map(|(d, _)| format!("{prefix}_{d}")));
        }
        let cells = self.cells();
        let rows = cells.chunks(self.defenses.len());
        for (a_idx, ((attack, _), cells)) in self.attacks.iter().zip(rows).enumerate() {
            let mut row = vec![a_idx as f64];
            for (_, skip, value) in self.blocks {
                row.extend(cells.iter().skip(*skip).map(value));
            }
            fig.rows.push(row);
            fig.notes.push((self.note)(attack, cells));
        }
        fig
    }
}

/// A level-sweep column: its name and its value from the level's cell and
/// the level's error relative to the first level's.
pub(crate) type Column = (&'static str, fn(&Cell, f64) -> f64);

/// A level sweep: one row per level — its index, the level, then `columns`
/// read off the level's [`Cell`] — tabulated against the first level's
/// converged error.
pub(crate) struct LevelSweep<'a> {
    pub level_column: &'a str,
    pub levels: &'a [f64],
    /// The columns after `point_idx` and the level.
    pub columns: &'a [Column],
    /// The row's note, from the level, its cell and its error ratio.
    pub note: &'a (dyn Fn(f64, &Cell, f64) -> String + 'a),
}

impl LevelSweep<'_> {
    /// The figure whose level cells are the repetitions of `specs`, one
    /// spec per level, run as one job grid.
    pub(crate) fn figure<S: System>(&self, specs: &[RunSpec<'_, S>]) -> FigureResult {
        self.table(&Cell::all(specs))
    }

    /// The figure over `cells`, one per level.
    pub(crate) fn table(&self, cells: &[Cell]) -> FigureResult {
        let mut columns = vec!["point_idx".to_string(), self.level_column.to_string()];
        columns.extend(self.columns.iter().map(|(name, _)| name.to_string()));
        let mut fig = FigureResult::new(columns);
        let baseline = cells[0].err.max(1e-9);
        for (i, (&level, cell)) in self.levels.iter().zip(cells).enumerate() {
            let ratio = cell.err / baseline;
            let mut row = vec![i as f64, level];
            row.extend(self.columns.iter().map(|(_, value)| value(cell, ratio)));
            fig.rows.push(row);
            fig.notes.push((self.note)(level, cell, ratio));
        }
        fig
    }

    /// The *recovery sweep*: `base` (adversary, defense, stretched scale)
    /// re-run under the fault plan `plan(level, converged system)` of each
    /// level. Level 0 installs no plan at all, so its row is the
    /// byte-identical no-chaos run the other levels are read against.
    pub(crate) fn recovery<S: System>(
        &self,
        base: &RunSpec<'_, S>,
        plan: &(dyn Fn(f64, &S) -> ChaosPlan + Sync),
    ) -> FigureResult {
        let plans: Vec<_> = self
            .levels
            .iter()
            .map(|&level| move |sim: &S| plan(level, sim))
            .collect();
        let specs: Vec<_> = self
            .levels
            .iter()
            .zip(&plans)
            .map(|(&level, plan)| RunSpec {
                chaos: (level > 0.0).then_some(plan as &Faults<'_, S>),
                ..base.clone()
            })
            .collect();
        self.figure(&specs)
    }
}
