//! The experiment suite: one reproducible runner per figure of the paper's
//! evaluation (§5), declared as one row of the figure table ([`registry`]).
//!
//! Every runner takes a [`Scale`] (quick vs full/paper scale) and a master
//! seed, fans its (cell, repetition) jobs out over one pool of threads —
//! [`run_grid`], the only pool a figure run has — and returns a
//! [`FigureResult`]: a header plus numeric rows mirroring the series the
//! paper plots. The `figures` binary in `vcoord-bench` prints/persists
//! these; integration tests run them at tiny scale.
//!
//! See `DESIGN.md` for the figure-by-figure index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.

mod arms_figs;
mod attack_figs;
mod chaos_figs;
mod defense_figs;
mod extensions;
mod harness;
mod nps_figs;
pub mod registry;
mod shapes;
mod vivaldi_figs;

pub use registry::{figure_ids, run_figure};

use vcoord_metrics::TimeSeries;

/// Experiment scale knobs.
///
/// `quick` keeps every figure under roughly a minute on a laptop while
/// preserving the paper's qualitative shapes; `full` is the paper-scale
/// configuration (1740 nodes, 10 repetitions).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Nodes drawn from the synthesized 1740-node King-equivalent matrix.
    pub nodes: usize,
    /// Independent repetitions (the paper repeats each scenario 10×).
    pub repetitions: usize,
    /// Vivaldi: ticks before injection (clean convergence phase).
    pub vivaldi_warmup_ticks: u64,
    /// Vivaldi: ticks observed after injection.
    pub vivaldi_attack_ticks: u64,
    /// Vivaldi: metric sampling interval in ticks.
    pub vivaldi_record_every: u64,
    /// NPS: repositioning rounds before injection.
    pub nps_warmup_rounds: u64,
    /// NPS: rounds observed after injection.
    pub nps_attack_rounds: u64,
    /// NPS: metric sampling interval in rounds.
    pub nps_record_every: u64,
    /// Peer-sampling bound handed to `EvalPlan` (all pairs under this).
    pub eval_all_pairs_threshold: usize,
    /// Sampled peers per node above the threshold.
    pub eval_sample_peers: usize,
}

impl Scale {
    /// Laptop-friendly scale (default for the `figures` binary).
    pub fn quick() -> Scale {
        Scale {
            nodes: 400,
            repetitions: 3,
            vivaldi_warmup_ticks: 300,
            vivaldi_attack_ticks: 500,
            vivaldi_record_every: 10,
            nps_warmup_rounds: 25,
            nps_attack_rounds: 50,
            nps_record_every: 2,
            eval_all_pairs_threshold: 128,
            eval_sample_peers: 96,
        }
    }

    /// Paper scale: all 1740 nodes, 10 repetitions, long horizons.
    pub fn full() -> Scale {
        Scale {
            nodes: 1740,
            repetitions: 10,
            vivaldi_warmup_ticks: 2000,
            vivaldi_attack_ticks: 3000,
            vivaldi_record_every: 25,
            nps_warmup_rounds: 50,
            nps_attack_rounds: 100,
            nps_record_every: 2,
            eval_all_pairs_threshold: 256,
            eval_sample_peers: 128,
        }
    }

    /// Minimal scale for smoke tests (seconds, not minutes).
    pub fn smoke() -> Scale {
        Scale {
            nodes: 72,
            repetitions: 1,
            vivaldi_warmup_ticks: 80,
            vivaldi_attack_ticks: 120,
            vivaldi_record_every: 10,
            nps_warmup_rounds: 8,
            nps_attack_rounds: 16,
            nps_record_every: 2,
            eval_all_pairs_threshold: 128,
            eval_sample_peers: 48,
        }
    }
}

/// A regenerated figure: a table of rows mirroring the series the paper
/// plots, with column headers and free-form shape notes.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure id: what `figures <id>` selects and `<id>.csv` is named after.
    pub id: String,
    /// Human-readable title (matches the paper's caption).
    pub title: String,
    /// Column names; the first column is the x axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
    /// Shape-check annotations recorded by the runner.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// An empty table under `columns`, for a runner to push its rows and
    /// notes into. The id and title are not the runner's to write:
    /// [`run_figure`] stamps them from the figure's row of the table.
    pub(crate) fn new(columns: Vec<String>) -> FigureResult {
        FigureResult {
            id: String::new(),
            title: String::new(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Serialize as CSV (header + rows, `#`-prefixed notes at the top).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}: {}\n", self.id, self.title));
        for n in &self.notes {
            out.push_str(&format!("# note: {n}\n"));
        }
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Render a compact, aligned text table (for terminal output).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&self.columns.join("\t"));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Average several same-shaped time series pointwise (they share tick
/// schedules because every repetition records on the same boundaries).
pub(crate) fn average_series(series: &[TimeSeries]) -> TimeSeries {
    let mut out = TimeSeries::new();
    let Some(first) = series.first() else {
        return out;
    };
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    for k in 0..len {
        let tick = first.points()[k].0;
        let mean = series.iter().map(|s| s.points()[k].1).sum::<f64>() / series.len() as f64;
        out.push(tick, mean);
    }
    out
}

/// One job of a [`run_grid`] call: repetition `rep` of cell `cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridJob {
    /// Index of the cell in the grid.
    pub cell: usize,
    /// Repetition index within the cell.
    pub rep: u64,
    /// Threads the job may hand to nested sweeps (the [`EvalPlan`] snapshot
    /// path): the worker budget divided by the width of the grid's pool.
    ///
    /// [`EvalPlan`]: vcoord_metrics::EvalPlan
    pub eval_threads: usize,
}

/// Run a whole figure's jobs — `reps_of[c]` repetitions of every cell `c` —
/// on one bounded pool of worker threads and collect the results as
/// `cells[c][rep]`. Every figure runner declares its cells and calls this
/// once; CPU-bound work, so plain scoped threads (see DESIGN.md
/// guide-conformance notes).
///
/// The pool is capped at [`vcoord_metrics::worker_threads`] — the machine's
/// available parallelism unless a budget pins it (the binaries install
/// `VCOORD_THREADS` as one, so CI and bench runs are reproducible on any
/// core count) — and it is the only level of threads a figure has: cells are
/// never fanned out around it. Workers pull jobs cell-major, rep-minor from
/// a shared counter, so a sweep of many one-repetition cells keeps every
/// worker as busy as one cell of many repetitions does.
///
/// This is also the observability merge seam: when the `vcoord_obs` gated
/// plane is on, each worker drains its thread-local recorder after every
/// job (tagging the events with the job's repetition index) and the
/// coordinator absorbs the reports *in job order* — the order the cells
/// would run in one after the other — so per-figure traces are
/// byte-identical for any pool width, exactly like the figure CSVs
/// themselves.
///
/// A panicking job stops the grid: the other workers finish the job they
/// hold and pull no further one, and the panic of the earliest failed job
/// in job order is resumed on the caller with its original payload.
pub fn run_grid<T, F>(reps_of: &[usize], f: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(GridJob) -> T + Sync,
{
    let jobs: Vec<(usize, u64)> = reps_of
        .iter()
        .enumerate()
        .flat_map(|(cell, &reps)| (0..reps as u64).map(move |rep| (cell, rep)))
        .collect();
    by_cell(reps_of, &jobs, run_jobs(&jobs, f))
}

/// The pool behind [`run_grid`], for any job order: workers pull the
/// `(cell, rep)` jobs in the order given, and the values come back — and
/// the obs reports are absorbed — in that same order. `harness::repeat_all`
/// orders its jobs unit by unit, each unit's warm-up owner first.
pub(crate) fn run_jobs<T, F>(jobs: &[(usize, u64)], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(GridJob) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let workers = repetition_pool_width(jobs.len());
    let eval_threads = eval_thread_budget(jobs.len());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut done: Vec<Option<(T, Option<vcoord_obs::ObsReport>)>> =
        jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (f, next, stop) = (&f, &next, &stop);
                scope.spawn(move || {
                    let mut finished = Vec::new();
                    // Leftovers from earlier work on this pool thread must
                    // not leak into the first job's report.
                    if vcoord_obs::enabled() {
                        vcoord_obs::reset();
                    }
                    while !stop.load(Ordering::Relaxed) {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(cell, rep)) = jobs.get(k) else {
                            break;
                        };
                        let span = vcoord_obs::span(vcoord_obs::metric_id!("figure.rep_ns"));
                        let job = GridJob {
                            cell,
                            rep,
                            eval_threads,
                        };
                        let value = match catch_unwind(AssertUnwindSafe(|| f(job))) {
                            Ok(value) => value,
                            Err(payload) => {
                                // Relaxed: the flag publishes no data, it
                                // only ends the loops.
                                stop.store(true, Ordering::Relaxed);
                                return Err((k, payload));
                            }
                        };
                        drop(span);
                        let report = vcoord_obs::enabled().then(|| {
                            let mut r = vcoord_obs::drain();
                            r.retag_rep(rep as i32);
                            r
                        });
                        finished.push((k, value, report));
                    }
                    Ok(finished)
                })
            })
            .collect();
        // A job that failed because an earlier one did (a cell waiting on
        // its unit's warm-up) comes later in the order, so the earliest
        // failure carries the original payload.
        let mut failed = Vec::new();
        for h in handles {
            match h.join() {
                Ok(Ok(finished)) => {
                    for (k, value, report) in finished {
                        done[k] = Some((value, report));
                    }
                }
                Ok(Err(failure)) => failed.push(failure),
                Err(payload) => failed.push((usize::MAX, payload)),
            }
        }
        if let Some((_, payload)) = failed.into_iter().min_by_key(|&(k, _)| k) {
            std::panic::resume_unwind(payload);
        }
    });
    done.into_iter()
        .map(|job| {
            let (value, report) = job.expect("every job completed");
            if let Some(report) = report {
                vcoord_obs::absorb(report);
            }
            value
        })
        .collect()
}

/// `values[k]`, the value of `jobs[k]`, regrouped as `cells[cell][rep]`.
pub(crate) fn by_cell<T>(reps_of: &[usize], jobs: &[(usize, u64)], values: Vec<T>) -> Vec<Vec<T>> {
    let mut keyed: Vec<((usize, u64), T)> = jobs.iter().copied().zip(values).collect();
    keyed.sort_by_key(|&(job, _)| job);
    let mut cells: Vec<Vec<T>> = reps_of
        .iter()
        .map(|&reps| Vec::with_capacity(reps))
        .collect();
    for ((cell, _), value) in keyed {
        cells[cell].push(value);
    }
    cells
}

/// Width of the [`run_grid`] pool for `jobs` jobs — the single source of
/// truth shared with [`eval_thread_budget`].
fn repetition_pool_width(jobs: usize) -> usize {
    vcoord_metrics::worker_threads().min(jobs).max(1)
}

/// Leftover per-job thread budget for nested sweeps (the [`EvalPlan`]
/// snapshot path) running *inside* a [`run_grid`] worker: the machine
/// budget divided by the pool width of a grid of `jobs` jobs, never zero.
/// Handing each job the full budget instead would multiply pools — W×W
/// scoped threads spawned per sample tick. The sweeps are bit-identical
/// for any worker count, so this is purely a scheduling choice.
///
/// [`EvalPlan`]: vcoord_metrics::EvalPlan
fn eval_thread_budget(jobs: usize) -> usize {
    (vcoord_metrics::worker_threads() / repetition_pool_width(jobs)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_pool_and_eval_budget_partition_the_machine() {
        let total = vcoord_metrics::worker_threads();
        for reps in [1usize, 2, 3, 10, 1000] {
            let pool = repetition_pool_width(reps);
            let eval = eval_thread_budget(reps);
            assert!(pool >= 1 && eval >= 1);
            assert!(pool <= total.max(1));
            // The product never oversubscribes the budget (up to the
            // integer-division remainder kept by the final .max(1)).
            assert!(
                pool * eval <= total.max(1) || eval == 1,
                "pool={pool} eval={eval} total={total}"
            );
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let fig = FigureResult {
            id: "figX".into(),
            title: "test".into(),
            columns: vec!["x".into(), "y".into()],
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            notes: vec!["shape holds".into()],
        };
        let csv = fig.to_csv();
        assert!(csv.contains("x,y"));
        assert!(csv.contains("1.000000,2.000000"));
        assert!(csv.contains("# note: shape holds"));
        assert!(fig.to_table().contains("figX"));
    }

    #[test]
    fn average_series_is_pointwise() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        for t in 0..4 {
            a.push(t, t as f64);
            b.push(t, (t as f64) * 3.0);
        }
        let avg = average_series(&[a, b]);
        assert_eq!(avg.points()[2], (2, 4.0));
    }

    #[test]
    fn one_cell_grid_preserves_repetition_order() {
        let out = run_grid(&[8], |job| job.rep * 10);
        assert_eq!(out, vec![vec![0, 10, 20, 30, 40, 50, 60, 70]]);
    }

    #[test]
    fn one_cell_grid_bounds_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let cap = vcoord_metrics::worker_threads();
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // Far more repetitions than cores: the pool must still finish, keep
        // order, and never run more jobs at once than the cap.
        let out = run_grid(&[4 * cap + 3], |job| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            job.rep
        });
        assert_eq!(out, vec![(0..(4 * cap as u64 + 3)).collect::<Vec<_>>()]);
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "worker pool exceeded available parallelism: {} > {cap}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn grid_returns_ragged_cells_in_repetition_order() {
        let cells = run_grid(&[3, 0, 1, 2], |job| (job.cell, job.rep));
        assert_eq!(
            cells,
            vec![
                vec![(0, 0), (0, 1), (0, 2)],
                vec![],
                vec![(2, 0)],
                vec![(3, 0), (3, 1)],
            ]
        );
        assert_eq!(run_grid(&[], |job| job.rep), Vec::<Vec<u64>>::new());
    }

    #[test]
    fn grid_splits_the_machine_between_live_jobs_and_their_sweeps() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // A figure of 5 cells × 3 repetitions: the budget follows the 15
        // jobs the pool actually runs, not the 3 repetitions of a cell.
        let total = vcoord_metrics::worker_threads();
        let width = repetition_pool_width(15);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let budgets = run_grid(&[3; 5], |job| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            job.eval_threads
        });
        assert!(peak.load(Ordering::SeqCst) <= total);
        for threads in budgets.into_iter().flatten() {
            assert_eq!(threads, (total / width).max(1));
            assert!(width * threads <= total.max(1));
        }
    }

    #[test]
    fn panicking_job_stops_the_grid_and_keeps_its_message() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }

        let width = repetition_pool_width(40);
        let started = AtomicUsize::new(0);
        let unwinding = AtomicBool::new(false);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_grid(&[40], |job| {
                let rep = job.rep;
                started.fetch_add(1, Ordering::SeqCst);
                if rep == 2 {
                    let _unwinding = SetOnDrop(&unwinding);
                    panic!("job 2 of 40 failed");
                }
                if rep > 2 {
                    // Held until job 2 (pulled earlier, so it is running)
                    // unwinds: every job from 3 on is one the other
                    // workers started although the figure had failed.
                    while !unwinding.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        }));
        let payload = outcome.expect_err("the panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"job 2 of 40 failed"),
            "the original payload, not a join error"
        );
        // Each surviving worker finishes the job it holds and can have
        // passed the stop check once more before the flag went up.
        let further = started.load(Ordering::SeqCst) - 3;
        assert!(
            further < 2 * width,
            "{further} jobs started after the panic on a {width}-wide pool"
        );
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::smoke().nodes < Scale::quick().nodes);
        assert!(Scale::quick().nodes < Scale::full().nodes);
        assert_eq!(Scale::full().nodes, 1740);
        assert_eq!(Scale::full().repetitions, 10);
    }
}
