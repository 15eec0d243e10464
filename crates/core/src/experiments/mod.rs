//! The experiment suite: one reproducible runner per figure of the paper's
//! evaluation (§5), declared as one row of the figure table ([`figure_ids`]
//! lists them, [`run_figure`] runs one).
//!
//! Every runner takes a [`Scale`] (quick vs full/paper scale) and a master
//! seed, declares its cells as injection runs of the one harness
//! (`harness::repeat_all`), whose (cell, repetition) jobs share one pool of
//! threads (`Pool`), and returns a [`FigureResult`]: a header plus numeric
//! rows mirroring the series the paper plots. The `figures` binary in `vcoord-bench` prints/persists
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
mod registry;
mod shapes;
mod vivaldi_figs;

pub use registry::{describe, figure_ids, run_figure};

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// One job of a figure: repetition `rep` of cell `cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GridJob {
    /// Index of the cell in the grid.
    pub(crate) cell: usize,
    /// Repetition index within the cell.
    pub(crate) rep: u64,
}

/// The one pool of a figure run, behind `harness::repeat_at`: `units` of
/// jobs, each unit converged once by its first job's warm-up and its other
/// jobs run on copies of that converged system, on `workers` threads.
/// CPU-bound work, so plain scoped threads (see DESIGN.md
/// guide-conformance notes), and the only level of threads a figure has: a
/// job's [`EvalPlan`] sweeps run on the job's own thread.
///
/// *Job order* is `units` concatenated. The values come back, and the obs
/// reports are absorbed, in job order whatever ran where, so results and
/// traces are width-invariant: when the `vcoord_obs` gated plane is on,
/// each worker drains its thread-local recorder after every job, tagging
/// the events with the job's repetition index.
///
/// The pick is work-conserving: a free worker takes the first of
/// 1. the next job of a published unit that it warmed up itself, on a clone
///    of the snapshot (sharing its latency matrix, which already sits in
///    this thread's allocator arena; the unit's last job takes the snapshot
///    itself);
/// 2. the next job of any published unit, on a `fork` of the snapshot made
///    on its own thread (the unit's last job then drops the snapshot);
/// 3. the next unit's first job, which runs the warm-up, publishes a clone
///    of the converged system — the snapshot — if the unit has more jobs,
///    and runs its own job on the original;
/// 4. nothing: every job left belongs to a unit still warming up, and the
///    worker waits for it. Each such unit's warm-up is running on another
///    worker, so the wait ends.
///
/// A warm-up starts only when no published unit has a job left, so at most
/// `workers` snapshots are alive, and at width 1 the jobs run in job order.
/// A panicking job, warm-up included, stops the pool: the other workers
/// finish the job they hold and take no further one, the jobs of a unit
/// whose warm-up failed never start, and the panic of the earliest failed
/// job in job order is resumed on the caller with its original payload.
///
/// [`EvalPlan`]: vcoord_metrics::EvalPlan
pub(crate) struct Pool<'u, W> {
    units: &'u [Vec<(usize, u64)>],
    workers: usize,
    queue: Mutex<Queue<W>>,
    changed: Condvar,
}

/// What is left to hand out.
struct Queue<W> {
    /// The first unit whose warm-up has not started.
    next_unit: usize,
    /// Warm-ups running.
    warming: usize,
    /// Published units with a job left, oldest first.
    open: Vec<Snapshot<W>>,
    /// A job panicked: hand out nothing more.
    stopped: bool,
    /// Times a worker waited for a warm-up (rule 4).
    #[cfg(test)]
    waits: usize,
    /// The most snapshots alive at once.
    #[cfg(test)]
    peak_open: usize,
}

/// A published unit: the converged system its remaining jobs copy.
struct Snapshot<W> {
    unit: usize,
    /// The worker that warmed it up.
    owner: usize,
    /// Its next job, by position in the unit.
    next: usize,
    warm: W,
}

/// A job handed to a worker: position `at` of unit `unit`, with its copy of
/// the converged system, or `None` for a unit's first job, which warms the
/// system up itself.
struct Claim<W> {
    unit: usize,
    at: usize,
    warm: Option<W>,
}

impl<'u, W: Clone + Send> Pool<'u, W> {
    pub(crate) fn new(units: &'u [Vec<(usize, u64)>], workers: usize) -> Self {
        Pool {
            units,
            workers,
            queue: Mutex::new(Queue {
                next_unit: 0,
                warming: 0,
                open: Vec::new(),
                stopped: false,
                #[cfg(test)]
                waits: 0,
                #[cfg(test)]
                peak_open: 0,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue<W>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every job: a unit's first runs `warm_up` and then `attack` on what
    /// it returned, every other job `attack` on a copy of that (see
    /// [`Pool`]). The values come back in job order.
    pub(crate) fn run<T: Send>(
        &self,
        warm_up: impl Fn(GridJob) -> W + Sync,
        fork: impl Fn(&W) -> W + Sync,
        attack: impl Fn(GridJob, W) -> T + Sync,
    ) -> Vec<T> {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // Job order: the index of each unit's first job.
        let first: Vec<usize> = self
            .units
            .iter()
            .scan(0, |k, unit| {
                let at = *k;
                *k += unit.len();
                Some(at)
            })
            .collect();
        let mut done: Vec<Option<(T, Option<vcoord_obs::ObsReport>)>> =
            self.units.iter().flatten().map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|me| {
                    let (first, warm_up, fork, attack) = (&first, &warm_up, &fork, &attack);
                    scope.spawn(move || {
                        let mut finished = Vec::new();
                        // Leftovers from earlier work on this pool thread must
                        // not leak into the first job's report.
                        if vcoord_obs::enabled() {
                            vcoord_obs::reset();
                        }
                        while let Some(Claim { unit, at, warm }) = self.next(me, fork) {
                            let k = first[unit] + at;
                            let (cell, rep) = self.units[unit][at];
                            let job = GridJob { cell, rep };
                            // Opened once the job holds its system or is
                            // about to build it: waiting is pool idle time.
                            let span = vcoord_obs::span(vcoord_obs::metric_id!("figure.rep_ns"));
                            let run = || {
                                let warm = warm.unwrap_or_else(|| {
                                    let warm = warm_up(job);
                                    self.publish(me, unit, &warm);
                                    warm
                                });
                                attack(job, warm)
                            };
                            let value = match catch_unwind(AssertUnwindSafe(run)) {
                                Ok(value) => value,
                                Err(payload) => {
                                    self.stop();
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
            // Jobs already running when one fails can fail too: resume the
            // earliest in job order.
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

    /// Worker `me`'s next job by the pick of [`Pool`], waiting while only
    /// warming units have jobs left; `None` once no job is left or the pool
    /// stopped. A job's copy of its snapshot is made here, on the calling
    /// thread, under the lock: a clone of the system and, off the owner's
    /// thread, one copy of its matrix. A copy that panics leaves its job
    /// claimed and the queue valid, and the panic reaches the caller.
    fn next(&self, me: usize, fork: &impl Fn(&W) -> W) -> Option<Claim<W>> {
        let mut queue = self.lock();
        loop {
            if queue.stopped {
                return None;
            }
            let mine = queue.open.iter().position(|s| s.owner == me);
            if let Some(i) = mine.or((!queue.open.is_empty()).then_some(0)) {
                let snapshot = &mut queue.open[i];
                let (unit, at) = (snapshot.unit, snapshot.next);
                snapshot.next += 1;
                let warm = if snapshot.next < self.units[unit].len() {
                    match mine {
                        Some(_) => snapshot.warm.clone(),
                        None => fork(&snapshot.warm),
                    }
                } else {
                    // The unit's last job: the snapshot leaves the queue.
                    let snapshot = queue.open.remove(i);
                    match mine {
                        Some(_) => snapshot.warm,
                        None => fork(&snapshot.warm),
                    }
                };
                return Some(Claim {
                    unit,
                    at,
                    warm: Some(warm),
                });
            }
            if queue.next_unit < self.units.len() {
                let unit = queue.next_unit;
                queue.next_unit += 1;
                queue.warming += 1;
                return Some(Claim {
                    unit,
                    at: 0,
                    warm: None,
                });
            }
            if queue.warming == 0 {
                return None;
            }
            #[cfg(test)]
            {
                queue.waits += 1;
            }
            queue = self
                .changed
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker `me` has warmed `unit` up to `warm`: publish a clone of it for
    /// the unit's other jobs, if it has any.
    fn publish(&self, me: usize, unit: usize, warm: &W) {
        let snapshot = (self.units[unit].len() > 1).then(|| Snapshot {
            unit,
            owner: me,
            next: 1,
            warm: warm.clone(),
        });
        let mut queue = self.lock();
        queue.warming -= 1;
        queue.open.extend(snapshot);
        #[cfg(test)]
        {
            queue.peak_open = queue.peak_open.max(queue.open.len());
        }
        drop(queue);
        self.changed.notify_all();
    }

    /// A job panicked: hand out nothing more, and wake the waiting workers.
    fn stop(&self) {
        self.lock().stopped = true;
        self.changed.notify_all();
    }
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

/// Width of the pool for `jobs` jobs: [`vcoord_metrics::worker_threads`] —
/// the machine's available parallelism unless a budget pins it (the
/// binaries install `VCOORD_THREADS` as one) — or fewer if there are fewer
/// jobs.
pub(crate) fn repetition_pool_width(jobs: usize) -> usize {
    vcoord_metrics::worker_threads().min(jobs).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Obs recording in `Trace` mode for `body`, off again however it ends.
    /// The mode is process-global, so every unit test of this crate that
    /// sets it or reads a report runs under this lock.
    pub(super) fn traced<T>(body: impl FnOnce() -> T) -> T {
        static TRACING: Mutex<()> = Mutex::new(());
        struct Off;
        impl Drop for Off {
            fn drop(&mut self) {
                vcoord_obs::set_mode(vcoord_obs::ObsMode::Off);
            }
        }
        let _one_at_a_time = TRACING.lock().unwrap_or_else(PoisonError::into_inner);
        vcoord_obs::set_mode(vcoord_obs::ObsMode::Trace);
        let _off = Off;
        body()
    }

    /// `reps_of[c]` repetitions of every cell `c`, each job a unit of its
    /// own, on a [`Pool`] `width` wide: the values as `cells[c][rep]`.
    fn grid<T: Send>(
        width: usize,
        reps_of: &[usize],
        f: impl Fn(GridJob) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let units: Vec<Vec<(usize, u64)>> = reps_of
            .iter()
            .enumerate()
            .flat_map(|(cell, &reps)| (0..reps as u64).map(move |rep| vec![(cell, rep)]))
            .collect();
        let values = Pool::new(&units, width).run(|_| (), |_| (), |job, ()| f(job));
        by_cell(reps_of, &units.concat(), values)
    }

    #[test]
    fn one_cell_grid_preserves_repetition_order() {
        let out = grid(repetition_pool_width(8), &[8], |job| job.rep * 10);
        assert_eq!(out, vec![vec![0, 10, 20, 30, 40, 50, 60, 70]]);
    }

    #[test]
    fn one_cell_grid_bounds_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let cap = vcoord_metrics::worker_threads();
        let jobs = 4 * cap + 3;
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // Far more repetitions than cores: the pool must still finish, keep
        // order, and never run more jobs at once than the cap.
        let out = grid(repetition_pool_width(jobs), &[jobs], |job| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            job.rep
        });
        assert_eq!(out, vec![(0..jobs as u64).collect::<Vec<_>>()]);
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "worker pool exceeded available parallelism: {} > {cap}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn grid_returns_ragged_cells_in_repetition_order() {
        for width in [1, 2, 3] {
            let cells = grid(width, &[3, 0, 1, 2], |job| (job.cell, job.rep));
            assert_eq!(
                cells,
                vec![
                    vec![(0, 0), (0, 1), (0, 2)],
                    vec![],
                    vec![(2, 0)],
                    vec![(3, 0), (3, 1)],
                ],
                "width {width}"
            );
            assert_eq!(grid(width, &[], |job| job.rep), Vec::<Vec<u64>>::new());
        }
    }

    #[test]
    fn absorbed_reports_are_in_job_order_with_rep_tags_at_every_width() {
        use vcoord_obs::{counter_add, event, metric, observe, NO_NODE};

        // Ragged on purpose: an empty cell, a one-repetition cell, unequal
        // others.
        const REPS_OF: [usize; 5] = [3, 1, 0, 2, 4];
        let reports = traced(|| {
            [1, 2, 3].map(|width| {
                vcoord_obs::reset();
                let cells = grid(width, &REPS_OF, |job| {
                    counter_add(metric("test.grid.jobs"), 1);
                    observe(metric("test.grid.cell"), job.cell as f64);
                    // Two events per job, so per-job order is visible too.
                    for step in 0..2 {
                        event(
                            metric("test.grid.step"),
                            job.cell as u64,
                            NO_NODE,
                            step as f64,
                        );
                    }
                    (job.cell, job.rep)
                });
                for (c, (cell, &reps)) in cells.iter().zip(&REPS_OF).enumerate() {
                    let want: Vec<(usize, u64)> = (0..reps as u64).map(|rep| (c, rep)).collect();
                    assert_eq!(cell, &want, "cell {c} at width {width}");
                }
                let mut report = vcoord_obs::drain();
                // (cell, rep, step) of every event, in absorbed order:
                // cell-major, rep-minor, each tagged with its repetition
                // (not its job) index.
                let seen: Vec<(u64, i32, f64)> = report
                    .events()
                    .iter()
                    .map(|e| (e.round, e.rep, e.value))
                    .collect();
                let mut want = Vec::new();
                for (c, &reps) in REPS_OF.iter().enumerate() {
                    for rep in 0..reps as i32 {
                        want.extend([(c as u64, rep, 0.0), (c as u64, rep, 1.0)]);
                    }
                }
                assert_eq!(seen, want, "event order and rep tags at width {width}");
                assert_eq!(report.counter(metric("test.grid.jobs")), 10);
                // Wall-clock spans aside, the merged report is the same
                // object at every width.
                report.strip_timings();
                report
            })
        });
        assert_eq!(reports[0], reports[1], "width 1 vs 2");
        assert_eq!(reports[0], reports[2], "width 1 vs 3");
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
            grid(width, &[40], |job| {
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
