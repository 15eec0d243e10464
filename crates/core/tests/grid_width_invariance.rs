//! The job grid is width-invariant: whatever the pool width, a figure's
//! results come back as `cells[cell][rep]` and the coordinator's obs
//! recorder ends up with the jobs' reports in cell-major, rep-minor order —
//! the order the cells would have run in one after the other — each event
//! tagged with its repetition index (not its job index).
//!
//! The worker budget and the obs mode are process-global, so this binary
//! holds exactly one `#[test]` — a sibling flipping either on another
//! libtest thread would race. Events are recorded only in `Trace` mode
//! (`Metrics` keeps counters and histograms and drops every event), so that
//! is the mode the tags are read in.

use vcoord::experiments::run_grid;
use vcoord::metrics::parallel::set_worker_budget;
use vcoord::obs;

/// Ragged on purpose: an empty cell, a one-repetition cell, unequal others.
const REPS_OF: [usize; 5] = [3, 1, 0, 2, 4];

fn traced_grid() -> (Vec<Vec<(usize, u64)>>, obs::ObsReport) {
    obs::reset();
    let cells = run_grid(&REPS_OF, |job| {
        obs::counter_add(obs::metric("test.grid.jobs"), 1);
        obs::observe(obs::metric("test.grid.cell"), job.cell as f64);
        // Two events per job, so per-job order is visible too.
        for step in 0..2 {
            obs::event(
                obs::metric("test.grid.step"),
                job.cell as u64,
                obs::NO_NODE,
                step as f64,
            );
        }
        (job.cell, job.rep)
    });
    (cells, obs::drain())
}

#[test]
fn results_and_absorbed_reports_are_the_same_at_every_width() {
    obs::set_mode(obs::ObsMode::Trace);
    let mut reports = Vec::new();
    for width in [1, 2, 3] {
        set_worker_budget(width);
        let (cells, report) = traced_grid();

        for (c, (cell, &reps)) in cells.iter().zip(&REPS_OF).enumerate() {
            let want: Vec<(usize, u64)> = (0..reps as u64).map(|rep| (c, rep)).collect();
            assert_eq!(cell, &want, "cell {c} at width {width}");
        }

        // (cell, rep, step) of every event, in absorbed order.
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
        assert_eq!(report.counter(obs::metric("test.grid.jobs")), 10);
        reports.push(report);
    }
    obs::set_mode(obs::ObsMode::Off);

    // Wall-clock spans aside, the merged report is the same object.
    for report in &mut reports {
        report.strip_timings();
    }
    assert_eq!(reports[0], reports[1], "width 1 vs 2");
    assert_eq!(reports[0], reports[2], "width 1 vs 3");
}
