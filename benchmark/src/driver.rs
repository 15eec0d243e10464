//! The parent process: runs a workload's repetitions as child processes
//! for a fixed number of seconds, checks them, and reduces them to the
//! metrics of one run.

use std::process::{Command, Stdio};
use std::time::Instant;

use vcoord::netsim::{Engine, NodeId, Scheduler, World, TICK_MS};

use crate::child::RepReport;
use crate::json::Json;
use crate::spec::{valid_name, MetricSpec, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{Ops, Workload};

/// Where traces and A/A records go, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";

/// Set-up is timed at least this often per run: once per repetition, then
/// topped up with repetitions that stop after set-up.
const MIN_SETUP_SAMPLES: usize = 5;

/// A set-up of milliseconds (the figure workloads') is mostly process
/// start, whose jitter is a large share of it: keep sampling a cheap set-up
/// until this much time has gone into it or this many samples are in.
const CHEAP_SETUP_BUDGET_S: f64 = 0.25;
const MAX_SETUP_SAMPLES: usize = 25;

/// A traced repetition must attribute at least this share of its wall
/// clock to spans around calls into a layer.
const MIN_ATTRIBUTED_SHARE: f64 = 0.95;

/// One reduced metric of a run, with the samples behind it.
pub struct Measured {
    pub spec: &'static MetricSpec,
    pub value: f64,
    /// Per-repetition samples (one entry for a metric that has no
    /// per-repetition reading).
    pub samples: Vec<f64>,
}

/// One run: `--seconds` of repetitions of one workload at one seed.
pub struct RunResult {
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl RunResult {
    /// Every op passed and every metric is a finite number under a valid
    /// name — the condition for printing a result at all.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.printable()
    }

    pub fn printable(&self) -> bool {
        self.metrics
            .iter()
            .all(|m| m.value.is_finite() && valid_name(m.spec.name))
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.spec.name == name)
            .map(|m| m.value)
    }

    /// The contract's result line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let entry = Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.spec.unit.to_string())),
                    ]);
                    (m.spec.name, entry)
                })),
            ),
        ])
    }

    /// One line per metric: name, median, unit, and behind a metric with
    /// several samples their count and the highest percentile that has ten
    /// samples beyond it — or, with too few for any, the quartiles.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for m in &self.metrics {
            let mut line = format!("{:<34} {:>16.6} {}", m.spec.name, m.value, m.spec.unit);
            let n = m.samples.len();
            if let Some((label, q)) = stats::tail_percentile(n) {
                line += &format!("  ({label} {:.6}, n {n})", stats::quantile(&m.samples, q));
            } else if let Some((q1, q3)) = stats::quartiles(&m.samples) {
                line += &format!("  (q1 {q1:.6}, q3 {q3:.6}, n {n})");
            }
            println!("{line}");
        }
        println!(
            "{:<34} {:>16} of {} ops",
            "failed",
            self.failed,
            self.attempted.max(1)
        );
        for p in &self.problems {
            println!("  problem: {p}");
        }
    }
}

/// How a child is asked to run.
enum Mode<'a> {
    Timed,
    SetupOnly,
    Traced { path: &'a str, rep_id: String },
}

/// One finished child.
struct Rep {
    report: Result<RepReport, String>,
    /// Spawn to reaped, as the parent saw it.
    process_s: f64,
}

fn spawn_rep(workload: &Workload, seed: u64, mode: Mode<'_>) -> Rep {
    let started = Instant::now();
    let report = (|| {
        let exe = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["run-one", workload.name, "--seed", &seed.to_string()]);
        match &mode {
            Mode::Timed => {}
            Mode::SetupOnly => {
                cmd.arg("--setup-only");
            }
            Mode::Traced { path, rep_id } => {
                cmd.args(["--trace-out", path, "--rep-id", rep_id]);
            }
        }
        // `output` waits for the child and reaps it.
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child: {e}"))?;
        if !out.status.success() {
            return Err(format!("child ended with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().ok_or("child printed nothing")?;
        RepReport::parse(line)
    })();
    Rep {
        report,
        process_s: started.elapsed().as_secs_f64(),
    }
}

/// Reduces the repetitions of one run.
#[derive(Default)]
struct Tally {
    ops: Ops,
    first: Option<RepReport>,
}

impl Tally {
    /// Count a full repetition's ops, and one more for determinism: same
    /// seed, so the digest and the error must equal the first
    /// repetition's bit for bit. A crashed child fails all its ops.
    fn absorb(&mut self, label: &str, rep: &Rep) -> Option<RepReport> {
        match &rep.report {
            Ok(r) => {
                self.ops.attempted += r.ops_attempted;
                self.ops.failed += r.ops_failed;
                self.ops
                    .problems
                    .extend(r.problems.iter().map(|p| format!("{label}: {p}")));
                let first = self.first.get_or_insert_with(|| r.clone()).clone();
                self.ops.check(
                    r.digest == first.digest && r.rel_err.to_bits() == first.rel_err.to_bits(),
                    || {
                        format!(
                            "{label}: digest {:016x} / rel_err {} differ from the first repetition's {:016x} / {}",
                            r.digest, r.rel_err, first.digest, first.rel_err
                        )
                    },
                );
                Some(r.clone())
            }
            Err(e) => {
                let ops = self.first.as_ref().map_or(0, |f| f.ops_attempted) + 1;
                self.ops.attempted += ops;
                self.ops.failed += ops;
                self.ops.problems.push(format!("{label}: {e}"));
                None
            }
        }
    }
}

/// What a repetition's process cost outside its simulated run: process
/// start, set-up up to the first simulated event, report and teardown.
fn setup_sample(rep: &Rep) -> Option<f64> {
    let r = rep.report.as_ref().ok()?;
    Some(rep.process_s - (r.wall_s - r.setup_s).max(0.0))
}

fn wants_more_setup(samples: &[f64]) -> bool {
    samples.len() < MIN_SETUP_SAMPLES
        || (samples.len() < MAX_SETUP_SAMPLES && samples.iter().sum::<f64>() < CHEAP_SETUP_BUDGET_S)
}

fn end_to_end(name: &str) -> &'static MetricSpec {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

fn measured(spec: &'static MetricSpec, samples: Vec<f64>) -> Measured {
    Measured {
        spec,
        value: if samples.is_empty() {
            f64::NAN
        } else {
            stats::median(&samples)
        },
        samples,
    }
}

/// Whether one more repetition like the last fits in the run's seconds.
fn fits(started: Instant, last_s: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + last_s <= seconds
}

/// An untraced run: the end-to-end metrics.
pub fn run_end_to_end(workload: &Workload, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut reps: Vec<RepReport> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let rep = spawn_rep(workload, seed, Mode::Timed);
        let label = format!("repetition {}", reps.len() + 1);
        reps.extend(tally.absorb(&label, &rep));
        setups.extend(setup_sample(&rep));
        if !fits(started, rep.process_s, seconds) {
            break;
        }
    }
    while !setups.is_empty() && wants_more_setup(&setups) {
        let rep = spawn_rep(workload, seed, Mode::SetupOnly);
        match &rep.report {
            Ok(_) => setups.extend(setup_sample(&rep)),
            Err(e) => {
                tally.ops.check(false, || format!("set-up repetition: {e}"));
                break;
            }
        }
    }

    let column = |f: fn(&RepReport) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let metrics = vec![
        measured(end_to_end("wall_s"), column(|r| r.wall_s)),
        measured(
            end_to_end("updates_per_s"),
            column(|r| r.updates as f64 / r.wall_s),
        ),
        measured(end_to_end("setup_s"), setups),
        measured(end_to_end("peak_rss_mb"), column(|r| r.peak_rss_mb)),
        measured(end_to_end("rel_err"), column(|r| r.rel_err)),
    ];
    RunResult {
        metrics,
        attempted: tally.ops.attempted.max(1),
        failed: tally.ops.failed,
        problems: tally.ops.problems,
    }
}

/// No-op timers rescheduling themselves every tick: the event queue alone.
struct Timers;

impl World for Timers {
    type Payload = ();

    fn on_timer(&mut self, sched: &mut Scheduler<()>, node: NodeId, tag: u64) {
        sched.timer_after(TICK_MS, node, tag);
    }

    fn on_message(&mut self, _: &mut Scheduler<()>, _: NodeId, _: NodeId, _: ()) {}
}

/// Events per host second of the bare engine at the paper's population:
/// 1740 timers over 2000 ticks, well under a second.
fn netsim_events_per_s() -> f64 {
    let mut engine = Engine::new();
    for node in 0..1740 {
        engine.scheduler().timer_at(node as u64 % TICK_MS, node, 0);
    }
    let started = Instant::now();
    let events = engine.run_until(&mut Timers, 2000 * TICK_MS);
    events as f64 / started.elapsed().as_secs_f64()
}

/// A traced run: pairs of one untraced and one traced repetition; the
/// per-layer metrics come from the traced ones, the tracing overhead from
/// the difference.
pub fn run_per_layer(workload: &Workload, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let path = format!("{OUT_DIR}/trace-{}.jsonl", workload.name);
    let mut tally = Tally::default();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, "")) {
        tally
            .ops
            .check(false, || format!("cannot create {path}: {e}"));
    }
    let mut plain: Vec<RepReport> = Vec::new();
    let mut traced: Vec<RepReport> = Vec::new();
    loop {
        let pair = traced.len() + 1;
        let rep = spawn_rep(workload, seed, Mode::Timed);
        let mut pair_s = rep.process_s;
        plain.extend(tally.absorb(&format!("repetition {pair}"), &rep));
        let mode = Mode::Traced {
            path: &path,
            rep_id: format!("t{pair}"),
        };
        let rep = spawn_rep(workload, seed, mode);
        pair_s += rep.process_s;
        if let Some(r) = tally.absorb(&format!("traced repetition {pair}"), &rep) {
            let unattributed = layer(&r, "trace.unattributed_share");
            tally
                .ops
                .check(1.0 - unattributed >= MIN_ATTRIBUTED_SHARE, || {
                    format!("traced repetition {pair}: trace.unattributed_share is {unattributed}")
                });
            let embed = layer(&r, "space.embed_evals");
            tally.ops.check(embed >= 0.0, || {
                format!(
                    "traced repetition {pair}: the sim counts {} more objective evals than obs",
                    -embed
                )
            });
            traced.push(r);
        }
        if !fits(started, pair_s, seconds) {
            break;
        }
    }

    let mut metrics: Vec<Measured> = PER_LAYER
        .iter()
        .map(|m| measured(m, traced.iter().map(|r| layer(r, m.name)).collect()))
        .collect();
    let mut set = |name: &str, value: f64| {
        let m = metrics
            .iter_mut()
            .find(|m| m.spec.name == name)
            .expect("per-layer name");
        m.value = value;
        m.samples = vec![value];
    };
    set("netsim.events_per_s", netsim_events_per_s());
    if !plain.is_empty() && !traced.is_empty() {
        let wall =
            |reps: &[RepReport]| stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        set(
            "obs.trace_overhead_share",
            (wall(&traced) - wall(&plain)) / wall(&plain),
        );
    }
    RunResult {
        metrics,
        attempted: tally.ops.attempted.max(1),
        failed: tally.ops.failed,
        problems: tally.ops.problems,
    }
}

fn layer(report: &RepReport, name: &str) -> f64 {
    report
        .layers
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(digest: u64, ops: u64) -> RepReport {
        RepReport {
            threads: 1,
            wall_s: 2.0,
            setup_s: 0.5,
            updates: 10,
            rel_err: 0.25,
            peak_rss_mb: 70.0,
            ops_attempted: ops,
            ops_failed: 0,
            digest,
            problems: Vec::new(),
            layers: Vec::new(),
        }
    }

    fn rep(report: Result<RepReport, String>) -> Rep {
        Rep {
            report,
            process_s: 2.1,
        }
    }

    #[test]
    fn tally_counts_ops_and_one_determinism_op_per_repetition() {
        let mut t = Tally::default();
        t.absorb("r1", &rep(Ok(report(7, 100))));
        t.absorb("r2", &rep(Ok(report(7, 100))));
        assert_eq!((t.ops.attempted, t.ops.failed), (202, 0));
        t.absorb("r3", &rep(Ok(report(8, 100))));
        assert_eq!((t.ops.attempted, t.ops.failed), (303, 1));
        assert!(t.ops.problems[0].starts_with("r3: digest 0000000000000008"));
        let mut other_err = report(7, 100);
        other_err.rel_err = 0.25 + f64::EPSILON;
        t.absorb("r4", &rep(Ok(other_err)));
        assert_eq!((t.ops.attempted, t.ops.failed), (404, 2));
    }

    #[test]
    fn a_crashed_child_fails_all_its_ops() {
        let mut t = Tally::default();
        t.absorb("r1", &rep(Ok(report(7, 100))));
        assert!(t
            .absorb("r2", &rep(Err("child ended with signal 9".into())))
            .is_none());
        assert_eq!((t.ops.attempted, t.ops.failed), (202, 101));
        let mut t = Tally::default();
        t.absorb("r1", &rep(Err("boom".into())));
        assert_eq!((t.ops.attempted, t.ops.failed), (1, 1));
    }

    #[test]
    fn setup_sample_is_process_time_outside_the_simulated_run() {
        let s = setup_sample(&rep(Ok(report(1, 1)))).unwrap();
        assert!((s - 0.6).abs() < 1e-12);
        let mut only = report(1, 1);
        (only.wall_s, only.setup_s) = (0.0, 0.5);
        assert_eq!(setup_sample(&rep(Ok(only))), Some(2.1));
        assert_eq!(setup_sample(&rep(Err("x".into()))), None);
    }

    #[test]
    fn cheap_setups_are_sampled_more_often() {
        assert!(wants_more_setup(&[0.3; 4]));
        assert!(!wants_more_setup(&[0.3; 5]));
        assert!(wants_more_setup(&[0.002; 24]));
        assert!(!wants_more_setup(&[0.002; 25]));
        assert!(!wants_more_setup(&[0.03; 9]));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let run = RunResult {
            metrics: vec![measured(end_to_end("wall_s"), vec![1.5, 2.5, 2.0])],
            attempted: 12,
            failed: 0,
            problems: Vec::new(),
        };
        assert!(run.correct());
        let doc = Json::parse(&run.to_json().render()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value"), Some(&Json::Num(2.0)));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_non_finite_metric_or_a_failed_op_is_not_correct() {
        let mut run = RunResult {
            metrics: vec![measured(end_to_end("wall_s"), Vec::new())],
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
        };
        assert!(!run.printable() && !run.correct());
        run.metrics = vec![measured(end_to_end("wall_s"), vec![1.0])];
        run.failed = 1;
        assert!(run.printable() && !run.correct());
    }

    #[test]
    fn netsim_probe_counts_every_timer() {
        assert!(netsim_events_per_s() > 1e5);
    }
}
