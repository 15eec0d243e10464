//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! figures [IDS...] [--full|--quick|--smoke] [--seed N] [--jobs N] [--out DIR]
//!         [--trace-out DIR] [--progress] [--list]
//!
//!   IDS        figure ids (fig1 .. fig26) or `all` (default: all)
//!   --quick    400 nodes, 3 repetitions (default; minutes)
//!   --full     1740 nodes, 10 repetitions (paper scale; hours)
//!   --smoke    72 nodes, 1 repetition (seconds; sanity only)
//!   --seed N   master seed (default 2006, the paper's year)
//!   --jobs N   figure ids computed concurrently (default: the
//!              VCOORD_THREADS override when set, else 1)
//!   --out DIR  CSV output directory (default ./results)
//!   --trace-out DIR
//!              enable full tracing (`vcoord-obs` in `Trace` mode) and
//!              write one `DIR/<id>.jsonl` trace per figure
//!   --progress heartbeat lines on stderr after each figure, with an ETA
//!              extrapolated from `BENCH_<scale>.json` when present
//!   --list     print the figure index and exit
//! ```
//!
//! Each figure prints as an aligned table and is written to
//! `DIR/<id>.csv`. Shape notes (the qualitative claims the paper makes
//! about each figure) are embedded as `#`-comments. Exit codes: 0 ok, 1
//! unknown figure id, 2 flag errors, 3 an output path that cannot be written.
//!
//! Every figure derives its seeds from `(master seed, figure id)` alone, so
//! `--jobs` changes wall-clock time but never a CSV byte; the writer thread
//! reorders completions so stdout also stays in figure order. Traces are
//! deterministic too: `run_grid` merges per-job observations in (cell,
//! repetition) order, each figure worker drains its own thread-local
//! recorder, and the trace's `run` id is derived from the scale and seed
//! alone, so `--jobs` never changes a JSONL byte either. Wall-clock
//! samples are stripped from traces before rendering (`strip_timings`);
//! `--progress` prints its own to stderr only.
//!
//! Environment (read once, by `vcoord_bench::install_env`): `VCOORD_THREADS`
//! pins every worker pool, `VCOORD_OBS=off|metrics|trace` sets the recording
//! mode when `--trace-out` does not, `VCOORD_LOG` picks the log level.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use vcoord::experiments::{registry, Scale};

struct Args {
    ids: Vec<String>,
    scale: Scale,
    scale_name: &'static str,
    seed: u64,
    jobs: usize,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    progress: bool,
    list: bool,
}

/// Per-figure baseline seconds from `BENCH_<scale>.json` in the working
/// directory, for `--progress` ETAs. Absent file (or figure) degrades to
/// no ETA — progress still prints counts and times.
fn load_baseline(scale_name: &str) -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string(format!("BENCH_{scale_name}.json")) else {
        return BTreeMap::new();
    };
    let Ok(json) = vcoord::obs::json::parse_json(&text) else {
        return BTreeMap::new();
    };
    json.get("figures")
        .and_then(vcoord::obs::json::Json::as_obj)
        .map(|figs| {
            figs.iter()
                .filter_map(|(id, v)| Some((id.clone(), v.as_num()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Report an output path that cannot be written and exit with the
/// bad-input code (3, as `obs-diff` / `obs-report` use it).
fn cannot_write(path: &Path, err: std::io::Error) -> ! {
    eprintln!("figures: cannot write {}: {err}", path.display());
    std::process::exit(3);
}

const USAGE: &str = "usage: figures [IDS...|all] [--quick|--full|--smoke] [--seed N] [--jobs N] [--out DIR] [--trace-out DIR] [--progress] [--list]";

/// `thread_pin` is the `VCOORD_THREADS` pin, the default for `--jobs`.
fn parse_args(thread_pin: Option<usize>) -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut scale = Scale::quick();
    let mut scale_name = "quick";
    let mut seed = 2006u64;
    let mut jobs = thread_pin.unwrap_or(1);
    let mut out = PathBuf::from(vcoord_bench::DEFAULT_OUT_DIR);
    let mut trace_out = None;
    let mut progress = false;
    let mut list = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => {
                scale = Scale::quick();
                scale_name = "quick";
            }
            "--full" => {
                scale = Scale::full();
                scale_name = "full";
            }
            "--smoke" => {
                scale = Scale::smoke();
                scale_name = "smoke";
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--jobs" => {
                jobs = argv
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad job count: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    argv.next().ok_or("--trace-out needs a value")?,
                ));
            }
            "--progress" => progress = true,
            "--list" => list = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            other => ids.push(other.to_string()),
        }
    }
    Ok(Args {
        ids,
        scale,
        scale_name,
        seed,
        jobs,
        out,
        trace_out,
        progress,
        list,
    })
}

fn main() {
    vcoord::netsim::simlog::init();
    let thread_pin = vcoord_bench::install_env();
    let args = match parse_args(thread_pin) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // `--trace-out` forces full tracing, whatever VCOORD_OBS installed.
    if args.trace_out.is_some() {
        vcoord::obs::set_mode(vcoord::obs::ObsMode::Trace);
    }

    if args.list {
        println!("available figures:");
        for id in registry::figure_ids() {
            println!("  {id:<7} {}", registry::describe(id).unwrap_or(""));
        }
        return;
    }

    let requested: Vec<String> = if args.ids.is_empty() || args.ids.iter().any(|i| i == "all") {
        registry::figure_ids()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args.ids.clone()
    };

    // Validate up front so a typo fails fast instead of after an hour of
    // `--full` compute on the ids before it.
    let mut failures = 0;
    let ids: Vec<String> = requested
        .into_iter()
        .filter(|id| {
            let known = registry::describe(id).is_some();
            if !known {
                eprintln!("unknown figure id: {id} (try --list)");
                failures += 1;
            }
            known
        })
        .collect();

    // Before any compute: an unwritable directory fails in milliseconds.
    for dir in std::iter::once(&args.out).chain(&args.trace_out) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(dir, e));
    }
    println!(
        "# vcoord figure harness — scale={} nodes={} reps={} seed={} jobs={}",
        args.scale_name, args.scale.nodes, args.scale.repetitions, args.seed, args.jobs
    );

    let total_start = Instant::now();

    // Split the machine budget among the `--jobs` workers: every figure
    // job sizes its internal pools (repetitions, EvalPlan sweeps) via
    // worker_threads(), so without this cap `jobs × pools` would compound
    // multiplicatively instead of staying at the pinned total.
    if args.jobs > 1 {
        let total = vcoord::metrics::worker_threads();
        vcoord::metrics::parallel::set_worker_budget((total / args.jobs).max(1));
    }

    // Figure compute fans out over `--jobs` workers (each figure already
    // fans repetitions over its own bounded pool); rendering + writing a
    // CSV is serial I/O on a dedicated writer thread so compute overlaps
    // output. Per-figure seeding makes the CSV bytes independent of the
    // completion order; the writer's reorder buffer keeps stdout in figure
    // order too.
    //
    // One computed figure: its result, compute seconds and (traced) report.
    type Done = (
        vcoord::experiments::FigureResult,
        f64,
        Option<vcoord::obs::ObsReport>,
    );
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Done)>();
    let out_dir = args.out.clone();
    let trace_dir = args.trace_out.clone();
    // Wall-clock-free run id: reruns of the same scale+seed are
    // byte-identical, which is what the golden-trace tests compare.
    let run_id = format!("{}-seed{}", args.scale_name, args.seed);
    let scale_name = args.scale_name;
    let seed = args.seed;
    let progress = args.progress;
    let writer_ids: Vec<String> = ids.clone();
    let writer = std::thread::spawn(move || {
        let baseline = if progress {
            load_baseline(scale_name)
        } else {
            BTreeMap::new()
        };
        let mut pending: BTreeMap<usize, Done> = BTreeMap::new();
        let mut next = 0usize;
        for (idx, done) in rx {
            pending.insert(idx, done);
            while let Some((fig, compute_secs, report)) = pending.remove(&next) {
                println!("{}", fig.to_table());
                let path = out_dir.join(format!("{}.csv", fig.id));
                std::fs::write(&path, fig.to_csv()).unwrap_or_else(|e| cannot_write(&path, e));
                if let (Some(dir), Some(report)) = (&trace_dir, report) {
                    let meta = vcoord::obs::TraceMeta {
                        run: run_id.clone(),
                        fig: fig.id.clone(),
                        seed,
                        scale: scale_name.to_string(),
                    };
                    let trace_path = dir.join(format!("{}.jsonl", fig.id));
                    std::fs::write(&trace_path, vcoord::obs::render_jsonl(&meta, &report))
                        .unwrap_or_else(|e| cannot_write(&trace_path, e));
                    println!("wrote {}", trace_path.display());
                }
                println!(
                    "wrote {} ({} rows) in {compute_secs:.1}s\n",
                    path.display(),
                    fig.rows.len(),
                );
                next += 1;
                if progress {
                    // ETA extrapolates the committed baseline's per-figure
                    // seconds by this run's observed pace so far; without a
                    // baseline (or on the last figure) only counts print.
                    let done: f64 = writer_ids[..next]
                        .iter()
                        .filter_map(|id| baseline.get(id))
                        .sum();
                    let left: f64 = writer_ids[next..]
                        .iter()
                        .filter_map(|id| baseline.get(id))
                        .sum();
                    let elapsed = total_start.elapsed().as_secs_f64();
                    if done > 0.0 && next < writer_ids.len() {
                        eprintln!(
                            "[{next}/{}] {} in {compute_secs:.1}s — eta {:.0}s",
                            writer_ids.len(),
                            fig.id,
                            elapsed / done * left,
                        );
                    } else {
                        eprintln!(
                            "[{next}/{}] {} in {compute_secs:.1}s",
                            writer_ids.len(),
                            fig.id,
                        );
                    }
                }
            }
        }
    });

    let workers = args.jobs.min(ids.len()).max(1);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let ids = &ids;
            let cursor = &cursor;
            let scale = &args.scale;
            let seed = args.seed;
            let traced = args.trace_out.is_some();
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(id) = ids.get(idx) else { break };
                let start = Instant::now();
                // Each worker computes one figure at a time, so its
                // thread-local recorder (plus the per-job merges
                // absorbed by run_grid) holds exactly that figure's
                // observations between reset() and drain().
                if traced {
                    vcoord::obs::reset();
                }
                // Stamp the compute time here: on the writer thread it
                // would also count time spent queued behind earlier
                // figures' I/O.
                let fig = registry::run_figure(id, scale, seed).expect("id validated above");
                let wall_s = start.elapsed().as_secs_f64();
                // Wall-clock histograms are nondeterministic; everything
                // else in the report is seed-derived, so stripping them
                // keeps the JSONL byte-stable across reruns and --jobs.
                let report = traced.then(|| {
                    let mut report = vcoord::obs::drain();
                    report.strip_timings();
                    report
                });
                tx.send((idx, (fig, wall_s, report)))
                    .expect("writer thread alive");
            });
        }
    });
    drop(tx);
    writer.join().expect("writer thread panicked");

    println!(
        "# done: {} figures in {:.1}s",
        ids.len(),
        total_start.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
