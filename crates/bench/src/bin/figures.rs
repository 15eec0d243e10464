//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! figures [IDS...] [--full|--quick|--smoke] [--seed N] [--jobs N] [--out DIR]
//!         [--trace-out DIR] [--profile DIR] [--progress] [--list]
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
//!   --profile DIR
//!              enable metrics (at least) and write `DIR/profile.jsonl`:
//!              one per-figure phase-attribution line (netsim vs Simplex
//!              vs defense vs EvalPlan vs harness overhead, from the span
//!              sites). Wall-clock data: non-golden by design
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
//! alone, so `--jobs` never changes a JSONL byte either. The profile and
//! progress planes deliberately live *outside* that guarantee: wall-clock
//! samples are stripped from traces before rendering (`strip_timings`) and
//! only ever reach the separate `profile.jsonl` / stderr, so compiling the
//! profiling in — or running with it on — cannot move a golden byte.

use std::collections::BTreeMap;
use std::io::Write;
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
    profile: Option<PathBuf>,
    progress: bool,
    list: bool,
}

/// Per-figure wall-clock attribution, computed from the span histograms of
/// one figure's (pre-`strip_timings`) report. All values in seconds.
struct ProfileRow {
    wall_s: f64,
    netsim_s: f64,
    simplex_s: f64,
    defense_s: f64,
    eval_plan_s: f64,
    harness_s: f64,
}

impl ProfileRow {
    /// Attribute `wall_s` across phases. The span sites nest — Simplex
    /// fits and defense inspections run inside the sim engines, the
    /// engines inside `figure.rep_ns` — so inner phases are subtracted
    /// from their enclosing spans (clamped at 0: timer jitter can make a
    /// sum of inner spans exceed the outer read).
    fn new(report: &vcoord::obs::ObsReport, wall_s: f64) -> ProfileRow {
        let ns = |name: &str| -> f64 {
            report
                .hists()
                .iter()
                .find(|(id, _)| vcoord::obs::metric_name(*id) == name)
                .map(|(_, h)| h.sum / 1e9)
                .unwrap_or(0.0)
        };
        let rep = ns("figure.rep_ns");
        let engines = ns("vivaldi.run_ticks_ns") + ns("nps.run_rounds_ns") + ns("nps.embed_ns");
        let simplex_s = ns("simplex.fit_ns");
        let defense_s = ns("defense.inspect_ns");
        let eval_plan_s = ns("evalplan.worker_ns");
        ProfileRow {
            wall_s,
            netsim_s: (engines - simplex_s - defense_s).max(0.0),
            simplex_s,
            defense_s,
            // EvalPlan chunks run on pool threads; their summed time can
            // exceed the coordinator's wall wait when the pool is wider
            // than one, in which case harness overhead clamps to zero.
            eval_plan_s,
            harness_s: (rep - engines - eval_plan_s).max(0.0),
        }
    }

    fn render(&self, fig: &str) -> String {
        format!(
            "{{\"type\":\"profile\",\"fig\":\"{fig}\",\"wall_s\":{:.6},\"netsim_s\":{:.6},\"simplex_s\":{:.6},\"defense_s\":{:.6},\"eval_plan_s\":{:.6},\"harness_s\":{:.6}}}\n",
            self.wall_s,
            self.netsim_s,
            self.simplex_s,
            self.defense_s,
            self.eval_plan_s,
            self.harness_s,
        )
    }
}

/// Per-figure baseline seconds from `BENCH_<scale>.json` in the working
/// directory, for `--progress` ETAs. Absent file (or figure) degrades to
/// no ETA — progress still prints counts and times.
fn load_baseline(scale_name: &str) -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string(format!("BENCH_{scale_name}.json")) else {
        return BTreeMap::new();
    };
    let Ok(json) = vcoord::obs::diff::parse_json(&text) else {
        return BTreeMap::new();
    };
    json.get("figures")
        .and_then(vcoord::obs::diff::Json::as_obj)
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

fn parse_args() -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut scale = Scale::quick();
    let mut scale_name = "quick";
    let mut seed = 2006u64;
    let mut jobs = vcoord::metrics::parallel::env_threads().unwrap_or(1);
    let mut out = PathBuf::from(vcoord_bench::DEFAULT_OUT_DIR);
    let mut trace_out = None;
    let mut profile = None;
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
            "--profile" => {
                profile = Some(PathBuf::from(argv.next().ok_or("--profile needs a value")?));
            }
            "--progress" => progress = true,
            "--list" => list = true,
            "--help" | "-h" => {
                return Err("usage: figures [IDS...|all] [--quick|--full|--smoke] [--seed N] [--jobs N] [--out DIR] [--trace-out DIR] [--profile DIR] [--progress] [--list]".into());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
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
        profile,
        progress,
        list,
    })
}

fn main() {
    vcoord::netsim::simlog::init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // `--trace-out` forces full tracing; otherwise honor VCOORD_OBS so the
    // aggregate/metrics planes can be flipped on without trace files.
    if args.trace_out.is_some() {
        vcoord::obs::set_mode(vcoord::obs::ObsMode::Trace);
    } else {
        vcoord::obs::init_from_env();
    }
    // `--profile` needs the span histograms, so it upgrades Off to Metrics;
    // an explicit Trace (or VCOORD_OBS=metrics) choice is left alone.
    if args.profile.is_some() && matches!(vcoord::obs::mode(), vcoord::obs::ObsMode::Off) {
        vcoord::obs::set_mode(vcoord::obs::ObsMode::Metrics);
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
    for dir in std::iter::once(&args.out)
        .chain(&args.trace_out)
        .chain(&args.profile)
    {
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
    type Done = (
        usize,
        vcoord::experiments::FigureResult,
        f64,
        Option<vcoord::obs::ObsReport>,
        Option<ProfileRow>,
    );
    let (tx, rx) = std::sync::mpsc::channel::<Done>();
    let out_dir = args.out.clone();
    let trace_dir = args.trace_out.clone();
    let profile_dir = args.profile.clone();
    // Wall-clock-free run id: reruns of the same scale+seed are
    // byte-identical, which is what the golden-trace tests compare.
    let run_id = format!("{}-seed{}", args.scale_name, args.seed);
    let scale_name = args.scale_name;
    let seed = args.seed;
    let jobs = args.jobs;
    let progress = args.progress;
    let writer_ids: Vec<String> = ids.clone();
    let writer = std::thread::spawn(move || {
        let mut profile_file = profile_dir.map(|dir| {
            let path = dir.join("profile.jsonl");
            let mut file = std::fs::File::create(&path).unwrap_or_else(|e| cannot_write(&path, e));
            writeln!(
                file,
                "{{\"type\":\"meta\",\"run\":\"{run_id}\",\"scale\":\"{scale_name}\",\"seed\":{seed},\"jobs\":{jobs}}}"
            )
            .unwrap_or_else(|e| cannot_write(&path, e));
            (path, file)
        });
        let baseline = if progress {
            load_baseline(scale_name)
        } else {
            BTreeMap::new()
        };
        let mut pending: BTreeMap<
            usize,
            (
                vcoord::experiments::FigureResult,
                f64,
                Option<vcoord::obs::ObsReport>,
                Option<ProfileRow>,
            ),
        > = BTreeMap::new();
        let mut next = 0usize;
        for (idx, fig, compute_secs, report, prof) in rx {
            pending.insert(idx, (fig, compute_secs, report, prof));
            while let Some((fig, compute_secs, report, prof)) = pending.remove(&next) {
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
                if let (Some((path, file)), Some(prof)) = (&mut profile_file, prof) {
                    file.write_all(prof.render(&fig.id).as_bytes())
                        .unwrap_or_else(|e| cannot_write(path, e));
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
        if let Some((path, _)) = &profile_file {
            println!("wrote {}", path.display());
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
            let profiled = args.profile.is_some();
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(id) = ids.get(idx) else { break };
                let start = Instant::now();
                // Each worker computes one figure at a time, so its
                // thread-local recorder (plus the per-job merges
                // absorbed by run_grid) holds exactly that figure's
                // observations between reset() and drain().
                if traced || profiled {
                    vcoord::obs::reset();
                }
                // Stamp the compute time here: on the writer thread it
                // would also count time spent queued behind earlier
                // figures' I/O.
                let fig = registry::run_figure(id, scale, seed).expect("id validated above");
                let wall_s = start.elapsed().as_secs_f64();
                let mut report = (traced || profiled).then(vcoord::obs::drain);
                // Attribute phases from the raw report: the profile plane
                // is the one consumer of the timing spans.
                let prof = match (&report, profiled) {
                    (Some(r), true) => Some(ProfileRow::new(r, wall_s)),
                    _ => None,
                };
                // Wall-clock histograms are nondeterministic; everything
                // else in the report is seed-derived, so stripping them
                // keeps the JSONL byte-stable across reruns and --jobs.
                if let Some(r) = &mut report {
                    r.strip_timings();
                }
                tx.send((idx, fig, wall_s, report.filter(|_| traced), prof))
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
