//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! figures [IDS...] [--full|--quick|--smoke] [--seed N] [--out DIR]
//!         [--trace-out DIR] [--progress] [--list]
//!
//!   IDS        figure ids (fig1 .. fig26) or `all` (default: all)
//!   --quick    400 nodes, 3 repetitions (default; minutes)
//!   --full     1740 nodes, 10 repetitions (paper scale; hours)
//!   --smoke    72 nodes, 1 repetition (seconds; sanity only)
//!   --seed N   master seed (default 2006, the paper's year)
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
//! The ids are computed one after the other on the main thread; the one
//! pool of a run is the figure's own job grid (`run_grid`), which gets the
//! whole worker budget. Every figure derives its seeds from `(master seed,
//! figure id)` alone, so the width of that pool changes wall-clock time but
//! never a CSV byte. Traces are deterministic too: the grid merges per-job
//! observations in its fixed job order and the trace's `run`
//! id is derived from the scale and seed alone. Wall-clock samples are
//! stripped from traces before rendering (`strip_timings`); `--progress`
//! prints its own to stderr only.
//!
//! Environment (read once, by `vcoord_bench::install_env`): `VCOORD_THREADS`
//! pins the worker budget (reported as `threads=` in the header line),
//! `VCOORD_OBS=off|metrics|trace` sets the recording mode when `--trace-out`
//! does not, `VCOORD_LOG` picks the log level.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vcoord::experiments::{registry, Scale};

struct Args {
    ids: Vec<String>,
    scale: Scale,
    scale_name: &'static str,
    seed: u64,
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

const USAGE: &str = "usage: figures [IDS...|all] [--quick|--full|--smoke] [--seed N] [--out DIR] [--trace-out DIR] [--progress] [--list]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        scale: Scale::quick(),
        scale_name: "quick",
        seed: 2006,
        out: PathBuf::from(vcoord_bench::DEFAULT_OUT_DIR),
        trace_out: None,
        progress: false,
        list: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => (args.scale, args.scale_name) = (Scale::quick(), "quick"),
            "--full" => (args.scale, args.scale_name) = (Scale::full(), "full"),
            "--smoke" => (args.scale, args.scale_name) = (Scale::smoke(), "smoke"),
            "--seed" => {
                args.seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--out" => {
                args.out = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(
                    argv.next().ok_or("--trace-out needs a value")?,
                ));
            }
            "--progress" => args.progress = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            other => args.ids.push(other.to_string()),
        }
    }
    Ok(args)
}

fn main() {
    vcoord::netsim::simlog::init();
    vcoord_bench::install_env();
    let args = match parse_args() {
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

    let requested: Vec<&str> = if args.ids.is_empty() || args.ids.iter().any(|i| i == "all") {
        registry::figure_ids()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };

    // Validate up front so a typo fails fast instead of after an hour of
    // `--full` compute on the ids before it.
    let mut failures = 0;
    let ids: Vec<&str> = requested
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
        "# vcoord figure harness — scale={} nodes={} reps={} seed={} threads={}",
        args.scale_name,
        args.scale.nodes,
        args.scale.repetitions,
        args.seed,
        vcoord::metrics::worker_threads()
    );

    let total_start = Instant::now();
    let baseline = if args.progress {
        load_baseline(args.scale_name)
    } else {
        BTreeMap::new()
    };
    // Wall-clock-free run id: reruns of the same scale+seed are
    // byte-identical, which is what the golden-trace tests compare.
    let run_id = format!("{}-seed{}", args.scale_name, args.seed);

    for (idx, id) in ids.iter().enumerate() {
        let start = Instant::now();
        // `run_grid` absorbs its workers' per-job reports into this
        // thread's recorder, so between reset() and drain() it holds
        // exactly this figure's observations.
        if args.trace_out.is_some() {
            vcoord::obs::reset();
        }
        let Some(fig) = registry::run_figure(id, &args.scale, args.seed) else {
            // Every id was validated above; were one missed, it exits as
            // any unknown id does, not as a panic.
            eprintln!("unknown figure id: {id} (try --list)");
            std::process::exit(1);
        };
        let compute_secs = start.elapsed().as_secs_f64();
        // Wall-clock histograms are nondeterministic; everything else in
        // the report is seed-derived, so stripping them keeps the JSONL
        // byte-stable across reruns and pool widths.
        let report = args.trace_out.is_some().then(|| {
            let mut report = vcoord::obs::drain();
            report.strip_timings();
            report
        });
        println!("{}", fig.to_table());
        let path = args.out.join(format!("{id}.csv"));
        std::fs::write(&path, fig.to_csv()).unwrap_or_else(|e| cannot_write(&path, e));
        if let (Some(dir), Some(report)) = (&args.trace_out, report) {
            let meta = vcoord::obs::TraceMeta {
                run: run_id.clone(),
                fig: fig.id.clone(),
                seed: args.seed,
                scale: args.scale_name.to_string(),
            };
            let trace_path = dir.join(format!("{id}.jsonl"));
            std::fs::write(&trace_path, vcoord::obs::render_jsonl(&meta, &report))
                .unwrap_or_else(|e| cannot_write(&trace_path, e));
            println!("wrote {}", trace_path.display());
        }
        println!(
            "wrote {} ({} rows) in {compute_secs:.1}s\n",
            path.display(),
            fig.rows.len(),
        );
        if args.progress {
            // ETA extrapolates the committed baseline's per-figure seconds
            // by this run's observed pace so far; without a baseline (or on
            // the last figure) only counts print.
            let next = idx + 1;
            let secs_of =
                |ids: &[&str]| -> f64 { ids.iter().filter_map(|&id| baseline.get(id)).sum() };
            let (done, left) = (secs_of(&ids[..next]), secs_of(&ids[next..]));
            let eta = if done > 0.0 && next < ids.len() {
                let elapsed = total_start.elapsed().as_secs_f64();
                format!(" — eta {:.0}s", elapsed / done * left)
            } else {
                String::new()
            };
            eprintln!("[{next}/{}] {id} in {compute_secs:.1}s{eta}", ids.len());
        }
    }

    println!(
        "# done: {} figures in {:.1}s",
        ids.len(),
        total_start.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
