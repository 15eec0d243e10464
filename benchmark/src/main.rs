//! The repository benchmark. `benchmark/run.sh` builds and runs this; see
//! `benchmark/README.md` for what it measures and why.
//!
//! ```text
//! vcoord-benchmark --workload W --seed N --seconds T --trace 0|1   one run, result JSON last
//! vcoord-benchmark [--seed N] [--seconds T]                        every workload, every metric
//! vcoord-benchmark --aa [--runs K] [--seconds T]                   two interleaved sets, compared
//! vcoord-benchmark run-one W --seed N [...]                        one repetition (child process)
//! ```

mod child;
mod compare;
mod driver;
mod json;
mod layers;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

use driver::RunResult;
use json::Json;
use spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{Workload, WORKLOADS};

/// Default seed of the all-workloads invocation: the goldens' seed.
const DEFAULT_SEED: u64 = 2006;

/// `--name value` pairs and bare flags after the sub-command.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }

    fn workload(&self, name: Option<&str>) -> Result<&'static Workload, String> {
        let name = name.ok_or("no workload named")?;
        workloads::find(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run-one") => run_one(&args),
        Some("print-spec") => {
            println!("{}", benchmark_json());
            Ok(true)
        }
        _ if args.flag("--workload") => one_run(&args),
        _ if args.flag("--aa") => aa(&args),
        _ => every_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vcoord-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_one(args: &Args) -> Result<bool, String> {
    let trace = match (args.value("--trace-out"), args.value("--rep-id")) {
        (Some(path), Some(id)) => Some((path.to_string(), id.to_string())),
        (None, None) => None,
        _ => return Err("--trace-out and --rep-id go together".to_string()),
    };
    let child = child::ChildArgs {
        workload: args.workload(args.0.get(1).map(String::as_str))?,
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        setup_only: args.flag("--setup-only"),
        trace,
    };
    child::run(&child).map(|()| true)
}

fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> RunResult {
    if traced {
        driver::run_per_layer(workload, seed, seconds)
    } else {
        driver::run_end_to_end(workload, seed, seconds)
    }
}

/// The driver's invocation: one workload, one seed, one result line.
fn one_run(args: &Args) -> Result<bool, String> {
    let workload = args.workload(args.value("--workload"))?;
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
    };
    let result = run(workload, seed, seconds, traced);
    result.print_table(&format!(
        "{} seed {seed} ({})",
        workload.name,
        if traced { "traced" } else { "untraced" }
    ));
    if !result.printable() {
        return Err("a metric is not a finite number; no result printed".to_string());
    }
    println!("{}", result.to_json().render());
    Ok(true)
}

/// Every workload untraced, then every workload traced: every metric by
/// name with its unit. Fails on any failed op or unprintable metric.
fn every_workload(args: &Args) -> Result<bool, String> {
    let seed = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let mut ok = true;
    for traced in [false, true] {
        for workload in WORKLOADS {
            let result = run(workload, seed, seconds, traced);
            let kind = if traced {
                "per-layer, traced"
            } else {
                "end-to-end, untraced"
            };
            result.print_table(&format!("{} seed {seed} ({kind})", workload.name));
            ok &= result.correct();
        }
    }
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// Two interleaved sets of runs of this build, compared.
fn aa(args: &Args) -> Result<bool, String> {
    compare::aa(
        args.parsed("--runs", 10)?,
        args.parsed("--seconds", RUN_SECONDS as f64)?,
    )
}

/// `BENCHMARK.json` as the tables in `spec.rs` and `workloads.rs` state it.
fn benchmark_json() -> String {
    let metric = |m: &MetricSpec| {
        let mut fields = vec![
            format!("\"name\": {}", Json::Str(m.name.to_string()).render()),
            format!("\"unit\": {}", Json::Str(m.unit.to_string()).render()),
            format!("\"better\": \"{}\"", m.better.as_str()),
        ];
        fields.extend(m.bound.map(|b| format!("\"bound\": {b}")));
        format!("    {{{}}}", fields.join(", "))
    };
    let list = |specs: &[MetricSpec]| specs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                Json::Str(w.name.to_string()).render(),
                Json::Str(w.why.to_string()).render()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER),
    )
}
