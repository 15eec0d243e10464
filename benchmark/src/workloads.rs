//! The six workloads, as run by one child process for one repetition.
//!
//! Everything here goes through the program's public API (the *benchmark
//! surface* listed in README.md). The sim drivers mirror the cadence of the
//! figure harness in `vcoord::experiments` — converge cleanly, inject,
//! sample the error on a fixed plan — without calling it, because that
//! harness is what ROADMAP direction 2 rewrites.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vcoord::experiments::{figure_ids, run_figure, FigureResult, Scale};
use vcoord::netsim::TICK_MS;
use vcoord::prelude::*;

use crate::spans::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct VivaldiSpec {
    pub nodes: usize,
    pub clean_ticks: u64,
    pub attack_ticks: u64,
    /// Frog-boiling attackers against a drift-cap defense under churn and
    /// loss bursts, instead of undefended disorder.
    pub defended_chaos: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct NpsSpec {
    pub nodes: usize,
    pub clean_rounds: u64,
    /// 0: no adversary at all.
    pub attack_rounds: u64,
    pub sample_every: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Vivaldi(VivaldiSpec),
    Nps(NpsSpec),
    SuiteSmoke,
    Fig15Pool,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Worker-pool budget on a machine with at least that many cores: 1 on
    /// the four sim workloads (single-thread kernels and engines), 2 on the
    /// figure workloads, whose pools are the point.
    pub max_threads: usize,
    pub kind: Kind,
}

impl Workload {
    /// `min(max_threads, nproc)`: never more runnable threads than cores.
    pub fn thread_budget(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.max_threads.min(cores)
    }
}

impl Kind {
    /// Steps between two error samples, which per-tick and per-round
    /// statistics divide a step span by.
    pub fn sample_every(&self) -> u64 {
        match self {
            Kind::Vivaldi(_) => VIVALDI_SAMPLE_EVERY,
            Kind::Nps(spec) => spec.sample_every,
            Kind::SuiteSmoke | Kind::Fig15Pool => 1,
        }
    }
}

/// Vivaldi error-sampling interval, the `Scale::full()` cadence.
const VIVALDI_SAMPLE_EVERY: u64 = 25;
/// `EvalPlan` parameters of `Scale::full()`: all pairs up to 256 nodes,
/// 128 sampled peers above.
const EVAL_ALL_PAIRS: usize = 256;
const EVAL_PEERS: usize = 128;
/// The paper's malicious share for its headline curves.
const ATTACK_FRACTION: f64 = 0.30;
/// The seed `results/*.csv` were recorded at. Both figure workloads run
/// their figures at it: the program derives every topology from a figure's
/// seed, and at 72–400 nodes the accuracy a figure reports swings by tens
/// of percent between seeds — no bound could tell a regression from that.
const GOLDEN_SEED: u64 = 2006;
/// The sim workloads' one latency data set. The paper measures everything
/// on one King matrix and repeats over the random choices; likewise the
/// topology is synthesised from this pinned seed and the workload seed
/// drives neighbour sets, probe phases, attacker selection and fault
/// draws. (Across topologies the converged error itself moves by 10–17 %.)
const TOPOLOGY_SEED: u64 = 2006;
/// Where the committed golden CSVs live, relative to the repository root
/// (the directory the benchmark is run from).
const GOLDEN_DIR: &str = "results";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "vivaldi-paper",
        why: "1740-node Vivaldi, clean then 30% disorder attackers: vivaldi+netsim+attackkit carry it and no Simplex runs, so NPS/space work must not move it",
        max_threads: 1,
        kind: Kind::Vivaldi(VivaldiSpec {
            nodes: 1740,
            clean_ticks: 1000,
            attack_ticks: 1500,
            defended_chaos: false,
        }),
    },
    Workload {
        name: "vivaldi-defended-chaos",
        why: "same sim with frog-boiling attackers, a drift-cap defense, churn and loss bursts: every sample passes Defense::inspect and the fault layer, which only this workload pays for",
        max_threads: 1,
        kind: Kind::Vivaldi(VivaldiSpec {
            nodes: 1740,
            clean_ticks: 500,
            attack_ticks: 750,
            defended_chaos: true,
        }),
    },
    Workload {
        name: "nps-paper",
        why: "1740-node NPS (8-D, 3 layers, security on), clean then 30% disorder attackers: filtered references force cold Simplex re-fits, so kernel-level space work pays here",
        max_threads: 1,
        kind: Kind::Nps(NpsSpec {
            nodes: 1740,
            clean_rounds: 16,
            attack_rounds: 20,
            sample_every: 2,
        }),
    },
    Workload {
        name: "nps-steady",
        why: "800-node NPS with no adversary: stable reference sets and a 5 MB matrix, so warm starts, term caches and duplicate-fit skips pay here and barely on nps-paper",
        max_threads: 1,
        kind: Kind::Nps(NpsSpec {
            nodes: 800,
            clean_rounds: 80,
            attack_rounds: 0,
            sample_every: 5,
        }),
    },
    Workload {
        name: "suite-smoke",
        why: "all 49 figures at smoke scale, each CSV byte-compared with results/: what CI and users run, the only path through core::experiments and every attack/defense/chaos family",
        max_threads: 2,
        kind: Kind::SuiteSmoke,
    },
    Workload {
        name: "fig15-pool-2t",
        why: "fig15 with 400 nodes x 3 repetitions x 4 cells on two workers: the only workload where the repetition pool's scheduling decides the wall clock",
        max_threads: 2,
        kind: Kind::Fig15Pool,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Checked operations of one repetition. Each is one thing that must hold
/// for the output to be correct; a failure keeps its reason.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// What one repetition measured.
#[derive(Default)]
pub struct Outcome {
    /// From before topology synthesis (or golden load) to after the last
    /// error sample (or CSV compare). 0 for a set-up-only repetition.
    pub wall_s: f64,
    /// The part of `wall_s` before the first simulated event.
    pub setup_s: f64,
    /// Simulated coordinate updates on sim workloads; CSV cells produced on
    /// figure workloads (see README.md, `updates_per_s`).
    pub updates: u64,
    /// The accuracy figure a user of this workload reads (README.md).
    pub rel_err: f64,
    pub ops: Ops,
    /// Digest of the final coordinates / of every CSV byte.
    pub digest: u64,
    /// Per-layer metrics read straight off the sims' public counter
    /// structs; they overwrite what the obs report says under that name.
    pub counts: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// A repetition that stopped after set-up.
    fn setup_only(setup_s: f64) -> Outcome {
        Outcome {
            setup_s,
            ..Outcome::default()
        }
    }
}

/// FNV-1a: sensitive to every bit and to order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn coords(&mut self, coords: &[Coord]) {
        for c in coords {
            for x in c.vec.iter().chain(std::iter::once(&c.height)) {
                self.bytes(&x.to_bits().to_le_bytes());
            }
        }
    }
}

/// Pair distances one sweep of a plan over `nodes` evaluates (computed
/// from the plan's construction rule, not counted by the program).
fn plan_pair_dists(nodes: usize) -> u64 {
    let peers = if nodes <= EVAL_ALL_PAIRS {
        nodes.saturating_sub(1)
    } else {
        EVAL_PEERS.min(nodes - 1)
    };
    (nodes * peers) as u64
}

/// Samples the system-wide error through `EvalPlan`, one checked op each.
struct Sampler<'t> {
    tr: &'t Tracer,
    ops: Ops,
    pair_dists: u64,
    last: f64,
}

impl<'t> Sampler<'t> {
    fn new(tr: &'t Tracer) -> Sampler<'t> {
        Sampler {
            tr,
            ops: Ops::default(),
            pair_dists: 0,
            last: f64::NAN,
        }
    }

    fn sample(
        &mut self,
        plan: &EvalPlan,
        coords: &[Coord],
        space: &Space,
        matrix: &RttMatrix,
        at: u64,
    ) {
        self.pair_dists += plan_pair_dists(plan.nodes().len());
        let err = self.tr.span("metrics.eval", || {
            plan.avg_error_with(coords, space, matrix, 1)
        });
        self.ops
            .check(err.is_finite(), || format!("error sample at {at} is {err}"));
        self.last = err;
    }
}

pub fn run(workload: &Workload, seed: u64, tr: &Tracer, setup_only: bool) -> Outcome {
    match workload.kind {
        Kind::Vivaldi(spec) => run_vivaldi(&spec, seed, tr, setup_only),
        Kind::Nps(spec) => run_nps(&spec, seed, tr, setup_only),
        Kind::SuiteSmoke => run_suite_smoke(seed, tr, setup_only),
        Kind::Fig15Pool => run_fig15_pool(tr, setup_only),
    }
}

fn topology(nodes: usize, tr: &Tracer) -> RttMatrix {
    tr.span("topo.generate", || {
        KingLike::new(KingLikeConfig::with_nodes(nodes))
            .generate(&mut SeedStream::new(TOPOLOGY_SEED).rng("topo"))
    })
}

fn run_vivaldi(spec: &VivaldiSpec, seed: u64, tr: &Tracer, setup_only: bool) -> Outcome {
    let start = Instant::now();
    let seeds = SeedStream::new(seed);
    let matrix = topology(spec.nodes, tr);
    let mut sim = tr.span("vivaldi.new", || {
        VivaldiSim::new(matrix, VivaldiConfig::default(), &seeds)
    });
    let mut plan_rng = seeds.rng("eval-plan");
    let mut build_plan = |nodes: &[usize]| {
        tr.span("metrics.plan_build", || {
            EvalPlan::with_params(nodes, EVAL_ALL_PAIRS, EVAL_PEERS, &mut plan_rng)
        })
    };
    let all: Vec<usize> = (0..spec.nodes).collect();
    let plan_all = build_plan(&all);
    let setup_s = start.elapsed().as_secs_f64();
    if setup_only {
        return Outcome::setup_only(setup_s);
    }

    let mut sampler = Sampler::new(tr);
    let advance = |sim: &mut VivaldiSim, sampler: &mut Sampler<'_>, plan: &EvalPlan| {
        tr.span("vivaldi.step", || sim.run_ticks(VIVALDI_SAMPLE_EVERY));
        sampler.sample(
            plan,
            sim.coords(),
            sim.space(),
            sim.matrix(),
            sim.now_ticks(),
        );
    };
    for _ in 0..spec.clean_ticks / VIVALDI_SAMPLE_EVERY {
        advance(&mut sim, &mut sampler, &plan_all);
    }
    let rel_err = sampler.last;

    // Injection and, in the same instant, defense and fault deployment: the
    // harness protocol (a converged system absorbs a fresh attack).
    let plan_honest = tr.span("attack.inject", || {
        let attackers = sim.pick_attackers(ATTACK_FRACTION);
        if spec.defended_chaos {
            sim.inject_adversary(&attackers, Box::new(FrogBoiling::default()));
            sim.deploy_defense(Box::new(DriftCap::default()));
            sim.install_chaos(
                ChaosPlan::with_seed(seed ^ 0x00C1_1A05)
                    .churn_wave(spec.nodes, 0.2, 10 * TICK_MS, 30 * TICK_MS)
                    .bursts(BurstModel::mild()),
            );
        } else {
            sim.inject_adversary(&attackers, Box::new(VivaldiDisorder::default()));
        }
        build_plan(&sim.honest_nodes())
    });
    for _ in 0..spec.attack_ticks / VIVALDI_SAMPLE_EVERY {
        advance(&mut sim, &mut sampler, &plan_honest);
    }

    let mut digest = Digest::new();
    tr.span("digest", || digest.coords(sim.coords()));
    let wall_s = start.elapsed().as_secs_f64();

    let c = sim.counters();
    let mut counts = vec![
        ("topo.matrix_mb", (spec.nodes * spec.nodes * 8) as f64 / 1e6),
        ("vivaldi.samples_applied", c.samples_applied as f64),
        ("vivaldi.probes_sent", c.probes_sent as f64),
        ("vivaldi.probes_lost", c.probes_lost as f64),
        ("attackkit.lies_served", c.lies_served as f64),
        ("metrics.pair_dists", sampler.pair_dists as f64),
    ];
    if let Some(d) = sim.defense_stats() {
        counts.extend([
            ("defense.inspects", d.total() as f64),
            (
                "defense.reject_share",
                d.rejected as f64 / d.total().max(1) as f64,
            ),
            ("defense.bans", d.bans as f64),
            ("defense.reinstated", d.reinstated as f64),
            ("defense.quarantined", d.quarantined as f64),
        ]);
    }
    if let Some(k) = sim.chaos_counters() {
        counts.extend([
            ("chaos.crashes", k.crashes as f64),
            ("chaos.timeouts", k.timeouts as f64),
            ("chaos.retries", k.retries as f64),
            ("chaos.evictions", k.evictions as f64),
            ("chaos.burst_losses", k.burst_losses as f64),
        ]);
    }
    Outcome {
        wall_s,
        setup_s,
        updates: c.samples_applied,
        rel_err,
        ops: sampler.ops,
        digest: digest.0,
        counts,
    }
}

fn run_nps(spec: &NpsSpec, seed: u64, tr: &Tracer, setup_only: bool) -> Outcome {
    let start = Instant::now();
    let seeds = SeedStream::new(seed);
    let matrix = topology(spec.nodes, tr);
    let mut sim = tr.span("nps.new", || {
        NpsSim::new(matrix, NpsConfig::default(), &seeds)
    });
    let mut plan_rng = seeds.rng("eval-plan");
    let mut build_plan = |nodes: &[usize]| {
        tr.span("metrics.plan_build", || {
            EvalPlan::with_params(nodes, EVAL_ALL_PAIRS, EVAL_PEERS, &mut plan_rng)
        })
    };
    let setup_s = start.elapsed().as_secs_f64();
    if setup_only {
        return Outcome::setup_only(setup_s);
    }

    // Clean phase: joins are staggered, so the evaluated population grows
    // and the plan is rebuilt at every sample, as the harness does.
    let mut sampler = Sampler::new(tr);
    for _ in 0..spec.clean_rounds / spec.sample_every {
        tr.span("nps.step", || sim.run_rounds(spec.sample_every));
        let eval = sim.eval_nodes();
        if eval.len() < 8 {
            continue; // joins still in progress
        }
        let plan = build_plan(&eval);
        sampler.sample(
            &plan,
            sim.coords(),
            sim.space(),
            sim.matrix(),
            sim.now_rounds(),
        );
    }
    let rel_err = sampler.last;

    if spec.attack_rounds > 0 {
        let plan_honest = tr.span("attack.inject", || {
            let attackers = sim.pick_attackers(ATTACK_FRACTION);
            sim.inject_adversary(&attackers, Box::new(NpsSimpleDisorder::default()));
            build_plan(&sim.eval_nodes())
        });
        for _ in 0..spec.attack_rounds / spec.sample_every {
            tr.span("nps.step", || sim.run_rounds(spec.sample_every));
            sampler.sample(
                &plan_honest,
                sim.coords(),
                sim.space(),
                sim.matrix(),
                sim.now_rounds(),
            );
        }
    }

    let mut digest = Digest::new();
    tr.span("digest", || digest.coords(sim.coords()));
    let wall_s = start.elapsed().as_secs_f64();

    let c = sim.counters();
    let counts = vec![
        ("topo.matrix_mb", (spec.nodes * spec.nodes * 8) as f64 / 1e6),
        ("nps.positionings", c.positionings as f64),
        ("nps.skipped_rounds", c.skipped_rounds as f64),
        ("nps.refs_filtered", c.refs_filtered as f64),
        ("nps.refs_replaced", c.refs_replaced as f64),
        ("attackkit.lies_served", c.lies_served as f64),
        ("space.objective_evals", c.objective_evals as f64),
        ("metrics.pair_dists", sampler.pair_dists as f64),
    ];
    Outcome {
        wall_s,
        setup_s,
        updates: c.positionings,
        rel_err,
        ops: sampler.ops,
        digest: digest.0,
        counts,
    }
}

/// Runs one figure inside a span, turning a panic or an unknown id into
/// `None` (one failed op for the caller) instead of a dead child.
fn figure(id: &str, scale: &Scale, seed: u64, tr: &Tracer) -> Option<FigureResult> {
    tr.span_detail("core.run_figure", id, || {
        catch_unwind(AssertUnwindSafe(|| run_figure(id, scale, seed)))
            .ok()
            .flatten()
    })
}

fn cells(fig: &FigureResult) -> u64 {
    fig.rows.iter().map(|r| r.len() as u64).sum()
}

/// The cell of column `column` in the first row whose first cell is `key`.
fn cell(fig: &FigureResult, key: f64, column: &str) -> Option<f64> {
    let col = fig.columns.iter().position(|c| c == column)?;
    fig.rows
        .iter()
        .find(|r| r.first() == Some(&key))
        .and_then(|r| r.get(col).copied())
}

/// One op per figure: it ran and its CSV equals the golden byte for byte.
pub fn check_against_golden(ops: &mut Ops, id: &str, csv: Option<&str>, golden: Option<&str>) {
    let verdict = match (csv, golden) {
        (None, _) => Err("did not run (unknown id or panic)".to_string()),
        (_, None) => Err(format!("no golden {GOLDEN_DIR}/{id}.csv")),
        (Some(csv), Some(golden)) if csv != golden => {
            let at = csv
                .bytes()
                .zip(golden.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(csv.len().min(golden.len()));
            Err(format!("CSV differs from golden at byte {at}"))
        }
        _ => Ok(()),
    };
    ops.check(verdict.is_ok(), || {
        format!("{id}: {}", verdict.unwrap_err())
    });
}

/// All 49 figures at smoke scale against the committed goldens.
///
/// The goldens exist for one seed only, so the figures always run at
/// [`GOLDEN_SEED`] and every run can compare bytes; the workload seed picks
/// the *order* the figures run in (they are independent, so the bytes must
/// not depend on it — which this also checks).
fn run_suite_smoke(seed: u64, tr: &Tracer, setup_only: bool) -> Outcome {
    let start = Instant::now();
    let mut ids = figure_ids();
    let order = SeedStream::new(seed);
    ids.sort_by_key(|id| order.seed_for(id));
    let goldens: Vec<Option<String>> = tr.span("core.golden_load", || {
        ids.iter()
            .map(|id| std::fs::read_to_string(format!("{GOLDEN_DIR}/{id}.csv")).ok())
            .collect()
    });
    let setup_s = start.elapsed().as_secs_f64();
    if setup_only {
        return Outcome::setup_only(setup_s);
    }

    let scale = Scale::smoke();
    let mut out = Outcome {
        setup_s,
        rel_err: f64::NAN,
        ..Outcome::default()
    };
    let mut digest = Digest::new();
    let mut csv_bytes = 0u64;
    for (id, golden) in ids.iter().zip(&goldens) {
        let fig = figure(id, &scale, GOLDEN_SEED, tr);
        let csv = fig
            .as_ref()
            .map(|f| tr.span("core.csv_render", || f.to_csv()));
        tr.span("core.csv_compare", || {
            check_against_golden(&mut out.ops, id, csv.as_deref(), golden.as_deref());
        });
        if let (Some(fig), Some(csv)) = (&fig, &csv) {
            out.updates += cells(fig);
            csv_bytes += csv.len() as u64;
            digest.bytes(csv.as_bytes());
            if *id == "fig25" {
                // Clean NPS error of layer 2 in the 3-layer system.
                out.rel_err = cell(fig, 3.0, "clean_err").unwrap_or(f64::NAN);
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.digest = digest.0;
    out.counts = vec![("core.csv_bytes", csv_bytes as f64)];
    out
}

/// fig15 (NPS under independent disorder attackers, CDFs) with the quick
/// scale's population and repetitions — three repetitions on two workers
/// leave one idle a third of the time — and the smoke scale's horizons, so
/// that a run holds several repetitions. The figure has one input, its
/// seed, pinned for the reason given at [`GOLDEN_SEED`]; the workload seed
/// does not enter this workload.
fn run_fig15_pool(tr: &Tracer, setup_only: bool) -> Outcome {
    let start = Instant::now();
    let horizons = Scale::smoke();
    let scale = Scale {
        nps_warmup_rounds: horizons.nps_warmup_rounds,
        nps_attack_rounds: horizons.nps_attack_rounds,
        ..Scale::quick()
    };
    let setup_s = start.elapsed().as_secs_f64();
    if setup_only {
        return Outcome::setup_only(setup_s);
    }

    let mut out = Outcome {
        setup_s,
        rel_err: f64::NAN,
        ..Outcome::default()
    };
    let fig = figure("fig15", &scale, GOLDEN_SEED, tr);
    out.ops
        .check(fig.is_some(), || "fig15 did not run".to_string());
    if let Some(fig) = &fig {
        let csv = tr.span("core.csv_render", || fig.to_csv());
        tr.span("core.csv_compare", || {
            for (k, row) in fig.rows.iter().enumerate() {
                out.ops.check(row.iter().all(|v| v.is_finite()), || {
                    format!("fig15 row {k} has a non-finite cell")
                });
            }
        });
        let mut digest = Digest::new();
        digest.bytes(csv.as_bytes());
        out.digest = digest.0;
        out.updates = cells(fig);
        // Median honest error under 20% attackers with the security filter on.
        out.rel_err = cell(fig, 0.5, "err_20pct_sec_on").unwrap_or(f64::NAN);
        out.counts = vec![("core.csv_bytes", csv.len() as f64)];
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_bit_and_order_sensitive() {
        let of = |coords: &[Coord]| {
            let mut d = Digest::new();
            d.coords(coords);
            d.0
        };
        let a = Coord::from_vec(vec![1.0, 2.0]);
        let b = Coord::from_vec(vec![3.0, 4.0]);
        let base = of(&[a.clone(), b.clone()]);
        assert_eq!(base, of(&[a.clone(), b.clone()]));
        assert_ne!(base, of(&[b.clone(), a.clone()]), "order");
        let mut nudged = a.clone();
        nudged.vec[1] = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(base, of(&[nudged, b.clone()]), "one ulp");
        let mut lifted = b.clone();
        lifted.height = 1e-300;
        assert_ne!(base, of(&[a.clone(), lifted]), "height");
        assert_ne!(
            of(&[Coord::from_vec(vec![0.0])]),
            of(&[Coord::from_vec(vec![-0.0])])
        );
    }

    #[test]
    fn one_changed_golden_byte_is_exactly_one_failed_op() {
        let csv = "# fig: t\nx,y\n1.000000,2.000000\n";
        let mut golden = csv.to_string();
        let mut ops = Ops::default();
        check_against_golden(&mut ops, "figA", Some(csv), Some(&golden));
        check_against_golden(&mut ops, "figB", Some(csv), Some(&golden));
        assert_eq!((ops.attempted, ops.failed), (2, 0));

        golden.replace_range(12..13, "3");
        check_against_golden(&mut ops, "figC", Some(csv), Some(&golden));
        check_against_golden(&mut ops, "figD", Some(csv), Some(csv));
        assert_eq!((ops.attempted, ops.failed), (4, 1));
        assert_eq!(ops.problems, ["figC: CSV differs from golden at byte 12"]);
    }

    #[test]
    fn missing_figure_or_golden_fails_its_op() {
        let mut ops = Ops::default();
        check_against_golden(&mut ops, "gone", None, Some("x"));
        check_against_golden(&mut ops, "new", Some("x"), None);
        check_against_golden(&mut ops, "short", Some("ab"), Some("abc"));
        assert_eq!((ops.attempted, ops.failed), (3, 3));
        assert!(ops.problems[2].ends_with("byte 2"));
    }

    #[test]
    fn plan_pair_dists_follows_the_plan_rule() {
        assert_eq!(plan_pair_dists(0), 0);
        assert_eq!(plan_pair_dists(100), 100 * 99);
        assert_eq!(plan_pair_dists(256), 256 * 255);
        assert_eq!(plan_pair_dists(1740), 1740 * 128);
    }

    #[test]
    fn workload_sizes_divide_into_whole_samples() {
        for w in WORKLOADS {
            match w.kind {
                Kind::Vivaldi(s) => {
                    assert_eq!(s.clean_ticks % VIVALDI_SAMPLE_EVERY, 0);
                    assert_eq!(s.attack_ticks % VIVALDI_SAMPLE_EVERY, 0);
                    assert_eq!(w.max_threads, 1);
                }
                Kind::Nps(s) => {
                    assert_eq!(s.clean_rounds % s.sample_every, 0);
                    assert_eq!(s.attack_rounds % s.sample_every, 0);
                    assert_eq!(w.max_threads, 1);
                }
                Kind::SuiteSmoke | Kind::Fig15Pool => assert_eq!(w.max_threads, 2),
            }
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }
}
