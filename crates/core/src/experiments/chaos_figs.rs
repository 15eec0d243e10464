//! Figure runners for the fault-injection sweeps (`chaos-*`): churn,
//! correlated loss bursts, landmark takedown, and partitions crossed with
//! the attack and defense families — graceful degradation under fire.
//!
//! Every prior figure family measured an *adversary* against a *healthy*
//! network. Real deployments are never healthy: nodes crash and rejoin,
//! links burst-lose probes, and routing splits. These figures measure two
//! things the paper's threat model leaves open:
//!
//! * **recovery** — after a fault wave, does a defended system re-converge
//!   to its no-fault steady state (the `recovery_ratio` column, pinned at
//!   ≤ 1.1 by the suite's tests), or does degradation compound?
//! * **confusion** — do benign faults look like attacks to the defenses
//!   (loss bursts tripping the drift cap's FPR), and can an attacker hide
//!   inside fault noise (frog-boiling under churn, the headline
//!   `chaos-frog-hides-in-churn`)?
//!
//! Fault plans are installed at the injection instant through the `chaos`
//! field of the harness `RunSpec`; all fault randomness draws from the
//! plan's own seeded streams, so the `0`-level row of every sweep is the
//! *byte-identical* no-chaos run.

use crate::experiments::harness::{plain, repeat_all, repeat_at, Faults, RunSpec, System};
use crate::experiments::registry::Figure;
use crate::experiments::shapes::{
    cross, mean_series, series_rows, Cell, Column, Defense, LevelSweep,
};
use crate::experiments::{FigureResult, Scale};
use vcoord_attackkit::{BurstThenReform, FrogBoiling, Inflation};
use vcoord_chaos::{BurstModel, ChaosPlan};
use vcoord_defense::{DriftCap, DriftDecay, EwmaChangePoint, ResidualOutlier, TriangleCheck};
use vcoord_netsim::TICK_MS;
use vcoord_nps::ROUND_MS as NPS_ROUND_MS;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::Space;
use vcoord_vivaldi::VivaldiSim;

/// Malicious fraction of the attacked chaos sweeps (matches `def-*`/`arms-*`).
const FRACTION: f64 = 0.30;

/// Churn-intensity grid shared by the churn sweeps: fraction of the
/// population crashed in the wave (0 = the no-fault baseline row).
const CHURN_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// Scale with the post-injection window stretched so post-fault recovery
/// is observable: restarted nodes need room to re-converge *after* the
/// restart lands mid-window. Fault waves also add run-to-run variance the
/// attack sweeps don't have (a crash schedule is a handful of discrete
/// events), so the recovery ratios are averaged over at least three
/// repetitions even at smoke scale.
fn recovery_scale(scale: &Scale) -> Scale {
    let mut s = scale.clone();
    s.vivaldi_attack_ticks *= 4;
    s.nps_attack_rounds *= 2;
    s.repetitions = s.repetitions.max(3);
    s
}

/// An honest population of `S` under the drift cap at its default bound —
/// what every fault-only chaos sweep perturbs.
fn drift_capped<S: System>(scale: &Scale, seed: u64) -> RunSpec<'_, S> {
    RunSpec {
        defense: Some(&|_| Box::new(DriftCap::default())),
        ..RunSpec::new(scale, seed)
    }
}

// Level-sweep columns shared across the chaos figures.
const ERR_TAIL: Column = ("err_tail", |c, _| c.err);
const RECOVERY_RATIO: Column = ("recovery_ratio", |_, ratio| ratio);
const TPR: Column = ("tpr", |c, _| c.tpr());
const FPR: Column = ("fpr", |c, _| c.fpr());
const BANS: Column = ("bans", |c, _| c.bans);
const BANNED_HONEST: Column = ("banned_honest_final", |c, _| c.banned_honest);
const BANNED_MALICIOUS: Column = ("banned_malicious_final", |c, _| c.banned_malicious);
const CRASHES: Column = ("crashes", |c, _| c.crashes);
const RESTARTS: Column = ("restarts", |c, _| c.restarts);
const TIMEOUTS: Column = ("timeouts", |c, _| c.timeouts);
const RETRIES: Column = ("retries", |c, _| c.retries);
const EVICTIONS: Column = ("evictions", |c, _| c.evictions);
const FAILOVERS: Column = ("failovers", |c, _| c.failovers);

/// Crash/restart waves of each [`CHURN_FRACTIONS`] share of a drift-capped
/// honest system `S`: down `down_ms` into the window, back up `up_ms`
/// later. `absorbed` is the system's own column for what soaked the churn
/// up (Vivaldi evicts stale neighbors, NPS fails references over).
fn churn_sweep<S: System>(
    scale: &Scale,
    seed: u64,
    (down_ms, up_ms): (u64, u64),
    absorbed: Column,
    note: &dyn Fn(f64, &Cell, f64) -> String,
) -> FigureResult {
    let scale = recovery_scale(scale);
    LevelSweep {
        level_column: "churn_fraction",
        levels: &CHURN_FRACTIONS,
        columns: &[
            ERR_TAIL,
            RECOVERY_RATIO,
            CRASHES,
            RESTARTS,
            TIMEOUTS,
            RETRIES,
            absorbed,
        ],
        note,
    }
    .recovery(&drift_capped::<S>(&scale, seed), &|frac, sim| {
        let nodes = sim.coords().len();
        ChaosPlan::with_seed(seed ^ 0xC11A05).churn_wave(nodes, frac, down_ms, up_ms)
    })
}

/// `chaos-landmark-takedown` — degree-targeted takedown of the layer-0
/// landmark backbone, *permanently*: the paper assumes landmarks are
/// "highly secure machines", so this measures what their loss (not their
/// compromise) costs, and whether membership fail-over absorbs it.
fn chaos_landmark_takedown(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    LevelSweep {
        level_column: "landmarks_down",
        levels: &[0.0, 2.0, 4.0, 6.0],
        columns: &[
            ERR_TAIL,
            RECOVERY_RATIO,
            CRASHES,
            TIMEOUTS,
            RETRIES,
            FAILOVERS,
        ],
        note: &|down, c, ratio| {
            format!(
                "{down} landmarks down (permanent): tail err {:.3} ({ratio:.2}x intact), \
                 {:.0} fail-overs through membership",
                c.err, c.failovers,
            )
        },
    }
    .recovery(&drift_capped(&scale, seed), &|down, sim: &NpsSim| {
        let landmarks = sim.landmark_ids();
        let k = (down as usize).min(landmarks.len());
        ChaosPlan::with_seed(seed ^ 0x7A4E).takedown(&landmarks[..k], NPS_ROUND_MS)
    })
}

/// `chaos-loss-bursts` — Gilbert–Elliott correlated loss/RTT-spike regimes
/// on an *honest* population with the drift cap deployed: do benign burst
/// faults read as attacks (false-positive bans)?
fn chaos_loss_bursts(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    LevelSweep {
        level_column: "p_enter",
        levels: &[0.0, 0.02, 0.05, 0.10],
        columns: &[
            ERR_TAIL,
            RECOVERY_RATIO,
            FPR,
            BANNED_HONEST,
            ("burst_losses", |c, _| c.burst_losses),
            ("spiked", |c, _| c.spiked),
            TIMEOUTS,
        ],
        note: &|p_enter, c, ratio| {
            format!(
                "p_enter {p_enter:.2}: tail err {:.3} ({ratio:.2}x clean links), drift-cap \
                 fpr {:.3}, {:.1} honest nodes banned, {:.0} burst losses / \
                 {:.0} spiked probes",
                c.err,
                c.fpr(),
                c.banned_honest,
                c.burst_losses,
                c.spiked,
            )
        },
    }
    .recovery(&drift_capped::<VivaldiSim>(&scale, seed), &|p_enter, _| {
        ChaosPlan::with_seed(seed ^ 0xB0557).bursts(BurstModel { p_enter })
    })
}

/// `chaos-frog-hides-in-churn` — the headline cross: frog-boiling at 30 %
/// malicious against the drift cap, swept over churn intensity. Churn
/// noise both *hides* the attacker (TPR under churn) and *defames* honest
/// rejoining nodes (FPR under churn).
fn chaos_frog_hides_in_churn(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let frog = RunSpec::<VivaldiSim> {
        fraction: FRACTION,
        adversary: &plain(|| Box::new(FrogBoiling::default())),
        ..drift_capped(&scale, seed)
    };
    LevelSweep {
        level_column: "churn_fraction",
        levels: &CHURN_FRACTIONS,
        columns: &[
            TPR,
            FPR,
            ERR_TAIL,
            ("err_ratio", |_, ratio| ratio),
            ("drift", |c, _| c.drift),
            CRASHES,
            EVICTIONS,
        ],
        note: &|frac, c, ratio| {
            format!(
                "churn {:.0}%: frog-boiling tpr {:.2} / fpr {:.3}, tail err {:.3} \
                 ({ratio:.2}x calm), drift {:.2} ms/tick",
                frac * 100.0,
                c.tpr(),
                c.fpr(),
                c.err,
                c.drift,
            )
        },
    }
    .recovery(&frog, &|frac, sim| {
        let nodes = sim.coords().len();
        ChaosPlan::with_seed(seed ^ 0xF406).churn_wave(nodes, frac, 10 * TICK_MS, 30 * TICK_MS)
    })
}

/// `chaos-partition-recovery` — a timed network partition through a
/// defended honest Vivaldi system: error time-series with and without the
/// partition, showing degradation while split and re-convergence after
/// healing.
fn chaos_partition_recovery(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let nodes = scale.nodes;
    // Split half the population from the rest for a third of the window.
    let start = 10 * TICK_MS;
    let end = start + (scale.vivaldi_attack_ticks / 3) * TICK_MS;
    let calm = drift_capped::<VivaldiSim>(&scale, seed);
    let split = RunSpec {
        chaos: Some(&|_| ChaosPlan::with_seed(seed ^ 0x9A47).split(nodes, start, end)),
        ..calm.clone()
    };
    let runs = repeat_all(&[split, calm]);
    let series = [&runs[0], &runs[1]].map(|runs| mean_series(runs, |r| r.attack_series.clone()));
    let mut rows = series_rows(&series);
    for row in &mut rows {
        row.push(row[1] / row[2].max(1e-9));
    }
    let (split, calm) = (Cell::of(&runs[0]), Cell::of(&runs[1]));
    let tail_calm = calm.err.max(1e-9);
    let mut fig = FigureResult::new(vec![
        "tick".to_string(),
        "err_partitioned".to_string(),
        "err_baseline".to_string(),
        "ratio".to_string(),
    ]);
    fig.rows = rows;
    fig.notes.push(format!(
        "partition [{start}, {end}) ms: {:.0} timed-out probes, {:.0} retries, {:.0} \
         evictions; tail err {:.3} vs calm {tail_calm:.3} \
         (recovery ratio {:.2})",
        split.timeouts,
        split.retries,
        split.evictions,
        split.err,
        split.err / tail_calm,
    ));
    fig
}

/// The probation figures' scenario on NPS at 30 % malicious: a
/// burst-then-reform collusion (a flat 250 ms lie for the first 10 rounds,
/// flagrant to the drift cap's vector-mean pull, then honest forever — so
/// every attacker lands in the *global* ban set during the burst, exactly
/// the evidence-starved population the probation channel exists to
/// re-measure once the reform is real) against a decaying drift cap, with
/// mild loss bursts from `chaos` riding along.
///
/// Tight reference economy: with the pool this small the membership server
/// has no spare candidates to re-hand a banned reference to an
/// unsuspecting observer, so a banned node's *only* evidence channel is
/// probation (or, with the channel off, a starvation-relief *lease*).
fn probation_run<'a>(
    scale: &'a Scale,
    seed: u64,
    probation_every: u64,
    chaos: &'a (dyn Fn(&NpsSim) -> ChaosPlan + Sync),
) -> RunSpec<'a, NpsSim> {
    RunSpec {
        config: NpsConfig {
            probation_every,
            landmarks: 12,
            refs_per_node: 12,
            space: Space::Euclidean(4),
            ..NpsConfig::default()
        },
        fraction: FRACTION,
        adversary: &|_, _, _| (Box::new(BurstThenReform::default()), None),
        defense: Some(&|_| Box::new(DriftCap::with_decay(40.0, DriftDecay::new(5.0)))),
        chaos: Some(chaos),
        ..RunSpec::new(scale, seed)
    }
}

/// `chaos-probation-nps` — the probation channel: NPS's membership-
/// mediated banning removes banned references from the probe set, which
/// starves reputation *decay* of the evidence it needs to forgive. The
/// sweep crosses probation frequency with the decaying drift cap under a
/// burst-then-reform collusion, plus mild correlated loss bursts riding
/// along (bursts stress retries without resetting any coordinates, so the
/// probation probes themselves must survive fault noise).
fn chaos_probation_nps(scale: &Scale, seed: u64) -> FigureResult {
    let mut scale = recovery_scale(scale);
    // Reinstatement timing is the noisiest statistic in the chaos family
    // (a single late probation probe moves the tail by a round's worth of
    // error), so this figure averages more repetitions than the rest.
    // Starvation-relief readmissions are leases now (sim.rs): the relief
    // valve's evidence is quarantined by provenance, so the off-row stays
    // a true evidence-starvation baseline at any window length —
    // `chaos-probation-leak` pins that directly.
    scale.repetitions = scale.repetitions.max(7);
    let chaos = |_: &NpsSim| ChaosPlan::with_seed(seed ^ 0x960B).bursts(BurstModel::mild());
    let levels = [0.0, 8.0, 4.0, 2.0];
    let specs = levels.map(|every| probation_run(&scale, seed, every as u64, &chaos));
    LevelSweep {
        level_column: "probation_every",
        levels: &levels,
        columns: &[
            ERR_TAIL,
            RECOVERY_RATIO,
            BANS,
            ("reinstated", |c, _| c.reinstated),
            BANNED_HONEST,
            BANNED_MALICIOUS,
            FPR,
        ],
        note: &|every, c, ratio| {
            format!(
                "probation every {}: tail err {:.3} ({ratio:.2}x channel-off), {:.1} bans, \
                 {:.1} reinstated, steady-state banned {:.1} honest / \
                 {:.1} malicious, fpr {:.3}",
                if every == 0.0 {
                    "never (channel off)".to_string()
                } else {
                    format!("{every} rounds")
                },
                c.err,
                c.bans,
                c.reinstated,
                c.banned_honest,
                c.banned_malicious,
                c.fpr(),
            )
        },
    }
    .figure(&specs)
}

/// Post-injection window multipliers for the leak sweep, ×recovery-scale
/// rounds (the 1× row is the short-window contrast the leak rate is read
/// against).
const LEAK_WINDOWS: [u64; 4] = [1, 2, 4, 8];

/// `chaos-probation-leak` — the starvation-relief readmission guard's
/// healed-evidence leak, measured directly — and, since readmissions
/// became *leases*, pinned closed. With the probation channel *off*
/// (`probation_every: 0`) and the tight reference economy of
/// `chaos-probation-nps`, a banned reference has exactly one path back
/// into anyone's probe set: the relief valve in `NpsSim::reposition`
/// leases the oldest ban back when fault noise starves a node below the
/// `dim + 1` positioning constraint. Before the fix, each re-admitted (by
/// then reformed) attacker handed honest samples to the decaying drift
/// cap, its reputation healed, and reinstatements appeared on a channel
/// that is nominally closed — leak rate 0.31 at short windows, saturating
/// to 1.00 from 64 rounds. Now every leased sample carries
/// `Provenance::Lease` and the defense quarantines it (judged, never
/// recorded), so the sweep's long windows show leases firing and
/// quarantined evidence piling up while the leak rate stays ≤ 0.05 at
/// every window.
///
/// Each window is a prefix of the longest, so one run per repetition over
/// the longest window is read at every window's end.
fn chaos_probation_leak(scale: &Scale, seed: u64) -> FigureResult {
    let mut longest = recovery_scale(scale);
    // Same variance argument as chaos-probation-nps: a single late
    // readmission moves a whole row, so average more repetitions.
    longest.repetitions = longest.repetitions.max(5);
    let windows = LEAK_WINDOWS.map(|mult| longest.nps_attack_rounds * mult);
    longest.nps_attack_rounds = windows[windows.len() - 1];
    let chaos = |_: &NpsSim| ChaosPlan::with_seed(seed ^ 0x1EAC).bursts(BurstModel::mild());
    // Probation off: bans are structurally final — the relief valve can
    // only *lease* them back.
    let spec = probation_run(&longest, seed, 0, &chaos);
    let runs = repeat_at(&[spec], &[windows.to_vec()]);
    let cells: Vec<Cell> = runs[0].iter().map(|at| Cell::of(at)).collect();
    LevelSweep {
        level_column: "window_rounds",
        levels: &windows.map(|rounds| rounds as f64),
        columns: &[
            ERR_TAIL,
            ("leases", |c, _| c.leases),
            BANS,
            ("leaked_reinstated", |c, _| c.reinstated),
            ("leak_rate", |c, _| leak_rate(c)),
            BANNED_MALICIOUS,
            ("quarantined", |c, _| c.quarantined),
        ],
        note: &|rounds, c, _| {
            format!(
                "window {rounds} rounds: {:.1} readmission leases, {:.1} bans, {:.1} \
                 reinstated with the channel off (leak rate {:.3}), {:.0} \
                 quarantined samples, steady-state banned malicious {:.1}, \
                 tail err {:.3}",
                c.leases,
                c.bans,
                c.reinstated,
                leak_rate(c),
                c.quarantined,
                c.banned_malicious,
                c.err,
            )
        },
    }
    .table(&cells)
}

/// Share of the bans that were reinstated although the probation channel
/// is off.
fn leak_rate(c: &Cell) -> f64 {
    if c.bans > 0.0 {
        c.reinstated / c.bans
    } else {
        0.0
    }
}

/// Detector grid for `chaos-detectors-under-faults`.
const FAULT_DETECTORS: [Defense; 3] = [
    ("mad", |_| Box::new(ResidualOutlier::default())),
    ("ewma", |_| Box::new(EwmaChangePoint::default())),
    ("triangle", |_| Box::new(TriangleCheck)),
];

/// A fault regime: its label and the faults it adds to a plan over `nodes`
/// nodes, if any.
type Regime = (&'static str, Option<fn(ChaosPlan, usize) -> ChaosPlan>);

/// Fault regimes crossed against the detectors (the first is the clean
/// baseline, which installs no plan).
const FAULT_REGIMES: [Regime; 3] = [
    ("none", None),
    (
        "churn",
        Some(|plan, nodes| plan.churn_wave(nodes, 0.2, 10 * TICK_MS, 30 * TICK_MS)),
    ),
    ("loss", Some(|plan, _| plan.bursts(BurstModel::mild()))),
];

/// `chaos-detectors-under-faults` — the lightweight per-sample detectors
/// (MAD residual outlier, EWMA change-point, triangle-inequality check)
/// crossed with benign fault regimes (churn wave, correlated loss bursts)
/// under a loud inflation collusion on Vivaldi. The drift cap owns the
/// chaos family's other sweeps; this one asks how the *rest* of the
/// defense rack degrades when fault noise pollutes exactly the statistics
/// each detector keys on — residual spread (MAD), residual trend (EWMA),
/// and RTT-vs-prediction consistency (triangle).
fn chaos_detectors_under_faults(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let mut fig = FigureResult::new(vec![
        "point_idx".to_string(),
        "detector_idx".to_string(),
        "regime_idx".to_string(),
        "tpr".to_string(),
        "fpr".to_string(),
        "err_tail".to_string(),
        "err_ratio".to_string(),
    ]);
    let nodes = scale.nodes;
    let adversary = plain(|| Box::new(Inflation));
    let defenses = FAULT_DETECTORS.map(|(_, make)| move |_: &VivaldiSim| make(&[]));
    let faults = FAULT_REGIMES.map(|(_, faults)| {
        faults.map(|add| move |_: &VivaldiSim| add(ChaosPlan::with_seed(seed ^ 0xDE7EC7), nodes))
    });
    let specs: Vec<_> = cross(&defenses, &faults)
        .map(|(defense, plan)| RunSpec::<VivaldiSim> {
            fraction: FRACTION,
            adversary: &adversary,
            defense: Some(defense),
            chaos: plan.as_ref().map(|plan| plan as &Faults<'_, VivaldiSim>),
            ..RunSpec::new(&scale, seed)
        })
        .collect();
    let cells = Cell::all(&specs);
    let per_detector = cells.chunks(FAULT_REGIMES.len());
    for (di, ((detector, _), cells)) in FAULT_DETECTORS.iter().zip(per_detector).enumerate() {
        let baseline = cells[0].err.max(1e-9);
        for (ri, ((regime, _), cell)) in FAULT_REGIMES.iter().zip(cells).enumerate() {
            let (tpr, fpr, err) = (cell.tpr(), cell.fpr(), cell.err);
            fig.rows.push(vec![
                fig.rows.len() as f64,
                di as f64,
                ri as f64,
                tpr,
                fpr,
                err,
                err / baseline,
            ]);
            fig.notes.push(format!(
                "{detector} under {regime}: tpr {tpr:.2} / fpr {fpr:.3}, tail err {err:.3} \
                 ({:.2}x its clean row)",
                err / baseline,
            ));
        }
    }
    fig
}

/// The fault-injection figures.
pub(crate) const FIGURES: &[Figure] = &[
    // Probes to dead peers time out, retry with backoff, and stale
    // neighbors are evicted; restarted nodes rejoin from the origin and
    // re-converge. Down 10 ticks into the window, back up 30 ticks later.
    Figure {
        id: "chaos-churn-vivaldi",
        title: "Vivaldi under churn: crash/restart waves vs retry, backoff, and staleness \
                eviction (drift cap deployed)",
        run: |scale, seed| {
            churn_sweep::<VivaldiSim>(
                scale,
                seed,
                (10 * TICK_MS, 30 * TICK_MS),
                EVICTIONS,
                &|frac, c, ratio| {
                    format!(
                        "churn {:.0}%: tail err {:.3} ({ratio:.2}x the no-churn steady state), \
                         {:.0} crashes / {:.0} restarts, {:.0} timeouts, {:.0} evictions",
                        frac * 100.0,
                        c.err,
                        c.crashes,
                        c.restarts,
                        c.timeouts,
                        c.evictions,
                    )
                },
            )
        },
    },
    // The same waves against the NPS hierarchy: dead references fail over
    // through the membership replacement channel; restarted ordinary nodes
    // rejoin from scratch. Down 2 rounds into the window, back up 6 later.
    Figure {
        id: "chaos-churn-nps",
        title: "NPS under churn: crash/restart waves vs in-round retries and membership \
                fail-over (drift cap deployed)",
        run: |scale, seed| {
            churn_sweep::<NpsSim>(
                scale,
                seed,
                (2 * NPS_ROUND_MS, 6 * NPS_ROUND_MS),
                FAILOVERS,
                &|frac, c, ratio| {
                    format!(
                        "churn {:.0}%: tail err {:.3} ({ratio:.2}x no-churn), {:.0} crashes, \
                         {:.0} in-round retries, {:.0} reference fail-overs",
                        frac * 100.0,
                        c.err,
                        c.crashes,
                        c.retries,
                        c.failovers,
                    )
                },
            )
        },
    },
    Figure {
        id: "chaos-landmark-takedown",
        title: "NPS landmark takedown: permanent loss of layer-0 infrastructure vs \
                membership fail-over",
        run: chaos_landmark_takedown,
    },
    Figure {
        id: "chaos-loss-bursts",
        title: "Gilbert-Elliott loss bursts vs the drift cap on honest Vivaldi: do benign \
                bursts false-positive as attacks?",
        run: chaos_loss_bursts,
    },
    Figure {
        id: "chaos-frog-hides-in-churn",
        title: "Frog-boiling inside churn noise: drift-cap detection quality vs churn \
                intensity (Vivaldi, 30% malicious)",
        run: chaos_frog_hides_in_churn,
    },
    Figure {
        id: "chaos-partition-recovery",
        title: "Timed network partition on honest Vivaldi: error while split and \
                re-convergence after healing (drift cap deployed)",
        run: chaos_partition_recovery,
    },
    Figure {
        id: "chaos-probation-nps",
        title: "The probation channel on NPS: re-measuring banned references lets \
                reputation decay compose with membership banishment (burst-then-reform \
                collusion, decaying drift cap, mild loss bursts)",
        run: chaos_probation_nps,
    },
    Figure {
        id: "chaos-probation-leak",
        title: "Readmission leases close the covert probation channel: quarantined \
                lease evidence never heals a decaying ban, at any window (NPS, probation \
                off, burst-then-reform collusion, decaying drift cap, mild loss bursts)",
        run: chaos_probation_leak,
    },
    Figure {
        id: "chaos-detectors-under-faults",
        title: "MAD / EWMA / triangle detectors under benign fault noise: detection \
                quality vs churn and loss bursts (Vivaldi, inflation collusion, 30% \
                malicious)",
        run: chaos_detectors_under_faults,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_figure;

    fn smoke(id: &str) -> FigureResult {
        run_figure(id, &Scale::smoke(), 2006).expect("a row of the table")
    }

    fn assert_shape(fig: &FigureResult, rows: usize) {
        assert_eq!(fig.rows.len(), rows, "{}", fig.id);
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len(), "{}", fig.id);
            assert!(row.iter().all(|v| v.is_finite()), "{}: {row:?}", fig.id);
        }
        assert!(!fig.notes.is_empty());
    }

    #[test]
    fn churn_vivaldi_recovers_within_ten_percent() {
        let fig = smoke("chaos-churn-vivaldi");
        assert_shape(&fig, CHURN_FRACTIONS.len());
        for row in &fig.rows {
            // The acceptance gate: post-churn tail error re-converges to
            // within 10% of the no-churn steady state at every intensity.
            assert!(
                row[3] <= 1.1,
                "churn {:.0}% failed to recover: ratio {:.3}",
                row[1] * 100.0,
                row[3]
            );
        }
        let faulty = &fig.rows[CHURN_FRACTIONS.len() - 1];
        assert!(faulty[4] > 0.0 && faulty[5] > 0.0, "crashes and restarts");
        assert!(faulty[6] > 0.0, "timeouts must be observed");
    }

    #[test]
    fn churn_nps_recovers_and_fails_over() {
        let fig = smoke("chaos-churn-nps");
        assert_shape(&fig, CHURN_FRACTIONS.len());
        for row in &fig.rows {
            assert!(
                row[3] <= 1.1,
                "churn {:.0}% failed to recover: ratio {:.3}",
                row[1] * 100.0,
                row[3]
            );
        }
        assert!(
            fig.rows.iter().any(|r| r[8] > 0.0),
            "some churn level must force reference fail-overs"
        );
    }

    #[test]
    fn partition_recovery_heals() {
        let fig = smoke("chaos-partition-recovery");
        assert!(fig.rows.len() >= 5);
        // While split, error is visibly worse than calm at some point...
        let peak = fig
            .rows
            .iter()
            .map(|r| r[3])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            peak > 1.05,
            "partition had no visible effect: peak {peak:.3}"
        );
        // ...and the final ratio shows the healed system re-converged.
        let last = fig.rows.last().unwrap();
        assert!(
            last[3] <= 1.1,
            "post-heal ratio {:.3} did not recover",
            last[3]
        );
    }

    #[test]
    fn probation_reinstates_only_when_enabled() {
        let fig = smoke("chaos-probation-nps");
        assert_shape(&fig, 4);
        // Channel off: decay starves, nobody comes back.
        // Channel on at some frequency: reinstatements flow.
        let off = fig.rows[0][5];
        let best_on = fig.rows[1..]
            .iter()
            .map(|r| r[5])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_on > off,
            "probation must unlock reinstatement: off {off:.1}, best on {best_on:.1}"
        );
        // And forgiveness must not cost accuracy at the fastest channel:
        // with probation every 2 rounds the reinstated (reformed)
        // references settle back to within 10% of the channel-off tail.
        let fastest = fig.rows.last().unwrap();
        assert!(
            fastest[3] <= 1.1,
            "probation every {} failed to recover: ratio {:.3}",
            fastest[1],
            fastest[3]
        );
    }

    #[test]
    fn probation_leak_is_closed_by_leases() {
        let fig = smoke("chaos-probation-leak");
        assert_shape(&fig, LEAK_WINDOWS.len());
        // The relief valve must actually fire — no leases means the sweep
        // isn't exercising starvation relief at all.
        assert!(
            fig.rows.iter().all(|r| r[3] > 0.0),
            "every window must observe readmission leases"
        );
        // The fix's acceptance gate: before leases the leak rate was 0.31
        // at the shortest window and 1.00 from 64 rounds; with lease
        // evidence quarantined it must stay ≤ 0.05 at EVERY window —
        // including the longest, where the old guard saturated.
        for row in &fig.rows {
            assert!(
                row[6] <= 0.05,
                "window {} rounds leaked: rate {:.3} (reinstated {:.1} of {:.1} bans)",
                row[1],
                row[6],
                row[5],
                row[4]
            );
        }
        // And the quarantine must be doing the closing: leased references
        // keep probing, so quarantined evidence accumulates with the
        // window instead of healing anyone.
        let (first, last) = (&fig.rows[0], fig.rows.last().unwrap());
        assert!(
            last[8] > 0.0 && last[8] >= first[8],
            "quarantined evidence must accumulate: {:.0} -> {:.0}",
            first[8],
            last[8]
        );
    }

    #[test]
    fn detectors_under_faults_covers_the_grid() {
        let fig = smoke("chaos-detectors-under-faults");
        assert_shape(&fig, FAULT_DETECTORS.len() * FAULT_REGIMES.len());
        // Every detector must actually flag the loud inflation on its
        // clean row — a detector that can't see the attack without fault
        // noise makes the degradation columns meaningless.
        for (di, (detector, _)) in FAULT_DETECTORS.iter().enumerate() {
            let clean = &fig.rows[di * FAULT_REGIMES.len()];
            assert!(
                clean[3] > 0.0,
                "{detector} must flag inflation on the clean row: tpr {:.2}",
                clean[3]
            );
        }
    }

    #[test]
    fn landmark_takedown_fails_over_and_recovers() {
        let fig = smoke("chaos-landmark-takedown");
        assert_shape(&fig, 4);
        for row in &fig.rows {
            assert!(
                row[3] <= 1.1,
                "{:.0} landmarks down failed to recover: ratio {:.3}",
                row[1],
                row[3]
            );
        }
        assert!(
            fig.rows.iter().any(|r| r[7] > 0.0),
            "takedown must force fail-overs through membership"
        );
    }

    #[test]
    fn loss_bursts_do_not_defame_honest_nodes() {
        let fig = smoke("chaos-loss-bursts");
        assert_shape(&fig, 4);
        for row in &fig.rows {
            assert!(
                row[3] <= 1.1,
                "p_enter {:.2} failed to recover: ratio {:.3}",
                row[1],
                row[3]
            );
            // Benign bursts must not read as attacks to the drift cap.
            assert!(
                row[4] == 0.0 && row[5] == 0.0,
                "p_enter {:.2}: benign bursts banned honest nodes (fpr {:.3}, {:.1} banned)",
                row[1],
                row[4],
                row[5]
            );
        }
        let faulty = fig.rows.last().unwrap();
        assert!(faulty[6] > 0.0 && faulty[7] > 0.0, "losses and spikes");
    }
}
