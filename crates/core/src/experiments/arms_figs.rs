//! Figure runners for the arms-race sweeps (`arms-*`): defense-aware
//! adaptive attackers against the defensekit detectors, on both systems.
//!
//! PR 4's `def-*` sweeps measured static attacks against static defenses
//! and crowned the drift cap — (FPR 0.00, TPR 0.95) against frog-boiling
//! at the 80 ms corner. The paper's central lesson (and the frog-boiling
//! literature after it) is that a published threshold is a target: these
//! figures measure the *next move* on each side.
//!
//! * `arms-sweep-vivaldi` / `arms-sweep-nps` — adaptive attacks
//!   (defense-modeling evasion, feedback-driven threshold probing,
//!   decay-timed sleeper bursts) crossed with the drift cap, its decaying
//!   variant, and the MAD filter.
//! * `arms-evasion-roc` — the headline: classic vs evading frog-boiling
//!   at *matched per-round budget* over a sweep of deployed cap values.
//!   The evader models the default 80 ms cap and throttles its drift to
//!   stay under it, collapsing the cap's TPR toward zero everywhere the
//!   deployment is at (or looser than) the modeled bound — detection
//!   survives only where the defender deployed a cap *tighter* than the
//!   attacker's model.
//! * `arms-decay-tradeoff` — reputation decay half-lives against the
//!   sleeper: forgiveness un-defames the honest nodes a tight cap trips
//!   during bursts (steady-state FPR falls) but re-admits the sleeper for
//!   every new burst (drift/error exposure rises). Permanent bans are the
//!   other corner: one burst is the last, at the price of every false
//!   positive being banned forever.

use crate::experiments::attack_figs::STRATEGIES;
use crate::experiments::harness::{plain, Adversary, Deploy, RunSpec, System};
use crate::experiments::registry::Figure;
use crate::experiments::shapes::{cross, Attack, Block, Cell, Defense, LevelSweep, Matrix};
use crate::experiments::{FigureResult, Scale};
use vcoord_attackkit::{
    AttackStrategy, EvadingFrogBoil, FrogBoiling, SleeperCollusion, ThresholdProbe,
};
use vcoord_defense::{DefenseStrategy, DriftCap, DriftDecay, ResidualOutlier};
use vcoord_nps::NpsSim;
use vcoord_vivaldi::VivaldiSim;

/// The adaptive attacks swept by the `arms-sweep-*` figures, in CSV column
/// order. `frog_boiling` rides along as the non-adaptive baseline every
/// adaptive variant is judged against.
const ARMS_ATTACKS: [Attack; 4] = [
    // Classic baseline at the default 5 ms/round budget.
    STRATEGIES[0],
    // Same 5 ms/round budget, throttled against the modeled default cap —
    // the matched-budget comparison the evasion ROC plots.
    ("evading_frog", || Box::new(EvadingFrogBoil::default())),
    ("threshold_probe", || Box::new(ThresholdProbe::default())),
    ("sleeper", || Box::new(SleeperCollusion::default())),
];

/// The defenses of the `arms-sweep-*` figures: the permanent-ban drift cap,
/// its decaying (forgiving) variant, and the MAD filter as the
/// error-magnitude baseline.
const ARMS_DEFENSES: [Defense; 3] = [
    ("drift_cap", |_| Box::new(DriftCap::default())),
    ("drift_cap_decay", |_| {
        Box::new(DriftCap::with_decay(
            DriftCap::default().max_drag_ms,
            DriftDecay::new(SWEEP_HALF_LIFE),
        ))
    }),
    ("mad_outlier", |_| Box::new(ResidualOutlier::default())),
];

/// Malicious fraction of the arms sweeps (matches the `def-*` sweeps).
const FRACTION: f64 = 0.30;

/// Half-life (rounds) of the sweeps' decaying drift cap — comfortably
/// inside even the smoke-scale attack window so forgiveness is observable.
const SWEEP_HALF_LIFE: f64 = 40.0;

/// Per defense: error, drift, detection quality, reinstatements.
const BLOCKS: [Block; 5] = [
    ("err", 0, |c| c.err),
    ("drift", 0, |c| c.drift),
    ("tpr", 0, Cell::tpr),
    ("fpr", 0, Cell::fpr),
    ("reinstated", 0, |c| c.reinstated),
];

fn sweep_note(attack: &str, cells: &[Cell]) -> String {
    format!(
        "{attack}: drift-cap (err {:.2}, tpr {:.2}, fpr {:.2}); with decay (err {:.2}, \
         tpr {:.2}, reinstated {:.1}); mad (err {:.2}, tpr {:.2}, fpr {:.2})",
        cells[0].err,
        cells[0].tpr(),
        cells[0].fpr(),
        cells[1].err,
        cells[1].tpr(),
        cells[1].reinstated,
        cells[2].err,
        cells[2].tpr(),
        cells[2].fpr(),
    )
}

/// Adaptive attacks × (drift cap, decaying drift cap, MAD filter) at 30 %
/// malicious on the default system `S`.
fn sweep<S: System>(scale: &Scale, seed: u64) -> Matrix<'_, S> {
    Matrix {
        base: RunSpec {
            fraction: FRACTION,
            ..RunSpec::new(scale, seed)
        },
        attacks: &ARMS_ATTACKS,
        defenses: &ARMS_DEFENSES,
        blocks: &BLOCKS,
        note: sweep_note,
    }
}

/// One Vivaldi scenario at 30 % malicious: `attack` against `defense`.
fn duel<'a>(
    scale: &'a Scale,
    seed: u64,
    attack: &'a Adversary<'a, VivaldiSim>,
    defense: &'a Deploy<'a, VivaldiSim>,
) -> RunSpec<'a, VivaldiSim> {
    RunSpec {
        fraction: FRACTION,
        adversary: attack,
        defense: Some(defense),
        ..RunSpec::new(scale, seed)
    }
}

/// A drift cap at `cap` ms — decaying with half-life `half_life` rounds
/// when that is positive, banning permanently otherwise.
fn drift_cap(cap: f64, half_life: f64) -> impl Fn(&VivaldiSim) -> Box<dyn DefenseStrategy> + Sync {
    move |_| {
        if half_life > 0.0 {
            Box::new(DriftCap::with_decay(cap, DriftDecay::new(half_life)))
        } else {
            Box::new(DriftCap::new(cap))
        }
    }
}

/// A frog-boiling contender of the deployed-cap figures: its column
/// suffix and its strategy.
type Contender = (&'static str, fn() -> Box<dyn AttackStrategy>);

/// Two frog-boiling contenders at matched 5 ms/round budget against drift
/// caps swept over the deployed bound: per cap, each contender's detection
/// quality and drift, then each contender's `last` column.
fn cap_duel(
    scale: &Scale,
    seed: u64,
    contenders: [Contender; 2],
    last: (&str, fn(&Cell) -> f64),
    note: fn(f64, &Cell, &Cell) -> String,
) -> FigureResult {
    let mut columns = vec!["point_idx".to_string(), "deployed_cap_ms".to_string()];
    for (name, _) in contenders {
        columns.extend(["tpr", "fpr", "drift"].map(|stat| format!("{stat}_{name}")));
    }
    columns.extend(contenders.map(|(name, _)| format!("{}_{name}", last.0)));
    let mut fig = FigureResult::new(columns);
    let caps = [10.0, 20.0, 40.0, 80.0, 160.0];
    let attacks = contenders.map(|(_, make)| plain(make));
    let defenses = caps.map(|cap| drift_cap(cap, 0.0));
    let specs: Vec<_> = cross(&defenses, &attacks)
        .map(|(defense, attack)| duel(scale, seed, attack, defense))
        .collect();
    let cells = Cell::all(&specs);
    for (i, (&cap, pair)) in caps.iter().zip(cells.chunks(2)).enumerate() {
        let mut row = vec![i as f64, cap];
        for cell in pair {
            row.extend([cell.tpr(), cell.fpr(), cell.drift]);
        }
        row.extend(pair.iter().map(last.1));
        fig.rows.push(row);
        fig.notes.push(note(cap, &pair[0], &pair[1]));
    }
    fig
}

/// `arms-evasion-roc` — classic vs evading frog-boiling at matched 5
/// ms/round budget, against drift caps swept over the deployed bound. The
/// evader models the *default* 80 ms cap; points where the deployment is
/// tighter than the model measure how wrong the attacker's belief may be
/// before evasion fails.
fn arms_evasion_roc(scale: &Scale, seed: u64) -> FigureResult {
    cap_duel(
        scale,
        seed,
        [
            ("frog", || Box::new(FrogBoiling::default())),
            ("evading", || Box::new(EvadingFrogBoil::default())),
        ],
        ("j", |c| c.confusion.youden_j().unwrap_or(0.0)),
        |cap, frog, evading| {
            format!(
                "cap {cap} ms: classic frog tpr {:.2} (drift {:.2} ms/tick), \
                 evading frog tpr {:.2} (drift {:.2} ms/tick) at matched 5 ms/round budget",
                frog.tpr(),
                frog.drift,
                evading.tpr(),
                evading.drift,
            )
        },
    )
}

/// `arms-evasion-learning` — the fixed-model evader vs the *learning*
/// evader ([`EvadingFrogBoil::learning`], PR 6's [`CapLearner`]) over the
/// same deployed-cap sweep as `arms-evasion-roc`. The fixed evader's
/// detectability is a cliff: wherever the deployment is tighter than its
/// hard-coded 80 ms belief, it walks straight into the cap. The learner
/// bisects its believed cap downward from defense feedback, recovering
/// evasion (TPR falls back toward the evader's floor) at deployments the
/// fixed model loses to — the arms race's next move after `def-roc`
/// published the threshold.
///
/// [`CapLearner`]: vcoord_attackkit::CapLearner
fn arms_evasion_learning(scale: &Scale, seed: u64) -> FigureResult {
    cap_duel(
        scale,
        seed,
        [
            ("fixed", || Box::new(EvadingFrogBoil::default())),
            ("learning", || Box::new(EvadingFrogBoil::learning())),
        ],
        ("err", |c| c.err),
        |cap, fixed, learning| {
            format!(
                "cap {cap} ms: fixed-model evader tpr {:.2} (drift {:.2}), \
                 learning evader tpr {:.2} (drift {:.2}) — both believe 80 ms \
                 at injection, only the learner revises",
                fixed.tpr(),
                fixed.drift,
                learning.tpr(),
                learning.drift,
            )
        },
    )
}

/// `arms-decay-tradeoff` — the sleeper against drift caps with reputation
/// decay at several half-lives (0 = permanent bans), on Vivaldi.
///
/// The cap is deliberately *tight* (40 ms): under burst drag some honest
/// laggards trip it, so permanence has a measurable defamation cost —
/// exactly the FPR-vs-exposure trade decay is supposed to navigate.
fn arms_decay_tradeoff(scale: &Scale, seed: u64) -> FigureResult {
    let half_lives = [0.0, 20.0, 40.0, 80.0];
    let sleeper = plain(|| Box::new(SleeperCollusion::default()));
    let defenses = half_lives.map(|half_life| drift_cap(40.0, half_life));
    let specs: Vec<_> = defenses
        .iter()
        .map(|defense| duel(scale, seed, &sleeper, defense))
        .collect();
    LevelSweep {
        level_column: "half_life_rounds",
        levels: &half_lives,
        columns: &[
            ("err", |c, _| c.err),
            ("drift", |c, _| c.drift),
            ("tpr", |c, _| c.tpr()),
            ("fpr", |c, _| c.fpr()),
            ("bans", |c, _| c.bans),
            ("reinstated", |c, _| c.reinstated),
            ("banned_honest_final", |c, _| c.banned_honest),
            ("banned_malicious_final", |c, _| c.banned_malicious),
        ],
        note: &|hl, c, _| {
            format!(
                "half-life {}: err {:.2}, drift {:.2} ms/tick, fpr {:.2}, \
                 {:.1} bans / {:.1} reinstated per run, steady-state banned: \
                 {:.1} honest / {:.1} malicious",
                if hl > 0.0 {
                    format!("{hl:.0} rounds")
                } else {
                    "none (permanent)".to_string()
                },
                c.err,
                c.drift,
                c.fpr(),
                c.bans,
                c.reinstated,
                c.banned_honest,
                c.banned_malicious,
            )
        },
    }
    .figure(&specs)
}

/// The arms-race figures: the adaptive attack × defense matrix on Vivaldi
/// and on NPS (default 3-layer hierarchy, built-in security filter on),
/// the two deployed-cap duels and the decay trade-off.
pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        id: "arms-sweep-vivaldi",
        title:
            "Adaptive (defense-aware) attacks vs defenses on Vivaldi: error and detection quality",
        run: |scale, seed| sweep::<VivaldiSim>(scale, seed).figure(),
    },
    Figure {
        id: "arms-sweep-nps",
        title: "Adaptive (defense-aware) attacks vs defenses on NPS: error and detection quality",
        run: |scale, seed| sweep::<NpsSim>(scale, seed).figure(),
    },
    Figure {
        id: "arms-evasion-roc",
        title: "Evasion vs the drift cap on Vivaldi: classic and defense-modeling frog-boiling \
                at matched budget",
        run: arms_evasion_roc,
    },
    Figure {
        id: "arms-evasion-learning",
        title: "Learned evasion vs the drift cap on Vivaldi: fixed-model cliff against the \
                cap-learner's recovery over deployed bounds",
        run: arms_evasion_learning,
    },
    Figure {
        id: "arms-decay-tradeoff",
        title: "Sleeper collusion vs drift-cap reputation decay on Vivaldi: forgiveness \
                half-life against burst exposure",
        run: arms_decay_tradeoff,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_figure;

    #[test]
    fn evasion_collapses_drift_cap_detection_at_the_modeled_cap() {
        // The tentpole claim at harness level: at the deployed = modeled
        // 80 ms cap, the classic frog is caught near-perfectly while the
        // evader — same 5 ms/round budget — goes essentially undetected.
        let scale = Scale::smoke();
        let cells = Matrix {
            attacks: &ARMS_ATTACKS[..2],
            defenses: &ARMS_DEFENSES[..1],
            ..sweep::<VivaldiSim>(&scale, 2006)
        }
        .cells();
        let (classic, evading) = (&cells[0], &cells[1]);
        assert!(
            classic.tpr() > 0.9,
            "classic frog must be caught: tpr {:.2}",
            classic.tpr()
        );
        assert!(
            evading.tpr() < 0.25,
            "the evader must collapse drift-cap detection: tpr {:.2}",
            evading.tpr()
        );
        // And evasion is not free: the evader's realized drift undercuts
        // the classic frog's (the throttle is a real cost).
        assert!(evading.drift >= 0.0 && classic.drift >= 0.0);
    }

    #[test]
    fn decay_tradeoff_smoke_shape() {
        let scale = Scale::smoke();
        let fig = run_figure("arms-decay-tradeoff", &scale, 7).expect("a row");
        assert_eq!(fig.id, "arms-decay-tradeoff");
        assert_eq!(fig.columns.len(), 10);
        assert_eq!(fig.rows.len(), 4);
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len());
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Permanent bans reinstate nobody; decaying caps do.
        assert_eq!(fig.rows[0][7], 0.0, "permanent: no reinstatements");
        assert!(
            fig.rows.iter().skip(1).any(|r| r[7] > 0.0),
            "some decaying half-life must reinstate: {:?}",
            fig.rows
        );
    }
}
