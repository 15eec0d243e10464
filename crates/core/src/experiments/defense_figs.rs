//! Figure runners for the defense/detection sweeps (`def-*`): every
//! attackkit strategy crossed with every defensekit strategy, on both
//! systems, plus a frog-boiling drift study and a ROC curve.
//!
//! The sweep surface answers the question the paper leaves open — *how
//! much attack does a defended system absorb?* — and makes the headline
//! claim measurable: error-based filters (MAD outlier rejection, EWMA
//! change-point detection) stop the loud attacks but are structurally
//! blind to frog-boiling, while the drift cap (a bound on the mean
//! *signed* residual a neighbor may sustain — the drag that actually moves
//! victims) catches it with a false-positive rate of zero on honest runs.
//!
//! Detection quality is graded node-level against attackkit's ground-truth
//! malicious set (see `harness::DETECTION_MIN_FLAGS`): TPR = flagged
//! malicious / all malicious, FPR = flagged honest / all honest.

use crate::experiments::attack_figs::STRATEGIES;
use crate::experiments::harness::{repeat_all, Deploy, RunSpec, System};
use crate::experiments::registry::Figure;
use crate::experiments::shapes::{mean_series, series_rows, Block, Cell, Defense, Matrix};
use crate::experiments::{FigureResult, Scale};
use vcoord_attackkit::FrogBoiling;
use vcoord_defense::{
    DefenseStrategy, DriftCap, EwmaChangePoint, NoDefense, ResidualOutlier, TriangleCheck,
    TrustedBaseline,
};
use vcoord_nps::NpsSim;
use vcoord_vivaldi::VivaldiSim;

/// The defenses swept by the `def-*` figures, in CSV column order.
const DEFENSES: [Defense; 6] = [
    ("none", |_| Box::new(NoDefense)),
    ("mad_outlier", |_| Box::new(ResidualOutlier::default())),
    ("ewma_cpd", |_| Box::new(EwmaChangePoint::default())),
    ("drift_cap", |_| Box::new(DriftCap::default())),
    ("triangle", |_| Box::new(TriangleCheck)),
    ("trusted", |trusted| {
        Box::new(TrustedBaseline::new(trusted.iter().copied()))
    }),
];

/// Malicious fraction of the attack×defense sweeps (the paper's standard
/// heavy-attack share).
const FRACTION: f64 = 0.30;

/// Error under every defense; detection quality under the real ones.
const BLOCKS: [Block; 3] = [
    ("err", 0, |c| c.err),
    ("tpr", 1, Cell::tpr),
    ("fpr", 1, Cell::fpr),
];

fn sweep_note(attack: &str, cells: &[Cell]) -> String {
    // Best real defense by error, with its detection quality.
    let (best_idx, best) = cells
        .iter()
        .enumerate()
        .skip(1)
        .min_by(|a, b| a.1.err.partial_cmp(&b.1.err).unwrap())
        .expect("non-empty defense set");
    format!(
        "{attack}: undefended err {:.2}; best defense {} (err {:.2}, tpr {:.2}, fpr {:.2}); drift-cap tpr {:.2}",
        cells[0].err,
        DEFENSES[best_idx].0,
        best.err,
        best.tpr(),
        best.fpr(),
        cells[3].tpr(),
    )
}

/// The full attack×defense matrix at 30 % malicious: converged honest
/// error per cell plus node-level TPR/FPR per defense.
fn sweep<S: System>(scale: &Scale, seed: u64) -> Matrix<'_, S> {
    Matrix {
        base: RunSpec {
            fraction: FRACTION,
            ..RunSpec::new(scale, seed)
        },
        attacks: &STRATEGIES,
        defenses: &DEFENSES,
        blocks: &BLOCKS,
        note: sweep_note,
    }
}

/// Frog-boiling on Vivaldi at 30 % malicious against `defense`.
fn frog_vs<'a>(
    scale: &'a Scale,
    seed: u64,
    defense: &'a Deploy<'a, VivaldiSim>,
) -> RunSpec<'a, VivaldiSim> {
    RunSpec {
        fraction: FRACTION,
        adversary: &|_, _, _| (Box::new(FrogBoiling::default()), None),
        defense: Some(defense),
        ..RunSpec::new(scale, seed)
    }
}

/// `def-frog-drift` — frog-boiling on Vivaldi (30 % malicious) under no
/// defense, the MAD outlier filter, and the drift cap: honest-population
/// drift velocity and error over time.
///
/// The point of the figure: the residual filter can only touch the drift
/// by cascading — as the attack degrades the embedding, honest residuals
/// overflow a threshold calibrated on the shrinking accepted population,
/// and the filter ends up rejecting half the honest nodes' samples (the
/// paper's figure-20/22 filter inversion, against a generic filter). The
/// drift cap reaches the same drift reduction by banning exactly the
/// colluders — the *integrated* directed pull is what it bounds — at a
/// false-positive rate of zero.
fn def_frog_drift(scale: &Scale, seed: u64) -> FigureResult {
    // none, mad_outlier, drift_cap
    let defenses = [DEFENSES[0], DEFENSES[1], DEFENSES[3]];
    let mut columns = vec!["tick".to_string()];
    columns.extend(defenses.iter().map(|(d, _)| format!("drift_{d}")));
    columns.extend(defenses.iter().map(|(d, _)| format!("err_{d}")));
    let mut fig = FigureResult::new(columns);
    let deploys = defenses.map(|(_, make)| move |sim: &VivaldiSim| make(&sim.trusted()));
    let specs: Vec<_> = deploys
        .iter()
        .map(|deploy| frog_vs(scale, seed, deploy))
        .collect();
    let runs = repeat_all(&specs);
    let mut drift_avgs = Vec::new();
    let mut err_avgs = Vec::new();
    for ((defense, _), runs) in defenses.iter().zip(&runs) {
        let cell = Cell::of(runs);
        let drift_avg = mean_series(runs, |r| r.drift_series.clone());
        fig.notes.push(format!(
            "{defense}: steady drift {:.2} ms/tick, final err {:.2}, tpr {:.2}, fpr {:.2}, {} rejections",
            drift_avg.tail_mean(3),
            cell.err,
            cell.tpr(),
            cell.fpr(),
            cell.rejected,
        ));
        drift_avgs.push(drift_avg);
        err_avgs.push(mean_series(runs, |r| r.attack_series.clone()));
    }
    drift_avgs.extend(err_avgs);
    fig.rows = series_rows(&drift_avgs);
    fig
}

/// `def-roc` — detection ROC points under frog-boiling on Vivaldi (30 %
/// malicious): the drift cap swept over its drag threshold next to the MAD
/// filter swept over its `k`, each point one (FPR, TPR) pair.
///
/// The expected shape is the tentpole claim in one figure: the drift-cap
/// curve reaches the top-left corner (full detection at zero false
/// positives) while the MAD curve hugs the floor at every threshold —
/// frog-boiling is invisible to error-magnitude detection at any
/// sensitivity.
fn def_roc(scale: &Scale, seed: u64) -> FigureResult {
    let caps = [10.0, 20.0, 40.0, 80.0, 160.0];
    let ks = [1.0, 2.0, 3.0, 4.0, 6.0];
    let drift_caps = caps.map(|cap| {
        move |_: &VivaldiSim| -> Box<dyn DefenseStrategy> { Box::new(DriftCap::new(cap)) }
    });
    let mads = ks.map(|k| {
        move |_: &VivaldiSim| -> Box<dyn DefenseStrategy> { Box::new(ResidualOutlier::new(k)) }
    });
    // Per point, the drift cap's cell, then the MAD filter's.
    let specs: Vec<_> = drift_caps
        .iter()
        .zip(&mads)
        .flat_map(|(cap, mad)| [frog_vs(scale, seed, cap), frog_vs(scale, seed, mad)])
        .collect();
    let cells = Cell::all(&specs);
    let columns = vec![
        "point_idx".to_string(),
        "drift_cap_ms".to_string(),
        "tpr_drift_cap".to_string(),
        "fpr_drift_cap".to_string(),
        "mad_k".to_string(),
        "tpr_mad".to_string(),
        "fpr_mad".to_string(),
    ];
    let mut fig = FigureResult::new(columns);
    for (i, pair) in cells.chunks(2).enumerate() {
        let (cap, k) = (caps[i], ks[i]);
        let (dr_tpr, dr_fpr) = (pair[0].tpr(), pair[0].fpr());
        let (mad_tpr, mad_fpr) = (pair[1].tpr(), pair[1].fpr());
        fig.rows
            .push(vec![i as f64, cap, dr_tpr, dr_fpr, k, mad_tpr, mad_fpr]);
        fig.notes.push(format!(
            "cap {cap} ms: drift-cap ({dr_fpr:.2}, {dr_tpr:.2}); mad k={k}: ({mad_fpr:.2}, {mad_tpr:.2}) as (fpr, tpr)"
        ));
    }
    fig
}

/// The defensekit figures: the full attack×defense matrix on Vivaldi and on
/// NPS (default 3-layer hierarchy, built-in security filter on, the defense
/// layered on top), then the frog-boiling drift study and ROC.
pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        id: "def-sweep-vivaldi",
        title:
            "defensekit strategies vs attackkit strategies on Vivaldi: error and detection quality",
        run: |scale, seed| sweep::<VivaldiSim>(scale, seed).figure(),
    },
    Figure {
        id: "def-sweep-nps",
        title: "defensekit strategies vs attackkit strategies on NPS: error and detection quality",
        run: |scale, seed| sweep::<NpsSim>(scale, seed).figure(),
    },
    Figure {
        id: "def-frog-drift",
        title: "Frog-boiling vs defenses on Vivaldi: drift velocity and error over time",
        run: def_frog_drift,
    },
    Figure {
        id: "def-roc",
        title: "Frog-boiling detection ROC on Vivaldi: drift cap vs MAD outlier filter",
        run: def_roc,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_figure;
    use vcoord_netsim::SeedStream;
    use vcoord_topo::RttMatrix;

    #[test]
    fn vivaldi_trusted_is_small_but_nonempty() {
        let trusted = |n| {
            let sim = VivaldiSim::new(RttMatrix::zeros(n), Default::default(), &SeedStream::new(1));
            sim.trusted().len()
        };
        assert_eq!(trusted(400), 40);
        assert_eq!(trusted(72), 8);
        assert_eq!(trusted(4), 4, "clamped to the population");
    }

    #[test]
    fn frog_drift_figure_shows_drift_cap_mitigation() {
        let scale = Scale::smoke();
        let fig = run_figure("def-frog-drift", &scale, 7).expect("a row");
        assert_eq!(fig.id, "def-frog-drift");
        assert_eq!(fig.columns.len(), 7);
        assert!(!fig.rows.is_empty());
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len());
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Tail drift: the drift cap must beat no-defense decisively.
        let tail: Vec<&Vec<f64>> = fig.rows.iter().rev().take(3).collect();
        let tail_mean =
            |col: usize| -> f64 { tail.iter().map(|r| r[col]).sum::<f64>() / tail.len() as f64 };
        let (drift_none, drift_cap) = (tail_mean(1), tail_mean(3));
        assert!(
            drift_cap < drift_none * 0.5,
            "drift cap must kill the drift: none {drift_none:.2} vs capped {drift_cap:.2}"
        );
    }

    #[test]
    fn drift_cap_detects_frog_cleanly_where_mad_pays_collateral() {
        // The tentpole claim, asserted at the harness level: under
        // frog-boiling the drift cap separates colluders from honest
        // nodes (high TPR, zero FPR), while the MAD filter — whatever it
        // does to the drift — cannot act without defaming a substantial
        // share of the dragged honest population.
        let scale = Scale::smoke();
        let cells = Matrix {
            attacks: &STRATEGIES[..1],
            defenses: &[DEFENSES[3], DEFENSES[1]],
            ..sweep::<VivaldiSim>(&scale, 2006)
        }
        .cells();
        let (frog, mad) = (&cells[0], &cells[1]);
        assert!(frog.tpr() > 0.9, "drift cap tpr {:.2}", frog.tpr());
        assert_eq!(frog.fpr(), 0.0, "drift cap must not defame honest nodes");
        assert!(
            mad.fpr() > 0.2,
            "error-based filtering under frog-boiling acts only via honest \
             collateral (the fig-20/22 inversion): fpr {:.2}",
            mad.fpr()
        );
    }

    #[test]
    fn roc_figure_shape() {
        let scale = Scale::smoke();
        let fig = def_roc(&scale, 7);
        assert_eq!(fig.columns.len(), 7);
        assert_eq!(fig.rows.len(), 5);
        for row in &fig.rows {
            for v in &row[2..4] {
                assert!((0.0..=1.0).contains(v), "rates in [0,1]: {row:?}");
            }
        }
    }
}
