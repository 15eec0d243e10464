//! Extension experiments beyond the paper's figures.
//!
//! * [`ext_genesis`] — *genesis vs injection* timing: the paper studies the
//!   injection scenario and cites its companion work (Kaafar et al.,
//!   SIGCOMM LSAD'06, reference \[9\]) for attackers present from the
//!   system's creation. This experiment runs both timings side by side on
//!   identical topologies and seeds.
//! * [`ext_faults`] — *benign faults are not attacks*: probe loss and
//!   jitter sweeps on a clean Vivaldi system versus a lightly attacked one,
//!   demonstrating that the coordinate system's robustness to benign
//!   degradation does not extend to adversarial (systematically biased)
//!   inputs.

use crate::attacks::vivaldi::VivaldiDisorder;
use crate::experiments::harness::{plain, repeat_all, Run, RunSpec};
use crate::experiments::registry::Figure;
use crate::experiments::shapes::{cross, mean_of};
use crate::experiments::{FigureResult, Scale};
use vcoord_metrics::stats::mean;
use vcoord_netsim::LinkModel;
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

/// The honest nodes' final average relative error, averaged over
/// repetitions.
fn final_err(runs: &[Run]) -> f64 {
    mean_of(runs, |r| mean(&r.final_errors))
}

/// Genesis vs injection comparison across attacker fractions.
fn ext_genesis(scale: &Scale, seed: u64) -> FigureResult {
    let fractions = [0.0, 0.10, 0.20, 0.30];
    // A genesis attacker is there before the first probe is answered: no
    // clean warm-up, and a window that ends on the injection run's last tick.
    let genesis = Scale {
        vivaldi_warmup_ticks: 0,
        vivaldi_attack_ticks: scale.vivaldi_warmup_ticks + scale.vivaldi_attack_ticks,
        ..scale.clone()
    };
    let disorder = plain(|| Box::new(VivaldiDisorder::default()));
    let specs: Vec<_> = cross(&fractions, &[&genesis, scale])
        .map(|(&fraction, &timing)| RunSpec::<VivaldiSim> {
            fraction,
            adversary: &disorder,
            ..RunSpec::new(timing, seed)
        })
        .collect();
    let runs = repeat_all(&specs);
    let mut fig = FigureResult::new(vec![
        "fraction_pct".into(),
        "err_genesis".into(),
        "err_injection".into(),
    ]);
    fig.rows = fractions
        .iter()
        .zip(runs.chunks(2))
        .map(|(&f, pair)| vec![f * 100.0, final_err(&pair[0]), final_err(&pair[1])])
        .collect();
    fig.notes = vec![
        "extension beyond the paper: §5.2 notes injection is the realistic scenario; genesis is its companion work [9]".into(),
        "a genesis attack also denies the system its clean convergence (cold-start disruption)".into(),
    ];
    fig
}

/// Benign-fault sweep vs a light attack.
fn ext_faults(scale: &Scale, seed: u64) -> FigureResult {
    let base = RunSpec::<VivaldiSim>::new(scale, seed);
    let lossy = |loss, jitter_ms| RunSpec {
        config: VivaldiConfig {
            link: LinkModel { loss, jitter_ms },
            ..VivaldiConfig::default()
        },
        ..base.clone()
    };
    let disorder = plain(|| Box::new(VivaldiDisorder::default()));
    let specs = [
        base.clone(),
        lossy(0.2, 0.0),
        lossy(0.0, 10.0),
        lossy(0.2, 10.0),
        RunSpec {
            fraction: 0.10,
            adversary: &disorder,
            ..base.clone()
        },
    ];
    let mut fig = FigureResult::new(vec!["case".into(), "avg_rel_error".into()]);
    fig.rows = repeat_all(&specs)
        .iter()
        .enumerate()
        .map(|(idx, runs)| vec![idx as f64, final_err(runs)])
        .collect();
    fig.notes = vec![
        "row index: 0=clean 1=20% loss 2=10ms jitter 3=both 4=10% disorder attackers".into(),
        "benign faults cost percent-level accuracy; a 10% attack costs orders of magnitude".into(),
    ];
    fig
}

/// The two extensions: both attack timings side by side, and benign probe
/// faults next to a light attack.
pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        id: "ext-genesis",
        title: "Extension: genesis vs injection timing of the Vivaldi disorder attack",
        run: ext_genesis,
    },
    Figure {
        id: "ext-faults",
        title: "Extension: benign probe faults vs adversarial behaviour on Vivaldi",
        run: ext_faults,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_extension_shape() {
        let scale = Scale::smoke();
        let fig = ext_genesis(&scale, 3);
        assert_eq!(fig.rows.len(), 4);
        // Fraction 0: both timings equal the clean system (within noise).
        let clean = &fig.rows[0];
        assert!(clean[1] < 1.0 && clean[2] < 1.0, "{clean:?}");
        // Attacked rows are much worse under either timing.
        let attacked = &fig.rows[3];
        assert!(attacked[1] > clean[1] * 3.0);
        assert!(attacked[2] > clean[2] * 3.0);

        // The benign-fault note: faults cost little, a light attack a lot.
        let faults = ext_faults(&scale, 3);
        let err: Vec<f64> = faults.rows.iter().map(|row| row[1]).collect();
        assert_eq!(err.len(), 5);
        for (case, &e) in err[1..4].iter().enumerate() {
            assert!(
                e < 2.0 * err[0] && err[0] < 2.0 * e,
                "case {}: {err:?}",
                case + 1
            );
        }
        assert!(err[4] >= 10.0 * err[0], "{err:?}");
    }
}
