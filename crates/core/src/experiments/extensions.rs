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
use crate::experiments::registry::Figure;
use crate::experiments::shapes::cross;
use crate::experiments::{run_grid, FigureResult, GridJob, Scale};
use vcoord_metrics::stats::mean;
use vcoord_metrics::EvalPlan;
use vcoord_netsim::{LinkModel, SeedStream};
use vcoord_topo::{KingLike, KingLikeConfig};
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

/// When the malicious population becomes active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttackTiming {
    /// Attackers are present from the system's creation (reference \[9\]'s
    /// scenario): honest nodes never get a clean convergence phase.
    Genesis,
    /// Attackers are injected into a converged system (the paper's §5
    /// scenario).
    Injection,
}

/// Final average relative error of the honest nodes of one default Vivaldi
/// system over `link`, seeded from the stream `label` (the committed CSVs
/// hang on it, so it does not follow a renamed figure id): `attack` is the
/// timing and fraction of its disorder attackers, `None` a run that never
/// injects (so its trace carries no injection event either).
fn disorder_run(
    scale: &Scale,
    label: &str,
    link: LinkModel,
    attack: Option<(AttackTiming, f64)>,
    seed: u64,
    job: GridJob,
) -> f64 {
    let seeds = SeedStream::new(seed).derive_indexed(label, job.rep);
    let matrix =
        KingLike::new(KingLikeConfig::with_nodes(scale.nodes)).generate(&mut seeds.rng("topo"));
    let config = VivaldiConfig {
        link,
        ..VivaldiConfig::default()
    };
    let mut sim = VivaldiSim::new(matrix, config, &seeds);

    // A genesis attacker is there before the first probe is answered.
    let clean_ticks = match attack {
        Some((AttackTiming::Genesis, _)) => 0,
        _ => scale.vivaldi_warmup_ticks,
    };
    if clean_ticks > 0 {
        sim.run_ticks(clean_ticks);
    }
    if let Some((_, fraction)) = attack {
        let attackers = sim.pick_attackers(fraction);
        sim.inject_adversary(&attackers, Box::new(VivaldiDisorder::default()));
    }
    sim.run_ticks(scale.vivaldi_warmup_ticks + scale.vivaldi_attack_ticks - clean_ticks);
    let plan = EvalPlan::with_params(
        &sim.honest_nodes(),
        scale.eval_all_pairs_threshold,
        scale.eval_sample_peers,
        &mut seeds.rng("plan"),
    );
    plan.avg_error_with(sim.coords(), sim.space(), sim.matrix(), job.eval_threads)
}

/// Genesis vs injection comparison across attacker fractions.
fn ext_genesis(scale: &Scale, seed: u64) -> FigureResult {
    let fractions = [0.0, 0.10, 0.20, 0.30];
    let timings = [AttackTiming::Genesis, AttackTiming::Injection];
    let cells: Vec<_> = cross(&fractions, &timings).collect();
    let errs = run_grid(&vec![scale.repetitions; cells.len()], |job| {
        let (&f, &timing) = cells[job.cell];
        let attack = Some((timing, f));
        disorder_run(scale, "ext-genesis", LinkModel::ideal(), attack, seed, job)
    });
    let mut fig = FigureResult::new(vec![
        "fraction_pct".into(),
        "err_genesis".into(),
        "err_injection".into(),
    ]);
    fig.rows = fractions
        .iter()
        .zip(errs.chunks(timings.len()))
        .map(|(&f, pair)| vec![f * 100.0, mean(&pair[0]), mean(&pair[1])])
        .collect();
    fig.notes = vec![
        "extension beyond the paper: §5.2 notes injection is the realistic scenario; genesis is its companion work [9]".into(),
        "a genesis attack also denies the system its clean convergence (cold-start disruption)".into(),
    ];
    fig
}

/// Benign-fault sweep vs a light attack.
fn ext_faults(scale: &Scale, seed: u64) -> FigureResult {
    let lossy = |loss, jitter_ms| LinkModel { loss, jitter_ms };
    let cases: [(LinkModel, Option<(AttackTiming, f64)>); 5] = [
        (LinkModel::ideal(), None),
        (lossy(0.2, 0.0), None),
        (lossy(0.0, 10.0), None),
        (lossy(0.2, 10.0), None),
        (LinkModel::ideal(), Some((AttackTiming::Injection, 0.10))),
    ];
    let errs = run_grid(&vec![scale.repetitions; cases.len()], |job| {
        let (link, attack) = cases[job.cell];
        disorder_run(scale, "ext-faults", link, attack, seed, job)
    });
    let mut fig = FigureResult::new(vec!["case".into(), "avg_rel_error".into()]);
    fig.rows = errs
        .iter()
        .enumerate()
        .map(|(idx, errs)| vec![idx as f64, mean(errs)])
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
    }
}
