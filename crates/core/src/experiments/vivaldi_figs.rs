//! Figure runners for the Vivaldi attacks (paper figures 1–13).
//!
//! Each row of [`FIGURES`] regenerates one figure's data series. Scaling notes:
//! x axes are simulation ticks (≈17 s each) counted from simulation start;
//! attack injection happens at `scale.vivaldi_warmup_ticks`.

use crate::attacks::vivaldi::{
    VivaldiCollusionLure, VivaldiCollusionRepel, VivaldiCombined, VivaldiDisorder, VivaldiRepulsion,
};
use crate::experiments::harness::{plain, repeat_all, Adversary, Choice, Run, RunSpec};
use crate::experiments::registry::Figure;
use crate::experiments::shapes::{
    attacked_err, cdf_by_fraction, cdf_rows, cross, mean_of, mean_series, pct, pooled_cdf,
    series_rows,
};
use crate::experiments::{FigureResult, Scale};
use rand::seq::SliceRandom;
use vcoord_attackkit::AttackStrategy;
use vcoord_metrics::TimeSeries;
use vcoord_netsim::SeedStream;
use vcoord_space::Space;
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

/// Malicious fractions used across the Vivaldi figures (§5.2).
pub(crate) const FRACTIONS: [f64; 6] = [0.10, 0.20, 0.30, 0.40, 0.50, 0.75];

type Attack<'a> = Adversary<'a, VivaldiSim>;

fn disorder() -> Box<dyn AttackStrategy> {
    Box::new(VivaldiDisorder::default())
}

fn repulsion() -> Box<dyn AttackStrategy> {
    Box::new(VivaldiRepulsion::default())
}

fn combined() -> Box<dyn AttackStrategy> {
    Box::new(VivaldiCombined::new())
}

/// A uniformly drawn honest node for the colluders to isolate. Attackers
/// are not yet flagged malicious when the adversary is built: exclude them
/// explicitly so the isolation target is a genuine victim.
fn isolation_target(sim: &VivaldiSim, attackers: &[usize], seeds: &SeedStream) -> usize {
    let honest: Vec<usize> = sim
        .honest_nodes()
        .into_iter()
        .filter(|n| !attackers.contains(n))
        .collect();
    *honest
        .choose(&mut seeds.rng("collusion-target"))
        .expect("honest nodes exist")
}

/// Collusion strategy 1: repel everyone from a random target.
fn collusion_repel(sim: &VivaldiSim, attackers: &[usize], seeds: &SeedStream) -> Choice {
    let target = isolation_target(sim, attackers, seeds);
    (
        Box::new(VivaldiCollusionRepel::against(target)),
        Some(vec![target]),
    )
}

/// Collusion strategy 2: lure a random target into a remote cluster.
fn collusion_lure(sim: &VivaldiSim, attackers: &[usize], seeds: &SeedStream) -> Choice {
    let target = isolation_target(sim, attackers, seeds);
    (
        Box::new(VivaldiCollusionLure::against(target)),
        Some(vec![target]),
    )
}

/// One scenario: `fraction` of `nodes` nodes embedded in `space` turn to
/// `adversary`.
fn scenario<'a>(
    scale: &'a Scale,
    space: Space,
    nodes: usize,
    fraction: f64,
    seed: u64,
    adversary: &'a Attack<'a>,
) -> RunSpec<'a, VivaldiSim> {
    RunSpec {
        config: VivaldiConfig::in_space(space),
        nodes,
        fraction,
        adversary,
        ..RunSpec::new(scale, seed)
    }
}

/// Ratio-vs-time figure over a set of fractions (figures 1, 9, 12).
fn ratio_vs_time(scale: &Scale, seed: u64, fractions: &[f64], adversary: &Attack) -> FigureResult {
    let mut fig = FigureResult::new(vec!["tick".to_string()]);
    let specs: Vec<_> = fractions
        .iter()
        .map(|&f| scenario(scale, Space::Euclidean(2), scale.nodes, f, seed, adversary))
        .collect();
    let runs = repeat_all(&specs);
    let mut per_fraction = Vec::new();
    for (&f, runs) in fractions.iter().zip(&runs) {
        fig.columns.push(format!("ratio_{}pct", pct(f)));
        let avg = mean_series(runs, |r| r.attack_series.ratio_to(r.clean_ref));
        fig.notes.push(format!(
            "{}% malicious: final ratio {:.1} (random-system ratio ≈ {:.0})",
            pct(f),
            avg.tail_mean(3),
            mean_of(runs, |r| r.random_baseline / r.clean_ref.max(1e-9))
        ));
        per_fraction.push(avg);
    }
    fig.rows = series_rows(&per_fraction);
    fig
}

/// CDF figure over [`FRACTIONS`] (figures 2, 5).
fn cdf_figure(scale: &Scale, seed: u64, make: fn() -> Box<dyn AttackStrategy>) -> FigureResult {
    let base = RunSpec::<VivaldiSim> {
        adversary: &plain(make),
        ..RunSpec::new(scale, seed)
    };
    cdf_by_fraction(&base, &FRACTIONS, |pct, runs, cdf| {
        let baseline = mean_of(runs, |r| r.random_baseline);
        format!(
            "{pct}% malicious: median {:.2}, p90 {:.2}, random baseline {baseline:.0}, fraction at/above random {:.2}",
            cdf.median(),
            cdf.quantile(0.9),
            1.0 - cdf.fraction_below(baseline)
        )
    })
}

/// Dimension-sweep figure (figures 3, 6): converged error per space per
/// fraction, plus the random baseline per space.
fn dimension_sweep(scale: &Scale, seed: u64, adversary: &Attack) -> FigureResult {
    let spaces = [
        Space::Euclidean(2),
        Space::Euclidean(3),
        Space::Euclidean(5),
        Space::EuclideanHeight(2),
    ];
    let fractions = [0.10, 0.20, 0.30, 0.50];
    let mut columns = vec!["fraction_pct".to_string()];
    columns.extend(spaces.iter().map(|s| format!("err_{}", s.label())));
    columns.extend(spaces.iter().map(|s| format!("rand_{}", s.label())));
    let mut fig = FigureResult::new(columns);
    let specs: Vec<_> = cross(&fractions, &spaces)
        .map(|(&f, &space)| scenario(scale, space, scale.nodes, f, seed, adversary))
        .collect();
    let runs = repeat_all(&specs);
    for (k, (&f, per_space)) in fractions.iter().zip(runs.chunks(spaces.len())).enumerate() {
        let mut row = vec![f * 100.0];
        let mut rands = Vec::new();
        for (&space, runs) in spaces.iter().zip(per_space) {
            let err = attacked_err(runs);
            let rand = mean_of(runs, |r| r.random_baseline);
            row.push(err);
            rands.push(rand);
            // The accuracy/vulnerability trade-off, read off the lowest
            // fraction.
            if k == 0 {
                fig.notes.push(format!(
                    "{}: clean {:.3}, attacked@10% {:.2}, random {:.0}",
                    space.label(),
                    mean_of(runs, |r| r.clean_ref),
                    err,
                    rand
                ));
            }
        }
        row.extend(rands);
        fig.rows.push(row);
    }
    fig
}

/// System-size sweep (figures 4, 8, 13).
fn size_sweep(scale: &Scale, seed: u64, fractions: &[f64], adversary: &Attack) -> FigureResult {
    let sizes: Vec<usize> = if scale.nodes >= 1740 {
        vec![200, 400, 800, 1200, 1740]
    } else {
        vec![(scale.nodes / 4).max(40), scale.nodes / 2, scale.nodes]
    };
    let mut columns = vec!["system_size".to_string()];
    columns.extend(fractions.iter().map(|&f| format!("err_{}pct", pct(f))));
    let mut fig = FigureResult::new(columns);
    let specs: Vec<_> = cross(&sizes, fractions)
        .map(|(&n, &f)| scenario(scale, Space::Euclidean(2), n, f, seed, adversary))
        .collect();
    let errs: Vec<f64> = repeat_all(&specs).iter().map(|r| attacked_err(r)).collect();
    for (&n, errs) in sizes.iter().zip(errs.chunks(fractions.len())) {
        let mut row = vec![n as f64];
        row.extend(errs);
        fig.rows.push(row);
    }
    let (first, last) = (&fig.rows[0], &fig.rows[sizes.len() - 1]);
    fig.notes = fractions
        .iter()
        .enumerate()
        .map(|(k, &f)| {
            format!(
                "{}% malicious: error shrinks ×{:.2} from n={} to n={} (larger is more resilient when < 1)",
                pct(f),
                last[k + 1] / first[k + 1].max(1e-9),
                first[0],
                last[0]
            )
        })
        .collect();
    fig
}

/// Figure 7 — repulsion on subsets of target nodes.
fn fig07(scale: &Scale, seed: u64) -> FigureResult {
    let shares = [0.10, 0.30, 1.00];
    let fractions = [0.10, 0.20, 0.30, 0.50];
    let mut columns = vec!["fraction_pct".to_string()];
    columns.extend(shares.iter().map(|&s| format!("err_subset_{}pct", pct(s))));
    let mut fig = FigureResult::new(columns);
    let adversaries = shares.map(|s| {
        let subset = ((scale.nodes as f64) * s).round() as usize;
        plain(move || Box::new(VivaldiRepulsion::with_subset(subset)))
    });
    let specs: Vec<_> = cross(&fractions, &adversaries)
        .map(|(&f, a)| scenario(scale, Space::Euclidean(2), scale.nodes, f, seed, a))
        .collect();
    let errs: Vec<f64> = repeat_all(&specs).iter().map(|r| attacked_err(r)).collect();
    for (&f, errs) in fractions.iter().zip(errs.chunks(shares.len())) {
        let mut row = vec![f * 100.0];
        row.extend(errs);
        fig.rows.push(row);
    }
    fig.notes
        .push("smaller independently-chosen subsets dilute the attack (paper fig. 7)".into());
    fig
}

/// Both isolation strategies at 30 % malicious, in strategy order
/// (1: repel the world, 2: lure the target).
fn isolation_runs(scale: &Scale, seed: u64) -> Vec<Vec<Run>> {
    repeat_all(
        &[&collusion_repel as &Attack, &collusion_lure].map(|adversary| {
            scenario(
                scale,
                Space::Euclidean(2),
                scale.nodes,
                0.30,
                seed,
                adversary,
            )
        }),
    )
}

/// Figure 10 — colluding isolation: the target's relative error over time,
/// strategy 1 (repel the world) vs strategy 2 (lure the target).
fn fig10(scale: &Scale, seed: u64) -> FigureResult {
    let target_err: Vec<TimeSeries> = isolation_runs(scale, seed)
        .iter()
        .map(|runs| mean_series(runs, |r| r.focus_series.clone().expect("target is tracked")))
        .collect();
    let mut fig = FigureResult::new(vec![
        "tick".into(),
        "target_err_strategy1".into(),
        "target_err_strategy2".into(),
    ]);
    fig.rows = series_rows(&target_err);
    fig.notes.push(format!(
        "target final error: strategy1 {:.2}, strategy2 {:.2} (paper: strategy 1 is more effective)",
        target_err[0].tail_mean(3),
        target_err[1].tail_mean(3)
    ));
    fig
}

/// Figure 11 — colluding isolation: CDF of relative errors under both
/// strategies.
fn fig11(scale: &Scale, seed: u64) -> FigureResult {
    let cdfs: Vec<_> = isolation_runs(scale, seed)
        .iter()
        .map(|runs| pooled_cdf(runs))
        .collect();
    let mut fig = FigureResult::new(vec![
        "quantile".into(),
        "err_strategy1".into(),
        "err_strategy2".into(),
    ]);
    fig.rows = cdf_rows(&cdfs);
    fig.notes.push(format!(
        "system-wide median error: strategy1 {:.2}, strategy2 {:.2} (strategy 1 distorts the whole space)",
        cdfs[0].median(),
        cdfs[1].median()
    ));
    fig
}

/// Figures 1–13 (§5.2): injected disorder (1–4), injected repulsion (5–8),
/// colluding isolation (9–11) and the combined attacks at low residual
/// levels (12–13).
pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        id: "fig1",
        title: "Injection of Disorder attackers on Vivaldi: average relative error ratio",
        run: |scale, seed| ratio_vs_time(scale, seed, &FRACTIONS, &plain(disorder)),
    },
    Figure {
        id: "fig2",
        title: "Injected Disorder attack on Vivaldi: CDF of relative error",
        run: |scale, seed| cdf_figure(scale, seed, disorder),
    },
    Figure {
        id: "fig3",
        title: "Injected Disorder attack on Vivaldi: impact of space dimensions",
        run: |scale, seed| dimension_sweep(scale, seed, &plain(disorder)),
    },
    Figure {
        id: "fig4",
        title: "Injection of Disorder attackers on Vivaldi: impact of system size",
        run: |scale, seed| size_sweep(scale, seed, &[0.10, 0.30, 0.50], &plain(disorder)),
    },
    Figure {
        id: "fig5",
        title: "Injected Repulsion attack on Vivaldi: CDF of relative error",
        run: |scale, seed| cdf_figure(scale, seed, repulsion),
    },
    Figure {
        id: "fig6",
        title: "Injected Repulsion attack on Vivaldi: impact of space dimensions",
        run: |scale, seed| dimension_sweep(scale, seed, &plain(repulsion)),
    },
    Figure {
        id: "fig7",
        title: "Injected Repulsion attack on subsets of target nodes",
        run: fig07,
    },
    Figure {
        id: "fig8",
        title: "Injection Repulsion attack on Vivaldi: effect of system size",
        run: |scale, seed| size_sweep(scale, seed, &[0.10, 0.30, 0.50], &plain(repulsion)),
    },
    // Strategy 1 (repel the world) at 10–50 %.
    Figure {
        id: "fig9",
        title: "Colluding Isolation attack on Vivaldi: average relative error ratio",
        run: |scale, seed| ratio_vs_time(scale, seed, &FRACTIONS[..5], &collusion_repel),
    },
    Figure {
        id: "fig10",
        title: "Colluding Isolation attack on Vivaldi: target relative error",
        run: fig10,
    },
    Figure {
        id: "fig11",
        title: "Colluding Isolation attack on Vivaldi: CDF of relative errors",
        run: fig11,
    },
    Figure {
        id: "fig12",
        title: "Combining attacks on Vivaldi: impact on convergence",
        run: |scale, seed| ratio_vs_time(scale, seed, &[0.03, 0.06, 0.09, 0.15], &plain(combined)),
    },
    Figure {
        id: "fig13",
        title: "Combined attacks on Vivaldi: effect of system size",
        run: |scale, seed| size_sweep(scale, seed, &[0.06, 0.15], &plain(combined)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_figure;

    #[test]
    fn fig01_smoke_has_expected_shape() {
        let scale = Scale::smoke();
        let fig = run_figure("fig1", &scale, 99).expect("fig1 is a row");
        assert_eq!(fig.id, "fig1");
        assert_eq!(fig.columns.len(), 1 + FRACTIONS.len());
        assert!(!fig.rows.is_empty());
        // More attackers, more damage: final ratio monotone-ish between the
        // extreme fractions.
        let last = fig.rows.last().expect("rows");
        assert!(
            last[FRACTIONS.len()] > last[1],
            "75% should beat 10%: {last:?}"
        );
    }

    #[test]
    fn fig10_tracks_targets() {
        let scale = Scale::smoke();
        let fig = fig10(&scale, 42);
        assert_eq!(fig.columns.len(), 3);
        assert!(!fig.rows.is_empty());
        let last = fig.rows.last().expect("rows");
        // Both strategies must hurt the target noticeably.
        assert!(last[1] > 1.0 || last[2] > 1.0, "{last:?}");
    }
}
