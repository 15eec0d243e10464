//! Figure runners for the NPS attacks (paper figures 14–26).
//!
//! x axes are repositioning rounds (one round ≈ 60 s simulated); attack
//! injection happens at `scale.nps_warmup_rounds`.

use crate::attacks::nps::{
    victim_pool, NpsAntiDetection, NpsCollusionIsolation, NpsCombined, NpsSimpleDisorder,
};
use crate::experiments::harness::{honest, plain, repeat_all, Adversary, Choice, Run, RunSpec};
use crate::experiments::registry::Figure;
use crate::experiments::shapes::{
    attacked_err, cdf_by_fraction, cdf_rows, cross, mean_of, mean_series, pct, pooled_cdf,
    series_rows,
};
use crate::experiments::{FigureResult, Scale};
use crate::knowledge::Knowledge;
use vcoord_attackkit::AttackStrategy;
use vcoord_metrics::stats::mean;
use vcoord_metrics::FilterLedger;
use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::Space;

type Attack<'a> = Adversary<'a, NpsSim>;

fn disorder() -> Box<dyn AttackStrategy> {
    Box::new(NpsSimpleDisorder)
}

fn anti_detection(knowledge: Knowledge, sophisticated: bool) -> Box<dyn AttackStrategy> {
    Box::new(if sophisticated {
        NpsAntiDetection::sophisticated(knowledge)
    } else {
        NpsAntiDetection::naive(knowledge)
    })
}

/// Colluding isolation; victims are reported as the focus set so the
/// harness can track their error separately (figure 25).
fn collusion(sim: &NpsSim, attackers: &[usize], seeds: &SeedStream) -> Choice {
    // Choose the common victim set here so it can double as the focus
    // set; pass it to the adversary as a preset.
    let pool = victim_pool(
        sim.matrix().len(),
        |i| sim.layers_of()[i],
        |i| attackers.contains(&i),
        &mut seeds.rng("collusion-victims"),
    );
    let mut adv = NpsCollusionIsolation::default();
    adv.preset_victims(pool.iter().copied().collect());
    (Box::new(adv), Some(pool))
}

/// One scenario: `fraction` of the `config` system's ordinary nodes turn to
/// `adversary`.
fn scenario<'a>(
    scale: &'a Scale,
    config: NpsConfig,
    fraction: f64,
    seed: u64,
    adversary: &'a Attack<'a>,
) -> RunSpec<'a, NpsSim> {
    RunSpec {
        config,
        fraction,
        adversary,
        ..RunSpec::new(scale, seed)
    }
}

/// The default system with the security filter switched on or off (the
/// probe threshold stays on either way: the paper's comparison).
fn with_security(security: bool) -> NpsConfig {
    NpsConfig {
        security,
        ..NpsConfig::default()
    }
}

/// Converged error of the designated victims, averaged over the
/// repetitions that tracked any.
fn victim_err(runs: &[Run]) -> f64 {
    let tails: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.focus_series.as_ref().map(|s| s.tail_mean(3)))
        .collect();
    mean(&tails)
}

/// Error-vs-time figure over fractions × configs (figures 14, 18, 26).
fn error_vs_time(
    scale: &Scale,
    seed: u64,
    fractions: &[f64],
    configs: &[(&str, NpsConfig)],
    adversary: &Attack,
) -> FigureResult {
    let mut fig = FigureResult::new(vec!["round".to_string()]);
    let cells: Vec<_> = cross(fractions, configs).collect();
    let specs: Vec<_> = cells
        .iter()
        .map(|&(&f, (_, config))| scenario(scale, config.clone(), f, seed, adversary))
        .collect();
    let runs = repeat_all(&specs);
    let mut all_series = Vec::new();
    for (&(&f, (label, _)), runs) in cells.iter().zip(&runs) {
        fig.columns.push(format!("err_{}pct_{label}", pct(f)));
        let avg = mean_series(runs, |r| r.attack_series.clone());
        fig.notes.push(format!(
            "{}% {label}: clean {:.2} -> attacked {:.2}",
            pct(f),
            mean_of(runs, |r| r.clean_ref),
            avg.tail_mean(3)
        ));
        all_series.push(avg);
    }
    fig.rows = series_rows(&all_series);
    fig
}

/// Figure 15 — independent disorder: CDF, security on vs off.
fn fig15(scale: &Scale, seed: u64) -> FigureResult {
    let mut fig = FigureResult::new(vec!["quantile".to_string()]);
    let cells: Vec<_> = cross(&[0.20, 0.40], &[("off", false), ("on", true)]).collect();
    let adversary = plain(disorder);
    let specs: Vec<_> = cells
        .iter()
        .map(|&(&f, &(_, security))| scenario(scale, with_security(security), f, seed, &adversary))
        .collect();
    let runs = repeat_all(&specs);
    let mut cdfs = Vec::new();
    for (&(&f, &(label, _)), runs) in cells.iter().zip(&runs) {
        fig.columns.push(format!("err_{}pct_sec_{label}", pct(f)));
        let cdf = pooled_cdf(runs);
        fig.notes.push(format!(
            "{}% sec={label}: median {:.2}",
            pct(f),
            cdf.median()
        ));
        cdfs.push(cdf);
    }
    fig.rows = cdf_rows(&cdfs);
    fig
}

/// Figure 16 — independent disorder: impact of dimensionality.
fn fig16(scale: &Scale, seed: u64) -> FigureResult {
    let dims = [2usize, 4, 8, 12];
    let fractions = [0.10, 0.20, 0.30, 0.50];
    let mut columns = vec!["fraction_pct".to_string()];
    columns.extend(dims.iter().map(|d| format!("err_{d}D")));
    let mut fig = FigureResult::new(columns);
    let adversary = plain(disorder);
    let specs: Vec<_> = cross(&fractions, &dims)
        .map(|(&f, &d)| {
            let config = NpsConfig::in_space(Space::Euclidean(d));
            scenario(scale, config, f, seed, &adversary)
        })
        .collect();
    let runs = repeat_all(&specs);
    for (k, (&f, per_dim)) in fractions.iter().zip(runs.chunks(dims.len())).enumerate() {
        let mut row = vec![f * 100.0];
        for (d, runs) in dims.iter().zip(per_dim) {
            row.push(attacked_err(runs));
            if k == 0 {
                fig.notes.push(format!(
                    "{d}D clean error {:.2}",
                    mean_of(runs, |r| r.clean_ref)
                ));
            }
        }
        fig.rows.push(row);
    }
    fig
}

/// Figure 17 is the anti-detection geometry *diagram*; this runner emits
/// the closed-form quantities it illustrates (push bound per α, and the
/// sophistication cut for the 5 s threshold), which are unit-tested in
/// `attacks::geometry`.
fn fig17(_scale: &Scale, _seed: u64) -> FigureResult {
    use crate::attacks::geometry::{naive_push_bound, sophistication_cut_ms};
    let alphas = [0.0, 1.0, 2.0, 4.0];
    let rows: Vec<Vec<f64>> = alphas
        .iter()
        .map(|&a| {
            vec![
                a,
                naive_push_bound(a),
                sophistication_cut_ms(5_000.0, naive_push_bound(a)),
            ]
        })
        .collect();
    let mut fig = FigureResult::new(vec![
        "alpha".into(),
        "push_bound_x_d".into(),
        "victim_cut_ms".into(),
    ]);
    fig.rows = rows;
    fig.notes = vec![
        "fig 17 in the paper is a geometry diagram, not a data plot".into(),
        "lie construction verified by attacks::geometry unit tests".into(),
    ];
    fig
}

enum KnowledgeMetric {
    ErrorRatio,
    FilteredMaliciousRatio,
}

/// Anti-detection attackers at each victim-coordinate knowledge level
/// (figures 19, 20, 22): one `metric` column per level, per fraction.
fn knowledge_sweep(
    scale: &Scale,
    seed: u64,
    sophisticated: bool,
    metric: KnowledgeMetric,
) -> FigureResult {
    let knowledges = [Knowledge::None, Knowledge::half(), Knowledge::Oracle];
    let fractions = [0.05, 0.10, 0.20, 0.30];
    let mut columns = vec!["fraction_pct".to_string()];
    columns.extend(knowledges.iter().map(|k| format!("p{}", k.probability())));
    let mut fig = FigureResult::new(columns);
    let adversaries = knowledges.map(|k| plain(move || anti_detection(k, sophisticated)));
    let specs: Vec<_> = cross(&fractions, &adversaries)
        .map(|(&f, a)| scenario(scale, NpsConfig::default(), f, seed, a))
        .collect();
    let runs = repeat_all(&specs);
    for (&f, per_knowledge) in fractions.iter().zip(runs.chunks(knowledges.len())) {
        let mut row = vec![f * 100.0];
        for (&k, runs) in knowledges.iter().zip(per_knowledge) {
            row.push(match metric {
                KnowledgeMetric::ErrorRatio => mean_of(runs, |r| {
                    r.attack_series.tail_mean(3) / r.clean_ref.max(1e-9)
                }),
                KnowledgeMetric::FilteredMaliciousRatio => {
                    // Pool filter events over repetitions (single runs may
                    // have few events).
                    let mut pooled = FilterLedger::new();
                    for r in runs {
                        pooled.merge(&r.ledger);
                    }
                    fig.notes.push(format!(
                        "{}% p={}: filter events {} (malicious {}), threshold bans {}",
                        pct(f),
                        k.probability(),
                        pooled.total(),
                        pooled.filtered_malicious,
                        runs.iter().map(|r| r.threshold_ledger.total()).sum::<u64>()
                    ));
                    pooled.malicious_ratio().unwrap_or(0.0)
                }
            });
        }
        fig.rows.push(row);
    }
    fig
}

/// Colluding isolation on a `layers`-layer system (figures 23, 24).
fn collusion_cdf(layers: usize, scale: &Scale, seed: u64) -> FigureResult {
    cdf_by_fraction(
        &RunSpec::<NpsSim> {
            config: NpsConfig::with_layers(layers),
            adversary: &collusion,
            ..RunSpec::new(scale, seed)
        },
        &[0.10, 0.20, 0.30],
        |pct, runs, cdf| {
            format!(
                "{layers}-layer {pct}%: system median {:.2}, victim avg {:.2}",
                cdf.median(),
                victim_err(runs)
            )
        },
    )
}

/// Figure 25 — colluding isolation: propagation of errors across layers
/// (layer-2 victims vs layer-3 nodes, clean vs 20 % corrupted).
fn fig25(scale: &Scale, seed: u64) -> FigureResult {
    let runs = repeat_all(&[
        // Corrupted 3-layer and 4-layer systems.
        scenario(scale, NpsConfig::with_layers(3), 0.20, seed, &collusion),
        scenario(scale, NpsConfig::with_layers(4), 0.20, seed, &collusion),
        // Clean references: no attackers, the same injection instant.
        scenario(scale, NpsConfig::with_layers(3), 0.0, seed, &honest),
        scenario(scale, NpsConfig::with_layers(4), 0.0, seed, &honest),
    ]);
    let (r3, r4, c3, c4) = (&runs[0], &runs[1], &runs[2], &runs[3]);

    let layer_avg = |runs: &[Run], layer: u8| -> f64 {
        let tails: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.layer_series.iter().filter(|(l, _)| *l == layer))
            .map(|(_, s)| s.tail_mean(3))
            .collect();
        mean(&tails)
    };

    let rows = vec![
        vec![3.0, 2.0, layer_avg(c3, 2), layer_avg(r3, 2), victim_err(r3)],
        vec![4.0, 2.0, layer_avg(c4, 2), layer_avg(r4, 2), victim_err(r4)],
        vec![4.0, 3.0, layer_avg(c4, 3), layer_avg(r4, 3), f64::NAN],
    ];
    let mut fig = FigureResult::new(vec![
        "system_layers".into(),
        "layer".into(),
        "clean_err".into(),
        "attacked_err".into(),
        "victim_err".into(),
    ]);
    fig.notes = vec![
        format!(
            "layer-2 victim error similar across structures: 3L {:.2} vs 4L {:.2}",
            victim_err(r3),
            victim_err(r4)
        ),
        format!(
            "layer-3 amplification in 4-layer system: clean {:.2} -> attacked {:.2}",
            layer_avg(c4, 3),
            layer_avg(r4, 3)
        ),
    ];
    fig.rows = rows;
    fig
}

/// Figures 14–26 (§5.3): independent disorder (14–16), the anti-detection
/// geometry (17) and its naive (18–20) and sophisticated (21–22) attackers,
/// colluding isolation (23–25) and the combined attacks (26). The probe
/// threshold stays on wherever the security filter is switched.
pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        id: "fig14",
        title: "Injection of independent Disorder attackers on NPS (security off vs on): average relative error",
        run: |scale, seed| {
            error_vs_time(
                scale,
                seed,
                &[0.10, 0.20, 0.30, 0.50],
                &[("off", with_security(false)), ("on", with_security(true))],
                &plain(disorder),
            )
        },
    },
    Figure {
        id: "fig15",
        title: "Injection of independent Disorder attackers on NPS: CDF",
        run: fig15,
    },
    Figure {
        id: "fig16",
        title: "Injection of independent Disorder attackers on NPS: impact of dimensionality",
        run: fig16,
    },
    Figure {
        id: "fig17",
        title: "Anti-detection NPS attack geometry (diagram; closed forms)",
        run: fig17,
    },
    Figure {
        id: "fig18",
        title: "Injection in NPS of anti-detection naive attackers: impact on convergence",
        run: |scale, seed| {
            error_vs_time(
                scale,
                seed,
                &[0.10, 0.20, 0.30],
                &[
                    ("secOn", with_security(true)),
                    ("secOff", with_security(false)),
                ],
                &plain(|| anti_detection(Knowledge::half(), false)),
            )
        },
    },
    Figure {
        id: "fig19",
        title: "Injection in NPS of anti-detection naive attackers: effect of victim coordinate knowledge",
        run: |scale, seed| knowledge_sweep(scale, seed, false, KnowledgeMetric::ErrorRatio),
    },
    // The filtered-malicious share of all filter events, per knowledge
    // level: naive attackers, then (figure 22) sophisticated ones.
    Figure {
        id: "fig20",
        title: "Anti-detection naive attackers: filtered-malicious share of all filter events",
        run: |scale, seed| {
            knowledge_sweep(scale, seed, false, KnowledgeMetric::FilteredMaliciousRatio)
        },
    },
    Figure {
        id: "fig21",
        title: "Injected anti-detection sophisticated attacks on NPS: CDF",
        run: |scale, seed| {
            cdf_by_fraction(
                &RunSpec::<NpsSim> {
                    adversary: &plain(|| anti_detection(Knowledge::half(), true)),
                    ..RunSpec::new(scale, seed)
                },
                &[0.10, 0.20, 0.30],
                |pct, runs, cdf| {
                    let clean = mean_of(runs, |r| r.clean_ref);
                    format!(
                        "{pct}%: median {:.2} (clean system mean ≈ {clean:.2}); fraction worse than clean mean: {:.2}",
                        cdf.median(),
                        1.0 - cdf.fraction_below(clean)
                    )
                },
            )
        },
    },
    Figure {
        id: "fig22",
        title: "Anti-detection sophisticated attackers: filtered-malicious share per knowledge level",
        run: |scale, seed| {
            knowledge_sweep(scale, seed, true, KnowledgeMetric::FilteredMaliciousRatio)
        },
    },
    Figure {
        id: "fig23",
        title: "Injection of colluding Isolation attack on NPS (3-layer): CDF of relative errors",
        run: |scale, seed| collusion_cdf(3, scale, seed),
    },
    Figure {
        id: "fig24",
        title: "Injection of colluding Isolation attack on NPS (4-layer): CDF of relative errors",
        run: |scale, seed| collusion_cdf(4, scale, seed),
    },
    Figure {
        id: "fig25",
        title: "Colluding Isolation on NPS: propagation of errors across layers",
        run: fig25,
    },
    Figure {
        id: "fig26",
        title: "Injection of combined attacks on NPS: impact on convergence",
        run: |scale, seed| {
            error_vs_time(
                scale,
                seed,
                &[0.05, 0.10, 0.15],
                &[("combined", NpsConfig::default())],
                &plain(|| Box::new(NpsCombined::default())),
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_figure;

    #[test]
    fn fig17_is_static_and_correct() {
        let fig = fig17(&Scale::smoke(), 0);
        assert_eq!(fig.rows.len(), 4);
        // α = 2 row: bound 399.
        let row = &fig.rows[2];
        assert_eq!(row[0], 2.0);
        assert!((row[1] - 399.0).abs() < 1e-9);
    }

    #[test]
    fn fig14_smoke_shows_attack_effect() {
        let scale = Scale::smoke();
        let fig = run_figure("fig14", &scale, 5).expect("fig14 is a row");
        assert!(!fig.rows.is_empty());
        assert_eq!(fig.columns.len(), 1 + 4 * 2);
    }
}
