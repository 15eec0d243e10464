//! Figure runners for the NPS attacks (paper figures 14–26).
//!
//! x axes are repositioning rounds (one round ≈ 60 s simulated); attack
//! injection happens at `scale.nps_warmup_rounds`.

use crate::attacks::nps::{
    NpsAntiDetection, NpsCollusionIsolation, NpsCombined, NpsSimpleDisorder,
};
use crate::experiments::harness::{honest, plain, repeat_all, Adversary, Choice, Run, RunSpec};
use crate::experiments::shapes::{
    attacked_err, cdf_by_fraction, cdf_rows, cross, mean_of, mean_series, pct, pooled_cdf,
    series_rows,
};
use crate::experiments::{FigureResult, Scale};
use crate::knowledge::Knowledge;
use rand::seq::SliceRandom;
use vcoord_attackkit::AttackStrategy;
use vcoord_metrics::stats::mean;
use vcoord_metrics::FilterLedger;
use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::Space;

type Attack<'a> = Adversary<'a, NpsSim>;

fn disorder() -> Box<dyn AttackStrategy> {
    Box::new(NpsSimpleDisorder::default())
}

fn anti_detection(knowledge: Knowledge, sophisticated: bool) -> Box<dyn AttackStrategy> {
    Box::new(if sophisticated {
        NpsAntiDetection::sophisticated(knowledge)
    } else {
        NpsAntiDetection::naive(knowledge)
    })
}

/// Share of the honest layer-2 nodes the colluders designate as victims.
const VICTIM_FRACTION: f64 = 0.2;

/// Colluding isolation; victims are reported as the focus set so the
/// harness can track their error separately (figure 25).
fn collusion(sim: &NpsSim, attackers: &[usize], seeds: &SeedStream) -> Choice {
    // Choose the common victim set here so it can double as the focus
    // set; pass it to the adversary as a preset.
    let mut pool: Vec<usize> = (0..sim.matrix().len())
        .filter(|&i| sim.layers_of()[i] == 2 && !attackers.contains(&i))
        .collect();
    pool.shuffle(&mut seeds.rng("collusion-victims"));
    let k = ((pool.len() as f64) * VICTIM_FRACTION).round().max(1.0) as usize;
    pool.truncate(k);
    let mut adv = NpsCollusionIsolation::new(VICTIM_FRACTION);
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
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    fractions: &[f64],
    configs: &[(&str, NpsConfig)],
    adversary: &Attack,
) -> FigureResult {
    let mut fig = FigureResult::new(id, title, vec!["round".to_string()]);
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

/// Figure 14 — independent disorder without the detection mechanism.
pub(crate) fn fig14(scale: &Scale, seed: u64) -> FigureResult {
    error_vs_time(
        "fig14",
        "Injection of independent Disorder attackers on NPS (security off vs on): average relative error",
        scale,
        seed,
        &[0.10, 0.20, 0.30, 0.50],
        &[("off", with_security(false)), ("on", with_security(true))],
        &plain(disorder),
    )
}

/// Figure 15 — independent disorder: CDF, security on vs off.
pub(crate) fn fig15(scale: &Scale, seed: u64) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig15",
        "Injection of independent Disorder attackers on NPS: CDF",
        vec!["quantile".to_string()],
    );
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
pub(crate) fn fig16(scale: &Scale, seed: u64) -> FigureResult {
    let dims = [2usize, 4, 8, 12];
    let fractions = [0.10, 0.20, 0.30, 0.50];
    let mut columns = vec!["fraction_pct".to_string()];
    columns.extend(dims.iter().map(|d| format!("err_{d}D")));
    let mut fig = FigureResult::new(
        "fig16",
        "Injection of independent Disorder attackers on NPS: impact of dimensionality",
        columns,
    );
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
pub(crate) fn fig17(_scale: &Scale, _seed: u64) -> FigureResult {
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
    FigureResult {
        id: "fig17".into(),
        title: "Anti-detection NPS attack geometry (diagram; closed forms)".into(),
        columns: vec![
            "alpha".into(),
            "push_bound_x_d".into(),
            "victim_cut_ms".into(),
        ],
        rows,
        notes: vec![
            "fig 17 in the paper is a geometry diagram, not a data plot".into(),
            "lie construction verified by attacks::geometry unit tests".into(),
        ],
    }
}

/// Figure 18 — anti-detection naive attackers: impact on convergence,
/// security on vs off (probe threshold always on).
pub(crate) fn fig18(scale: &Scale, seed: u64) -> FigureResult {
    error_vs_time(
        "fig18",
        "Injection in NPS of anti-detection naive attackers: impact on convergence",
        scale,
        seed,
        &[0.10, 0.20, 0.30],
        &[
            ("secOn", with_security(true)),
            ("secOff", with_security(false)),
        ],
        &plain(|| anti_detection(Knowledge::half(), false)),
    )
}

/// Figure 19 — anti-detection naive: effect of victim-coordinate knowledge
/// on the error ratio.
pub(crate) fn fig19(scale: &Scale, seed: u64) -> FigureResult {
    knowledge_sweep(
        "fig19",
        "Injection in NPS of anti-detection naive attackers: effect of victim coordinate knowledge",
        scale,
        seed,
        false,
        KnowledgeMetric::ErrorRatio,
    )
}

/// Figure 20 — anti-detection naive: ratio of filtered malicious nodes to
/// all filtered nodes, per knowledge level.
pub(crate) fn fig20(scale: &Scale, seed: u64) -> FigureResult {
    knowledge_sweep(
        "fig20",
        "Anti-detection naive attackers: filtered-malicious share of all filter events",
        scale,
        seed,
        false,
        KnowledgeMetric::FilteredMaliciousRatio,
    )
}

/// Figure 21 — anti-detection sophisticated attackers: CDF.
pub(crate) fn fig21(scale: &Scale, seed: u64) -> FigureResult {
    cdf_by_fraction(
        "fig21",
        "Injected anti-detection sophisticated attacks on NPS: CDF",
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
}

/// Figure 22 — anti-detection sophisticated: filtered-malicious share per
/// knowledge level.
pub(crate) fn fig22(scale: &Scale, seed: u64) -> FigureResult {
    knowledge_sweep(
        "fig22",
        "Anti-detection sophisticated attackers: filtered-malicious share per knowledge level",
        scale,
        seed,
        true,
        KnowledgeMetric::FilteredMaliciousRatio,
    )
}

enum KnowledgeMetric {
    ErrorRatio,
    FilteredMaliciousRatio,
}

fn knowledge_sweep(
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    sophisticated: bool,
    metric: KnowledgeMetric,
) -> FigureResult {
    let knowledges = [Knowledge::None, Knowledge::half(), Knowledge::Oracle];
    let fractions = [0.05, 0.10, 0.20, 0.30];
    let mut columns = vec!["fraction_pct".to_string()];
    columns.extend(knowledges.iter().map(|k| format!("p{}", k.probability())));
    let mut fig = FigureResult::new(id, title, columns);
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

/// Figure 23 — colluding isolation, 3-layer system: CDF of relative errors.
pub(crate) fn fig23(scale: &Scale, seed: u64) -> FigureResult {
    collusion_cdf("fig23", 3, scale, seed)
}

/// Figure 24 — colluding isolation, 4-layer system: CDF of relative errors.
pub(crate) fn fig24(scale: &Scale, seed: u64) -> FigureResult {
    collusion_cdf("fig24", 4, scale, seed)
}

fn collusion_cdf(id: &str, layers: usize, scale: &Scale, seed: u64) -> FigureResult {
    cdf_by_fraction(
        id,
        &format!(
            "Injection of colluding Isolation attack on NPS ({layers}-layer): CDF of relative errors"
        ),
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
pub(crate) fn fig25(scale: &Scale, seed: u64) -> FigureResult {
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
    let notes = vec![
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
    FigureResult {
        id: "fig25".into(),
        title: "Colluding Isolation on NPS: propagation of errors across layers".into(),
        columns: vec![
            "system_layers".into(),
            "layer".into(),
            "clean_err".into(),
            "attacked_err".into(),
            "victim_err".into(),
        ],
        rows,
        notes,
    }
}

/// Figure 26 — combined NPS attacks: impact on convergence.
pub(crate) fn fig26(scale: &Scale, seed: u64) -> FigureResult {
    error_vs_time(
        "fig26",
        "Injection of combined attacks on NPS: impact on convergence",
        scale,
        seed,
        &[0.05, 0.10, 0.15],
        &[("combined", NpsConfig::default())],
        &plain(|| Box::new(NpsCombined::new(Knowledge::half(), 0.2))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let fig = fig14(&scale, 5);
        assert!(!fig.rows.is_empty());
        assert_eq!(fig.columns.len(), 1 + 4 * 2);
    }
}
