//! The figure table: every figure of the suite is one row — its id, its
//! title and the runner that computes it — declared once, in its family's
//! module.

use crate::experiments::{
    arms_figs, attack_figs, chaos_figs, defense_figs, extensions, nps_figs, vivaldi_figs,
    FigureResult, Scale,
};

/// One row of the figure table.
pub(crate) struct Figure {
    /// What `figures <id>` selects and `<id>.csv` is named after.
    pub id: &'static str,
    /// The caption: the first line of the CSV and the `--list` text.
    pub title: &'static str,
    /// The table under that caption, from a scale and a master seed.
    pub run: fn(&Scale, u64) -> FigureResult,
}

/// The families in suite order: the paper's figures 1–13 (Vivaldi) and
/// 14–26 (NPS; figure 17 is a diagram, its row emits the closed forms it
/// illustrates), then the extensions beyond the paper's evaluation — attack
/// timing and benign faults, the attackkit strategies, the defensekit
/// sweeps, the adaptive attackers, and the fault-injection sweeps.
const FAMILIES: [&[Figure]; 7] = [
    vivaldi_figs::FIGURES,
    nps_figs::FIGURES,
    extensions::FIGURES,
    attack_figs::FIGURES,
    defense_figs::FIGURES,
    arms_figs::FIGURES,
    chaos_figs::FIGURES,
];

fn figures() -> impl Iterator<Item = &'static Figure> {
    FAMILIES.iter().copied().flatten()
}

fn find(id: &str) -> Option<&'static Figure> {
    figures().find(|figure| figure.id == id)
}

/// All known figure ids, in suite order.
pub fn figure_ids() -> Vec<&'static str> {
    // Sized up front: a flattened iterator has no length to collect by.
    let mut ids = Vec::with_capacity(FAMILIES.iter().map(|family| family.len()).sum());
    ids.extend(figures().map(|figure| figure.id));
    ids
}

/// The title of a figure id, if known.
pub fn describe(id: &str) -> Option<&'static str> {
    find(id).map(|figure| figure.title)
}

/// Run one figure by id. Returns `None` for unknown ids.
pub fn run_figure(id: &str, scale: &Scale, seed: u64) -> Option<FigureResult> {
    find(id).map(|figure| FigureResult {
        id: figure.id.into(),
        title: figure.title.into(),
        ..(figure.run)(scale, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_evaluation_figure() {
        let ids = figure_ids();
        assert_eq!(
            ids.len(),
            49,
            "26 paper figures + 2 extensions + 3 attackkit sweeps + 4 defensekit \
             sweeps + 5 arms-race sweeps + 9 chaos sweeps"
        );
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "an id is declared twice");
        for k in 1..=26 {
            assert!(ids.contains(&format!("fig{k}").as_str()), "missing fig{k}");
        }
        for (prefix, count) in [
            ("ext-", 2),
            ("atk-", 3),
            ("def-", 4),
            ("arms-", 5),
            ("chaos-", 9),
        ] {
            let family = ids.iter().filter(|id| id.starts_with(prefix)).count();
            assert_eq!(family, count, "{prefix}* figures");
        }
    }

    #[test]
    fn unknown_figure_is_none() {
        assert!(run_figure("fig99", &Scale::smoke(), 0).is_none());
        assert!(describe("fig99").is_none());
        assert!(describe("fig21").is_some());
    }

    #[test]
    fn fig17_runs_instantly() {
        let fig = run_figure("fig17", &Scale::smoke(), 0).unwrap();
        assert_eq!(fig.id, "fig17");
        assert_eq!(Some(fig.title.as_str()), describe("fig17"));
        assert!(!fig.rows.is_empty());
    }
}
