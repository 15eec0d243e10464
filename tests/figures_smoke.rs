//! Every figure runner executes end-to-end at smoke scale and produces a
//! structurally sound result (header/row arity, finite numbers where
//! expected, non-empty series).

use vcoord::experiments::{run_figure, Scale};

/// Vivaldi figures (fast at smoke scale) checked one by one; the NPS
/// figures are split across tests to keep wall-clock per test reasonable.
fn check(id: &str) {
    let scale = Scale::smoke();
    let fig = run_figure(id, &scale, 1).unwrap_or_else(|| panic!("unknown id {id}"));
    assert_eq!(fig.id, id);
    assert!(!fig.columns.is_empty(), "{id}: no columns");
    assert!(!fig.rows.is_empty(), "{id}: no rows");
    for (r, row) in fig.rows.iter().enumerate() {
        assert_eq!(row.len(), fig.columns.len(), "{id}: row {r} arity mismatch");
    }
    // CSV renders and contains the header.
    let csv = fig.to_csv();
    assert!(csv.contains(&fig.columns.join(",")), "{id}: bad CSV header");
}

#[test]
fn vivaldi_time_series_figures() {
    for id in ["fig1", "fig9", "fig12"] {
        check(id);
    }
}

#[test]
fn vivaldi_cdf_figures() {
    for id in ["fig2", "fig5", "fig11"] {
        check(id);
    }
}

#[test]
fn vivaldi_sweep_figures() {
    for id in ["fig3", "fig4", "fig6"] {
        check(id);
    }
}

#[test]
fn vivaldi_subset_size_and_target_figures() {
    for id in ["fig7", "fig8", "fig10", "fig13"] {
        check(id);
    }
}

#[test]
fn nps_disorder_figures() {
    for id in ["fig14", "fig15"] {
        check(id);
    }
}

#[test]
fn nps_dimension_figure() {
    check("fig16");
}

#[test]
fn nps_geometry_diagram_figure() {
    check("fig17");
}

#[test]
fn nps_anti_detection_figures() {
    for id in ["fig18", "fig19"] {
        check(id);
    }
}

#[test]
fn nps_filter_ledger_figures() {
    for id in ["fig20", "fig22"] {
        check(id);
    }
}

#[test]
fn nps_sophisticated_cdf_figure() {
    check("fig21");
}

#[test]
fn nps_collusion_figures() {
    for id in ["fig23", "fig24"] {
        check(id);
    }
}

#[test]
fn nps_propagation_and_combined_figures() {
    for id in ["fig25", "fig26"] {
        check(id);
    }
}
