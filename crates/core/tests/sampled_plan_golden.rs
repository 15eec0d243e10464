//! Golden pin for the *sampled* `EvalPlan` path of the injection harness.
//!
//! The smoke goldens under `results/` run 72 nodes against an all-pairs
//! threshold of 128, so `EvalPlan::with_params` never touches its RNG and
//! no committed CSV notices a reordered or dropped plan draw. Here the
//! threshold is pushed below the population (16 < 72, 12 sampled peers):
//! every plan the harness builds — Vivaldi's single all-nodes warm-up plan,
//! NPS's per-sample re-plan, and the honest-population plan both share —
//! draws from the `"eval-plan"` stream, in an order these CSVs pin byte for
//! byte. They pin the sampler's draws themselves (`k` draws per node, a
//! partial Fisher–Yates over the node's candidates in plan order), so only
//! a change of sampler may re-record them, and then only their error
//! columns may move: the simulations never read the `"eval-plan"` stream.
//! All five were recorded at seed 2006 when the `k`-draw sampler replaced
//! shuffling each node's whole candidate pool.
//!
//! On divergence the fresh CSVs are left under
//! `$CARGO_TARGET_TMPDIR/sampled_plan/` for diffing (or, for a deliberate
//! re-record explained in EXPERIMENTS.md, copying over the goldens).

use std::path::{Path, PathBuf};
use vcoord::experiments::{run_figure, Scale};

const SEED: u64 = 2006;
const FIGURES: [&str; 5] = [
    "fig1",
    "fig14",
    "chaos-churn-nps",
    "chaos-probation-nps",
    "chaos-probation-leak",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sampled_plan")
}

#[test]
fn sampled_plan_figures_match_committed_csvs_byte_for_byte() {
    let scale = Scale {
        eval_all_pairs_threshold: 16,
        eval_sample_peers: 12,
        ..Scale::smoke()
    };
    let fresh_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sampled_plan");
    std::fs::create_dir_all(&fresh_dir).unwrap();
    let mut diverged = Vec::new();
    for id in FIGURES {
        let csv = run_figure(id, &scale, SEED)
            .unwrap_or_else(|| panic!("{id} is not in the registry"))
            .to_csv();
        let golden = golden_dir().join(format!("{id}.csv"));
        let want = std::fs::read_to_string(&golden).unwrap_or_default();
        if csv != want {
            let line = csv
                .lines()
                .zip(want.lines())
                .position(|(a, b)| a != b)
                .map_or_else(|| "length".to_string(), |k| format!("line {}", k + 1));
            std::fs::write(fresh_dir.join(format!("{id}.csv")), &csv).unwrap();
            diverged.push(format!("{id} (first difference: {line})"));
        }
    }
    assert!(
        diverged.is_empty(),
        "sampled-plan figures diverged from {}: {diverged:?}; fresh CSVs in {}",
        golden_dir().display(),
        fresh_dir.display()
    );
}
