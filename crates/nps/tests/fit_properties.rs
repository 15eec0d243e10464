//! Property tests pinning NPS positioning — the dimension-major fit
//! problem, the storage-generic Simplex kernel under it, the duplicate-fit
//! skip, and the security filter's selected median — to a straight-line
//! reference positioning written here: one `Space::distance` per sample per
//! evaluation, the retained oracle minimizer, and a full sort for the
//! median. Everything `position_node` returns must match it bit for bit.

use proptest::prelude::*;
use vcoord_nps::{position_node, PositionOutcome, PositionScratch, RefSample, SIMPLEX};
use vcoord_space::oracle::simplex_downhill_reference;
use vcoord_space::{Coord, SimplexOptions, Space};

/// Largest dimension exercised: one past the kernel's last fixed-size
/// instantiation, so the `Vec` fallback runs too.
const MAX_DIM: usize = 13;
/// Largest reference-set size exercised.
const MAX_REFS: usize = 24;

/// One cold fit over `samples[idxs]` the naive way: fitted (sanitized)
/// coordinate, objective value, evaluations.
fn reference_fit(
    space: &Space,
    samples: &[RefSample],
    idxs: &[usize],
    start: &Coord,
    opts: &SimplexOptions,
) -> (Coord, f64, usize) {
    let objective = |x: &[f64]| -> f64 {
        let at = Coord::from_vec(x.to_vec());
        idxs.iter()
            .map(|&k| {
                let s = &samples[k];
                let diff = space.distance(&at, &s.coord) - s.rtt;
                diff * diff
            })
            .sum()
    };
    let r = simplex_downhill_reference(objective, &start.vec, opts);
    let mut coord = Coord::from_vec(r.point);
    coord.sanitize();
    (coord, r.value, r.evals)
}

/// §3.1 positioning, straight-line: frame (incumbent, else a provisional
/// fit over every usable sample), fitting errors against the frame, at most
/// one elimination, final fit over the survivors. The one concession to the
/// implementation is the *count* of evaluations: a final fit that would
/// repeat the provisional one sample for sample is not charged again.
fn reference_positioning(
    space: &Space,
    samples: &[RefSample],
    start: &Coord,
    incumbent: Option<&Coord>,
    security: bool,
    opts: &SimplexOptions,
) -> Option<PositionOutcome> {
    let usable: Vec<usize> = (0..samples.len())
        .filter(|&k| {
            let s = &samples[k];
            s.rtt > 0.0 && s.rtt.is_finite() && s.coord.is_finite()
        })
        .collect();
    if usable.len() < space.dim() + 1 {
        return None;
    }
    let provisional = incumbent
        .is_none()
        .then(|| reference_fit(space, samples, &usable, start, opts));
    let frame = incumbent
        .or(provisional.as_ref().map(|(c, _, _)| c))
        .expect("no incumbent implies a provisional fit");
    let fit_errors: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.rtt <= 0.0 {
                f64::INFINITY
            } else {
                (space.distance(frame, &s.coord) - s.rtt).abs() / s.rtt
            }
        })
        .collect();
    let mut filtered = None;
    if security {
        // Last of the maximal errors, as `Iterator::max_by` picks.
        let mut worst = 0;
        for (k, e) in fit_errors.iter().enumerate() {
            if e.partial_cmp(&fit_errors[worst]) != Some(std::cmp::Ordering::Less) {
                worst = k;
            }
        }
        let mut finite: Vec<f64> = fit_errors
            .iter()
            .copied()
            .filter(|e| e.is_finite())
            .collect();
        finite.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let eliminate = match finite.get(finite.len() / 2) {
            None => true,
            Some(&median) => {
                // The paper's floor 0.01 and sensitivity C = 4.
                fit_errors[worst] > 0.01 && fit_errors[worst] > 4.0 * median
            }
        };
        if eliminate {
            filtered = Some(samples[worst].id);
        }
    }
    let surviving: Vec<usize> = usable
        .iter()
        .copied()
        .filter(|&k| Some(samples[k].id) != filtered)
        .collect();
    let fit_over = if surviving.len() > space.dim() {
        &surviving
    } else {
        &usable
    };
    let (coord, objective, final_evals) = reference_fit(space, samples, fit_over, start, opts);
    let evals = match &provisional {
        Some((_, _, e)) if fit_over.len() == usable.len() => *e,
        Some((_, _, e)) => e + final_evals,
        None => final_evals,
    };
    Some(PositionOutcome {
        coord,
        objective,
        fit_errors,
        filtered,
        evals,
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_outcome(got: &Option<PositionOutcome>, want: &Option<PositionOutcome>) {
    let (got, want) = match (got, want) {
        (None, None) => return,
        (Some(g), Some(w)) => (g, w),
        _ => panic!("under-constrained verdicts differ: {got:?} vs {want:?}"),
    };
    prop_assert_eq!(got.filtered, want.filtered, "filter decision diverges");
    prop_assert_eq!(got.evals, want.evals, "evaluation count diverges");
    prop_assert_eq!(
        bits(&got.fit_errors),
        bits(&want.fit_errors),
        "fit errors diverge"
    );
    prop_assert_eq!(
        got.objective.to_bits(),
        want.objective.to_bits(),
        "objective diverges: {} vs {}",
        got.objective,
        want.objective
    );
    prop_assert_eq!(
        bits(&got.coord.vec),
        bits(&want.coord.vec),
        "coordinate diverges"
    );
    prop_assert_eq!(got.coord.height.to_bits(), want.coord.height.to_bits());
}

/// The drawn raw material of one case, dimension-independent.
#[derive(Debug, Clone)]
struct Draw {
    /// Start point, then the references, each `MAX_DIM` wide.
    values: Vec<f64>,
    heights: Vec<f64>,
    /// Measurement noise factor per reference.
    noise: Vec<f64>,
}

impl Draw {
    /// `refs` samples in `space`, measured from a hidden true position with
    /// multiplicative noise; reference `liar` (if any) inflates its RTT
    /// tenfold, and with `dead_probe` reference 1 reports an unusable RTT
    /// (an infinite fitting error: the filter names it, nothing changes).
    fn samples(
        &self,
        space: &Space,
        refs: usize,
        liar: Option<usize>,
        dead_probe: bool,
    ) -> (Vec<RefSample>, Coord) {
        let dim = space.dim();
        let truth = Coord {
            vec: self.values[..dim].to_vec(),
            height: if space.has_height() { 5.0 } else { 0.0 },
        };
        let samples = (0..refs)
            .map(|p| {
                let at = (p + 1) * MAX_DIM;
                let coord = Coord {
                    vec: self.values[at..at + dim].to_vec(),
                    height: self.heights[p],
                };
                let mut rtt = space.distance(&truth, &coord) * self.noise[p] + 1.0;
                if liar == Some(p) {
                    rtt *= 10.0;
                }
                if p == 1 && dead_probe {
                    rtt = -1.0;
                }
                RefSample::new(100 + p, coord, rtt)
            })
            .collect();
        let mut start = truth;
        for v in &mut start.vec {
            *v += 7.0;
        }
        start.height = 0.0;
        (samples, start)
    }
}

fn draw() -> impl Strategy<Value = Draw> {
    (
        prop::collection::vec(-150.0f64..150.0, (MAX_REFS + 1) * MAX_DIM),
        prop::collection::vec(0.0f64..40.0, MAX_REFS),
        prop::collection::vec(0.8f64..1.2, MAX_REFS),
    )
        .prop_map(|(values, heights, noise)| Draw {
            values,
            heights,
            noise,
        })
}

fn sim_opts(max_iterations: usize) -> SimplexOptions {
    SimplexOptions {
        max_iterations,
        ..SIMPLEX
    }
}

proptest! {
    // Cheap cases (milliseconds each), and 64 variant combinations to
    // reach: the default 256.
    #![proptest_config(ProptestConfig::default())]

    /// Every dimension 1..=13 of each drawn case, one shared scratch
    /// throughout (so no state may leak between positionings): with and
    /// without an incumbent, with and without a lying reference for the
    /// filter to eliminate — which between them drive the single final fit,
    /// the `Fill` → `Use` cached pair, and the duplicate-fit skip.
    #[test]
    fn positioning_matches_the_straight_line_reference(
        d in draw(),
        refs in 2usize..=MAX_REFS,
        liar in 0usize..MAX_REFS,
        variant in 0usize..64,
    ) {
        let with_height = variant % 2 == 1;
        let opts = sim_opts([0, 1, 3, 150][(variant / 2) % 4]);
        let with_incumbent = (variant / 8) % 2 == 1;
        let liar = ((variant / 16) % 2 == 1).then_some(liar % refs);
        let dead_probe = variant / 32 == 1;
        let mut scratch = PositionScratch::new();
        for dim in 1..=MAX_DIM {
            let space = if with_height {
                Space::EuclideanHeight(dim)
            } else {
                Space::Euclidean(dim)
            };
            let (samples, start) = d.samples(&space, refs, liar, dead_probe);
            let incumbent = with_incumbent.then_some(&start);
            let got = position_node(
                &space, &samples, &start, incumbent, true, &opts, &mut scratch,
            );
            let want = reference_positioning(
                &space, &samples, &start, incumbent, true, &opts,
            );
            assert_same_outcome(&got, &want);
        }
    }
}

/// A fixed, spread-out draw: references across the ±150 cube.
fn fixed_draw() -> Draw {
    Draw {
        values: (0..(MAX_REFS + 1) * MAX_DIM)
            .map(|i| ((i * 7919) % 300) as f64 - 150.0)
            .collect(),
        heights: (0..MAX_REFS).map(|p| (p * 13 % 40) as f64).collect(),
        noise: (0..MAX_REFS).map(|p| 0.8 + (p % 5) as f64 * 0.1).collect(),
    }
}

/// The objective walks the fitted samples in blocks of 8, then 4, then
/// one at a time, and its dimension loop is fixed-size up to 12-D; the
/// property's random `refs` need not reach every remainder. Pin each one:
/// every reference count at every dimension below, with and without
/// height, against the straight-line reference. No incumbent, so a
/// provisional fit over all `refs` runs; the liar's elimination then fits
/// `refs − 1` samples too. 13-D runs the runtime-length objective.
#[test]
fn every_block_tail_matches_the_straight_line_reference() {
    let d = fixed_draw();
    let opts = sim_opts(150);
    let mut scratch = PositionScratch::new();
    for dim in [1, 2, 4, 8, 12, 13] {
        for space in [Space::Euclidean(dim), Space::EuclideanHeight(dim)] {
            for refs in 1..=MAX_REFS {
                let (samples, start) = d.samples(&space, refs, Some(0), false);
                let got = position_node(&space, &samples, &start, None, true, &opts, &mut scratch);
                let want = reference_positioning(&space, &samples, &start, None, true, &opts);
                assert_eq!(got.is_some(), refs > dim, "{space:?}, {refs} refs");
                assert_same_outcome(&got, &want);
            }
        }
    }
}

/// The property above only means something if its cases reach every path;
/// pin that on one fixed draw: a liar with no incumbent gets a reference
/// eliminated after the provisional fit (second fit, both charged), a clean
/// set with no incumbent skips the duplicate fit (charged once), and an
/// incumbent runs the single fit.
#[test]
fn fixed_cases_reach_cached_pair_dup_skip_and_single_fit() {
    let space = Space::Euclidean(8);
    let d = Draw {
        heights: vec![0.0; MAX_REFS],
        noise: vec![1.0; MAX_REFS],
        ..fixed_draw()
    };
    let opts = sim_opts(150);
    let mut scratch = PositionScratch::new();
    let mut run = |liar: Option<usize>, with_incumbent: bool| {
        let (samples, start) = d.samples(&space, 20, liar, false);
        let incumbent = with_incumbent.then_some(&start);
        let got = position_node(
            &space,
            &samples,
            &start,
            incumbent,
            true,
            &opts,
            &mut scratch,
        );
        let want = reference_positioning(&space, &samples, &start, incumbent, true, &opts);
        assert_same_outcome(&got, &want);
        let single = reference_fit(
            &space,
            &samples,
            &(0..20).collect::<Vec<_>>(),
            &start,
            &opts,
        )
        .2;
        (got.expect("20 refs position an 8-D node"), single)
    };
    // With no incumbent the liar drags the provisional fit it is judged
    // against, so the reference eliminated is an honest one (the blame shift
    // of `absolute_objective_can_shift_blame`); any elimination reaches the
    // second fit.
    let (cached_pair, provisional_evals) = run(Some(0), false);
    assert_eq!(cached_pair.filtered, Some(119));
    assert!(
        cached_pair.evals > provisional_evals,
        "both fits are charged"
    );
    let (dup_skip, provisional_evals) = run(None, false);
    assert_eq!(dup_skip.filtered, None);
    assert_eq!(
        dup_skip.evals, provisional_evals,
        "the repeat fit is skipped"
    );
    let (single_fit, _) = run(Some(4), true);
    assert_eq!(single_fit.filtered, Some(104));
}
