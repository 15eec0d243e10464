//! Node positioning and the reference-point security filter, as pure
//! functions (directly testable against §3.1 of the paper).

use vcoord_space::{simplex_downhill, Coord, SimplexOptions, SimplexScratch, Space};

/// One reference-point measurement: the coordinates the reference
/// *reported* and the RTT the node *measured* (both possibly adversarial).
#[derive(Debug, Clone)]
pub struct RefSample {
    /// Reference point's node id.
    pub id: usize,
    /// Reported reference coordinates `P_Ri`.
    pub coord: Coord,
    /// Measured distance `D_Ri` (ms).
    pub rtt: f64,
}

impl RefSample {
    /// The sample of reference `id`.
    pub fn new(id: usize, coord: Coord, rtt: f64) -> RefSample {
        RefSample { id, coord, rtt }
    }
}

/// Sensitivity constant `C` of the security filter (§3.1).
pub(crate) const SECURITY_C: f64 = 4.0;
/// Absolute fitting-error floor of the security filter: condition (1)
/// `max E_Ri > SECURITY_MIN_ERROR`.
pub(crate) const SECURITY_MIN_ERROR: f64 = 0.01;

/// Result of one positioning round.
#[derive(Debug, Clone)]
pub struct PositionOutcome {
    /// The minimizing coordinates found.
    pub coord: Coord,
    /// Final objective value (sum of squared absolute fitting residuals,
    /// ms²).
    pub objective: f64,
    /// Per-reference fitting errors `E_Ri`, parallel to the input samples.
    pub fit_errors: Vec<f64>,
    /// Reference point the security filter eliminated, if any (at most one
    /// per positioning — load-bearing for the paper's attack analysis).
    pub filtered: Option<usize>,
    /// Simplex objective evaluations this positioning actually performed
    /// (both fits combined; a skipped duplicate fit contributes zero).
    pub evals: usize,
}

/// The widest block of references one pass of [`FitProblem::objective`]
/// holds in registers; a 4-block, then single references, take the rest.
const BLOCK: usize = 8;

/// The problem one Simplex fit evaluates against: the fitted samples
/// gathered once per fit, dimension-major, so that an evaluation streams
/// each coordinate column past one component of the trial point instead of
/// chasing a `Vec` per reference.
#[derive(Debug, Clone, Default)]
struct FitProblem {
    /// Reference coordinates of the `m` fitted samples: `cols[i * m + p]`
    /// is component `i` of fitted sample `p`.
    cols: Vec<f64>,
    /// Reference heights per fitted sample; all zero unless the space has a
    /// height component.
    heights: Vec<f64>,
    /// Measured RTT per fitted sample.
    rtts: Vec<f64>,
}

impl FitProblem {
    /// Gather `samples[idxs]`, in `idxs` order, for a `dim`-dimensional fit.
    ///
    /// # Panics
    /// Panics if a gathered sample's coordinate is not `dim`-dimensional.
    fn gather(&mut self, space: &Space, samples: &[RefSample], idxs: &[usize], dim: usize) {
        let m = idxs.len();
        self.cols.clear();
        self.cols.resize(dim * m, 0.0);
        self.heights.clear();
        self.rtts.clear();
        for (p, &k) in idxs.iter().enumerate() {
            let s = &samples[k];
            assert_eq!(s.coord.vec.len(), dim, "reference dimension mismatch");
            for (i, &c) in s.coord.vec.iter().enumerate() {
                self.cols[i * m + p] = c;
            }
            self.heights.push(if space.has_height() {
                s.coord.height
            } else {
                0.0
            });
            self.rtts.push(s.rtt);
        }
    }

    /// The fit objective for a node at `x` (height zero): every sample's
    /// `(predicted − rtt)²`, summed in sample order.
    ///
    /// Dispatches once on `x.len()` over the Simplex kernel's fixed
    /// dimensions: each arm inlines [`sum`](Self::sum) over a slice of
    /// constant length `D`, so its dimension loops have compile-time trip
    /// counts; other dimensions run the same body at run-time length.
    ///
    /// Never inlined: the four fixed-size bodies are text enough in this
    /// one function, while the Simplex kernel is instantiated per
    /// dimension with several evaluation sites each, and a copy of its
    /// dimension's body at every one of them is text for no measured gain.
    #[inline(never)]
    fn objective(&self, x: &[f64]) -> f64 {
        vcoord_space::with_fixed_dim!(x.len(), D => self.sum(&x[..D]), _ => self.sum(x))
    }

    /// The objective at `x`.
    ///
    /// The samples go [`BLOCK`] at a time, then one block of 4 if that many
    /// are left, then one at a time; a block's squared distances stay in
    /// registers across every dimension. Per sample this performs the
    /// floating-point operations of `space.distance` followed by the term,
    /// in the same order, and the sum adds the terms one by one in sample
    /// order from `Iterator::sum`'s `-0.0`, so the objective equals the
    /// naive per-sample loop bit for bit.
    #[inline(always)]
    fn sum(&self, x: &[f64]) -> f64 {
        let m = self.rtts.len();
        let (mut p, mut total) = (0, -0.0);
        while p + BLOCK <= m {
            total = self.block::<BLOCK>(x, p, total);
            p += BLOCK;
        }
        if p + 4 <= m {
            total = self.block::<4>(x, p, total);
            p += 4;
        }
        while p < m {
            total = self.block::<1>(x, p, total);
            p += 1;
        }
        total
    }

    /// `total` plus the terms of the `L` samples from `p` on, in order.
    #[inline(always)]
    fn block<const L: usize>(&self, x: &[f64], p: usize, mut total: f64) -> f64 {
        let m = self.rtts.len();
        // Fixed-size copies of the block's slots: one bounds check per row,
        // and loops over `L` with a compile-time trip count.
        let window = |row: &[f64]| -> [f64; L] {
            row[p..p + L]
                .try_into()
                .expect("a block lies inside the problem")
        };
        let mut sq = [0.0; L];
        for (xi, col) in x.iter().zip(self.cols.chunks_exact(m)) {
            for (acc, c) in sq.iter_mut().zip(window(col)) {
                let d = xi - c;
                *acc += d * d;
            }
        }
        // `dist + node height + reference height` with the node at height
        // zero: `dist` is the square root of a sum of squares, never -0.0,
        // so adding that zero is the identity — as is adding the zero
        // `heights` of a space without a height component.
        let per_sample = sq.into_iter().zip(window(&self.heights));
        for ((s, h), rtt) in per_sample.zip(window(&self.rtts)) {
            let diff = s.sqrt() + h - rtt;
            total += diff * diff;
        }
        total
    }
}

/// Reusable buffers for one Simplex fit: the kernel's working state and the
/// gathered problem.
#[derive(Debug, Clone, Default)]
struct FitScratch {
    simplex: SimplexScratch,
    problem: FitProblem,
}

/// Reusable buffers for [`position_node`]: the Simplex working state, the
/// gathered fit problem, the usable/surviving sample index sets, and the
/// security filter's median buffer.
///
/// One long-lived scratch per simulation world makes every positioning
/// round after the first run without heap allocation beyond the returned
/// [`PositionOutcome`] (its coordinate and `fit_errors`).
#[derive(Debug, Clone, Default)]
pub struct PositionScratch {
    fit: FitScratch,
    usable: Vec<usize>,
    surviving: Vec<usize>,
    finite_errors: Vec<f64>,
}

impl PositionScratch {
    /// A new, empty scratch; buffers grow on first use.
    pub fn new() -> PositionScratch {
        PositionScratch::default()
    }
}

/// A NaN fitting error counts as `+∞`: a reference whose error cannot be
/// computed is maximally wrong, never invisible to the filter's maximum.
fn nan_as_worst(e: f64) -> f64 {
    if e.is_nan() {
        f64::INFINITY
    } else {
        e
    }
}

/// Fitting error of one reference after positioning:
/// `E_Ri = |dist(P_H, P_Ri) − D_Ri| / D_Ri`, or `+∞` when the measured RTT is
/// not positive or the reported coordinate makes the error non-finite.
fn fit_error(space: &Space, at: &Coord, s: &RefSample) -> f64 {
    if s.rtt <= 0.0 {
        return f64::INFINITY;
    }
    nan_as_worst((space.distance(at, &s.coord) - s.rtt).abs() / s.rtt)
}

/// Run one Simplex fit over `samples[idxs]`, minimizing the latency-fit
/// objective `Σ (dist(x, P_Ri) − D_Ri)²`.
///
/// GNP's *paper* normalizes each term by the measured distance; the
/// reference implementation lineage (and the attack dynamics the CoNEXT'06
/// paper observes — delay inflation destroying accuracy, fig. 14)
/// corresponds to the **absolute** squared error: a relative objective
/// down-weights an inflated measurement by `1/D²`, making delay attacks
/// nearly harmless, which contradicts every NPS figure in the paper. The
/// security filter's fitting error is the paper's relative form all the
/// same (see `fit_error`).
///
/// Allocation-free apart from the returned coordinate. The fitted samples
/// are gathered once into a [`FitProblem`]; one evaluation
/// ([`FitProblem::objective`]) sums the terms in sample order,
/// which is bit-identical to the naive per-sample `space.distance` loop.
/// Returns the fitted
/// coordinate, the final objective value, and the number of objective
/// evaluations performed.
fn fit_samples(
    space: &Space,
    samples: &[RefSample],
    idxs: &[usize],
    start: &Coord,
    opts: &SimplexOptions,
    fit: &mut FitScratch,
) -> (Coord, f64, usize) {
    let FitScratch { simplex, problem } = fit;
    problem.gather(space, samples, idxs, start.vec.len());
    let fit_span = vcoord_obs::span(vcoord_obs::metric_id!("simplex.fit_ns"));
    let result = simplex_downhill(|x| problem.objective(x), &start.vec, opts, simplex);
    drop(fit_span);
    let mut coord = Coord::from_vec(result.point);
    coord.sanitize();
    (coord, result.value, result.evals)
}

/// Position a node against `samples` using Simplex Downhill and, when
/// `security` is on, apply the §3.1 security filter (`C = 4`, floor 0.01)
/// — the allocation-free path driven once per repositioning round by the
/// NPS simulator (`scratch` holds every buffer but the returned
/// [`PositionOutcome`]).
///
/// Returns `None` when fewer than `dim + 1` usable samples are available
/// (the embedding would be under-constrained); the caller should skip the
/// round and retry after refreshing its reference set.
///
/// The *incumbent* — the node's position from its previous round, when it
/// has one — is the reference frame for the security filter: fitting errors
/// are evaluated against the stable incumbent, the worst outlier (if any) is
/// rejected, and only then is the new position fitted from the surviving
/// samples. Judging errors against the freshly-dragged fit instead would
/// systematically blame *nearby honest* references (their small measured
/// RTT is the denominator of `E_Ri`) whenever an attacker drags the fit —
/// inverting the filter into a weapon. The reject-then-fit order is the
/// reading under which the paper's observed filter efficacy (figure 14,
/// effective up to ~30 % simple-disorder attackers) is reproducible, and it
/// leaves the anti-detection attacks exactly their published loophole:
/// a *consistent* lie has near-zero error against the incumbent. First
/// positionings (no incumbent) judge against a provisional fit over all
/// usable samples.
pub fn position_node(
    space: &Space,
    samples: &[RefSample],
    start: &Coord,
    incumbent: Option<&Coord>,
    security: bool,
    opts: &SimplexOptions,
    scratch: &mut PositionScratch,
) -> Option<PositionOutcome> {
    let PositionScratch {
        fit,
        usable,
        surviving,
        finite_errors,
    } = scratch;
    usable.clear();
    usable.extend(samples.iter().enumerate().filter_map(|(k, s)| {
        (s.rtt > 0.0 && s.rtt.is_finite() && s.coord.is_finite()).then_some(k)
    }));
    if usable.len() < space.dim() + 1 {
        return None;
    }

    // Reference frame for outlier rejection: the incumbent when available,
    // otherwise a provisional fit over all usable samples.
    let provisional = match incumbent {
        Some(_) => None,
        None => Some(fit_samples(space, samples, usable, start, opts, fit)),
    };
    let frame = incumbent
        .or(provisional.as_ref().map(|(c, ..)| c))
        .expect("no incumbent implies a provisional fit");
    let filter_span = vcoord_obs::span(vcoord_obs::metric_id!("nps.filter_ns"));
    let fit_errors: Vec<f64> = samples.iter().map(|s| fit_error(space, frame, s)).collect();
    let filtered = filter_index(&fit_errors, security, finite_errors).map(|idx| samples[idx].id);
    drop(filter_span);

    // Final fit over the surviving samples (at most one eliminated).
    surviving.clear();
    surviving.extend(
        usable
            .iter()
            .copied()
            .filter(|&k| Some(samples[k].id) != filtered),
    );
    let fit_over = if surviving.len() > space.dim() {
        &*surviving
    } else {
        &*usable
    };
    // `surviving` preserves `usable`'s order, so equal length means the
    // final fit would repeat the provisional one bit for bit (same samples,
    // start and options): reuse its result. Landmark embedding — no
    // incumbent, security off — takes this on every fit.
    let (coord, objective, evals) = match provisional {
        Some(repeat) if fit_over.len() == usable.len() => repeat,
        first => {
            let spent = first.map_or(0, |(.., e)| e);
            let (c, v, e) = fit_samples(space, samples, fit_over, start, opts, fit);
            (c, v, spent + e)
        }
    };

    Some(PositionOutcome {
        coord,
        objective,
        fit_errors,
        filtered,
        evals,
    })
}

/// The filter decision alone: index of the sample to eliminate, if both
/// conditions hold, taking the median over the caller's `finite` buffer.
fn filter_index(fit_errors: &[f64], security: bool, finite: &mut Vec<f64>) -> Option<usize> {
    if !security || fit_errors.is_empty() {
        return None;
    }
    let (max_idx, max_err) = fit_errors
        .iter()
        .map(|&e| nan_as_worst(e))
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    finite.clear();
    finite.extend(fit_errors.iter().copied().filter(|e| e.is_finite()));
    if finite.is_empty() {
        return Some(max_idx); // everything infinite: drop the max
    }
    // Upper median: the element a full sort would leave at `len / 2`.
    let mid = finite.len() / 2;
    let (_, median, _) = finite.select_nth_unstable_by(mid, f64::total_cmp);
    if max_err > SECURITY_MIN_ERROR && max_err > SECURITY_C * *median {
        Some(max_idx)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::Euclidean(2)
    }

    /// [`position_node`] in [`space`] with default Simplex options, on a
    /// fresh scratch.
    fn position(
        samples: &[RefSample],
        start: &Coord,
        incumbent: Option<&Coord>,
        security: bool,
    ) -> Option<PositionOutcome> {
        position_node(
            &space(),
            samples,
            start,
            incumbent,
            security,
            &SimplexOptions::default(),
            &mut PositionScratch::new(),
        )
    }

    /// References on a square, target at the center.
    fn square_samples(rtts: &[f64]) -> Vec<RefSample> {
        let pts = [
            [0.0, 0.0],
            [100.0, 0.0],
            [100.0, 100.0],
            [0.0, 100.0],
            [50.0, 0.0],
        ];
        pts.iter()
            .zip(rtts)
            .enumerate()
            .map(|(i, (p, &rtt))| RefSample::new(i + 100, Coord::from_vec(p.to_vec()), rtt))
            .collect()
    }

    #[test]
    fn positions_at_geometric_solution() {
        // Distances consistent with the point (50, 50).
        let d = 50.0 * std::f64::consts::SQRT_2;
        let samples = square_samples(&[d, d, d, d, 50.0]);
        let out = position(&samples, &Coord::from_vec(vec![10.0, 10.0]), None, true).unwrap();
        assert!((out.coord.vec[0] - 50.0).abs() < 1.0, "{:?}", out.coord);
        assert!((out.coord.vec[1] - 50.0).abs() < 1.0);
        assert!(out.filtered.is_none(), "clean refs must not be filtered");
        assert!(out.objective < 1e-4);
    }

    #[test]
    fn absolute_objective_can_shift_blame() {
        // Under the absolute objective a massive liar drags the fit far
        // enough that honest references also look wrong — the median rises
        // and the C·median condition shields the liar. This is the
        // mechanism behind the paper's false-positive observations
        // (figures 20/22).
        let d = 50.0 * std::f64::consts::SQRT_2;
        let samples = square_samples(&[d, d, d, d, 5000.0]);
        let out = position(&samples, &Coord::from_vec(vec![10.0, 10.0]), None, true).unwrap();
        // The dragged fit inflates every fitting error, not just the liar's.
        let honest_max = out.fit_errors[..4].iter().copied().fold(0.0f64, f64::max);
        assert!(honest_max > 0.5, "honest refs get blamed too: {honest_max}");
    }

    #[test]
    fn security_off_never_filters() {
        let d = 50.0 * std::f64::consts::SQRT_2;
        let samples = square_samples(&[d, d, d, d, 5000.0]);
        let out = position(&samples, &Coord::from_vec(vec![10.0, 10.0]), None, false).unwrap();
        assert!(out.filtered.is_none());
    }

    #[test]
    fn under_constrained_returns_none() {
        let samples = square_samples(&[70.0, 70.0, 70.0, 70.0, 50.0]);
        assert!(position(&samples[..2], &Coord::origin(2), None, true).is_none());
    }

    #[test]
    fn threshold_condition_one_blocks_tiny_errors() {
        // Max error below the 0.01 floor: no filtering even if it dominates
        // the median.
        let errs = [0.0001, 0.0001, 0.0001, 0.009];
        assert_eq!(filter_index(&errs, true, &mut Vec::new()), None);
    }

    #[test]
    fn median_condition_two_blocks_uniform_badness() {
        // Everyone is bad: max not > 4×median → nothing filtered. This is
        // exactly how a large colluding population survives the filter.
        let errs = [0.5, 0.6, 0.55, 0.62, 0.58];
        assert_eq!(filter_index(&errs, true, &mut Vec::new()), None);
    }

    #[test]
    fn filter_picks_the_max() {
        let errs = [0.001, 0.002, 0.9, 0.003];
        assert_eq!(filter_index(&errs, true, &mut Vec::new()), Some(2));
    }

    #[test]
    fn nan_error_does_not_switch_the_filter_off() {
        // `filter_picks_the_max` with a NaN beside the outlier. The NaN used
        // to replace the running maximum with whatever followed it, so
        // nothing was filtered; it now counts as +∞ and is the maximum.
        let errs = [0.001, 0.002, 0.9, f64::NAN, 0.003];
        assert_eq!(filter_index(&errs, true, &mut Vec::new()), Some(3));
    }

    #[test]
    fn nan_coordinate_reference_is_the_one_filtered() {
        // A delayer (index 3: RTT 800 for a true 70.7) beside a colluder
        // reporting a NaN coordinate with a finite RTT (index 4). The
        // colluder's sample never enters the fit, but its fitting error
        // used to be NaN and hide the delayer from the filter. It is now
        // +∞, so the filter names the colluder and the caller bans it.
        let d = 50.0 * std::f64::consts::SQRT_2;
        let mut samples = square_samples(&[d, d, d, 800.0, 50.0]);
        samples.push(RefSample::new(105, Coord::from_vec(vec![0.0, 50.0]), 50.0));
        samples[4].coord = Coord::from_vec(vec![f64::NAN, 0.0]);
        let incumbent = Coord::from_vec(vec![50.0, 50.0]);
        let out = position(&samples, &incumbent, Some(&incumbent), true).unwrap();
        assert_eq!(out.fit_errors[4], f64::INFINITY);
        assert!(out.fit_errors.iter().all(|e| !e.is_nan()));
        assert_eq!(out.filtered, Some(104), "the NaN reporter is named");
        assert!(out.coord.is_finite());
    }

    #[test]
    fn at_most_one_filtered_per_positioning() {
        // Two equally terrible refs: the filter still names only one index.
        let errs = [0.9, 0.9, 0.001, 0.002, 0.001];
        let idx = filter_index(&errs, true, &mut Vec::new());
        assert!(idx == Some(0) || idx == Some(1));
    }

    #[test]
    fn incumbent_frame_catches_delayer_despite_dragged_fit() {
        // With an incumbent position (the converged estimate), the filter
        // judges errors in a stable frame: the delaying liar is the outlier
        // and gets rejected BEFORE the fit, so the final position is
        // computed from honest samples only — even under the drag-prone
        // absolute objective.
        let d = 50.0 * std::f64::consts::SQRT_2;
        let samples = square_samples(&[d, d, d, d, 800.0]); // true rtt 50, delayed
        let incumbent = Coord::from_vec(vec![50.0, 50.0]);
        let out = position(&samples, &incumbent, Some(&incumbent), true).unwrap();
        assert_eq!(out.filtered, Some(104), "the delayer must be rejected");
        // Final position fitted without the liar: stays at the truth.
        assert!((out.coord.vec[0] - 50.0).abs() < 1.0, "{:?}", out.coord);
        assert!((out.coord.vec[1] - 50.0).abs() < 1.0);
    }

    #[test]
    fn consistent_lie_evades_incumbent_filter() {
        // The anti-detection loophole: a lie whose reported coordinate and
        // measured RTT agree (as seen from the victim's incumbent) has a
        // near-zero fitting error and is never filtered — but it still
        // drags the fit.
        let d = 50.0 * std::f64::consts::SQRT_2;
        let mut samples = square_samples(&[d, d, d, d, 50.0]);
        // Attacker (id 104, truly at (50,0), 50 ms away) pretends to be at
        // (50, -10000) and under-claims the RTT by 0.9 % — a fitting error
        // of 0.009 < 0.01 at the victim's incumbent (50,50), yet a steady
        // ~90 ms pull toward the fake coordinate.
        samples[4].coord = Coord::from_vec(vec![50.0, -10_000.0]);
        samples[4].rtt = 10_050.0 * 0.991;
        let incumbent = Coord::from_vec(vec![50.0, 50.0]);
        let out = position(&samples, &incumbent, Some(&incumbent), true).unwrap();
        assert_eq!(out.filtered, None, "consistent lies evade the filter");
        // And the fit is dragged away from the truth.
        let displacement =
            ((out.coord.vec[0] - 50.0).powi(2) + (out.coord.vec[1] - 50.0).powi(2)).sqrt();
        assert!(displacement > 10.0, "lie must drag the fit: {displacement}");
    }

    #[test]
    fn rejects_invalid_samples_before_positioning() {
        let d = 50.0 * std::f64::consts::SQRT_2;
        let mut samples = square_samples(&[d, d, d, d, 50.0]);
        samples[0].rtt = f64::NAN;
        samples[1].rtt = -5.0;
        samples[2].coord = Coord::from_vec(vec![f64::INFINITY, 0.0]);
        // Only 2 usable refs left < dim+1 = 3.
        assert!(position(&samples, &Coord::origin(2), None, true).is_none());
    }
}
