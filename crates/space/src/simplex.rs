//! Nelder–Mead *Simplex Downhill* minimizer.
//!
//! GNP and NPS both position nodes by minimizing a latency-fit objective with
//! the Simplex Downhill method (Nelder & Mead, 1965). This is a faithful,
//! dependency-free implementation with the standard reflection / expansion /
//! contraction / shrink moves and deterministic behaviour (no internal
//! randomness; ties broken by index).
//!
//! [`simplex_downhill`] is the one production entry point. Its descent kernel
//! is written once and generic over vertex storage: `[f64; N]` on the stack
//! for N ∈ {2, 4, 8, 12} — every dimension the figures, the kernel rows and
//! the benchmark workloads run, with each per-coordinate loop unrolled at
//! compile time — and `Vec<f64>` borrowed from the caller-held
//! [`SimplexScratch`] for any other, so the only allocation is the returned
//! best point. The kernel keeps an incrementally
//! maintained order array — a single ordered reinsertion on the common
//! reflect/expand/contract moves — in place of the original full index sort
//! per iteration, while performing *bit-identical* floating-point
//! operations in the identical order, so optimization trajectories match
//! the retained [`oracle`] exactly (property-tested in this module and in
//! `tests/simplex_properties.rs`, and relied on by the figure-CSV golden
//! tests). Objective evaluations are counted in [`SimplexResult::evals`].

/// The Nelder–Mead move coefficients `[α, γ, ρ, σ]`, the standard
/// `[1, 2, ½, ½]`: reflection (α > 0), expansion (γ > 1), contraction
/// (0 < ρ ≤ 0.5) and shrink (0 < σ < 1).
pub const NELDER_MEAD: [f64; 4] = [1.0, 2.0, 0.5, 0.5];

/// Tuning knobs for [`simplex_downhill`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexOptions {
    /// Initial step added to each axis to build the starting simplex.
    pub initial_step: f64,
    /// Stop when the best–worst objective spread falls below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            initial_step: 50.0,
            tolerance: 1e-8,
            max_iterations: 400,
        }
    }
}

/// Outcome of a [`simplex_downhill`] run.
#[derive(Debug, Clone)]
pub struct SimplexResult {
    /// Minimizing point found.
    pub point: Vec<f64>,
    /// Objective value at [`SimplexResult::point`].
    pub value: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance criterion (rather than the iteration cap) ended
    /// the search.
    pub converged: bool,
    /// Objective evaluations performed, counting the `n + 1` initial-vertex
    /// evaluations as well as every trial and shrink evaluation.
    pub evals: usize,
}

/// Reusable working state for [`simplex_downhill`].
///
/// Dimensions 2, 4, 8 and 12 (everything the figures run) use fixed-size
/// vertices that live on the stack and never touch a scratch; other
/// problems keep their simplex vertices, objective values, vertex order,
/// centroid and trial points here. The buffers grow to fit the largest such
/// dimension seen, so a long-lived scratch (e.g. one per `NpsSim` world of
/// the `vcoord-nps` crate) keeps every positioning allocation-free at any
/// dimension.
#[derive(Debug, Clone, Default)]
pub struct SimplexScratch {
    /// `n + 1` simplex vertices of dimension `n`.
    verts: Vec<Vec<f64>>,
    /// Objective value per vertex, parallel to `verts`.
    vals: Vec<f64>,
    /// Vertex indices, see [`Simplex::order`].
    order: Vec<usize>,
    /// Centroid, pinned best vertex, and the two trial points, see
    /// [`Simplex::points`].
    points: [Vec<f64>; 4],
}

impl SimplexScratch {
    /// A new, empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> SimplexScratch {
        SimplexScratch::default()
    }

    /// Size every buffer for an `n`-dimensional problem, retaining
    /// capacity, and lend them out as one descent's working state.
    fn view(&mut self, n: usize) -> Simplex<'_, Vec<f64>> {
        self.verts.resize_with(n + 1, Vec::new);
        for v in self.verts.iter_mut().chain(&mut self.points) {
            v.clear();
            v.resize(n, 0.0);
        }
        self.vals.clear();
        self.vals.resize(n + 1, 0.0);
        self.order.clear();
        self.order.resize(n + 1, 0);
        Simplex {
            verts: &mut self.verts,
            vals: &mut self.vals,
            order: &mut self.order,
            points: &mut self.points,
        }
    }
}

/// Stack storage for an `N`-dimensional descent (`M = N + 1` vertices).
struct Fixed<const N: usize, const M: usize> {
    verts: [[f64; N]; M],
    vals: [f64; M],
    order: [usize; M],
    points: [[f64; N]; 4],
}

impl<const N: usize, const M: usize> Fixed<N, M> {
    fn new() -> Self {
        Fixed {
            verts: [[0.0; N]; M],
            vals: [0.0; M],
            order: [0; M],
            points: [[0.0; N]; 4],
        }
    }

    fn view(&mut self) -> Simplex<'_, [f64; N]> {
        Simplex {
            verts: &mut self.verts,
            vals: &mut self.vals,
            order: &mut self.order,
            points: &mut self.points,
        }
    }
}

/// One descent's working state, generic over the vertex storage `V`:
/// `[f64; N]` borrowed from a [`Fixed`] on the stack, where every
/// per-coordinate loop has a compile-time trip count, or `Vec<f64>`
/// borrowed from a [`SimplexScratch`].
struct Simplex<'a, V> {
    /// `n + 1` simplex vertices of dimension `n`.
    verts: &'a mut [V],
    /// Objective value per vertex, parallel to `verts`.
    vals: &'a mut [f64],
    /// Vertex indices sorted ascending by `(value, index)` — exactly the
    /// stable-sort-by-value order of the reference implementation.
    order: &'a mut [usize],
    /// The centroid of all vertices but the worst, a copy of the best
    /// vertex (pinned during a shrink), the reflection/contraction trial
    /// point, and the expansion trial point.
    points: &'a mut [V; 4],
}

/// Compare two vertices by `(value, index)` — the total order equivalent to
/// the reference implementation's *stable* sort by value over an
/// index-ascending array. Written without a branch on the comparison so
/// counting predecessors (see `reinsert` in [`descend`]) stays
/// straight-line; values are never NaN (`run` maps every non-finite
/// objective value to `+∞`).
#[inline]
fn before(vals: &[f64], a: usize, b: usize) -> bool {
    let (va, vb) = (vals[a], vals[b]);
    va < vb || (va == vb && a < b)
}

/// Re-establish `order` from scratch.
#[inline]
fn sort_order(order: &mut [usize], vals: &[f64]) {
    order.sort_unstable_by(|&a, &b| {
        if before(vals, a, b) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
}

/// In-place lerp: `out[j] = from[j] + t * (to[j] - from[j])`.
#[inline]
fn lerp_into(out: &mut [f64], from: &[f64], to: &[f64], t: f64) {
    for ((o, a), b) in out.iter_mut().zip(from).zip(to) {
        *o = a + t * (b - a);
    }
}

/// Minimize `f` starting from `x0` using the Simplex Downhill method,
/// working in the caller-held `scratch` (only the returned point is
/// allocated).
///
/// ```
/// use vcoord_space::{simplex_downhill, SimplexOptions, SimplexScratch};
///
/// let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
/// let mut scratch = SimplexScratch::new();
/// let r = simplex_downhill(f, &[0.0, 0.0], &SimplexOptions::default(), &mut scratch);
/// assert!((r.point[0] - 3.0).abs() < 0.01);
/// assert!((r.point[1] + 1.0).abs() < 0.01);
/// ```
///
/// Returns the best vertex found. `f` must be finite at `x0`; non-finite
/// objective values elsewhere are treated as `+∞` so the simplex retreats
/// from them, which keeps adversarially-poisoned NPS objectives from
/// propagating NaNs into coordinates.
///
/// The objective is `FnMut` so callers can thread their own evaluation
/// scratch (e.g. a reusable coordinate) through it without interior
/// mutability.
///
/// Picks the vertex storage for `x0`'s dimension and runs the one kernel on
/// it: a fixed-size instantiation at 2, 4, 8 and 12-D (the dimensions the
/// paper's sweep and the default NPS space use), the scratch's `Vec`s at
/// any other, with the same result to the bit.
///
/// # Panics
/// Panics if `x0` is empty.
pub fn simplex_downhill<F>(
    f: F,
    x0: &[f64],
    opts: &SimplexOptions,
    scratch: &mut SimplexScratch,
) -> SimplexResult
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(!x0.is_empty(), "cannot optimize a zero-dimensional point");
    crate::with_fixed_dim!(
        x0.len(),
        D => run(f, x0, opts, Fixed::<D, { D + 1 }>::new().view()),
        _ => run(f, x0, opts, scratch.view(x0.len()))
    )
}

/// `$fixed` with `$d` bound to a `const usize` equal to `$n` when `$n` is a
/// dimension with a fixed-size instantiation (2, 4, 8 and 12: fig16's sweep,
/// the chaos figures' 4-D fits and the 8-D default NPS space; nothing else
/// runs), `$fallback` otherwise. The one copy of
/// that list: [`simplex_downhill`] picks its vertex storage with it and the
/// NPS fit objective its loop bounds, so the two cannot drift. Not API.
#[doc(hidden)]
#[macro_export]
macro_rules! with_fixed_dim {
    ($n:expr, $d:ident => $fixed:expr, _ => $fallback:expr) => {
        $crate::with_fixed_dim!(@ $n, $d, $fixed, $fallback; 2 4 8 12)
    };
    (@ $n:expr, $d:ident, $fixed:expr, $fallback:expr; $($k:literal)+) => {
        match $n {
            $($k => {
                const $d: usize = $k;
                $fixed
            })+
            _ => $fallback,
        }
    };
}

/// One fit on storage `V`: build the axis simplex, descend, account.
fn run<V, F>(mut f: F, x0: &[f64], opts: &SimplexOptions, mut s: Simplex<'_, V>) -> SimplexResult
where
    V: AsRef<[f64]> + AsMut<[f64]>,
    F: FnMut(&[f64]) -> f64,
{
    let mut evals = 0usize;
    let mut eval = |x: &[f64]| -> f64 {
        evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };
    init_axes(s.verts, x0, opts.initial_step);
    let (iterations, converged) = descend(&mut eval, opts, &mut s);
    if vcoord_obs::enabled() {
        // Every fit starts from a cold axis simplex; the benchmark's
        // `space.cold_restart_share` reads this counter by name.
        vcoord_obs::counter_add(vcoord_obs::metric_id!("simplex.cold_restart"), 1);
        vcoord_obs::counter_add(vcoord_obs::metric_id!("simplex.evals"), evals as u64);
        let exit = if converged {
            vcoord_obs::metric_id!("simplex.exit_converged")
        } else {
            vcoord_obs::metric_id!("simplex.exit_cap")
        };
        vcoord_obs::counter_add(exit, 1);
    }
    // `order` is valid at every exit of the descent, and its head is the
    // first vertex of minimal value — the reference's `min_by` pick.
    let best = s.order[0];
    SimplexResult {
        point: s.verts[best].as_ref().to_vec(),
        value: s.vals[best],
        iterations,
        converged,
        evals,
    }
}

/// Axis simplex: `center` plus one vertex per axis, `step` away (outward
/// once the component is past ±1).
#[inline]
fn init_axes<V: AsMut<[f64]>>(verts: &mut [V], center: &[f64], step: f64) {
    for (k, v) in verts.iter_mut().enumerate() {
        let v = v.as_mut();
        v.copy_from_slice(center);
        if k > 0 {
            let i = k - 1;
            v[i] += if v[i].abs() > 1.0 {
                step.copysign(v[i])
            } else {
                step
            };
        }
    }
}

/// The descent loop — the only one besides the retained [`oracle`]:
/// evaluate the already-initialized vertices, establish the
/// `(value, index)` order, and run the standard reflect / expand / contract
/// / shrink moves until tolerance or the iteration cap.
///
/// Every dimension and both vertex storages run this source, performing
/// the oracle's floating-point operations in the oracle's order, so
/// trajectories are bit-identical throughout.
fn descend<V, E>(eval: &mut E, opts: &SimplexOptions, s: &mut Simplex<'_, V>) -> (usize, bool)
where
    V: AsRef<[f64]> + AsMut<[f64]>,
    E: FnMut(&[f64]) -> f64,
{
    let Simplex {
        verts,
        vals,
        order,
        points,
    } = s;
    let [centroid, best_buf, trial, trial2] = &mut **points;
    let [alpha, gamma, rho, sigma] = NELDER_MEAD;
    let (centroid, best_buf) = (centroid.as_mut(), best_buf.as_mut());
    let (trial, trial2) = (trial.as_mut(), trial2.as_mut());
    // Read off a vertex rather than `verts.len()`: a compile-time constant
    // for array storage, so the loops below unroll.
    let n = centroid.len();
    for (val, v) in vals.iter_mut().zip(verts.iter()) {
        *val = eval(v.as_ref());
    }

    // Establish the (value, index) order once; reflect/expand/contract
    // moves below maintain it with a single ordered reinsertion, and only
    // the rare shrink move pays for a full re-sort.
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    sort_order(order, vals);

    // Replace the worst vertex (at `order[n]`) with `src`/`value` and slot
    // it back into the maintained order. `order[..n]` is sorted, so the
    // number of vertices before the newcomer *is* its position — counted
    // rather than binary-searched, which needs no data-dependent branch.
    let reinsert =
        |verts: &mut [V], vals: &mut [f64], order: &mut [usize], src: &[f64], value: f64| {
            let worst = order[n];
            verts[worst].as_mut().copy_from_slice(src);
            vals[worst] = value;
            let pos = order[..n]
                .iter()
                .filter(|&&o| before(vals, o, worst))
                .count();
            order.copy_within(pos..n, pos + 1);
            order[pos] = worst;
        };

    let mut iterations = 0;
    let mut converged = false;
    while iterations < opts.max_iterations {
        iterations += 1;

        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        if (vals[worst] - vals[best]).abs() < opts.tolerance {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex, accumulated in order so the
        // floating-point sum matches the reference bit for bit.
        centroid.fill(0.0);
        for &i in &order[..n] {
            for (c, x) in centroid.iter_mut().zip(verts[i].as_ref()) {
                *c += x;
            }
        }
        for c in centroid.iter_mut() {
            *c /= n as f64;
        }

        // Reflection.
        lerp_into(trial, centroid, verts[worst].as_ref(), -alpha);
        let fr = eval(trial);
        if fr < vals[best] {
            // Expansion.
            lerp_into(trial2, centroid, verts[worst].as_ref(), -gamma);
            let fe = eval(trial2);
            if fe < fr {
                reinsert(verts, vals, order, trial2, fe);
            } else {
                reinsert(verts, vals, order, trial, fr);
            }
            continue;
        }
        if fr < vals[second_worst] {
            reinsert(verts, vals, order, trial, fr);
            continue;
        }

        // Contraction (outside if the reflection improved on the worst,
        // inside otherwise).
        if fr < vals[worst] {
            lerp_into(trial2, centroid, trial, rho);
        } else {
            lerp_into(trial2, centroid, verts[worst].as_ref(), rho);
        }
        let fc = eval(trial2);
        if fc < vals[worst].min(fr) {
            reinsert(verts, vals, order, trial2, fc);
            continue;
        }

        // Shrink toward the best vertex; every value changes, so re-sort.
        best_buf.copy_from_slice(verts[best].as_ref());
        for (i, v) in verts.iter_mut().enumerate() {
            if i == best {
                continue;
            }
            let v = v.as_mut();
            for (x, b) in v.iter_mut().zip(best_buf.iter()) {
                *x = b + sigma * (*x - b);
            }
            vals[i] = eval(v);
        }
        sort_order(order, vals);
    }

    (iterations, converged)
}

/// The original allocating implementation, retained verbatim as the
/// correctness and performance oracle for the allocation-free kernel.
///
/// Property tests prove [`simplex_downhill`] reproduces this function's
/// trajectories bit for bit; the `kernels` bench measures the speedup
/// against it. Not intended for production use.
pub mod oracle {
    use super::{SimplexOptions, SimplexResult, NELDER_MEAD};

    /// Reference Nelder–Mead implementation (full sort + fresh allocations
    /// every iteration). See the module docs.
    ///
    /// # Panics
    /// Panics if `x0` is empty.
    pub fn simplex_downhill_reference<F>(f: F, x0: &[f64], opts: &SimplexOptions) -> SimplexResult
    where
        F: Fn(&[f64]) -> f64,
    {
        assert!(!x0.is_empty(), "cannot optimize a zero-dimensional point");
        let n = x0.len();
        let [alpha, gamma, rho, sigma] = NELDER_MEAD;
        let evals = std::cell::Cell::new(0usize);
        let eval = |x: &[f64]| -> f64 {
            evals.set(evals.get() + 1);
            let v = f(x);
            if v.is_finite() {
                v
            } else {
                f64::INFINITY
            }
        };

        // Initial simplex: x0 plus one vertex per axis.
        let mut verts: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        verts.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            v[i] += if v[i].abs() > 1.0 {
                opts.initial_step.copysign(v[i])
            } else {
                opts.initial_step
            };
            verts.push(v);
        }
        let mut vals: Vec<f64> = verts.iter().map(|v| eval(v)).collect();

        let mut iterations = 0;
        let mut converged = false;
        while iterations < opts.max_iterations {
            iterations += 1;

            // Order vertices: best first. Stable sort keeps determinism on
            // ties.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&a, &b| {
                vals[a]
                    .partial_cmp(&vals[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            if (vals[worst] - vals[best]).abs() < opts.tolerance {
                converged = true;
                break;
            }

            // Centroid of all but the worst vertex.
            let mut centroid = vec![0.0; n];
            for &i in order.iter().take(n) {
                for (c, x) in centroid.iter_mut().zip(&verts[i]) {
                    *c += x;
                }
            }
            for c in &mut centroid {
                *c /= n as f64;
            }

            let lerp = |from: &[f64], to: &[f64], t: f64| -> Vec<f64> {
                from.iter().zip(to).map(|(a, b)| a + t * (b - a)).collect()
            };

            // Reflection.
            let reflected = lerp(&centroid, &verts[worst], -alpha);
            let fr = eval(&reflected);
            if fr < vals[best] {
                // Expansion.
                let expanded = lerp(&centroid, &verts[worst], -gamma);
                let fe = eval(&expanded);
                if fe < fr {
                    verts[worst] = expanded;
                    vals[worst] = fe;
                } else {
                    verts[worst] = reflected;
                    vals[worst] = fr;
                }
                continue;
            }
            if fr < vals[second_worst] {
                verts[worst] = reflected;
                vals[worst] = fr;
                continue;
            }

            // Contraction (outside if the reflection improved on the worst,
            // inside otherwise).
            let contracted = if fr < vals[worst] {
                lerp(&centroid, &reflected, rho)
            } else {
                lerp(&centroid, &verts[worst], rho)
            };
            let fc = eval(&contracted);
            if fc < vals[worst].min(fr) {
                verts[worst] = contracted;
                vals[worst] = fc;
                continue;
            }

            // Shrink toward the best vertex.
            let best_v = verts[best].clone();
            for &i in order.iter().skip(1) {
                verts[i] = lerp(&best_v, &verts[i], sigma);
                vals[i] = eval(&verts[i]);
            }
        }

        let (bi, bv) = vals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("simplex has at least one vertex");
        SimplexResult {
            point: verts[bi].clone(),
            value: *bv,
            iterations,
            converged,
            evals: evals.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fit on a fresh scratch.
    fn fit<F: FnMut(&[f64]) -> f64>(f: F, x0: &[f64], opts: &SimplexOptions) -> SimplexResult {
        simplex_downhill(f, x0, opts, &mut SimplexScratch::new())
    }

    #[test]
    fn minimizes_sphere_function() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = fit(f, &[10.0, -7.0, 3.0], &SimplexOptions::default());
        assert!(r.value < 1e-6, "value={}", r.value);
        assert!(r.point.iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn minimizes_shifted_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 5.0).powi(2) + 2.0;
        let r = fit(f, &[0.0, 0.0], &SimplexOptions::default());
        assert!((r.value - 2.0).abs() < 1e-5);
        assert!((r.point[0] - 3.0).abs() < 1e-2);
        assert!((r.point[1] + 5.0).abs() < 1e-2);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = SimplexOptions {
            max_iterations: 5000,
            initial_step: 0.5,
            ..Default::default()
        };
        let r = fit(f, &[-1.2, 1.0], &opts);
        assert!(r.value < 1e-4, "value={}", r.value);
    }

    #[test]
    fn survives_nan_objective_regions() {
        // NaN away from origin: solver must treat it as +inf and not panic.
        let f = |x: &[f64]| {
            let s: f64 = x.iter().map(|v| v * v).sum();
            if x[0] > 5.0 {
                f64::NAN
            } else {
                s
            }
        };
        let r = fit(f, &[4.0, 0.0], &SimplexOptions::default());
        assert!(r.value.is_finite());
        assert!(r.value < 1e-4);
    }

    #[test]
    fn respects_iteration_cap() {
        let f = |x: &[f64]| x[0].sin() * x[1].cos() + x[0] * x[0] * 1e-4;
        let opts = SimplexOptions {
            max_iterations: 3,
            ..Default::default()
        };
        let r = fit(f, &[1.0, 1.0], &opts);
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn one_dimensional_works() {
        let f = |x: &[f64]| (x[0] - 42.0).powi(2);
        let r = fit(f, &[0.0], &SimplexOptions::default());
        assert!((r.point[0] - 42.0).abs() < 1e-3);
    }

    #[test]
    fn deterministic_across_runs() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2) * 3.0;
        let a = fit(f, &[9.0, -9.0], &SimplexOptions::default());
        let b = fit(f, &[9.0, -9.0], &SimplexOptions::default());
        assert_eq!(a.point, b.point);
        assert_eq!(a.iterations, b.iterations);
    }

    /// Bit-level equality against the oracle: point, value, iteration count
    /// and convergence flag must all match exactly.
    fn assert_bit_identical<F: Fn(&[f64]) -> f64>(f: F, x0: &[f64], opts: &SimplexOptions) {
        let new = fit(&f, x0, opts);
        let old = oracle::simplex_downhill_reference(&f, x0, opts);
        assert_eq!(new.iterations, old.iterations, "iterations diverge");
        assert_eq!(new.converged, old.converged, "convergence flag diverges");
        assert_eq!(new.evals, old.evals, "evaluation count diverges");
        assert_eq!(
            new.value.to_bits(),
            old.value.to_bits(),
            "value diverges: {} vs {}",
            new.value,
            old.value
        );
        let new_bits: Vec<u64> = new.point.iter().map(|v| v.to_bits()).collect();
        let old_bits: Vec<u64> = old.point.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            new_bits, old_bits,
            "point diverges: {:?} vs {:?}",
            new.point, old.point
        );
    }

    #[test]
    fn kernel_matches_oracle_on_standard_objectives() {
        let opts = SimplexOptions::default();
        assert_bit_identical(
            |x| x.iter().map(|v| v * v).sum::<f64>(),
            &[10.0, -7.0, 3.0],
            &opts,
        );
        assert_bit_identical(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 5.0).powi(2) + 2.0,
            &[0.0, 0.0],
            &opts,
        );
        let rosen = SimplexOptions {
            max_iterations: 5000,
            initial_step: 0.5,
            ..Default::default()
        };
        assert_bit_identical(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
            &rosen,
        );
    }

    #[test]
    fn kernel_matches_oracle_with_nan_regions_and_caps() {
        let f = |x: &[f64]| {
            let s: f64 = x.iter().map(|v| v * v).sum();
            if x[0] > 5.0 {
                f64::NAN
            } else {
                s
            }
        };
        assert_bit_identical(f, &[4.0, 0.0], &SimplexOptions::default());
        let capped = SimplexOptions {
            max_iterations: 3,
            ..Default::default()
        };
        assert_bit_identical(
            |x: &[f64]| x[0].sin() * x[1].cos() + x[0] * x[0] * 1e-4,
            &[1.0, 1.0],
            &capped,
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        // A scratch reused across problems of different dimensions must
        // reproduce fresh-scratch results exactly.
        let mut scratch = SimplexScratch::new();
        let opts = SimplexOptions::default();
        let f3 = |x: &[f64]| x.iter().map(|v| (v - 2.0) * (v - 2.0)).sum::<f64>();
        let f1 = |x: &[f64]| (x[0] - 42.0).powi(2);
        for _ in 0..3 {
            let a = simplex_downhill(f3, &[9.0, -9.0, 0.5], &opts, &mut scratch);
            let b = fit(f3, &[9.0, -9.0, 0.5], &opts);
            assert_eq!(a.point, b.point);
            assert_eq!(a.iterations, b.iterations);
            let a1 = simplex_downhill(f1, &[0.0], &opts, &mut scratch);
            let b1 = fit(f1, &[0.0], &opts);
            assert_eq!(a1.point, b1.point);
        }
    }

    #[test]
    fn evals_counts_every_objective_call() {
        let calls = std::cell::Cell::new(0usize);
        let f = |x: &[f64]| {
            calls.set(calls.get() + 1);
            (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
        };
        let r = fit(f, &[0.0, 0.0], &SimplexOptions::default());
        assert_eq!(r.evals, calls.get());
        assert!(r.evals >= 3, "at least the initial vertices are evaluated");
    }
}
