//! # vcoord-bench
//!
//! Benchmark harness for the `vcoord` workspace:
//!
//! * the **`figures` binary** — regenerates the data behind every figure of
//!   the paper's evaluation (`cargo run -p vcoord-bench --release --bin
//!   figures -- all`), printing the series and writing CSVs;
//! * the **`bench-baseline` binary** — wall-clocks the figure suite and the
//!   hot kernels into a machine-readable `BENCH_<label>.json` perf
//!   baseline;
//! * **Criterion benches** (`cargo bench`) — hot-path kernels
//!   (`kernels`), whole-simulator throughput (`simulators`), attack lie
//!   construction (`attacks`), design-choice ablations (`ablations`), and a
//!   smoke pass over representative figure runners (`figures_smoke`).

use vcoord::netsim::SeedStream;
use vcoord::nps::{
    position_node_scratch, FitObjective, PositionOutcome, PositionScratch, RefSample,
    SecurityPolicy,
};
use vcoord::space::{Coord, SimplexOptions, Space};

/// Default output directory for figure CSVs.
pub const DEFAULT_OUT_DIR: &str = "results";

/// One benchmark reference point: reported coordinates plus the measured
/// distance it claims.
pub type SimplexRef = (Vec<f64>, f64);

/// The representative NPS positioning fixture shared by the `kernels`
/// bench and the `bench-baseline` binary: 20 reference points drawn in a
/// `dim`-D Euclidean space, each claiming an 80 ms measurement, minimized
/// from the all-ones start with the simulator's iteration budget.
///
/// Keeping one definition is what makes `cargo bench` numbers and the
/// committed `BENCH_*.json` trajectory comparable — tweak it here or
/// nowhere.
pub fn simplex_fixture(dim: usize) -> (Vec<SimplexRef>, SimplexOptions, Vec<f64>) {
    let seeds = SeedStream::new(2);
    let mut rng = seeds.rng("bench/simplex-fixture");
    let space = Space::Euclidean(dim);
    let refs: Vec<SimplexRef> = (0..20)
        .map(|_| (space.random_coord(150.0, &mut rng).vec, 80.0))
        .collect();
    (refs, simplex_bench_opts(), vec![1.0; dim])
}

/// The Simplex option set used by every kernel bench (the NPS simulator's
/// positioning budget).
pub fn simplex_bench_opts() -> SimplexOptions {
    SimplexOptions {
        max_iterations: 150,
        initial_step: 20.0,
        ..SimplexOptions::default()
    }
}

/// Squared-relative latency-fit objective over `refs`, computed on raw
/// slices (no per-evaluation allocation), for use with both the
/// allocation-free Simplex kernel and the retained oracle.
pub fn fit_objective(refs: &[SimplexRef]) -> impl Fn(&[f64]) -> f64 + '_ {
    move |x: &[f64]| {
        refs.iter()
            .map(|(c, d)| {
                let dist = c
                    .iter()
                    .zip(x)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let e = (dist - d) / d;
                e * e
            })
            .sum()
    }
}

/// The whole-fit kernel: the [`simplex_fixture`] minimization run the way
/// the NPS simulator runs it — one repositioning through
/// [`position_node_scratch`] (gather, dimension-major objective, Simplex
/// kernel, outcome) with the start as incumbent and the filter off, so it
/// is exactly one fit. The objective is [`fit_objective`]'s, term for term,
/// so this row, `simplex_*_20refs` and its oracle all walk the same
/// trajectory and their times compare directly.
pub struct NpsFitFixture {
    space: Space,
    samples: Vec<RefSample>,
    start: Coord,
    opts: SimplexOptions,
    scratch: PositionScratch,
}

impl NpsFitFixture {
    /// The `dim`-D fixture.
    pub fn new(dim: usize) -> NpsFitFixture {
        let (refs, opts, start) = simplex_fixture(dim);
        NpsFitFixture {
            space: Space::Euclidean(dim),
            samples: refs
                .into_iter()
                .enumerate()
                .map(|(i, (at, rtt))| RefSample::new(i, Coord::from_vec(at), rtt))
                .collect(),
            start: Coord::from_vec(start),
            opts,
            scratch: PositionScratch::new(),
        }
    }

    /// One fit.
    pub fn fit(&mut self) -> PositionOutcome {
        position_node_scratch(
            &self.space,
            &self.samples,
            &self.start,
            Some(&self.start),
            SecurityPolicy::off(),
            &self.opts,
            FitObjective::SquaredRelative,
            &mut self.scratch,
        )
        .expect("20 references position the node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic_and_minimizable() {
        let (refs_a, opts, start) = simplex_fixture(2);
        let (refs_b, _, _) = simplex_fixture(2);
        assert_eq!(refs_a, refs_b, "fixture must be seed-stable");
        assert_eq!(refs_a.len(), 20);
        assert_eq!(start, vec![1.0; 2]);
        let f = fit_objective(&refs_a);
        let r = vcoord::space::simplex_downhill(&f, &start, &opts);
        assert!(
            r.value < f(&start),
            "minimization must improve on the start"
        );
    }

    #[test]
    fn nps_fit_fixture_walks_the_simplex_fixture_trajectory() {
        let (refs, opts, start) = simplex_fixture(8);
        let direct = vcoord::space::simplex_downhill(fit_objective(&refs), &start, &opts);
        let fit = NpsFitFixture::new(8).fit();
        assert_eq!(fit.evals, direct.evals);
        assert_eq!(fit.objective.to_bits(), direct.value.to_bits());
        assert_eq!(fit.coord.vec, direct.point);
    }
}
