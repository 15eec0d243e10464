//! The Vivaldi per-sample update rule, as a pure function.
//!
//! Keeping the rule free of simulator state makes it directly testable
//! against the equations in §3.2 of the paper:
//!
//! ```text
//! e_s = | ‖x_i − x_j‖ − rtt | / rtt
//! w   = e_i / (e_i + e_j)
//! δ   = Cc · w
//! x_i ← x_i + δ · (rtt − ‖x_i − x_j‖) · u(x_i − x_j)
//! e_i ← e_s · w + e_i · (1 − w)
//! ```

use rand::Rng;
use vcoord_space::{vector, Coord, Space};

/// Adaptive timestep constant `Cc` (< 1).
pub(crate) const CC: f64 = 0.25;
/// Numerical clamp range for local error estimates.
const ERROR_CLAMP: (f64, f64) = (1e-6, 1e3);

/// Outcome of a single update, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// Sample relative error `e_s`.
    pub sample_error: f64,
    /// Sample weight `w`.
    pub weight: f64,
    /// Distance moved in coordinate space.
    pub displacement: f64,
}

/// Apply one Vivaldi sample to `(coord, error)`.
///
/// `remote` is the coordinate/error the probed node *reported* (possibly a
/// lie) and `rtt` the measured round-trip time in ms (possibly delayed).
/// Samples with non-positive or non-finite RTT are rejected (`None`), as are
/// non-finite remote coordinates — the defensive guards that keep
/// adversarial input from corrupting local state with NaNs.
///
/// The node moves in place, with no displacement built: each component
/// becomes `x += step · ((x − r) · inv)` where `inv` is one over the
/// height-model norm `‖x − r‖ + (h_x + h_r)` of the direction. These are
/// the operations of [`Space::direction`] followed by [`Space::apply`], in
/// the same order, so the result is the same to the bit. Only coincident
/// nodes take a [`Space::random_unit`] kick.
pub fn vivaldi_update<R: Rng + ?Sized>(
    space: &Space,
    coord: &mut Coord,
    error: &mut f64,
    remote_coord: &Coord,
    remote_error: f64,
    rtt: f64,
    rng: &mut R,
) -> Option<UpdateOutcome> {
    if !(rtt.is_finite() && rtt > 0.0 && remote_coord.is_finite()) {
        return None;
    }
    let remote_error = remote_error.clamp(0.0, ERROR_CLAMP.1);

    // The core distance serves both the prediction and the direction norm.
    let core = vector::dist(&coord.vec, &remote_coord.vec);
    let (dist, dh) = if space.has_height() {
        (
            core + coord.height + remote_coord.height,
            coord.height + remote_coord.height,
        )
    } else {
        (core, 0.0)
    };
    let norm = core + dh;
    let sample_error = (dist - rtt).abs() / rtt;

    // Weight balancing local and remote confidence. Two perfectly confident
    // nodes split the difference.
    let denom = *error + remote_error;
    let weight = if denom <= f64::EPSILON {
        0.5
    } else {
        *error / denom
    };

    let step = CC * weight * (rtt - dist);
    if norm <= f64::EPSILON {
        space.apply(coord, &space.random_unit(rng), step);
    } else {
        let inv = 1.0 / norm;
        for (x, r) in coord.vec.iter_mut().zip(&remote_coord.vec) {
            *x += step * ((*x - r) * inv);
        }
        let height = coord.height + step * (dh * inv);
        coord.height = if !space.has_height() || height < 0.0 {
            0.0
        } else {
            height
        };
    }
    if !coord.is_finite() {
        coord.sanitize();
    }

    *error = (sample_error * weight + *error * (1.0 - weight)).clamp(ERROR_CLAMP.0, ERROR_CLAMP.1);

    Some(UpdateOutcome {
        sample_error,
        weight,
        displacement: step.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(11)
    }

    #[test]
    fn moves_toward_underestimated_neighbor() {
        // Node believes the neighbour is 100 away but RTT says 10: it must
        // move closer.
        let space = Space::Euclidean(2);
        let mut c = Coord::from_vec(vec![100.0, 0.0]);
        let mut e = 0.5;
        let remote = Coord::from_vec(vec![0.0, 0.0]);
        let before = space.distance(&c, &remote);
        vivaldi_update(&space, &mut c, &mut e, &remote, 0.5, 10.0, &mut rng()).unwrap();
        assert!(space.distance(&c, &remote) < before);
    }

    #[test]
    fn moves_away_from_overestimated_neighbor() {
        let space = Space::Euclidean(2);
        let mut c = Coord::from_vec(vec![10.0, 0.0]);
        let mut e = 0.5;
        let remote = Coord::from_vec(vec![0.0, 0.0]);
        let before = space.distance(&c, &remote);
        vivaldi_update(&space, &mut c, &mut e, &remote, 0.5, 100.0, &mut rng()).unwrap();
        assert!(space.distance(&c, &remote) > before);
    }

    #[test]
    fn perfect_sample_drives_error_down() {
        let space = Space::Euclidean(2);
        let mut c = Coord::from_vec(vec![10.0, 0.0]);
        let mut e = 1.0;
        let remote = Coord::from_vec(vec![0.0, 0.0]);
        let out = vivaldi_update(&space, &mut c, &mut e, &remote, 1.0, 10.0, &mut rng()).unwrap();
        assert_eq!(out.sample_error, 0.0);
        assert!(e < 1.0);
    }

    #[test]
    fn low_remote_error_means_big_step() {
        // The disorder attack exploits exactly this: a lying node reporting
        // e_j = 0.01 maximizes the victim's weight and thus its timestep.
        let space = Space::Euclidean(2);
        let remote = Coord::from_vec(vec![0.0, 0.0]);

        let mut c1 = Coord::from_vec(vec![10.0, 0.0]);
        let mut e1 = 0.5;
        let o1 =
            vivaldi_update(&space, &mut c1, &mut e1, &remote, 0.01, 500.0, &mut rng()).unwrap();

        let mut c2 = Coord::from_vec(vec![10.0, 0.0]);
        let mut e2 = 0.5;
        let o2 = vivaldi_update(&space, &mut c2, &mut e2, &remote, 5.0, 500.0, &mut rng()).unwrap();

        assert!(o1.weight > o2.weight);
        assert!(o1.displacement > o2.displacement);
    }

    #[test]
    fn rejects_bad_samples() {
        let space = Space::Euclidean(2);
        let mut c = Coord::from_vec(vec![1.0, 1.0]);
        let mut e = 0.5;
        let remote = Coord::from_vec(vec![0.0, 0.0]);
        assert!(vivaldi_update(&space, &mut c, &mut e, &remote, 0.5, 0.0, &mut rng()).is_none());
        assert!(
            vivaldi_update(&space, &mut c, &mut e, &remote, 0.5, f64::NAN, &mut rng()).is_none()
        );
        let bad = Coord::from_vec(vec![f64::NAN, 0.0]);
        assert!(vivaldi_update(&space, &mut c, &mut e, &bad, 0.5, 10.0, &mut rng()).is_none());
        // State untouched by rejected samples.
        assert_eq!(c.vec, vec![1.0, 1.0]);
        assert_eq!(e, 0.5);
    }

    #[test]
    fn non_finite_step_is_sanitized() {
        // Finite inputs whose distance overflows: the step is not finite.
        let space = Space::Euclidean(2);
        let mut c = Coord::from_vec(vec![1e308, 0.0]);
        let mut e = 0.5;
        let remote = Coord::from_vec(vec![-1e308, 0.0]);
        let outcome = vivaldi_update(&space, &mut c, &mut e, &remote, 0.5, 10.0, &mut rng());
        assert!(outcome.is_some());
        assert!(c.is_finite() && e.is_finite(), "{c:?} {e}");
    }

    #[test]
    fn coincident_nodes_separate() {
        let space = Space::Euclidean(2);
        let mut c = Coord::origin(2);
        let mut e = 1.0;
        let remote = Coord::origin(2);
        vivaldi_update(&space, &mut c, &mut e, &remote, 1.0, 50.0, &mut rng()).unwrap();
        assert!(
            space.distance(&c, &remote) > 0.0,
            "random kick must separate"
        );
    }

    #[test]
    fn error_stays_clamped() {
        let space = Space::Euclidean(2);
        let mut c = Coord::from_vec(vec![1.0, 0.0]);
        let mut e = 1.0;
        let remote = Coord::from_vec(vec![0.0, 0.0]);
        // Absurd sample error (dist 1 vs rtt 1e9): error must stay within clamp.
        vivaldi_update(&space, &mut c, &mut e, &remote, 0.0001, 1e9, &mut rng()).unwrap();
        assert!(e <= ERROR_CLAMP.1);
        assert!(e >= ERROR_CLAMP.0);
    }

    /// The update as it was written before it moved the node in place:
    /// build the unit direction, then apply the step along it.
    fn update_via_direction(
        space: &Space,
        coord: &mut Coord,
        error: &mut f64,
        remote: &Coord,
        remote_error: f64,
        rtt: f64,
        rng: &mut ChaCha12Rng,
    ) {
        let remote_error = remote_error.clamp(0.0, ERROR_CLAMP.1);
        let dist = space.distance(coord, remote);
        let sample_error = (dist - rtt).abs() / rtt;
        let denom = *error + remote_error;
        let weight = if denom <= f64::EPSILON {
            0.5
        } else {
            *error / denom
        };
        let dir = space.direction(coord, remote, rng);
        space.apply(coord, &dir, CC * weight * (rtt - dist));
        if !coord.is_finite() {
            coord.sanitize();
        }
        *error =
            (sample_error * weight + *error * (1.0 - weight)).clamp(ERROR_CLAMP.0, ERROR_CLAMP.1);
    }

    #[test]
    fn in_place_step_matches_direction_then_apply_bitwise() {
        let mut draw = ChaCha12Rng::seed_from_u64(5);
        for space in [
            Space::Euclidean(2),
            Space::Euclidean(5),
            Space::EuclideanHeight(2),
            Space::EuclideanHeight(3),
        ] {
            for case in 0..400 {
                let mut a = space.random_coord(200.0, &mut draw);
                let mut remote = space.random_coord(200.0, &mut draw);
                match case % 8 {
                    // Coincident nodes take the random kick.
                    0 => remote = a.clone(),
                    // Heights that pull the node through zero.
                    1 if space.has_height() => a.height = 1e-3,
                    // A Euclidean node carrying a stale height.
                    2 if !space.has_height() => a.height = 7.0,
                    // A finite pair whose distance overflows.
                    3 => {
                        a.vec[0] = 1e308;
                        remote.vec[0] = -1e308;
                    }
                    _ => {}
                }
                let mut b = a.clone();
                let mut ea: f64 = draw.gen_range(0.0..2.0);
                let mut eb = ea;
                let remote_error = draw.gen_range(0.0..2.0);
                let rtt = draw.gen_range(0.5..400.0);
                let (mut ra, mut rb) = (rng(), rng());
                update_via_direction(&space, &mut a, &mut ea, &remote, remote_error, rtt, &mut ra);
                vivaldi_update(&space, &mut b, &mut eb, &remote, remote_error, rtt, &mut rb)
                    .unwrap();
                let bits = |c: &Coord| -> Vec<u64> {
                    c.vec
                        .iter()
                        .chain([&c.height])
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&a), bits(&b), "{space:?} case {case}");
                assert_eq!(ea.to_bits(), eb.to_bits(), "{space:?} case {case}");
                assert_eq!(ra.gen::<u64>(), rb.gen::<u64>(), "same draws consumed");
            }
        }
    }

    #[test]
    fn height_model_keeps_height_nonnegative() {
        let space = Space::EuclideanHeight(2);
        let mut c = Coord {
            vec: vec![1.0, 0.0],
            height: 0.5,
        };
        let mut e = 1.0;
        let remote = Coord {
            vec: vec![0.0, 0.0],
            height: 0.5,
        };
        for _ in 0..50 {
            vivaldi_update(&space, &mut c, &mut e, &remote, 0.5, 1.0, &mut rng()).unwrap();
            assert!(c.height >= 0.0);
        }
    }
}
