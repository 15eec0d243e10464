//! Embedding spaces: Euclidean and Euclidean + height.

use crate::coord::{Coord, Displacement};
use crate::vector;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The geometric space a coordinate system embeds into.
///
/// ```
/// use vcoord_space::{Coord, Space};
///
/// let space = Space::EuclideanHeight(2);
/// let a = Coord { vec: vec![3.0, 4.0], height: 10.0 };
/// let b = Coord { vec: vec![0.0, 0.0], height: 5.0 };
/// // Height-model distance: core distance plus both access links.
/// assert_eq!(space.distance(&a, &b), 5.0 + 10.0 + 5.0);
/// ```
///
/// The CoNEXT'06 study sweeps this as an experiment parameter: Vivaldi runs
/// in 2/3/5-D Euclidean spaces and the 2-D + height model; NPS runs in 8-D by
/// default and the dimensionality sweep uses 2–12-D.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Space {
    /// `d`-dimensional Euclidean space.
    Euclidean(usize),
    /// `d`-dimensional Euclidean space augmented with a height vector.
    EuclideanHeight(usize),
}

impl Space {
    /// Euclidean dimension of points in this space.
    pub fn dim(&self) -> usize {
        match self {
            Space::Euclidean(d) | Space::EuclideanHeight(d) => *d,
        }
    }

    /// Whether coordinates carry a meaningful height component.
    pub fn has_height(&self) -> bool {
        matches!(self, Space::EuclideanHeight(_))
    }

    /// The origin of this space.
    pub fn origin(&self) -> Coord {
        Coord::origin(self.dim())
    }

    /// Predicted distance between two coordinates.
    pub fn distance(&self, a: &Coord, b: &Coord) -> f64 {
        match self {
            Space::Euclidean(_) => vector::dist(&a.vec, &b.vec),
            Space::EuclideanHeight(_) => vector::dist(&a.vec, &b.vec) + a.height + b.height,
        }
    }

    /// [`Space::distance`] on raw component slices plus heights — the SoA
    /// fast path used by `vcoord-metrics`' coordinate snapshots.
    ///
    /// Performs exactly the same floating-point operations in the same order
    /// as [`Space::distance`], so results are bit-identical; heights are
    /// ignored by the spaces that ignore them there.
    pub fn distance_flat(&self, a: &[f64], a_height: f64, b: &[f64], b_height: f64) -> f64 {
        match self {
            Space::Euclidean(_) => vector::dist(a, b),
            Space::EuclideanHeight(_) => vector::dist(a, b) + a_height + b_height,
        }
    }

    /// Displacement `a − b` in this space.
    ///
    /// For Euclidean spaces the height part is forced to zero; for the height
    /// model heights add (see [`Coord::sub`]).
    pub fn displacement(&self, a: &Coord, b: &Coord) -> Displacement {
        match self {
            Space::Euclidean(_) => Displacement {
                vec: vector::sub(&a.vec, &b.vec),
                height: 0.0,
            },
            Space::EuclideanHeight(_) => a.sub(b),
        }
    }

    /// Unit direction of `a − b`, or a random unit direction when the two
    /// coordinates coincide (Vivaldi's rule for nodes at the same position).
    pub fn direction<R: Rng + ?Sized>(&self, a: &Coord, b: &Coord, rng: &mut R) -> Displacement {
        match self.displacement(a, b).unit() {
            Some(u) => u,
            None => self.random_unit(rng),
        }
    }

    /// A random unit displacement, used to separate coincident nodes.
    pub fn random_unit<R: Rng + ?Sized>(&self, rng: &mut R) -> Displacement {
        loop {
            let vec: Vec<f64> = (0..self.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let height = if self.has_height() {
                rng.gen_range(0.0..1.0)
            } else {
                0.0
            };
            let d = Displacement { vec, height };
            if let Some(u) = d.unit() {
                return u;
            }
        }
    }

    /// A random coordinate with every component drawn uniformly from
    /// `[-r, r]` (heights from `[0, r]`).
    ///
    /// With `r = 50 000` this is exactly the paper's *random coordinate
    /// system* worst-case baseline (§5.1).
    pub fn random_coord<R: Rng + ?Sized>(&self, r: f64, rng: &mut R) -> Coord {
        Coord {
            vec: (0..self.dim()).map(|_| rng.gen_range(-r..r)).collect(),
            height: if self.has_height() {
                rng.gen_range(0.0..r)
            } else {
                0.0
            },
        }
    }

    /// Apply one relaxation move: `x += s · d`, respecting the space's
    /// constraints (heights clamped at zero).
    pub fn apply(&self, x: &mut Coord, d: &Displacement, s: f64) {
        x.add_scaled(d, s);
        if !self.has_height() {
            x.height = 0.0;
        }
    }

    /// A short human-readable label used in experiment CSV headers
    /// (e.g. `"2D"`, `"2D+h"`).
    pub fn label(&self) -> String {
        match self {
            Space::Euclidean(d) => format!("{d}D"),
            Space::EuclideanHeight(d) => format!("{d}D+h"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn euclidean_distance_matches_norm() {
        let s = Space::Euclidean(3);
        let a = Coord::from_vec(vec![1.0, 2.0, 2.0]);
        let b = Coord::origin(3);
        assert_eq!(s.distance(&a, &b), 3.0);
    }

    #[test]
    fn height_model_adds_heights() {
        let s = Space::EuclideanHeight(2);
        let a = Coord {
            vec: vec![3.0, 4.0],
            height: 2.0,
        };
        let b = Coord {
            vec: vec![0.0, 0.0],
            height: 1.0,
        };
        assert_eq!(s.distance(&a, &b), 5.0 + 3.0);
    }

    #[test]
    fn euclidean_ignores_heights_in_distance() {
        let s = Space::Euclidean(2);
        let a = Coord {
            vec: vec![3.0, 4.0],
            height: 99.0,
        };
        let b = Coord::origin(2);
        assert_eq!(s.distance(&a, &b), 5.0);
    }

    #[test]
    fn distance_flat_is_bit_identical_to_distance() {
        let mut r = rng();
        for space in [Space::Euclidean(3), Space::EuclideanHeight(2)] {
            for _ in 0..50 {
                let a = space.random_coord(2.0, &mut r);
                let b = space.random_coord(2.0, &mut r);
                let via_coord = space.distance(&a, &b);
                let via_flat = space.distance_flat(&a.vec, a.height, &b.vec, b.height);
                assert_eq!(
                    via_coord.to_bits(),
                    via_flat.to_bits(),
                    "{space:?}: {via_coord} vs {via_flat}"
                );
            }
        }
    }

    #[test]
    fn direction_is_unit_or_random_unit() {
        let s = Space::Euclidean(2);
        let mut r = rng();
        let a = Coord::from_vec(vec![5.0, 0.0]);
        let b = Coord::from_vec(vec![0.0, 0.0]);
        let u = s.direction(&a, &b, &mut r);
        assert!((u.norm() - 1.0).abs() < 1e-12);
        // Coincident points still get a unit direction.
        let u2 = s.direction(&b, &b, &mut r);
        assert!((u2.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_coord_within_bounds() {
        let s = Space::EuclideanHeight(4);
        let mut r = rng();
        for _ in 0..100 {
            let c = s.random_coord(50_000.0, &mut r);
            assert_eq!(c.dim(), 4);
            assert!(c.vec.iter().all(|x| x.abs() <= 50_000.0));
            assert!((0.0..=50_000.0).contains(&c.height));
        }
    }

    #[test]
    fn apply_zeroes_height_in_pure_euclidean() {
        let s = Space::Euclidean(2);
        let mut c = Coord::origin(2);
        let d = Displacement {
            vec: vec![1.0, 0.0],
            height: 3.0,
        };
        s.apply(&mut c, &d, 1.0);
        assert_eq!(c.height, 0.0);
        assert_eq!(c.vec, vec![1.0, 0.0]);
    }

    #[test]
    fn moving_toward_reduces_distance() {
        let s = Space::EuclideanHeight(3);
        let mut r = rng();
        let mut a = Coord {
            vec: vec![10.0, 0.0, 0.0],
            height: 5.0,
        };
        let b = Coord {
            vec: vec![0.0, 0.0, 0.0],
            height: 5.0,
        };
        let before = s.distance(&a, &b);
        let u = s.direction(&a, &b, &mut r);
        s.apply(&mut a, &u, -1.0); // move toward b
        assert!(s.distance(&a, &b) < before);
    }

    #[test]
    fn labels() {
        assert_eq!(Space::Euclidean(5).label(), "5D");
        assert_eq!(Space::EuclideanHeight(2).label(), "2D+h");
    }
}
