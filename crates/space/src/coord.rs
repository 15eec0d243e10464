//! Coordinates and displacements with Vivaldi height-model semantics.

use crate::vector;
use serde::{Deserialize, Serialize};

/// A position in an embedding space.
///
/// `vec` is the Euclidean part; `height` is the height-model component. In a
/// pure Euclidean space `height` is zero and ignored. In the height model
/// (Euclidean space augmented with a height vector, [Dabek et al. 2004]) the
/// Euclidean part models a node's position in the high-speed core and the
/// height models its access-link latency; heights are always non-negative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coord {
    /// Euclidean components, in the same unit as RTTs (milliseconds).
    pub vec: Vec<f64>,
    /// Height component (milliseconds); `0.0` in pure Euclidean spaces.
    pub height: f64,
}

impl Coord {
    /// The origin of a `dim`-dimensional space with zero height.
    pub fn origin(dim: usize) -> Self {
        Coord {
            vec: vec![0.0; dim],
            height: 0.0,
        }
    }

    /// Build a coordinate from Euclidean components only.
    pub fn from_vec(vec: Vec<f64>) -> Self {
        Coord { vec, height: 0.0 }
    }

    /// Euclidean dimension (not counting the height component).
    #[inline]
    pub fn dim(&self) -> usize {
        self.vec.len()
    }

    /// `true` if every component (and the height) is finite.
    pub fn is_finite(&self) -> bool {
        self.height.is_finite() && self.vec.iter().all(|x| x.is_finite())
    }

    /// Magnitude of this coordinate seen as a displacement from the origin:
    /// `‖vec‖ + height`.
    pub fn magnitude(&self) -> f64 {
        vector::norm(&self.vec) + self.height
    }

    /// Height-model difference `self − other`.
    ///
    /// Heights *add* under subtraction: the path between two nodes descends
    /// one access link, crosses the core, and climbs the other access link.
    pub fn sub(&self, other: &Coord) -> Displacement {
        Displacement {
            vec: vector::sub(&self.vec, &other.vec),
            height: self.height + other.height,
        }
    }

    /// Move this coordinate by `disp * s`, clamping the height at zero.
    pub(crate) fn add_scaled(&mut self, disp: &Displacement, s: f64) {
        vector::add_scaled(&mut self.vec, &disp.vec, s);
        self.height += disp.height * s;
        if self.height < 0.0 {
            self.height = 0.0;
        }
    }

    /// Replace non-finite components with zeros.
    ///
    /// Defensive repair used by protocol code after arithmetic on possibly
    /// adversarial inputs.
    pub fn sanitize(&mut self) {
        for x in &mut self.vec {
            if !x.is_finite() {
                *x = 0.0;
            }
        }
        if !self.height.is_finite() || self.height < 0.0 {
            self.height = 0.0;
        }
    }
}

/// The difference between two coordinates (`a − b`).
///
/// In the height model the height of a displacement is `a.height + b.height`
/// and the norm is `‖a.vec − b.vec‖ + height`; scaling a displacement scales
/// both parts, so applying a unit displacement moves a node through both the
/// core and its access link, exactly as in the Vivaldi paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Displacement {
    /// Euclidean part of the displacement.
    pub vec: Vec<f64>,
    /// Height part (non-negative for differences of valid coordinates).
    pub height: f64,
}

impl Displacement {
    /// Height-model norm: `‖vec‖ + height`.
    pub fn norm(&self) -> f64 {
        vector::norm(&self.vec) + self.height
    }

    /// Scale both parts in place.
    pub fn scale(&mut self, s: f64) {
        vector::scale(&mut self.vec, s);
        self.height *= s;
    }

    /// Normalize to unit (height-model) norm.
    ///
    /// Returns `None` when the displacement is (numerically) zero; callers
    /// should substitute a random direction, as Vivaldi prescribes for
    /// coincident nodes.
    pub fn unit(mut self) -> Option<Displacement> {
        let n = self.norm();
        if n <= f64::EPSILON {
            return None;
        }
        self.scale(1.0 / n);
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_all_zero() {
        let c = Coord::origin(3);
        assert_eq!(c.vec, vec![0.0; 3]);
        assert_eq!(c.height, 0.0);
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn heights_add_under_subtraction() {
        let a = Coord {
            vec: vec![1.0, 0.0],
            height: 10.0,
        };
        let b = Coord {
            vec: vec![0.0, 0.0],
            height: 5.0,
        };
        let d = a.sub(&b);
        assert_eq!(d.height, 15.0);
        assert_eq!(d.norm(), 1.0 + 15.0);
    }

    #[test]
    fn unit_displacement_has_norm_one() {
        let d = Displacement {
            vec: vec![3.0, 4.0],
            height: 5.0,
        };
        let u = d.unit().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_displacement_has_no_unit() {
        let d = Displacement {
            vec: vec![0.0, 0.0],
            height: 0.0,
        };
        assert!(d.unit().is_none());
    }

    #[test]
    fn add_scaled_clamps_height() {
        let mut c = Coord {
            vec: vec![0.0],
            height: 1.0,
        };
        let d = Displacement {
            vec: vec![1.0],
            height: 4.0,
        };
        c.add_scaled(&d, -1.0);
        assert_eq!(c.height, 0.0, "height must clamp at zero");
        assert_eq!(c.vec, vec![-1.0]);
    }

    #[test]
    fn sanitize_repairs_nan() {
        let mut c = Coord {
            vec: vec![f64::NAN, 1.0],
            height: f64::INFINITY,
        };
        assert!(!c.is_finite());
        c.sanitize();
        assert!(c.is_finite());
        assert_eq!(c.vec[1], 1.0);
    }
}
