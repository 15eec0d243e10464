//! Dense symmetric RTT matrices.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, symmetric matrix of round-trip times in milliseconds.
///
/// ```
/// use vcoord_topo::RttMatrix;
///
/// let mut m = RttMatrix::zeros(3);
/// m.set(0, 1, 42.0);
/// assert_eq!(m.rtt(1, 0), 42.0); // symmetric
/// assert_eq!(m.rtt(2, 2), 0.0);  // zero diagonal
/// assert!(m.validate().is_ok());
/// ```
///
/// The diagonal is always zero. Storage is a full row-major `n × n` buffer
/// (1740 nodes ⇒ ~24 MB): evaluation reads whole rows of it per sweep, and
/// a full delay matrix is what the figures measure the coordinates against.
/// It is too large to be a cache-friendly *per-probe* read, though — one
/// random cell is one cache and TLB miss — so protocol code that keeps
/// returning to the same few cells (a Vivaldi node's springs) copies them
/// out once instead of calling [`rtt`](RttMatrix::rtt) per probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RttMatrix {
    n: usize,
    data: Vec<f64>,
}

impl RttMatrix {
    /// An `n × n` matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        RttMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// RTT between `i` and `j` (zero when `i == j`).
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    pub fn rtt(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set the RTT between `i` and `j`, updating both triangles.
    ///
    /// Setting a diagonal entry is a no-op (the diagonal stays zero).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        if i == j {
            return;
        }
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Iterate over the upper triangle as `(i, j, rtt)` with `i < j`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| ((i + 1)..self.n).map(move |j| (i, j, self.rtt(i, j))))
    }

    /// Apply `f` to every off-diagonal entry (both triangles kept in sync).
    pub fn map_in_place<F: FnMut(usize, usize, f64) -> f64>(&mut self, mut f: F) {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let v = f(i, j, self.rtt(i, j));
                self.set(i, j, v);
            }
        }
    }

    /// Restrict the matrix to the given node ids, in the given order.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn subset(&self, ids: &[usize]) -> RttMatrix {
        let mut m = RttMatrix::zeros(ids.len());
        for (a, &i) in ids.iter().enumerate() {
            for (b, &j) in ids.iter().enumerate().skip(a + 1) {
                m.set(a, b, self.rtt(i, j));
            }
        }
        m
    }

    /// Restrict to `k` nodes picked uniformly at random — the paper's method
    /// for deriving smaller groups from the 1740-node set (§5.2).
    ///
    /// When `k >= self.len()` the whole matrix is returned (shuffled order
    /// does not matter for a symmetric matrix, so the identity order is
    /// kept).
    pub fn random_subset<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> RttMatrix {
        if k >= self.n {
            return self.clone();
        }
        let mut ids: Vec<usize> = (0..self.n).collect();
        ids.shuffle(rng);
        ids.truncate(k);
        self.subset(&ids)
    }

    /// The smallest non-zero RTT, or `None` for matrices with < 2 nodes.
    pub fn min_rtt(&self) -> Option<f64> {
        self.pairs()
            .map(|(_, _, v)| v)
            .min_by(|a, b| a.partial_cmp(b).expect("RTTs are finite"))
    }

    /// Check structural invariants: symmetry, zero diagonal, finite and
    /// non-negative entries. Returns a human-readable violation if any.
    pub fn validate(&self) -> Result<(), String> {
        for i in 0..self.n {
            if self.data[i * self.n + i] != 0.0 {
                return Err(format!("diagonal entry ({i},{i}) is non-zero"));
            }
            for j in (i + 1)..self.n {
                let a = self.rtt(i, j);
                let b = self.rtt(j, i);
                if a != b {
                    return Err(format!("asymmetric pair ({i},{j}): {a} vs {b}"));
                }
                if !a.is_finite() || a < 0.0 {
                    return Err(format!("invalid RTT at ({i},{j}): {a}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample() -> RttMatrix {
        let mut m = RttMatrix::zeros(4);
        m.set(0, 1, 10.0);
        m.set(0, 2, 20.0);
        m.set(0, 3, 30.0);
        m.set(1, 2, 12.0);
        m.set(1, 3, 13.0);
        m.set(2, 3, 23.0);
        m
    }

    #[test]
    fn set_updates_both_triangles() {
        let m = sample();
        assert_eq!(m.rtt(1, 0), 10.0);
        assert_eq!(m.rtt(0, 1), 10.0);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn diagonal_stays_zero() {
        let mut m = sample();
        m.set(2, 2, 99.0);
        assert_eq!(m.rtt(2, 2), 0.0);
    }

    #[test]
    fn pairs_covers_upper_triangle() {
        let m = sample();
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|&(i, j, _)| i < j));
    }

    #[test]
    fn subset_preserves_rtts() {
        let m = sample();
        let s = m.subset(&[3, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.rtt(0, 1), 13.0);
    }

    #[test]
    fn random_subset_size_and_validity() {
        let m = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = m.random_subset(3, &mut rng);
        assert_eq!(s.len(), 3);
        assert!(s.validate().is_ok());
        // k >= n returns the whole matrix.
        let whole = m.random_subset(10, &mut rng);
        assert_eq!(whole, m);
    }

    #[test]
    fn min_rtt_found() {
        assert_eq!(sample().min_rtt(), Some(10.0));
        assert_eq!(RttMatrix::zeros(1).min_rtt(), None);
    }

    #[test]
    fn validate_catches_nan() {
        let mut m = sample();
        m.set(0, 1, f64::NAN);
        assert!(m.validate().is_err());
    }
}
