//! Plain `f64` vector helpers used throughout the workspace.
//!
//! These operate on slices so callers can keep their own storage; all
//! functions are free of allocation except where documented.

/// Euclidean (L2) norm of `v`.
#[inline]
pub fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Euclidean distance between `a` and `b`.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Component-wise `a - b`, written into a fresh `Vec`.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// In-place `a += s * b`.
#[inline]
pub(crate) fn add_scaled(a: &mut [f64], b: &[f64], s: f64) {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += s * y;
    }
}

/// Scale `v` in place by `s`.
#[inline]
pub fn scale(v: &mut [f64], s: f64) {
    for x in v {
        *x *= s;
    }
}

/// Arithmetic mean of the rows in `rows` (each of dimension `dim`).
///
/// Returns the origin when `rows` is empty.
pub fn centroid(rows: &[&[f64]], dim: usize) -> Vec<f64> {
    let mut c = vec![0.0; dim];
    if rows.is_empty() {
        return c;
    }
    for row in rows {
        for (ci, xi) in c.iter_mut().zip(*row) {
            *ci += xi;
        }
    }
    let inv = 1.0 / rows.len() as f64;
    scale(&mut c, inv);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_of_axis_vectors() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(norm(&[-2.0]), 2.0);
    }

    #[test]
    fn dist_is_symmetric_here() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(dist(&a, &b), 5.0);
        assert_eq!(dist(&b, &a), 5.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.25, 8.0, -1.5];
        let mut back = sub(&a, &b);
        add_scaled(&mut back, &b, 1.0);
        for (x, y) in back.iter().zip(&a) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn add_scaled_matches_manual() {
        let mut a = vec![1.0, 1.0];
        add_scaled(&mut a, &[2.0, -4.0], 0.5);
        assert_eq!(a, vec![2.0, -1.0]);
    }

    #[test]
    fn centroid_of_square() {
        let rows: Vec<&[f64]> = vec![&[0.0, 0.0], &[2.0, 0.0], &[2.0, 2.0], &[0.0, 2.0]];
        assert_eq!(centroid(&rows, 2), vec![1.0, 1.0]);
    }

    #[test]
    fn centroid_empty_is_origin() {
        let rows: Vec<&[f64]> = vec![];
        assert_eq!(centroid(&rows, 3), vec![0.0, 0.0, 0.0]);
    }
}
