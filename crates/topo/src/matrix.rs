//! Dense symmetric RTT matrices, each pair stored once.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`RttMatrix::version`] values; starts at 1 because 0 means
/// "not asked since the last `&mut` call".
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Where pair `(i, j)`, `i < j < n`, sits in a packed upper triangle: row
/// `i` starts after the `i(2n − i − 1)/2` cells of the rows above it.
#[inline]
pub(crate) fn upper_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

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
/// The diagonal is always zero and `(i, j)` is `(j, i)`, so storage is the
/// `n(n − 1)/2` cells with `i < j`, row-major in one buffer (1740 nodes ⇒
/// ~12 MB): a full delay matrix is what the figures measure the coordinates
/// against. It is too large to be a cache-friendly read, though — one
/// random cell is one cache and TLB miss — so code that keeps returning to
/// the same few cells (a Vivaldi node's springs, an evaluation plan's
/// pairs) copies them out once instead of calling [`rtt`](RttMatrix::rtt)
/// per use, and keys the copy on [`version`](RttMatrix::version) to know
/// when it went stale.
#[derive(Debug, Serialize, Deserialize)]
pub struct RttMatrix {
    n: usize,
    /// Pair `(i, j)`, `i < j`, at `upper_index(n, i, j)`.
    data: Vec<f64>,
    /// Content version, 0 until [`version`](RttMatrix::version) is asked;
    /// every `&mut` method resets it to 0.
    #[serde(skip)]
    version: AtomicU64,
}

impl Clone for RttMatrix {
    /// The clone has the same content, so it keeps the same version.
    fn clone(&self) -> Self {
        RttMatrix {
            n: self.n,
            data: self.data.clone(),
            version: AtomicU64::new(self.version.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for RttMatrix {
    /// Equality is content only: two matrices built separately hold
    /// different versions and still compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.data == other.data
    }
}

impl RttMatrix {
    /// An `n × n` matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        RttMatrix {
            n,
            data: vec![0.0; n * n.saturating_sub(1) / 2],
            version: AtomicU64::new(0),
        }
    }

    /// A non-zero token naming this matrix's current content.
    ///
    /// Two calls return the same value exactly when no `&mut` method ran
    /// between them; a clone shares its source's value until either side is
    /// written. No two matrices built separately in one process share a
    /// value, whatever their content or address, so cells copied out under
    /// one value are current for as long as the matrix still reports it.
    /// The value is assigned on first request from a process-wide counter
    /// and is not part of the matrix's content: it is neither compared nor
    /// serialized.
    pub fn version(&self) -> u64 {
        // Relaxed: the value is an identity token and publishes no data —
        // whoever shares `&self` across threads has already ordered the
        // cells it reads.
        let seen = self.version.load(Ordering::Relaxed);
        if seen != 0 {
            return seen;
        }
        let fresh = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        match self
            .version
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(raced) => raced,
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
        match self.cell(i, j) {
            Some(k) => self.data[k],
            None => 0.0,
        }
    }

    /// Set the RTT between `i` and `j` (and so between `j` and `i`).
    ///
    /// Setting a diagonal entry is a no-op (the diagonal stays zero).
    ///
    /// # Panics
    /// Panics if either index is out of range, before anything is written.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        if let Some(k) = self.cell(i, j) {
            *self.version.get_mut() = 0;
            self.data[k] = v;
        }
    }

    /// The storage slot of pair `(i, j)` in either order, `None` on the
    /// diagonal. Both ids are checked first: an id past `n` would otherwise
    /// land on some other pair's slot.
    #[inline]
    fn cell(&self, i: usize, j: usize) -> Option<usize> {
        let n = self.n;
        assert!(
            i < n && j < n,
            "node pair ({i}, {j}) out of range for a {n}-node matrix"
        );
        (i != j).then(|| upper_index(n, i.min(j), i.max(j)))
    }

    /// Iterate over the upper triangle as `(i, j, rtt)` with `i < j`, in
    /// row-major order — the order the cells are stored in.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
            .zip(&self.data)
            .map(|((i, j), &v)| (i, j, v))
    }

    /// Apply `f` to every off-diagonal entry.
    ///
    /// `f` is called once per unordered pair, as `f(i, j, rtt)` with `i < j`
    /// in row-major order, so a closure that draws from an RNG draws in that
    /// order. The cells are stored in that order too, so a pass streams
    /// through memory front to back.
    pub fn map_in_place<F: FnMut(usize, usize, f64) -> f64>(&mut self, mut f: F) {
        *self.version.get_mut() = 0;
        let mut cells = self.data.iter_mut();
        for i in 0..self.n {
            for (j, cell) in ((i + 1)..self.n).zip(cells.by_ref()) {
                *cell = f(i, j, *cell);
            }
        }
    }

    /// The `k`-th smallest upper-triangle cell (0-based), by a radix select
    /// over the cells' bit patterns: four counting passes, no copy of the
    /// triangle. Cells are ranked in IEEE total order, which for the
    /// non-negative finite RTTs a matrix holds is numeric order.
    ///
    /// # Panics
    /// Panics if `k` is not below the number of pairs.
    pub(crate) fn upper_nth(&self, k: usize) -> f64 {
        assert!(k < self.data.len(), "rank {k} out of range");
        // Monotone map from total order to unsigned order, and back.
        let key = |v: f64| {
            let b = v.to_bits();
            b ^ ((((b as i64) >> 63) as u64) | (1 << 63))
        };
        let unkey = |x: u64| f64::from_bits(x ^ (((!x as i64) >> 63) as u64 | (1 << 63)));
        let mut counts = vec![0u32; 1 << 16];
        let (mut prefix, mut rank) = (0u64, k);
        for shift in [48u32, 32, 16, 0] {
            // Cells still in play agree with `prefix` above this digit.
            let above = (!0u64).checked_shl(shift + 16).unwrap_or(0);
            counts.fill(0);
            for &v in &self.data {
                let x = key(v);
                if x & above == prefix {
                    counts[(x >> shift) as usize & 0xFFFF] += 1;
                }
            }
            let mut digit = 0;
            while rank >= counts[digit] as usize {
                rank -= counts[digit] as usize;
                digit += 1;
            }
            prefix |= (digit as u64) << shift;
        }
        unkey(prefix)
    }

    /// Restrict the matrix to the given node ids, in the given order.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn subset(&self, ids: &[usize]) -> RttMatrix {
        let mut m = RttMatrix::zeros(ids.len());
        m.map_in_place(|a, b, _| self.rtt(ids[a], ids[b]));
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

    /// Check that every entry is finite and non-negative (symmetry and the
    /// zero diagonal hold by construction). Returns a human-readable
    /// violation if any.
    pub fn validate(&self) -> Result<(), String> {
        match self.pairs().find(|&(_, _, v)| !v.is_finite() || v < 0.0) {
            Some((i, j, v)) => Err(format!("invalid RTT at ({i},{j}): {v}")),
            None => Ok(()),
        }
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
    fn version_is_stable_across_shared_calls_and_clone() {
        let m = sample();
        let v = m.version();
        assert_ne!(v, 0);
        assert_eq!(m.version(), v);
        let _ = (
            m.rtt(0, 1),
            m.pairs().count(),
            m.min_rtt(),
            m.subset(&[0, 1]),
        );
        assert_eq!(m.version(), v);
        assert_eq!(m.clone().version(), v);
        // A clone taken before anyone asked is a separate matrix from then on.
        let fresh = sample();
        let copy = fresh.clone();
        assert_ne!(fresh.version(), copy.version());
    }

    #[test]
    fn version_changes_after_every_mut_method() {
        let mut m = sample();
        let v0 = m.version();
        m.set(0, 1, 11.0);
        let v1 = m.version();
        m.map_in_place(|_, _, v| v * 2.0);
        let v2 = m.version();
        // Writing back the value a cell already holds still counts.
        m.set(0, 1, m.rtt(0, 1));
        let v3 = m.version();
        let all = [v0, v1, v2, v3];
        for (a, va) in all.iter().enumerate() {
            for vb in &all[a + 1..] {
                assert_ne!(va, vb, "{all:?}");
            }
        }
        // A written clone moves on; its source does not.
        let mut copy = m.clone();
        copy.set(2, 3, 1.0);
        assert_ne!(copy.version(), v3);
        assert_eq!(m.version(), v3);
        // The diagonal no-op writes nothing and keeps the version.
        m.set(1, 1, 5.0);
        assert_eq!(m.version(), v3);
    }

    #[test]
    fn versions_are_distinct_across_matrices_and_ignored_by_eq() {
        let (a, b) = (RttMatrix::zeros(3), RttMatrix::zeros(3));
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b);
        let (x, y) = (sample(), sample());
        assert_ne!(x.version(), y.version());
        assert_eq!(x, y);
        // Dropping a matrix does not free its version for the next one
        // allocated where it stood.
        let old = x.version();
        drop(x);
        assert_ne!(sample().version(), old);
    }

    #[test]
    fn map_in_place_calls_row_major_and_stays_symmetric() {
        // 70 nodes: rows of every length from 69 cells down to none.
        let n = 70;
        let mut m = RttMatrix::zeros(n);
        let mut calls = Vec::new();
        // `f` depends on the order of its arguments; only `i < j` is asked.
        m.map_in_place(|i, j, v| {
            calls.push((i, j));
            v + (i * 1000 + j) as f64
        });
        let want: Vec<_> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        assert_eq!(calls, want);
        assert!(m.validate().is_ok());
        for (i, j) in want {
            assert_eq!(m.rtt(i, j), (i * 1000 + j) as f64);
            assert_eq!(m.rtt(j, i), (i * 1000 + j) as f64);
        }
        // A second pass sees the first one's values.
        m.map_in_place(|_, _, v| v * 0.5);
        assert_eq!(m.rtt(69, 3), 1534.5);
        RttMatrix::zeros(0).map_in_place(|_, _, _| unreachable!());
        RttMatrix::zeros(1).map_in_place(|_, _, _| unreachable!());
    }

    #[test]
    fn upper_nth_is_the_sorted_order_statistic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for n in [2usize, 3, 9, 40] {
            let mut m = RttMatrix::zeros(n);
            // Ties, a wide exponent range, both zeros and a negative value.
            let pool = [
                0.0,
                -0.0,
                1.0,
                1.0,
                98.0,
                1e-300,
                3.5e7,
                -2.0,
                f64::INFINITY,
            ];
            m.map_in_place(|_, _, _| {
                if rng.gen_bool(0.5) {
                    pool[rng.gen_range(0..pool.len())]
                } else {
                    rng.gen_range(0.5..900.0)
                }
            });
            let mut sorted: Vec<f64> = m.pairs().map(|(_, _, v)| v).collect();
            sorted.sort_by(f64::total_cmp);
            for (k, want) in sorted.iter().enumerate() {
                assert_eq!(m.upper_nth(k).to_bits(), want.to_bits(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn version_changes_after_every_whole_matrix_write() {
        let mut m = sample();
        let mut seen = vec![m.version()];
        // Rewriting every cell with the value it holds still counts.
        m.map_in_place(|_, _, v| v);
        seen.push(m.version());
        m.map_in_place(|_, _, v| v + 1.0);
        seen.push(m.version());
        let s = m.subset(&[0, 1, 2]);
        seen.push(s.version());
        seen.push(m.version()); // reading a subset writes nothing…
        assert_eq!(seen.pop(), seen.get(2).copied()); // …so this one repeats
        for (a, va) in seen.iter().enumerate() {
            assert_ne!(*va, 0);
            for vb in &seen[a + 1..] {
                assert_ne!(va, vb, "{seen:?}");
            }
        }
    }

    #[test]
    fn validate_catches_nan() {
        let mut m = sample();
        m.set(0, 1, f64::NAN);
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rtt_panics_on_an_id_past_the_last_node() {
        // Unchecked index arithmetic would read some other pair's cell.
        sample().rtt(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_panics_on_an_id_past_the_last_node_before_writing() {
        let mut m = sample();
        let write = std::panic::AssertUnwindSafe(|| m.set(0, 5, 3.0));
        assert!(std::panic::catch_unwind(write).is_err());
        // The panic came before any cell was written.
        assert_eq!(m, sample());
        assert!(m.validate().is_ok());
        m.set(5, 0, 3.0);
    }

    #[test]
    fn a_paper_scale_matrix_holds_each_pair_once() {
        // 1740 · 1739 / 2 cells, the pairs with i < j; a full n × n buffer
        // held 3 027 600.
        const PAIRS: usize = 1_512_930;
        let zeros = RttMatrix::zeros(1740);
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        let generated = crate::KingLike::default().generate(&mut rng);
        for m in [&zeros, &generated] {
            assert_eq!(m.len(), 1740);
            assert_eq!((m.data.len(), m.data.capacity()), (PAIRS, PAIRS));
        }
    }

    /// Both triangles and the diagonal of an `n × n` matrix written out in
    /// full, row-major: the layout the packed storage replaced.
    #[derive(Clone)]
    struct Dense {
        n: usize,
        cells: Vec<f64>,
    }

    impl Dense {
        fn zeros(n: usize) -> Self {
            Dense {
                n,
                cells: vec![0.0; n * n],
            }
        }

        fn get(&self, i: usize, j: usize) -> f64 {
            self.cells[i * self.n + j]
        }

        fn set(&mut self, i: usize, j: usize, v: f64) {
            if i != j {
                self.cells[i * self.n + j] = v;
                self.cells[j * self.n + i] = v;
            }
        }

        fn upper(&self) -> Vec<(usize, usize, f64)> {
            let n = self.n;
            (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j, self.get(i, j))))
                .collect()
        }

        fn subset(&self, ids: &[usize]) -> Dense {
            let mut d = Dense::zeros(ids.len());
            for (a, &i) in ids.iter().enumerate() {
                for (b, &j) in ids.iter().enumerate() {
                    d.set(a, b, self.get(i, j));
                }
            }
            d
        }

        /// The full-buffer check: zero diagonal, symmetric, every entry
        /// finite and non-negative.
        fn valid(&self) -> bool {
            let n = self.n;
            (0..n).all(|i| self.get(i, i) == 0.0)
                && (0..n).all(|i| (0..n).all(|j| self.get(i, j) == self.get(j, i)))
                && self.cells.iter().all(|v| v.is_finite() && *v >= 0.0)
        }
    }

    fn assert_agrees(m: &RttMatrix, d: &Dense, rng: &mut impl Rng, step: &str) {
        let n = d.n;
        assert_eq!(m.len(), n, "{step}");
        for i in 0..n {
            for j in 0..n {
                let (got, want) = (m.rtt(i, j).to_bits(), d.get(i, j).to_bits());
                assert_eq!(got, want, "{step}: rtt({i}, {j})");
            }
        }
        let bits = |p: &[(usize, usize, f64)]| -> Vec<_> {
            p.iter().map(|&(i, j, v)| (i, j, v.to_bits())).collect()
        };
        let upper = d.upper();
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(bits(&pairs), bits(&upper), "{step}: pairs()");
        let mut sorted: Vec<f64> = upper.iter().map(|p| p.2).collect();
        sorted.sort_by(f64::total_cmp);
        if let Some(last) = sorted.len().checked_sub(1) {
            for k in [0, last / 2, last, rng.gen_range(0..=last)] {
                let (got, want) = (m.upper_nth(k).to_bits(), sorted[k].to_bits());
                assert_eq!(got, want, "{step}: upper_nth({k})");
            }
        }
        assert_eq!(m.validate().is_ok(), d.valid(), "{step}: validate()");
    }

    #[test]
    fn packed_cells_agree_with_a_dense_oracle() {
        // Values a cell may take: mostly RTTs, sometimes a tie, a signed
        // zero or one that `validate` rejects.
        let pool = [0.0, -0.0, 1.0, 98.0, -2.0, f64::NAN, f64::INFINITY];
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(26);
        for n0 in [0usize, 1, 2, 3, 31, 32, 33, 70] {
            let (mut m, mut d) = (RttMatrix::zeros(n0), Dense::zeros(n0));
            assert_agrees(&m, &d, &mut rng, &format!("n={n0} zeros"));
            for step in 0..40 {
                let n = d.n;
                let op = rng.gen_range(0..8);
                let what = match op {
                    0..=4 if n > 0 => {
                        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        let v = if rng.gen_bool(0.1) {
                            pool[rng.gen_range(0..pool.len())]
                        } else {
                            rng.gen_range(0.5..900.0)
                        };
                        m.set(i, j, v);
                        d.set(i, j, v);
                        format!("set({i}, {j}, {v})")
                    }
                    5 => {
                        let salt: f64 = rng.gen_range(0.0..4.0);
                        let f = |i: usize, j: usize, v: f64| v * 0.5 + (i * 31 + j) as f64 * salt;
                        let mut calls = Vec::new();
                        m.map_in_place(|i, j, v| {
                            calls.push((i, j));
                            f(i, j, v)
                        });
                        let want: Vec<_> = d.upper().iter().map(|&(i, j, _)| (i, j)).collect();
                        assert_eq!(calls, want, "n={n0} step {step}: map_in_place order");
                        for (i, j, v) in d.upper() {
                            d.set(i, j, f(i, j, v));
                        }
                        format!("map_in_place(salt {salt})")
                    }
                    6 => {
                        // Repeats allowed, and up to two more ids than nodes.
                        let k = if n == 0 { 0 } else { rng.gen_range(0..=n + 2) };
                        let ids: Vec<usize> = (0..k).map(|_| rng.gen_range(0..n)).collect();
                        m = m.subset(&ids);
                        d = d.subset(&ids);
                        format!("subset({ids:?})")
                    }
                    _ => {
                        let k = rng.gen_range(0..=n + 1);
                        let mut twin = rng.clone();
                        m = m.random_subset(k, &mut rng);
                        if k < n {
                            let mut ids: Vec<usize> = (0..n).collect();
                            ids.shuffle(&mut twin);
                            ids.truncate(k);
                            d = d.subset(&ids);
                        }
                        format!("random_subset({k})")
                    }
                };
                assert_agrees(&m, &d, &mut rng, &format!("n={n0} step {step}: {what}"));
            }
        }
    }
}
