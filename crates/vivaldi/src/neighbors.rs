//! Neighbour (spring) selection.
//!
//! The paper attaches each node to 64 springs, 32 of which go to nodes
//! closer than 50 ms (§5.2). When fewer than 32 such nodes exist the
//! shortfall is filled with random far nodes; small systems simply use
//! everyone.

use rand::seq::SliceRandom;
use rand::Rng;
use vcoord_topo::RttMatrix;

/// Choose the spring set for node `i`.
///
/// Picks up to `near_target` random nodes with `rtt < near_cutoff_ms`, then
/// fills up to `total` with random remaining nodes. Returns fewer than
/// `total` only when the system itself is smaller.
pub fn select_neighbors<R: Rng + ?Sized>(
    matrix: &RttMatrix,
    i: usize,
    total: usize,
    near_target: usize,
    near_cutoff_ms: f64,
    rng: &mut R,
) -> Vec<usize> {
    let n = matrix.len();
    let mut near: Vec<usize> = Vec::new();
    let mut far: Vec<usize> = Vec::new();
    for j in 0..n {
        if j == i {
            continue;
        }
        if matrix.rtt(i, j) < near_cutoff_ms {
            near.push(j);
        } else {
            far.push(j);
        }
    }
    near.shuffle(rng);
    far.shuffle(rng);

    let mut picked: Vec<usize> = near.iter().copied().take(near_target).collect();
    // Fill with far nodes first, then spill into unused near nodes. Near and
    // far partition the other nodes, so no node is picked twice.
    let fill = total.saturating_sub(picked.len());
    picked.extend(far.iter().chain(&near[picked.len()..]).take(fill));
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn matrix_with_near(n: usize, near_count: usize) -> RttMatrix {
        // Node 0 is within 10ms of `near_count` nodes, 200ms of the rest.
        let mut m = RttMatrix::zeros(n);
        for j in 1..n {
            let v = if j <= near_count { 10.0 } else { 200.0 };
            m.set(0, j, v);
        }
        for i in 1..n {
            for j in (i + 1)..n {
                m.set(i, j, 150.0);
            }
        }
        m
    }

    #[test]
    fn respects_near_quota() {
        let m = matrix_with_near(200, 80);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let picked = select_neighbors(&m, 0, 64, 32, 50.0, &mut rng);
        assert_eq!(picked.len(), 64);
        let near = picked.iter().filter(|&&j| m.rtt(0, j) < 50.0).count();
        assert_eq!(
            near, 32,
            "exactly the near quota when enough near nodes exist"
        );
    }

    #[test]
    fn fills_with_far_when_near_scarce() {
        let m = matrix_with_near(200, 5);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let picked = select_neighbors(&m, 0, 64, 32, 50.0, &mut rng);
        assert_eq!(picked.len(), 64);
        let near = picked.iter().filter(|&&j| m.rtt(0, j) < 50.0).count();
        assert_eq!(near, 5);
    }

    #[test]
    fn small_system_uses_everyone() {
        let m = matrix_with_near(10, 4);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let picked = select_neighbors(&m, 0, 64, 32, 50.0, &mut rng);
        assert_eq!(picked.len(), 9);
        assert!(!picked.contains(&0), "never a self-spring");
    }

    #[test]
    fn no_duplicates() {
        let m = matrix_with_near(100, 40);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let picked = select_neighbors(&m, 0, 64, 32, 50.0, &mut rng);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), picked.len());
    }
}
