//! The NPS membership server.
//!
//! The membership server knows which nodes live in which layer and hands
//! each joining node a random set of reference points from the layer above
//! it. When a node's security filter eliminates a reference point, the
//! server provides a random replacement the node has not banned yet.

use rand::seq::SliceRandom;
use rand::Rng;

/// Membership server state: the layer directory.
#[derive(Debug, Clone)]
pub(crate) struct Membership {
    members: Vec<Vec<usize>>,
}

impl Membership {
    /// Build from a per-node layer vector (`layer[i]` = layer of node `i`).
    pub(crate) fn new(layer: &[u8], layers: usize) -> Membership {
        Membership {
            members: crate::layers::layer_members(layer, layers),
        }
    }

    /// Assign `k` random reference points for `node` (member of `layer`),
    /// drawn from layer `layer - 1`, excluding `banned` ids.
    ///
    /// Returns fewer than `k` when the pool is small; empty for layer 0
    /// (landmarks position among themselves).
    pub(crate) fn assign_refs<R: Rng + ?Sized>(
        &self,
        node: usize,
        layer: u8,
        k: usize,
        banned: &[usize],
        rng: &mut R,
    ) -> Vec<usize> {
        if layer == 0 {
            return Vec::new();
        }
        let pool: Vec<usize> = self.members[(layer - 1) as usize]
            .iter()
            .copied()
            .filter(|&r| r != node && !banned.contains(&r))
            .collect();
        let mut pool = pool;
        pool.shuffle(rng);
        pool.truncate(k);
        pool
    }

    /// One replacement reference for `node`, excluding current refs and
    /// banned ids. `None` when the pool is exhausted — the node then keeps
    /// running with fewer references (the paper's attackers rely on
    /// exactly this kind of slack).
    pub(crate) fn replacement<R: Rng + ?Sized>(
        &self,
        node: usize,
        layer: u8,
        current: &[usize],
        banned: &[usize],
        rng: &mut R,
    ) -> Option<usize> {
        if layer == 0 {
            return None;
        }
        let pool: Vec<usize> = self.members[(layer - 1) as usize]
            .iter()
            .copied()
            .filter(|&r| r != node && !current.contains(&r) && !banned.contains(&r))
            .collect();
        pool.choose(rng).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn membership() -> Membership {
        // 4 landmarks (0-3), 4 middle (4-7), 4 top (8-11).
        let mut layer = vec![0u8; 12];
        layer[4..8].fill(1);
        layer[8..12].fill(2);
        Membership::new(&layer, 3)
    }

    #[test]
    fn directory_is_correct() {
        let m = membership();
        assert_eq!(&m.members[0][..], &[0, 1, 2, 3]);
        assert_eq!(m.members[1], &[4, 5, 6, 7]);
        assert_eq!(m.members.len(), 3);
    }

    #[test]
    fn refs_come_from_layer_above() {
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let refs = m.assign_refs(9, 2, 3, &[], &mut rng);
        assert_eq!(refs.len(), 3);
        assert!(refs.iter().all(|r| m.members[1].contains(r)));
    }

    #[test]
    fn banned_refs_are_excluded() {
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let refs = m.assign_refs(9, 2, 4, &[4, 5], &mut rng);
        assert_eq!(refs.len(), 2);
        assert!(!refs.contains(&4) && !refs.contains(&5));
    }

    #[test]
    fn replacement_avoids_current_and_banned() {
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let r = m.replacement(9, 2, &[4, 5], &[6], &mut rng);
        assert_eq!(r, Some(7));
        assert_eq!(m.replacement(9, 2, &[4, 5, 7], &[6], &mut rng), None);
    }

    #[test]
    fn landmarks_get_no_refs() {
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert!(m.assign_refs(0, 0, 5, &[], &mut rng).is_empty());
        assert_eq!(m.replacement(0, 0, &[], &[], &mut rng), None);
    }

    #[test]
    fn never_assigns_self() {
        // Node 4 is in layer 1; when (hypothetically) asking for layer-1
        // refs for a layer-2 node id equal to a pool member, self is
        // excluded.
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for _ in 0..20 {
            let refs = m.assign_refs(4, 2, 4, &[], &mut rng);
            assert!(!refs.contains(&4));
        }
    }
}
