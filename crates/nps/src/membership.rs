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
    layer: Vec<u8>,
    members: Vec<Vec<usize>>,
}

impl Membership {
    /// Build from a per-node layer vector (`layer[i]` = layer of node `i`).
    pub(crate) fn new(layer: &[u8], layers: usize) -> Membership {
        Membership {
            layer: layer.to_vec(),
            members: crate::layers::layer_members(layer, layers),
        }
    }

    /// The layer above `node`'s, which its references come from; `None`
    /// for a landmark (landmarks position among themselves).
    fn above(&self, node: usize) -> Option<&[usize]> {
        let layer = self.layer[node].checked_sub(1)?;
        Some(&self.members[layer as usize])
    }

    /// Assign `k` random reference points for `node`; fewer when the pool
    /// is small, none for a landmark. The whole layer above is shuffled
    /// (the draws do not depend on `k`), and the list keeps no more slots
    /// than references.
    pub(crate) fn assign_refs(&self, node: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut pool = self.above(node).unwrap_or_default().to_vec();
        pool.shuffle(rng);
        pool.truncate(k);
        pool.shrink_to_fit();
        pool
    }

    /// One replacement reference for `node`, drawn uniformly from the
    /// layer above minus `excluded` ids. `None` when the pool is exhausted.
    pub(crate) fn replacement(
        &self,
        node: usize,
        excluded: impl Fn(usize) -> bool,
        rng: &mut impl Rng,
    ) -> Option<usize> {
        let pool: Vec<usize> = self
            .above(node)?
            .iter()
            .copied()
            .filter(|&r| !excluded(r))
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
        let refs = m.assign_refs(9, 3, &mut rng);
        assert_eq!(refs.len(), 3);
        assert!(refs.iter().all(|r| m.members[1].contains(r)));
    }

    #[test]
    fn assigned_refs_keep_no_spare_capacity() {
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for k in 1..=4 {
            let refs = m.assign_refs(9, k, &mut rng);
            assert_eq!(refs.capacity(), refs.len(), "k={k}");
        }
    }

    #[test]
    fn replacement_avoids_current_and_banned() {
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let r = m.replacement(9, |r| [4, 5, 6].contains(&r), &mut rng);
        assert_eq!(r, Some(7));
        assert_eq!(
            m.replacement(9, |r| [4, 5, 6, 7].contains(&r), &mut rng),
            None
        );
    }

    #[test]
    fn landmarks_get_no_refs() {
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert!(m.assign_refs(0, 5, &mut rng).is_empty());
        assert_eq!(m.replacement(0, |_| false, &mut rng), None);
    }

    #[test]
    fn never_assigns_self() {
        // A node's references come from the layer above its own, so no
        // assignment or replacement can hand a node itself.
        let m = membership();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for node in 0..12 {
            assert!(!m.assign_refs(node, 4, &mut rng).contains(&node));
            assert_ne!(m.replacement(node, |_| false, &mut rng), Some(node));
        }
    }
}
