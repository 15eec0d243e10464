//! The NPS exclusion ledger: which references a node may not be handed,
//! and what it is handed instead. Every ban (probe threshold, security
//! filter, defense `Reject`, chaos fail-over) is filed here; every
//! replacement, lease and `Reinstate` asks here. Each rule with its source
//! (`nps`: Ng and Zhang, USENIX ATC 2004, not checked offline; `impl`: this
//! repository's reading):
//!
//! * **Replacement** (`nps`): a banned reference is replaced by a uniform
//!   draw from the layer above minus the node, its references and its
//!   ledger; an exhausted pool draws nothing and the node runs short-handed.
//! * **Rolling window** (`impl`): the ledger keeps the node's last
//!   `max(2·refs_per_node, MIN_WINDOW)` bans, oldest first, duplicates
//!   included; a permanent blacklist would be exhausted by false positives.
//! * **Leases** (`impl`): starvation relief (chaos runs only) lends the
//!   oldest entry not in the rotation back into it; it stays on the ledger
//!   and its samples are quarantined as `Provenance::Lease`. A fresh ban
//!   calls the loan in (its old entries dissolve, the ban files at the
//!   tail); the window expiring its last entry dissolves the lease.
//! * **Forgiveness** (`impl`): a defense `Reinstate` scrubs the id from
//!   every ledger and lease.
//! * **Probation** (`impl`): every `every`-th call for a node picks one entry
//!   round-robin for an evidence-only re-measure, skipping leased entries
//!   (they already feed evidence through the rotation); with all of them
//!   leased the cursor steps on and nothing is picked.
//!
//! Smoke goldens reach every branch but three (DESIGN.md has the table):
//! window expiry (smoke ledgers hold ≤ 20 distinct ids; quick reaches it),
//! expiry of a lease (only layer-1 nodes lease, with ≤ 20 distinct ids) and
//! probation with every entry leased (relief lends only up to dim + 1).

use std::collections::VecDeque;

use rand::Rng;

use crate::membership::Membership;

/// Smallest rolling ban window, for nodes with few references (`impl`).
const MIN_WINDOW: usize = 8;

/// The exclusion ledgers of every node, with the membership server that
/// draws their replacements.
#[derive(Debug, Clone)]
pub(crate) struct Exclusion {
    membership: Membership,
    window: usize,
    nodes: Vec<Ledger>,
}

/// One node's exclusion state.
#[derive(Debug, Clone, Default)]
struct Ledger {
    /// Bans, oldest first; an id may appear more than once.
    banned: VecDeque<usize>,
    /// References out on a lease: on the ledger and in the rotation.
    leased: Vec<usize>,
    /// Probation calls so far.
    clock: u64,
    /// Round-robin position over `banned`.
    cursor: usize,
}

impl Exclusion {
    /// Empty ledgers for `nodes` nodes of `refs_per_node` references each.
    pub(crate) fn new(membership: Membership, nodes: usize, refs_per_node: usize) -> Exclusion {
        Exclusion {
            membership,
            window: (2 * refs_per_node).max(MIN_WINDOW),
            nodes: vec![Ledger::default(); nodes],
        }
    }

    /// File a ban of `bad` by `node`. True when `bad` was out on a lease,
    /// which this ban calls in.
    pub(crate) fn ban(&mut self, node: usize, bad: usize) -> bool {
        let ledger = &mut self.nodes[node];
        let called_in = ledger.leased.contains(&bad);
        if called_in {
            ledger.leased.retain(|&l| l != bad);
            ledger.banned.retain(|&b| b != bad);
        }
        ledger.banned.push_back(bad);
        if ledger.banned.len() > self.window {
            let expired = ledger.banned.pop_front().expect("an overflowing window");
            if !ledger.banned.contains(&expired) {
                ledger.leased.retain(|&l| l != expired);
            }
        }
        called_in
    }

    /// Scrub `id` from every node's ledger and leases.
    pub(crate) fn forgive(&mut self, id: usize) {
        for ledger in &mut self.nodes {
            ledger.banned.retain(|&b| b != id);
            ledger.leased.retain(|&l| l != id);
        }
    }

    /// Lend `node` its oldest banned reference not in `refs`, pushing it
    /// onto `refs`. `None` when every ledger entry is already in the
    /// rotation.
    pub(crate) fn lend(&mut self, node: usize, refs: &mut Vec<usize>) -> Option<usize> {
        let ledger = &mut self.nodes[node];
        let back = ledger.banned.iter().copied().find(|b| !refs.contains(b))?;
        refs.push(back);
        ledger.leased.push(back);
        Some(back)
    }

    /// Whether `node` holds `r` on a lease.
    pub(crate) fn is_leased(&self, node: usize, r: usize) -> bool {
        self.nodes[node].leased.contains(&r)
    }

    /// Advance `node`'s probation clock; on every `every`-th call, the next
    /// ledger entry to re-measure.
    pub(crate) fn probation(&mut self, node: usize, every: u64) -> Option<usize> {
        let ledger = &mut self.nodes[node];
        ledger.clock += 1;
        if ledger.clock % every != 0 || ledger.banned.is_empty() {
            return None;
        }
        let (cursor, len) = (ledger.cursor, ledger.banned.len());
        let at = |k: usize| ledger.banned[cursor.wrapping_add(k) % len];
        let pick = (0..len).find(|&k| !ledger.leased.contains(&at(k)));
        ledger.cursor = cursor.wrapping_add(pick.map_or(1, |k| k + 1));
        pick.map(|k| ledger.banned[cursor.wrapping_add(k) % len])
    }

    /// Draw a replacement reference for `node` and push it onto `refs`.
    /// False when the pool is exhausted.
    pub(crate) fn replace(&self, node: usize, refs: &mut Vec<usize>, rng: &mut impl Rng) -> bool {
        let banned = &self.nodes[node].banned;
        let excluded = |r| refs.contains(&r) || banned.contains(&r);
        let drawn = self.membership.replacement(node, excluded, rng);
        drawn.map(|r| refs.push(r)).is_some()
    }

    /// Ids on at least one node's ledger, sorted and deduplicated.
    pub(crate) fn banned_ids(&self) -> Vec<usize> {
        let mut ids = Vec::from_iter(self.nodes.iter().flat_map(|l| &l.banned).copied());
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
impl Exclusion {
    pub(crate) fn cursor(&self, node: usize) -> usize {
        self.nodes[node].cursor
    }
}

#[cfg(test)]
mod exclusion_model {
    //! The ledger against a model of the four per-node lists it replaced.
    //!
    //! [`Model`] is the policy as it stood inside the NPS world: a `Vec` ban
    //! list per node (front-popped on expiry), a lease list, a probation
    //! clock and cursor, and the replacement pool collected from the layer
    //! directory, written straight-line. Random ban / forgive / lend /
    //! probation / replace sequences go through both side by side; every
    //! return value, every list, every cursor and every random draw must
    //! agree after every operation.

    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    use super::{Exclusion, MIN_WINDOW};
    use crate::membership::Membership;

    /// 4 landmarks, 8 layer-1 references, 8 layer-2 nodes.
    const NODES: usize = 20;
    const REFS: usize = 3;

    fn layer_of(node: usize) -> u8 {
        match node {
            0..=3 => 0,
            4..=11 => 1,
            _ => 2,
        }
    }

    fn members(layer: u8) -> Vec<usize> {
        (0..NODES).filter(|&i| layer_of(i) == layer).collect()
    }

    #[derive(Default, Clone)]
    struct Node {
        banned: Vec<usize>,
        leased: Vec<usize>,
        clock: u64,
        cursor: usize,
    }

    struct Model {
        window: usize,
        nodes: Vec<Node>,
    }

    impl Model {
        fn ban(&mut self, node: usize, bad: usize) -> bool {
            let n = &mut self.nodes[node];
            let called_in = n.leased.contains(&bad);
            if called_in {
                n.leased.retain(|&l| l != bad);
                n.banned.retain(|&b| b != bad);
            }
            n.banned.push(bad);
            if n.banned.len() > self.window {
                let expired = n.banned.remove(0);
                if !n.banned.contains(&expired) {
                    n.leased.retain(|&l| l != expired);
                }
            }
            called_in
        }

        fn forgive(&mut self, id: usize) {
            for n in &mut self.nodes {
                n.banned.retain(|&b| b != id);
                n.leased.retain(|&l| l != id);
            }
        }

        fn lend(&mut self, node: usize, refs: &mut Vec<usize>) -> Option<usize> {
            let n = &mut self.nodes[node];
            for &b in &n.banned {
                if !refs.contains(&b) {
                    refs.push(b);
                    n.leased.push(b);
                    return Some(b);
                }
            }
            None
        }

        fn probation(&mut self, node: usize, every: u64) -> Option<usize> {
            let n = &mut self.nodes[node];
            n.clock += 1;
            if n.clock % every != 0 || n.banned.is_empty() {
                return None;
            }
            let len = n.banned.len();
            for k in 0..len {
                let cand = n.banned[(n.cursor + k) % len];
                if !n.leased.contains(&cand) {
                    n.cursor += k + 1;
                    return Some(cand);
                }
            }
            n.cursor += 1;
            None
        }

        fn replace(&self, node: usize, refs: &mut Vec<usize>, rng: &mut ChaCha12Rng) -> bool {
            let layer = layer_of(node);
            if layer == 0 {
                return false;
            }
            let banned = &self.nodes[node].banned;
            let pool: Vec<usize> = members(layer - 1)
                .into_iter()
                .filter(|r| *r != node && !refs.contains(r) && !banned.contains(r))
                .collect();
            match pool.choose(rng) {
                Some(&r) => {
                    refs.push(r);
                    true
                }
                None => false,
            }
        }

        fn banned_ids(&self) -> Vec<usize> {
            let mut ids: Vec<usize> = self.nodes.iter().flat_map(|n| n.banned.clone()).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }
    }

    /// `(op, node, pick, every)`: `op` chooses the operation by weight,
    /// `node` an ordinary node, `pick` an id of the layer above it.
    type Op = (u8, usize, usize, u64);

    fn check(ops: &[Op], seed: u64) {
        let layer: Vec<u8> = (0..NODES).map(layer_of).collect();
        let membership = Membership::new(&layer, 3);
        let mut assign = ChaCha12Rng::seed_from_u64(seed);
        let refs: Vec<Vec<usize>> = (0..NODES)
            .map(|i| membership.assign_refs(i, REFS, &mut assign))
            .collect();
        let mut ex = Exclusion::new(membership, NODES, REFS);
        let mut model = Model {
            window: (2 * REFS).max(MIN_WINDOW),
            nodes: vec![Node::default(); NODES],
        };
        let (mut refs_ex, mut refs_model) = (refs.clone(), refs);
        let mut rng_ex = ChaCha12Rng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_model = rng_ex.clone();

        for (step, &(op, node, pick, every)) in ops.iter().enumerate() {
            let above = members(layer[node] - 1);
            let id = above[pick % above.len()];
            let at = format!("step {step}: op {op} node {node} id {id}");
            match op {
                // Ban, then what the world does with it: drop the reference
                // and, if it was in the rotation, draw a replacement.
                0..=7 => {
                    assert_eq!(ex.ban(node, id), model.ban(node, id), "{at}");
                    let had = refs_ex[node].len();
                    refs_ex[node].retain(|&r| r != id);
                    refs_model[node].retain(|&r| r != id);
                    if refs_ex[node].len() < had {
                        let got = ex.replace(node, &mut refs_ex[node], &mut rng_ex);
                        let want = model.replace(node, &mut refs_model[node], &mut rng_model);
                        assert_eq!(got, want, "{at}");
                    }
                }
                8 => {
                    ex.forgive(id);
                    model.forgive(id);
                }
                9..=11 => assert_eq!(
                    ex.lend(node, &mut refs_ex[node]),
                    model.lend(node, &mut refs_model[node]),
                    "{at}"
                ),
                12..=15 => assert_eq!(
                    ex.probation(node, every),
                    model.probation(node, every),
                    "{at}"
                ),
                _ => assert_eq!(
                    ex.replace(node, &mut refs_ex[node], &mut rng_ex),
                    model.replace(node, &mut refs_model[node], &mut rng_model),
                    "{at}"
                ),
            }
            assert_eq!(refs_ex, refs_model, "{at}: references");
            assert_eq!(ex.banned_ids(), model.banned_ids(), "{at}: banned ids");
            for (i, (l, m)) in ex.nodes.iter().zip(&model.nodes).enumerate() {
                assert_eq!(
                    l.banned.iter().copied().collect::<Vec<_>>(),
                    m.banned,
                    "{at}: ledger {i}"
                );
                let (mut got, mut want) = (l.leased.clone(), m.leased.clone());
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{at}: leases {i}");
                for r in 0..NODES {
                    assert_eq!(
                        ex.is_leased(i, r),
                        m.leased.contains(&r),
                        "{at}: lease {i}/{r}"
                    );
                }
                assert_eq!(
                    (l.clock, l.cursor),
                    (m.clock, m.cursor),
                    "{at}: probation {i}"
                );
            }
        }
        assert_eq!(rng_ex.next_u64(), rng_model.next_u64(), "random draws");
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // Six ordinary nodes keep the ledgers long enough to overflow the
        // window and recycle leases.
        prop::collection::vec((0u8..20, 8usize..14, 0usize..8, 1u64..4), 1..400)
    }

    proptest! {
        #[test]
        fn ledger_agrees_with_the_list_model(ops in ops(), seed in 0u64..1_000_000) {
            check(&ops, seed);
        }
    }
}
