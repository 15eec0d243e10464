//! The [`Collusion`] coordinator: shared state for groups of malicious
//! nodes acting in concert.
//!
//! Drift-group attacks need agreement — a common axis, a shared
//! accumulated offset, an anchor point. The scenario engine owns one
//! [`Collusion`] and passes it to every strategy hook; partition attacks
//! are the canonical client: two groups of colluders drift in *opposite*
//! directions, which only works if each group shares one axis and one
//! offset. Its state is also observable from outside the strategy
//! (`Scenario::collusion`), which the partition property tests rely on.
//!
//! Scope note: this models *group-drift* agreement specifically.
//! Strategies whose agreed state has a different shape (per-victim
//! designated coordinates in the paper's colluding-isolation attacks,
//! per-attacker cluster scatter) keep that state privately and simply
//! ignore the coordinator.

use crate::strategy::CoordView;
use rand::seq::SliceRandom;
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;
use vcoord_space::{Coord, Displacement};

/// One colluding group: its members and the state they agreed on.
#[derive(Debug, Clone)]
pub struct Group {
    /// Member node ids, in formation order.
    pub members: Vec<usize>,
    /// The agreed unit drift axis.
    pub axis: Displacement,
    /// Accumulated drift magnitude along `axis` (per-round mutable state).
    pub offset: f64,
    /// The agreed anchor: centroid of the members' true coordinates at
    /// formation time.
    pub anchor: Coord,
}

/// Shared state for colluding malicious nodes, owned by the scenario
/// engine and handed to every [`crate::AttackStrategy`] hook.
#[derive(Debug, Clone, Default)]
pub struct Collusion {
    groups: Vec<Group>,
    group_of: HashMap<usize, usize>,
}

impl Collusion {
    /// No groups formed yet.
    pub fn new() -> Collusion {
        Collusion::default()
    }

    /// Split `members` into `n_groups` near-equal groups (shuffled, so the
    /// split is unbiased) and agree on per-group axes and anchors.
    ///
    /// With `n_groups == 2` the two axes are exactly antiparallel — the
    /// partition-attack geometry. With any other count each group draws an
    /// independent random unit axis. Re-forming replaces existing groups.
    pub(crate) fn form_groups(
        &mut self,
        members: &[usize],
        n_groups: usize,
        view: &CoordView<'_>,
        rng: &mut ChaCha12Rng,
    ) {
        self.groups.clear();
        self.group_of.clear();
        let n_groups = n_groups.max(1);
        let mut pool = members.to_vec();
        pool.shuffle(rng);

        let base_axis = view.space.random_unit(rng);
        for g in 0..n_groups {
            let axis = if n_groups == 2 && g == 1 {
                // Partition geometry: the second group drifts exactly
                // opposite to the first.
                let mut a = base_axis.clone();
                a.scale(-1.0);
                a
            } else if g == 0 {
                base_axis.clone()
            } else {
                view.space.random_unit(rng)
            };
            self.groups.push(Group {
                members: Vec::new(),
                axis,
                offset: 0.0,
                anchor: view.space.origin(),
            });
        }

        for (k, &m) in pool.iter().enumerate() {
            let g = k % n_groups;
            self.groups[g].members.push(m);
            self.group_of.insert(m, g);
        }

        // Anchors: centroid of each group's true coordinates at formation.
        for group in &mut self.groups {
            if group.members.is_empty() {
                continue;
            }
            let dim = view.space.dim();
            let mut centroid = Coord::origin(dim);
            for &m in &group.members {
                for (c, x) in centroid.vec.iter_mut().zip(&view.coords[m].vec) {
                    *c += x;
                }
                centroid.height += view.coords[m].height;
            }
            let n = group.members.len() as f64;
            for c in centroid.vec.iter_mut() {
                *c /= n;
            }
            centroid.height /= n;
            group.anchor = centroid;
        }
    }

    /// Advance every group's accumulated offset by `step` — the shared
    /// per-round drift update.
    pub(crate) fn advance_all(&mut self, step: f64) {
        for g in &mut self.groups {
            g.offset += step;
        }
    }

    /// All formed groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Mutable access to the formed groups.
    pub(crate) fn groups_mut(&mut self) -> &mut [Group] {
        &mut self.groups
    }

    /// The group index `node` belongs to, if any.
    pub fn group_of(&self, node: usize) -> Option<usize> {
        self.group_of.get(&node).copied()
    }

    /// The group `node` belongs to, if any.
    pub(crate) fn group_for(&self, node: usize) -> Option<&Group> {
        self.group_of(node).map(|g| &self.groups[g])
    }

    /// Number of formed groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when no groups have been formed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Protocol;
    use rand::SeedableRng;
    use vcoord_space::Space;

    fn view_fixture<'a>(
        space: &'a Space,
        coords: &'a [Coord],
        malicious: &'a [bool],
    ) -> CoordView<'a> {
        CoordView {
            space,
            coords,
            errors: &[],
            layer: &[],
            malicious,
            is_ref: &[],
            round: 0,
            now_ms: 0,
            params: Protocol::default(),
        }
    }

    #[test]
    fn two_groups_are_antiparallel_and_cover_members() {
        let space = Space::Euclidean(3);
        let coords: Vec<Coord> = (0..10)
            .map(|i| Coord::from_vec(vec![i as f64, 0.0, 0.0]))
            .collect();
        let malicious = vec![true; 10];
        let view = view_fixture(&space, &coords, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let members: Vec<usize> = (0..10).collect();
        let mut coll = Collusion::new();
        coll.form_groups(&members, 2, &view, &mut rng);

        assert_eq!(coll.len(), 2);
        let sizes: Vec<usize> = coll.groups().iter().map(|g| g.members.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 5), "near-equal split: {sizes:?}");
        for &m in &members {
            assert!(coll.group_of(m).is_some());
        }
        let a = &coll.groups()[0].axis;
        let b = &coll.groups()[1].axis;
        let dot: f64 = a.vec.iter().zip(&b.vec).map(|(x, y)| x * y).sum();
        assert!(
            (dot + 1.0).abs() < 1e-12,
            "axes must be antiparallel: {dot}"
        );
    }

    #[test]
    fn advance_all_accumulates_offsets() {
        let space = Space::Euclidean(2);
        let coords = vec![Coord::origin(2); 4];
        let malicious = vec![true; 4];
        let view = view_fixture(&space, &coords, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut coll = Collusion::new();
        coll.form_groups(&[0, 1, 2, 3], 1, &view, &mut rng);
        for _ in 0..10 {
            coll.advance_all(3.0);
        }
        assert_eq!(coll.groups()[0].offset, 30.0);
    }

    #[test]
    fn anchors_are_group_centroids() {
        let space = Space::Euclidean(2);
        let coords = vec![
            Coord::from_vec(vec![2.0, 0.0]),
            Coord::from_vec(vec![4.0, 2.0]),
        ];
        let malicious = vec![true; 2];
        let view = view_fixture(&space, &coords, &malicious);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut coll = Collusion::new();
        coll.form_groups(&[0, 1], 1, &view, &mut rng);
        assert_eq!(coll.groups()[0].anchor.vec, vec![3.0, 1.0]);
    }
}
