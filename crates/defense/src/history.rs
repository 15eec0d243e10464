//! The neighbor-history store the defense engine maintains on behalf of
//! every strategy.
//!
//! Two indexes over the same sample stream:
//!
//! * [`RemoteHistory`] — per *reported-on* node, aggregated across all
//!   observers. Malicious nodes are probed by many victims every round, so
//!   this series fills fast even when any single observer samples a given
//!   neighbor rarely (Vivaldi probes one random spring-set member per
//!   tick). Aggregating verdict evidence across observers models the
//!   cooperative-detection deployments the paper's "verified set"
//!   discussion points at; a strictly node-local detector is the
//!   `observer`-ring view below.
//! * [`Recent`] rings — per observer, its most recent samples across *all*
//!   neighbors: the local residual population (for outlier thresholds) and
//!   the recent coordinate/RTT pairs (for triangle checks).
//!
//! Both indexes are tables indexed by node id — the simulators' node
//! indices, dense from zero, so a lookup is a bounds check and not a hash —
//! and every ring is a fixed-size buffer written in place: scalar rings are arrays
//! inside the table entry, vector payloads (pulls, coordinates) sit in one
//! flat buffer per ring, `dim + 1` components per slot, allocated whole at
//! the ring's first sample. After a node's first sample the store records
//! without heap allocation.

use vcoord_space::{Coord, Space};

/// Residual-window length of [`RemoteHistory`].
pub const RESIDUAL_WINDOW: usize = 16;
/// Reported-coordinate trail length of [`RemoteHistory`].
pub const REPORTED_WINDOW: usize = 8;
/// Per-observer recent-sample ring length.
pub const OBSERVER_WINDOW: usize = 24;

/// The entry of `id` in a table indexed by node id, grown on demand.
///
/// Node ids are the simulators' node indices — dense, starting at zero — so
/// every per-node store in this crate is a `Vec` indexed by id, not a hash
/// map: one bounds check instead of one SipHash per lookup, and neighbours
/// in id are neighbours in memory. A table is as long as the largest id it
/// has seen.
pub(crate) fn slot<T: Default>(table: &mut Vec<T>, id: usize) -> &mut T {
    if id >= table.len() {
        table.resize_with(id + 1, T::default);
    }
    &mut table[id]
}

/// A ring of `dim + 1`-component vectors (Euclidean part, then height) in
/// one flat buffer, slot after slot. The buffer is allocated whole by the
/// first write, which also fixes the width: one `Defense` serves one space.
#[derive(Debug, Clone, Default)]
struct VecRing {
    width: usize,
    data: Vec<f64>,
}

impl VecRing {
    /// Slot `k` of a ring of `slots` vectors as wide as `like` plus its
    /// height.
    fn slot_mut(&mut self, slots: usize, k: usize, like: &Coord) -> &mut [f64] {
        if self.data.is_empty() {
            self.width = like.dim() + 1;
            self.data = vec![0.0; slots * self.width];
        }
        assert_eq!(like.dim() + 1, self.width, "one defense, one space");
        &mut self.data[k * self.width..(k + 1) * self.width]
    }

    /// Store `coord` in slot `k`.
    fn put(&mut self, slots: usize, k: usize, coord: &Coord) {
        let (height, vec) = self
            .slot_mut(slots, k, coord)
            .split_last_mut()
            .expect("width is at least one");
        vec.copy_from_slice(&coord.vec);
        *height = coord.height;
    }

    /// Slot `k` as `(Euclidean part, height)`.
    fn get(&self, k: usize) -> (&[f64], f64) {
        let (height, vec) = self.data[k * self.width..(k + 1) * self.width]
            .split_last()
            .expect("width is at least one");
        (vec, *height)
    }
}

/// Accumulated history of one node's reports, across all observers.
#[derive(Debug, Clone, Default)]
pub struct RemoteHistory {
    /// Ring of signed residuals `rtt − predicted` (ms), unordered; the
    /// first `len` slots are live.
    residuals: [f64; RESIDUAL_WINDOW],
    /// Ring of relative residuals `|predicted − rtt| / rtt`, parallel to
    /// `residuals`.
    rel_residuals: [f64; RESIDUAL_WINDOW],
    /// Ring of *pull vectors*, parallel to `residuals`: the per-sample
    /// displacement this node's report exerts on its observer,
    /// `(rtt − predicted) · u(observer − reported)`, stored as Euclidean
    /// components plus a trailing height component. See
    /// [`RemoteHistory::mean_pull_norm`].
    pulls: VecRing,
    len: usize,
    /// The report trail: rounds here, the coordinates reported in them
    /// beside; the first `rep_len` slots are live.
    reported_rounds: [u64; REPORTED_WINDOW],
    reported: VecRing,
    rep_len: usize,
    /// Samples ever recorded; slot `samples % window` of each ring is the
    /// next one written, which once the ring is full is its oldest.
    samples: u64,
    last_round: u64,
    /// Whether the engine ever inspected a report of this node: a table
    /// entry below the largest id seen exists whether or not it did.
    inspected: bool,
}

impl RemoteHistory {
    /// An empty history.
    pub fn new() -> RemoteHistory {
        RemoteHistory::default()
    }

    /// Total samples ever recorded for this node.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Round of the most recent sample.
    pub fn last_round(&self) -> u64 {
        self.last_round
    }

    /// The retained window of signed residuals (ms), unordered.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals[..self.len]
    }

    /// The retained window of relative residuals, unordered.
    pub fn rel_residuals(&self) -> &[f64] {
        &self.rel_residuals[..self.len]
    }

    /// Mean *signed* residual over the window (`None` when empty). Note
    /// the caveat that motivates [`RemoteHistory::mean_pull_norm`]: an
    /// honest node whose topology cannot be embedded (the classic
    /// access-link/height effect) holds a *scalar* residual bias to every
    /// neighbor, so this mean alone misfires on real topologies.
    pub fn mean_residual(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        Some(self.residuals().iter().sum::<f64>() / self.len as f64)
    }

    /// Norm of the **vector** mean pull this node's reports exert on their
    /// observers, ms per sample (`None` when the window is empty), in any
    /// number of dimensions.
    ///
    /// This is the quantity that separates a colluder from an
    /// unembeddable-but-honest node: the hub node with `rtt > predicted`
    /// to *everyone* pulls its observers radially outward — directions
    /// cancel and the vector mean vanishes (that cancellation is exactly
    /// why it sits at spring equilibrium) — while a frog-boiling colluder
    /// pulls every observer along the shared collusion axis, so the
    /// vector mean keeps the full gap magnitude.
    pub fn mean_pull_norm(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let width = self.pulls.width;
        let live = &self.pulls.data[..self.len * width];
        let n = self.len as f64;
        // One component at a time, summed over the slots in slot order.
        let sq: f64 = (0..width)
            .map(|d| {
                let mut a = 0.0;
                for c in live[d..].iter().step_by(width) {
                    a += *c;
                }
                (a / n) * (a / n)
            })
            .sum();
        Some(sq.sqrt())
    }

    /// Net displacement per round of the *reported* coordinate across the
    /// retained trail: `dist(newest, oldest) / (round_newest − round_oldest)`.
    /// `None` until the trail spans at least one round.
    pub fn reported_velocity(&self, space: &Space) -> Option<f64> {
        if self.rep_len < 2 {
            return None;
        }
        let next = self.samples as usize % REPORTED_WINDOW;
        let (oldest, newest) = if self.rep_len < REPORTED_WINDOW {
            (0, self.rep_len - 1)
        } else {
            // Full ring: the slot about to be overwritten is the oldest.
            (next, (next + REPORTED_WINDOW - 1) % REPORTED_WINDOW)
        };
        let span = self.reported_rounds[newest].saturating_sub(self.reported_rounds[oldest]);
        if span == 0 {
            return None;
        }
        let (c0, h0) = self.reported.get(oldest);
        let (c1, h1) = self.reported.get(newest);
        Some(space.distance_flat(c1, h1, c0, h0) / span as f64)
    }

    fn record(
        &mut self,
        round: u64,
        observer: &Coord,
        reported: &Coord,
        residual: f64,
        rel_residual: f64,
    ) {
        let k = self.samples as usize % RESIDUAL_WINDOW;
        self.residuals[k] = residual;
        self.rel_residuals[k] = rel_residual;
        write_pull(
            self.pulls.slot_mut(RESIDUAL_WINDOW, k, reported),
            observer,
            reported,
            residual,
        );
        self.len = (self.len + 1).min(RESIDUAL_WINDOW);

        let k = self.samples as usize % REPORTED_WINDOW;
        self.reported_rounds[k] = round;
        self.reported.put(REPORTED_WINDOW, k, reported);
        self.rep_len = (self.rep_len + 1).min(REPORTED_WINDOW);

        self.samples += 1;
        self.last_round = round;
    }
}

/// Write the pull vector of one sample into `slot`: the unit direction of
/// `observer − reported` under the height-model norm, scaled by the signed
/// residual. A zero displacement leaves a zero pull.
fn write_pull(slot: &mut [f64], observer: &Coord, reported: &Coord, residual: f64) {
    let (height, vec) = slot.split_last_mut().expect("width is at least one");
    assert_eq!(observer.dim(), vec.len(), "one defense, one space");
    let mut sq = 0.0;
    for ((c, a), b) in vec.iter_mut().zip(&observer.vec).zip(&reported.vec) {
        *c = a - b;
        sq += *c * *c;
    }
    // Height-model semantics: heights add under subtraction (the path
    // descends one access link and climbs the other).
    *height = observer.height + reported.height;
    let norm = sq.sqrt() + *height;
    if norm > f64::EPSILON {
        let s = residual / norm;
        for c in slot.iter_mut() {
            *c *= s;
        }
    } else {
        slot.fill(0.0);
    }
}

/// One retained sample in an observer's recent ring. The coordinate the
/// neighbor reported is kept beside the ring, see [`Recent::iter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserverSample {
    /// The neighbor that reported.
    pub remote: usize,
    /// The measured RTT, ms.
    pub rtt: f64,
    /// Signed residual `rtt − predicted` at inspection time.
    pub residual: f64,
    /// Relative residual at inspection time.
    pub rel_residual: f64,
    /// Round the sample arrived in.
    pub round: u64,
}

#[derive(Debug, Clone, Default)]
struct ObserverHistory {
    ring: Vec<ObserverSample>,
    coords: VecRing,
    /// Samples ever recorded; `recorded % OBSERVER_WINDOW` is the next slot.
    recorded: usize,
}

impl ObserverHistory {
    fn record(&mut self, sample: ObserverSample, coord: &Coord) {
        let k = self.recorded % OBSERVER_WINDOW;
        if self.ring.is_empty() {
            self.ring.reserve_exact(OBSERVER_WINDOW);
        }
        if k == self.ring.len() {
            self.ring.push(sample);
        } else {
            self.ring[k] = sample;
        }
        self.coords.put(OBSERVER_WINDOW, k, coord);
        self.recorded += 1;
    }
}

/// An observer's recent samples across all its neighbors, unordered.
#[derive(Debug, Clone, Copy)]
pub struct Recent<'a> {
    samples: &'a [ObserverSample],
    coords: &'a VecRing,
}

impl Default for Recent<'_> {
    /// No samples.
    fn default() -> Self {
        static NO_COORDS: VecRing = VecRing {
            width: 0,
            data: Vec::new(),
        };
        Recent {
            samples: &[],
            coords: &NO_COORDS,
        }
    }
}

impl<'a> Recent<'a> {
    /// The samples, without the coordinates they reported.
    pub fn samples(&self) -> &'a [ObserverSample] {
        self.samples
    }

    /// Each sample with the coordinate its neighbor reported, as
    /// `(sample, Euclidean part, height)` — the argument shape of
    /// [`Space::distance_flat`].
    pub fn iter(&self) -> impl Iterator<Item = (&'a ObserverSample, &'a [f64], f64)> + 'a {
        let coords = self.coords;
        self.samples.iter().enumerate().map(move |(k, s)| {
            let (vec, height) = coords.get(k);
            (s, vec, height)
        })
    }
}

/// The full history store: per-remote report series plus per-observer
/// recent rings, both tables indexed by node id (the simulators' dense node
/// indices) that grow to the largest id seen.
#[derive(Debug, Clone, Default)]
pub struct NeighborHistory {
    remotes: Vec<RemoteHistory>,
    observers: Vec<ObserverHistory>,
}

impl NeighborHistory {
    /// An empty store.
    pub fn new() -> NeighborHistory {
        NeighborHistory::default()
    }

    /// History of `remote`'s reports, if any of them was ever inspected.
    pub fn remote(&self, remote: usize) -> Option<&RemoteHistory> {
        self.remotes.get(remote).filter(|h| h.inspected)
    }

    /// `observer`'s recent samples across all neighbors, unordered.
    pub fn recent(&self, observer: usize) -> Recent<'_> {
        self.observers
            .get(observer)
            .map_or(Recent::default(), |h| Recent {
                samples: &h.ring,
                coords: &h.coords,
            })
    }

    /// Mark `remote` as inspected, grow both tables to reach the two ids,
    /// and hand out the views a strategy judges against.
    pub(crate) fn inspecting(
        &mut self,
        observer: usize,
        remote: usize,
    ) -> (&RemoteHistory, Recent<'_>) {
        slot(&mut self.remotes, remote).inspected = true;
        slot(&mut self.observers, observer);
        (&self.remotes[remote], self.recent(observer))
    }

    /// Record one inspected sample into the remote's report trail (every
    /// inspected sample belongs here — detectors keep observing flagged
    /// nodes).
    pub(crate) fn record_remote(
        &mut self,
        observer_coord: &Coord,
        remote: usize,
        round: u64,
        reported: &Coord,
        residual: f64,
        rel_residual: f64,
    ) {
        let h = slot(&mut self.remotes, remote);
        h.inspected = true;
        h.record(round, observer_coord, reported, residual, rel_residual);
    }

    /// Record one sample into the observer's recent ring — the population
    /// thresholds calibrate against, so the engine only routes
    /// non-rejected samples here.
    pub(crate) fn record_observer(
        &mut self,
        observer: usize,
        sample: ObserverSample,
        reported: &Coord,
    ) {
        slot(&mut self.observers, observer).record(sample, reported);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoord_space::Space;

    #[test]
    fn remote_window_wraps_and_means() {
        let mut h = RemoteHistory::new();
        let reported = Coord::origin(2);
        let observer = Coord::from_vec(vec![100.0, 0.0]);
        for k in 0..(RESIDUAL_WINDOW + 4) {
            h.record(k as u64, &observer, &reported, 10.0, 0.1);
        }
        assert_eq!(h.samples(), (RESIDUAL_WINDOW + 4) as u64);
        assert_eq!(h.residuals().len(), RESIDUAL_WINDOW);
        assert_eq!(h.mean_residual(), Some(10.0));
        // One observer, fixed direction: the vector mean keeps the full
        // magnitude.
        assert!((h.mean_pull_norm().unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(h.last_round(), (RESIDUAL_WINDOW + 3) as u64);
    }

    #[test]
    fn hub_bias_cancels_vectorially_but_coherent_drag_does_not() {
        // The discriminator behind DriftCap: an honest unembeddable hub
        // (positive residual to observers all around it) has a large
        // scalar mean but a vanishing vector mean; a colluder pulling
        // every observer the same way keeps both.
        let reported = Coord::origin(2);
        let mut hub = RemoteHistory::new();
        for k in 0..8u64 {
            let a = k as f64 / 8.0 * std::f64::consts::TAU;
            let observer = Coord::from_vec(vec![100.0 * a.cos(), 100.0 * a.sin()]);
            hub.record(k, &observer, &reported, 50.0, 0.5);
        }
        assert_eq!(hub.mean_residual(), Some(50.0), "scalar bias persists");
        assert!(
            hub.mean_pull_norm().unwrap() < 1e-9,
            "radial pulls must cancel: {}",
            hub.mean_pull_norm().unwrap()
        );

        let mut colluder = RemoteHistory::new();
        for k in 0..8u64 {
            // Observers scattered, but the reported coordinate sits far
            // out along the collusion axis: every pull is ~axis-aligned.
            let observer = Coord::from_vec(vec![10.0 * k as f64, 5.0]);
            let far = Coord::from_vec(vec![10_000.0, 0.0]);
            colluder.record(k, &observer, &far, -120.0, 1.2);
        }
        assert!(
            colluder.mean_pull_norm().unwrap() > 110.0,
            "coherent drag must survive the vector mean: {}",
            colluder.mean_pull_norm().unwrap()
        );
    }

    #[test]
    fn mean_pull_stays_vectorial_in_twenty_dimensions() {
        // Past 16 components the mean used to fall back to the scalar
        // |mean residual|, which reads 50 ms for the hub below: the very
        // misfire the vector mean exists to avoid.
        let dim = 20;
        let axis = |k: usize, x: f64| {
            let mut c = Coord::origin(dim);
            c.vec[k] = x;
            c
        };
        let reported = Coord::origin(dim);
        let mut hub = RemoteHistory::new();
        for k in 0..RESIDUAL_WINDOW {
            // Observers in opposite pairs along eight of the axes.
            let observer = axis(k / 2 + 11, if k % 2 == 0 { 100.0 } else { -100.0 });
            hub.record(k as u64, &observer, &reported, 50.0, 0.5);
        }
        assert_eq!(hub.mean_residual(), Some(50.0), "scalar bias persists");
        assert_eq!(hub.mean_pull_norm(), Some(0.0), "radial pulls must cancel");

        let far = axis(dim - 1, 10_000.0);
        let mut colluder = RemoteHistory::new();
        for k in 0..RESIDUAL_WINDOW {
            let observer = axis(k, 10.0 * k as f64);
            colluder.record(k as u64, &observer, &far, -120.0, 1.2);
        }
        let drag = colluder.mean_pull_norm().unwrap();
        assert!(drag > 119.0 && drag <= 120.0, "coherent drag: {drag}");
    }

    #[test]
    fn reported_velocity_tracks_a_moving_trail() {
        let space = Space::Euclidean(2);
        let mut h = RemoteHistory::new();
        let observer = Coord::origin(2);
        // Reported coordinate advances 5 ms per round along x.
        for r in 0..20u64 {
            let c = Coord::from_vec(vec![5.0 * r as f64, 0.0]);
            h.record(r, &observer, &c, 0.0, 0.0);
        }
        let v = h.reported_velocity(&space).unwrap();
        assert!((v - 5.0).abs() < 1e-9, "velocity {v}");
    }

    #[test]
    fn reported_velocity_none_without_span() {
        let space = Space::Euclidean(2);
        let mut h = RemoteHistory::new();
        assert!(h.reported_velocity(&space).is_none());
        let c = Coord::origin(2);
        h.record(3, &c, &c, 0.0, 0.0);
        h.record(3, &c, &c, 0.0, 0.0); // same round: zero span
        assert!(h.reported_velocity(&space).is_none());
    }

    #[test]
    fn observer_ring_wraps_and_reuses_slots() {
        let mut store = NeighborHistory::new();
        let c = Coord::from_vec(vec![1.0, 2.0]);
        let me = Coord::origin(2);
        for k in 0..(OBSERVER_WINDOW + 7) {
            store.record_remote(&me, k % 5, k as u64, &c, -1.0, 0.02);
            let sample = ObserverSample {
                remote: k % 5,
                rtt: 50.0,
                residual: -1.0,
                rel_residual: 0.02,
                round: k as u64,
            };
            store.record_observer(0, sample, &c);
        }
        let recent = store.recent(0);
        assert_eq!(recent.samples().len(), OBSERVER_WINDOW);
        assert!(recent
            .iter()
            .all(|(s, vec, height)| vec == c.vec && height == 0.0 && s.rtt == 50.0));
        // The newest sample overwrote the oldest slot.
        let newest = (OBSERVER_WINDOW + 6) as u64;
        assert_eq!(recent.samples()[6].round, newest);
        assert_eq!(recent.samples()[7].round, 7);
        assert!(store.recent(99).samples().is_empty(), "unknown observer");
        assert_eq!(store.recent(99).iter().count(), 0);
        assert!(store.remote(0).is_some());
        assert_eq!(
            store.remote(0).unwrap().samples() as usize
                + store.remote(1).unwrap().samples() as usize
                + store.remote(2).unwrap().samples() as usize
                + store.remote(3).unwrap().samples() as usize
                + store.remote(4).unwrap().samples() as usize,
            OBSERVER_WINDOW + 7
        );
    }
}
