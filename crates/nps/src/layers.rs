//! Landmark selection and layer assignment.

use rand::seq::SliceRandom;
use rand::Rng;
use vcoord_topo::RttMatrix;

/// Pick `k` well-separated landmarks by greedy max–min (k-center) selection:
/// start from one end of the network's diameter, then repeatedly add the
/// node whose minimum RTT to the chosen set is largest. This is the standard
/// reading of the paper's "20 well separated permanent Landmarks".
///
/// # Panics
/// Panics if `k` exceeds the node count or `k == 0`.
pub(crate) fn select_landmarks(matrix: &RttMatrix, k: usize) -> Vec<usize> {
    let n = matrix.len();
    assert!(k >= 1 && k <= n, "invalid landmark count {k} for {n} nodes");
    // Seed with one endpoint of the (approximate) diameter.
    let (mut a, mut best) = (0usize, -1.0f64);
    for (i, j, v) in matrix.pairs() {
        if v > best {
            best = v;
            a = i;
            let _ = j;
        }
    }
    let mut chosen = vec![a];
    let mut min_dist: Vec<f64> = (0..n).map(|i| matrix.rtt(a, i)).collect();
    while chosen.len() < k {
        let (next, _) = min_dist
            .iter()
            .enumerate()
            .filter(|(i, _)| !chosen.contains(i))
            .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite RTTs"))
            .expect("k <= n ensures a candidate");
        chosen.push(next);
        for (i, md) in min_dist.iter_mut().enumerate() {
            *md = md.min(matrix.rtt(next, i));
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Assign every node a layer: `0` for landmarks, `1..layers-1` for the
/// middle (reference-eligible) layers holding `ref_fraction` of the ordinary
/// nodes each, and `layers-1` for everyone else.
///
/// Returns the per-node layer vector.
///
/// # Panics
/// Panics if `layers < 2` or the parameters leave a middle layer empty.
pub(crate) fn assign_layers<R: Rng + ?Sized>(
    n: usize,
    landmarks: &[usize],
    layers: usize,
    ref_fraction: f64,
    rng: &mut R,
) -> Vec<u8> {
    assert!(layers >= 2, "need at least landmarks + one layer");
    assert!(layers <= u8::MAX as usize);
    let mut layer = vec![(layers - 1) as u8; n];
    for &l in landmarks {
        layer[l] = 0;
    }
    let mut ordinary: Vec<usize> = (0..n).filter(|i| !landmarks.contains(i)).collect();
    ordinary.shuffle(rng);
    let per_middle = ((ordinary.len() as f64) * ref_fraction).round() as usize;
    assert!(
        per_middle >= 1 || layers == 2,
        "ref_fraction leaves middle layers empty"
    );
    let mut cursor = 0usize;
    for middle in 1..(layers - 1) {
        for _ in 0..per_middle {
            if cursor >= ordinary.len() {
                break;
            }
            layer[ordinary[cursor]] = middle as u8;
            cursor += 1;
        }
    }
    layer
}

/// Group node ids by layer: `members[l]` lists the nodes of layer `l`.
pub(crate) fn layer_members(layer: &[u8], layers: usize) -> Vec<Vec<usize>> {
    let mut members = vec![Vec::new(); layers];
    for (i, &l) in layer.iter().enumerate() {
        members[l as usize].push(i);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use vcoord_topo::{KingLike, KingLikeConfig};

    fn topo(n: usize) -> RttMatrix {
        KingLike::new(KingLikeConfig::with_nodes(n)).generate(&mut ChaCha12Rng::seed_from_u64(1))
    }

    #[test]
    fn landmarks_are_well_separated() {
        let m = topo(120);
        let lm = select_landmarks(&m, 10);
        assert_eq!(lm.len(), 10);
        // Min pairwise landmark RTT must beat the matrix-wide 10th
        // percentile by a wide margin (that's the point of max-min).
        let mut all: Vec<f64> = m.pairs().map(|(_, _, v)| v).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p10 = all[all.len() / 10];
        let mut min_lm = f64::INFINITY;
        for (k, &a) in lm.iter().enumerate() {
            for &b in lm.iter().skip(k + 1) {
                min_lm = min_lm.min(m.rtt(a, b));
            }
        }
        assert!(min_lm > p10, "landmarks not separated: {min_lm} <= {p10}");
    }

    #[test]
    fn landmarks_deterministic() {
        let m = topo(80);
        assert_eq!(select_landmarks(&m, 7), select_landmarks(&m, 7));
    }

    #[test]
    fn three_layer_split() {
        let m = topo(120);
        let lm = select_landmarks(&m, 20);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let layer = assign_layers(120, &lm, 3, 0.2, &mut rng);
        let members = layer_members(&layer, 3);
        assert_eq!(members[0].len(), 20);
        assert_eq!(members[1].len(), 20); // 20% of 100
        assert_eq!(members[2].len(), 80);
    }

    #[test]
    fn four_layer_split() {
        let m = topo(120);
        let lm = select_landmarks(&m, 20);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let layer = assign_layers(120, &lm, 4, 0.2, &mut rng);
        let members = layer_members(&layer, 4);
        assert_eq!(members[0].len(), 20);
        assert_eq!(members[1].len(), 20);
        assert_eq!(members[2].len(), 20);
        assert_eq!(members[3].len(), 60);
    }

    #[test]
    fn layer_assignment_is_seed_dependent_but_landmark_stable() {
        let m = topo(60);
        let lm = select_landmarks(&m, 5);
        let a = assign_layers(60, &lm, 3, 0.2, &mut ChaCha12Rng::seed_from_u64(1));
        let b = assign_layers(60, &lm, 3, 0.2, &mut ChaCha12Rng::seed_from_u64(2));
        for &l in &lm {
            assert_eq!(a[l], 0);
            assert_eq!(b[l], 0);
        }
        assert_ne!(a, b, "different seeds must shuffle middle layers");
    }
}
