//! Near field `N(B)`, distance-2 ring `M(B)` (Definition 2 of the paper),
//! and the supporting box-adjacency queries.

use crate::tree::BoxId;

/// Boxes at the same level within Chebyshev distance `d_lo..=d_hi` of `b`
/// (excluding `b` itself when `d_lo >= 1`), in row-major order.
fn ring(b: &BoxId, d_lo: u32, d_hi: u32) -> Vec<BoxId> {
    let s = b.side_count() as i64;
    let (bx, by) = (b.ix as i64, b.iy as i64);
    let mut out = Vec::new();
    for iy in (by - d_hi as i64).max(0)..=(by + d_hi as i64).min(s - 1) {
        for ix in (bx - d_hi as i64).max(0)..=(bx + d_hi as i64).min(s - 1) {
            let d = (ix - bx).abs().max((iy - by).abs()) as u32;
            if d >= d_lo && d <= d_hi {
                out.push(BoxId {
                    level: b.level,
                    ix: ix as u32,
                    iy: iy as u32,
                });
            }
        }
    }
    out
}

/// The near field `N(B)`: boxes adjacent to `B` at the same level
/// (Chebyshev distance exactly 1). At most 8.
pub fn near_field(b: &BoxId) -> Vec<BoxId> {
    ring(b, 1, 1)
}

/// The distance-2 neighbors `M(B) = N(N(B)) \ (N(B) ∪ B)` (Definition 2):
/// boxes at Chebyshev distance exactly 2. At most 16.
pub fn dist2_ring(b: &BoxId) -> Vec<BoxId> {
    ring(b, 2, 2)
}

/// `N(B) ∪ M(B)`: everything within distance 2, excluding `B`.
pub fn within_dist2(b: &BoxId) -> Vec<BoxId> {
    ring(b, 1, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(level: u8, ix: u32, iy: u32) -> BoxId {
        BoxId { level, ix, iy }
    }

    #[test]
    fn interior_box_has_8_neighbors_16_dist2() {
        let b = id(4, 7, 7);
        assert_eq!(near_field(&b).len(), 8);
        assert_eq!(dist2_ring(&b).len(), 16);
        assert_eq!(within_dist2(&b).len(), 24);
    }

    #[test]
    fn corner_box_clipped() {
        let b = id(3, 0, 0);
        assert_eq!(near_field(&b).len(), 3);
        assert_eq!(dist2_ring(&b).len(), 5);
    }

    #[test]
    fn edge_box_clipped() {
        let b = id(3, 3, 0);
        assert_eq!(near_field(&b).len(), 5);
        // row y in {0,1,2}, x in {1..5}; distance-2 ring: x in {1,5} any y, plus y=2 others
        assert_eq!(dist2_ring(&b).len(), 9);
    }

    #[test]
    fn neighbor_relation_symmetric() {
        let a = id(5, 10, 12);
        for n in near_field(&a) {
            assert_eq!(a.chebyshev(&n), 1);
            assert!(near_field(&n).contains(&a), "asymmetry with {n:?}");
        }
        for m in dist2_ring(&a) {
            assert!(dist2_ring(&m).contains(&a));
            assert_eq!(a.chebyshev(&m), 2);
        }
    }

    #[test]
    fn rings_are_disjoint_and_correct_distance() {
        let b = id(4, 8, 3);
        let n = near_field(&b);
        let m = dist2_ring(&b);
        for x in &n {
            assert_eq!(b.chebyshev(x), 1);
            assert!(!m.contains(x));
        }
        for x in &m {
            assert_eq!(b.chebyshev(x), 2);
        }
        // M(B) == N(N(B)) \ (N(B) ∪ {B}) — check the definition directly.
        let mut nn: Vec<BoxId> = n.iter().flat_map(near_field).collect();
        nn.sort_unstable();
        nn.dedup();
        nn.retain(|x| *x != b && !n.contains(x));
        let mut m_sorted = m.clone();
        m_sorted.sort_unstable();
        assert_eq!(nn, m_sorted);
    }

    /// The induction fact behind Theorem 2: if `C` is within distance 2 of
    /// `B` at a child level, their parents are within distance 1 — i.e.,
    /// modified interactions at the parent level stay inside the near
    /// field, so Assumption 1 keeps holding level after level.
    #[test]
    fn theorem2_parent_of_dist2_is_neighbor_or_self() {
        let b = id(5, 13, 6);
        let pb = b.parent().unwrap();
        for c in within_dist2(&b) {
            let pc = c.parent().unwrap();
            assert!(
                pb.chebyshev(&pc) <= 1,
                "parents of within-2 boxes must be within 1: {pc:?}"
            );
        }
    }

    /// And conversely: children of distance-2 parents are at distance >= 3,
    /// so their interactions are untouched kernel entries at merge time.
    #[test]
    fn children_of_dist2_parents_are_far() {
        let pa = id(4, 5, 5);
        for pb in dist2_ring(&pa) {
            for ca in pa.children() {
                for cb in pb.children() {
                    assert!(ca.chebyshev(&cb) >= 3, "{ca:?} vs {cb:?}");
                }
            }
        }
    }
}
