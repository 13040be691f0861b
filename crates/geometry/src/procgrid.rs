//! Process grids: the distributed decomposition of Section III.
//!
//! Leaf boxes are block-partitioned onto a `q x q` grid of ranks
//! (`p = q^2`, Figure 4). Boxes whose neighbors all live on the same rank
//! are *interior* (factored with zero communication); the rest are
//! *boundary* and are processed in four process-color rounds (Figure 5).
//! As the tree coarsens and a rank's block would drop below `2 x 2` boxes,
//! the grid folds by two per axis and only the "corner" rank of each `2x2`
//! rank group stays active — the paper's "the number of processes involved
//! in the new level may also decrease".

use crate::tree::BoxId;

/// A `q x q` grid of ranks (`q` a power of two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessGrid {
    q: u32,
}

impl ProcessGrid {
    /// Build a grid with `p = q^2` ranks from the total rank count `p`
    /// (must be `4^k`: 1, 4, 16, 64, …).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a power of four; use [`ProcessGrid::try_new`]
    /// for fallible construction.
    pub fn new(p: usize) -> Self {
        Self::try_new(p).unwrap_or_else(|| {
            // INVARIANT: deliberate — documented panicking constructor; try_new is
            // the fallible path
            panic!("process count must be a power of four (1, 4, 16, ...), got {p}")
        })
    }

    /// Build a grid with `p = q^2` ranks, or `None` if `p` is not a
    /// power of four.
    pub fn try_new(p: usize) -> Option<Self> {
        let q = (p as f64).sqrt().round() as u32;
        if (q * q) as usize != p || !(q.is_power_of_two() || q == 1) {
            return None;
        }
        Some(Self { q })
    }

    /// Ranks per side.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Total ranks.
    pub fn p(&self) -> usize {
        (self.q * self.q) as usize
    }

    /// Rank id from grid coordinates.
    pub fn rank_of(&self, px: u32, py: u32) -> usize {
        (py * self.q + px) as usize
    }

    /// Grid coordinates of a rank id.
    pub fn coords_of(&self, rank: usize) -> (u32, u32) {
        let r = rank as u32;
        (r % self.q, r / self.q)
    }

    /// Effective grid side at a tree level: the largest `q_eff <= q` such
    /// that every active rank holds at least a `2 x 2` block of boxes
    /// (needed for the same-color-independence guarantee of Section III-B).
    pub fn effective_q(&self, level: u8) -> u32 {
        if level <= 1 {
            return 1;
        }
        let max_q = 1u32 << (level - 1); // 2^(level-1)
        self.q.min(max_q)
    }

    /// `true` if `rank` participates at `level` (after folding).
    pub fn is_active(&self, rank: usize, level: u8) -> bool {
        let qe = self.effective_q(level);
        let stride = self.q / qe;
        let (px, py) = self.coords_of(rank);
        px % stride == 0 && py % stride == 0
    }

    /// Active ranks at a level, in row-major effective order.
    pub fn active_ranks(&self, level: u8) -> Vec<usize> {
        let qe = self.effective_q(level);
        let stride = self.q / qe;
        let mut out = Vec::with_capacity((qe * qe) as usize);
        for ey in 0..qe {
            for ex in 0..qe {
                out.push(self.rank_of(ex * stride, ey * stride));
            }
        }
        out
    }

    /// Owning rank of a box at its level.
    ///
    /// Requires `2^level >= effective_q`, which `effective_q` guarantees.
    pub fn owner(&self, b: &BoxId) -> usize {
        let qe = self.effective_q(b.level);
        let s = b.side_count();
        let block = s / qe;
        let (ex, ey) = (b.ix / block, b.iy / block);
        let stride = self.q / qe;
        self.rank_of(ex * stride, ey * stride)
    }

    /// Effective grid coordinates of a rank at a level.
    pub fn effective_coords(&self, rank: usize, level: u8) -> (u32, u32) {
        let qe = self.effective_q(level);
        let stride = self.q / qe;
        let (px, py) = self.coords_of(rank);
        debug_assert!(px % stride == 0 && py % stride == 0);
        (px / stride, py / stride)
    }

    /// The 4-coloring of active ranks at a level (Figure 5): adjacent ranks
    /// always differ.
    pub fn color(&self, rank: usize, level: u8) -> u8 {
        let (ex, ey) = self.effective_coords(rank, level);
        ((ex % 2) + 2 * (ey % 2)) as u8
    }

    /// Active ranks adjacent (Chebyshev distance 1 on the effective grid)
    /// to `rank` at `level`. At most 8.
    pub fn neighbor_ranks(&self, rank: usize, level: u8) -> Vec<usize> {
        let qe = self.effective_q(level);
        let stride = self.q / qe;
        let (ex, ey) = self.effective_coords(rank, level);
        let mut out = Vec::new();
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = ex as i64 + dx;
                let ny = ey as i64 + dy;
                if nx >= 0 && ny >= 0 && (nx as u32) < qe && (ny as u32) < qe {
                    out.push(self.rank_of(nx as u32 * stride, ny as u32 * stride));
                }
            }
        }
        out
    }

    /// `true` if the box's 1-ring crosses a rank boundary (a *boundary*
    /// box); interior boxes factor without communication.
    pub fn is_boundary(&self, b: &BoxId) -> bool {
        let me = self.owner(b);
        crate::neighbors::near_field(b)
            .iter()
            .any(|n| self.owner(n) != me)
    }

    /// All boxes of a level owned by `rank`, split into (interior, boundary),
    /// each in row-major order.
    pub fn classify_level(&self, rank: usize, level: u8) -> (Vec<BoxId>, Vec<BoxId>) {
        let mut interior = Vec::new();
        let mut boundary = Vec::new();
        let s = 1u32 << level;
        for iy in 0..s {
            for ix in 0..s {
                let b = BoxId { level, ix, iy };
                if self.owner(&b) == rank {
                    if self.is_boundary(&b) {
                        boundary.push(b);
                    } else {
                        interior.push(b);
                    }
                }
            }
        }
        (interior, boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::near_field;

    #[test]
    fn grid_construction_and_coords() {
        let g = ProcessGrid::new(16);
        assert_eq!(g.q(), 4);
        assert_eq!(g.p(), 16);
        assert_eq!(g.rank_of(1, 2), 9);
        assert_eq!(g.coords_of(9), (1, 2));
        let g1 = ProcessGrid::new(1);
        assert_eq!(g1.q(), 1);
    }

    #[test]
    #[should_panic]
    fn non_square_rejected() {
        let _ = ProcessGrid::new(8);
    }

    #[test]
    fn owner_partition_is_balanced_blocks() {
        let g = ProcessGrid::new(4);
        let level = 4u8; // 16x16 boxes, 8x8 per rank
        let mut counts = vec![0usize; 4];
        let s = 1u32 << level;
        for iy in 0..s {
            for ix in 0..s {
                counts[g.owner(&BoxId { level, ix, iy })] += 1;
            }
        }
        assert_eq!(counts, vec![64; 4]);
    }

    #[test]
    fn effective_q_folds_at_coarse_levels() {
        let g = ProcessGrid::new(16); // q = 4
        assert_eq!(g.effective_q(5), 4); // 32x32 boxes: full grid
        assert_eq!(g.effective_q(3), 4); // 8x8 boxes: 2x2 per rank, still OK
        assert_eq!(g.effective_q(2), 2); // 4x4 boxes: fold to 2x2 ranks
        assert_eq!(g.effective_q(1), 1);
        assert_eq!(g.effective_q(0), 1);
        // every rank holds >= 2x2 boxes at any level where it is active
        for level in 2..=6u8 {
            let qe = g.effective_q(level);
            assert!((1u32 << level) / qe >= 2);
        }
    }

    #[test]
    fn active_ranks_and_folding() {
        let g = ProcessGrid::new(16);
        assert_eq!(g.active_ranks(5).len(), 16);
        let l2 = g.active_ranks(2);
        assert_eq!(l2.len(), 4);
        // corner ranks of the 2x2 fold groups: coords (0,0),(2,0),(0,2),(2,2)
        assert_eq!(l2, vec![0, 2, 8, 10]);
        for &r in &l2 {
            assert!(g.is_active(r, 2));
        }
        assert!(!g.is_active(1, 2));
        assert_eq!(g.active_ranks(0), vec![0]);
    }

    #[test]
    fn rank_coloring_makes_adjacent_ranks_differ() {
        let g = ProcessGrid::new(16);
        let level = 5;
        for &r in &g.active_ranks(level) {
            let c = g.color(r, level);
            assert!(c < 4);
            for nr in g.neighbor_ranks(r, level) {
                assert_ne!(c, g.color(nr, level), "ranks {r} and {nr} share color");
            }
        }
    }

    #[test]
    fn interior_boxes_of_distinct_ranks_are_independent() {
        let g = ProcessGrid::new(4);
        let level = 4u8;
        let (int0, _) = g.classify_level(0, level);
        let (int1, _) = g.classify_level(1, level);
        assert!(!int0.is_empty() && !int1.is_empty());
        for a in &int0 {
            for b in &int1 {
                assert!(a.chebyshev(b) > 2, "{a:?} vs {b:?} too close");
            }
        }
    }

    #[test]
    fn same_color_boundary_boxes_are_independent() {
        let g = ProcessGrid::new(16);
        let level = 5u8; // 32x32 boxes, 8x8 per rank
        let ranks = g.active_ranks(level);
        for &r1 in &ranks {
            for &r2 in &ranks {
                if r1 >= r2 || g.color(r1, level) != g.color(r2, level) {
                    continue;
                }
                let (_, b1) = g.classify_level(r1, level);
                let (_, b2) = g.classify_level(r2, level);
                for a in &b1 {
                    for b in &b2 {
                        assert!(a.chebyshev(b) > 2, "{a:?} vs {b:?} same color too close");
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_classification_matches_figure4() {
        // 4 ranks, level 2 (4x4 boxes, 2x2 per rank): only the domain-corner
        // box of each rank block has all its neighbors on the same rank.
        let g = ProcessGrid::new(4);
        let (int, bnd) = g.classify_level(0, 2);
        assert_eq!(
            int,
            vec![BoxId {
                level: 2,
                ix: 0,
                iy: 0
            }]
        );
        assert_eq!(bnd.len(), 3);
        // level 4 (16x16, 8x8 per rank): interior = 8x8 - boundary ring
        // along the two shared edges (an L-shape of width 2... count directly)
        let (int4, bnd4) = g.classify_level(0, 4);
        assert_eq!(int4.len() + bnd4.len(), 64);
        assert!(!int4.is_empty());
        for b in &int4 {
            for n in near_field(b) {
                assert_eq!(g.owner(&n), 0);
            }
        }
        for b in &bnd4 {
            assert!(near_field(b).iter().any(|n| g.owner(n) != 0));
        }
    }

    #[test]
    fn neighbor_ranks_at_most_8_and_symmetric() {
        let g = ProcessGrid::new(16);
        for level in [3u8, 5] {
            for &r in &g.active_ranks(level) {
                let ns = g.neighbor_ranks(r, level);
                assert!(ns.len() <= 8);
                for n in &ns {
                    assert!(g.neighbor_ranks(*n, level).contains(&r));
                }
            }
        }
    }
}
