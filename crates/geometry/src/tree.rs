//! The perfect quad-tree of Section II-A.
//!
//! The domain square is subdivided `L` times; level `l` holds `2^l x 2^l`
//! boxes identified by integer coordinates `(ix, iy)`. Points are bucketed
//! into leaves by coordinates. The paper assumes a uniform distribution and
//! a perfect tree (Section II-A, "extensions to a non-uniform distribution
//! are straightforward but quite tedious"); we follow it, and the tree
//! accepts any point cloud but keeps the perfect structure (empty leaves
//! are legal and simply own no unknowns).

use crate::point::{BBox, Point};

/// Identifier of a box: its level and integer grid coordinates within the
/// level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxId {
    /// Tree level; 0 is the root.
    pub level: u8,
    /// Horizontal box coordinate in `0..2^level`.
    pub ix: u32,
    /// Vertical box coordinate in `0..2^level`.
    pub iy: u32,
}

impl BoxId {
    /// The root box.
    pub const ROOT: BoxId = BoxId {
        level: 0,
        ix: 0,
        iy: 0,
    };

    /// Boxes per side at this box's level.
    #[inline]
    pub fn side_count(&self) -> u32 {
        1 << self.level
    }

    /// Flat index within the level (`iy * 2^level + ix`).
    #[inline]
    pub fn flat(&self) -> usize {
        (self.iy as usize) << self.level | self.ix as usize
    }

    /// Parent box (`None` for the root).
    pub fn parent(&self) -> Option<BoxId> {
        if self.level == 0 {
            None
        } else {
            Some(BoxId {
                level: self.level - 1,
                ix: self.ix / 2,
                iy: self.iy / 2,
            })
        }
    }

    /// The four children (at `level + 1`).
    pub fn children(&self) -> [BoxId; 4] {
        let l = self.level + 1;
        let (x, y) = (self.ix * 2, self.iy * 2);
        [
            BoxId {
                level: l,
                ix: x,
                iy: y,
            },
            BoxId {
                level: l,
                ix: x + 1,
                iy: y,
            },
            BoxId {
                level: l,
                ix: x,
                iy: y + 1,
            },
            BoxId {
                level: l,
                ix: x + 1,
                iy: y + 1,
            },
        ]
    }

    /// Chebyshev distance to another box at the **same level** — the box
    /// distance `d` of Section III (`d = 1`: neighbors, `d = 2`: distance-2
    /// neighbors, `d > 2`: independent).
    pub fn chebyshev(&self, other: &BoxId) -> u32 {
        assert_eq!(self.level, other.level, "box distance needs equal levels");
        let dx = self.ix.abs_diff(other.ix);
        let dy = self.iy.abs_diff(other.iy);
        dx.max(dy)
    }
}

/// A perfect quad-tree over a square domain.
#[derive(Clone, Debug)]
pub struct QuadTree {
    domain: BBox,
    levels: u8,
    /// Point indices per leaf box, indexed by the leaf's flat index.
    leaf_points: Vec<Vec<u32>>,
}

impl QuadTree {
    /// Build a tree over `points` inside `domain` with `levels`
    /// subdivisions (leaves at level `levels`).
    fn with_levels(points: &[Point], domain: BBox, levels: u8) -> Self {
        let s = 1usize << levels;
        let mut leaf_points = vec![Vec::new(); s * s];
        let inv = s as f64 / domain.side;
        for (idx, p) in points.iter().enumerate() {
            debug_assert!(domain.contains(p), "point {p:?} outside domain");
            let ix = (((p.x - domain.lo.x) * inv) as usize).min(s - 1);
            let iy = (((p.y - domain.lo.y) * inv) as usize).min(s - 1);
            leaf_points[iy * s + ix].push(idx as u32);
        }
        Self {
            domain,
            levels,
            leaf_points,
        }
    }

    /// Build with the depth chosen so the *average* leaf population is at
    /// most `leaf_size` (matching the paper's "O(1) points per box" rule;
    /// for the uniform grid the average is exact).
    pub fn build(points: &[Point], domain: BBox, leaf_size: usize) -> Self {
        assert!(leaf_size >= 1);
        let mut levels = 0u8;
        while points.len() > leaf_size * (1usize << (2 * levels)) && levels < 24 {
            levels += 1;
        }
        Self::with_levels(points, domain, levels)
    }

    /// Number of levels below the root (leaves live at this level).
    pub fn leaf_level(&self) -> u8 {
        self.levels
    }

    /// Domain box.
    pub fn domain(&self) -> BBox {
        self.domain
    }

    /// Geometric box of `id`.
    pub fn bbox(&self, id: &BoxId) -> BBox {
        let side = self.domain.side / id.side_count() as f64;
        BBox {
            lo: Point::new(
                self.domain.lo.x + id.ix as f64 * side,
                self.domain.lo.y + id.iy as f64 * side,
            ),
            side,
        }
    }

    /// Point indices owned by a **leaf** box.
    pub fn leaf_points(&self, id: &BoxId) -> &[u32] {
        assert_eq!(id.level, self.levels, "only leaves own points directly");
        &self.leaf_points[id.flat()]
    }

    /// Iterate all boxes of a level in row-major order.
    pub fn boxes_at_level(&self, level: u8) -> impl Iterator<Item = BoxId> + '_ {
        let s = 1u32 << level;
        (0..s).flat_map(move |iy| (0..s).map(move |ix| BoxId { level, ix, iy }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{scattered_points, UnitGrid};

    #[test]
    fn box_id_relations() {
        let b = BoxId {
            level: 3,
            ix: 5,
            iy: 2,
        };
        assert_eq!(b.side_count(), 8);
        assert_eq!(b.flat(), 2 * 8 + 5);
        let p = b.parent().unwrap();
        assert_eq!(
            p,
            BoxId {
                level: 2,
                ix: 2,
                iy: 1
            }
        );
        assert!(p.children().contains(&b));
        assert_eq!(BoxId::ROOT.parent(), None);
        // children-parent round trip for all children
        for c in b.children() {
            assert_eq!(c.parent().unwrap(), b);
        }
    }

    #[test]
    fn chebyshev_distance() {
        let a = BoxId {
            level: 4,
            ix: 3,
            iy: 3,
        };
        assert_eq!(a.chebyshev(&a), 0);
        assert_eq!(
            a.chebyshev(&BoxId {
                level: 4,
                ix: 4,
                iy: 4
            }),
            1
        );
        assert_eq!(
            a.chebyshev(&BoxId {
                level: 4,
                ix: 5,
                iy: 3
            }),
            2
        );
        assert_eq!(
            a.chebyshev(&BoxId {
                level: 4,
                ix: 0,
                iy: 10
            }),
            7
        );
    }

    #[test]
    fn every_point_in_exactly_one_leaf() {
        let pts = scattered_points(500, 9);
        let tree = QuadTree::build(&pts, BBox::UNIT, 16);
        let mut seen = vec![false; pts.len()];
        for id in tree.boxes_at_level(tree.leaf_level()) {
            let bb = tree.bbox(&id);
            for &pi in tree.leaf_points(&id) {
                assert!(!seen[pi as usize], "point {pi} in two leaves");
                seen[pi as usize] = true;
                assert!(bb.contains(&pts[pi as usize]), "point outside its leaf");
            }
        }
        assert!(seen.iter().all(|&s| s), "some point not assigned");
    }

    #[test]
    fn uniform_grid_gives_perfectly_balanced_leaves() {
        let g = UnitGrid::new(16); // 256 points
        let tree = QuadTree::build(&g.points(), g.bbox(), 16);
        assert_eq!(tree.leaf_level(), 2); // 16 leaves * 16 points
        for id in tree.boxes_at_level(2) {
            assert_eq!(tree.leaf_points(&id).len(), 16);
        }
    }

    #[test]
    fn depth_selection_respects_leaf_size() {
        let pts = scattered_points(1000, 3);
        let tree = QuadTree::build(&pts, BBox::UNIT, 64);
        // average leaf population <= 64
        let leaves = tree.boxes_at_level(tree.leaf_level()).count();
        assert!(pts.len() <= 64 * leaves);
        // and one level up would overflow
        if tree.leaf_level() > 0 {
            assert!(pts.len() > 64 * tree.boxes_at_level(tree.leaf_level() - 1).count());
        }
    }

    #[test]
    fn bbox_geometry_nested() {
        let tree = QuadTree::with_levels(&[Point::new(0.5, 0.5)], BBox::UNIT, 3);
        let b = BoxId {
            level: 3,
            ix: 7,
            iy: 0,
        };
        let bb = tree.bbox(&b);
        assert!((bb.side - 0.125).abs() < 1e-15);
        assert!((bb.lo.x - 0.875).abs() < 1e-15);
        // child boxes tile the parent
        let parent = BoxId {
            level: 2,
            ix: 3,
            iy: 0,
        };
        let pb = tree.bbox(&parent);
        for c in parent.children() {
            let cb = tree.bbox(&c);
            assert!(cb.lo.x >= pb.lo.x - 1e-15 && cb.lo.x + cb.side <= pb.lo.x + pb.side + 1e-12);
        }
    }

    #[test]
    fn boxes_at_level_count_and_order() {
        let tree = QuadTree::with_levels(&[Point::new(0.1, 0.1)], BBox::UNIT, 2);
        let ids: Vec<BoxId> = tree.boxes_at_level(2).collect();
        assert_eq!(ids.len(), 16);
        // row-major: flat index equals position
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.flat(), i);
        }
    }
}
