//! Point-set generators: the paper's uniform collocation grid plus
//! non-uniform clouds used by tests.

use crate::point::{BBox, Point};

/// The `m x m` uniform collocation grid on the unit square used throughout
/// Section V of the paper: cell centers `((ix + 1/2) h, (iy + 1/2) h)` with
/// `h = 1/m`, indexed row-major (`i = iy * m + ix`).
#[derive(Clone, Copy, Debug)]
pub struct UnitGrid {
    m: usize,
}

impl UnitGrid {
    /// Build an `m x m` grid (`N = m^2` unknowns).
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        Self { m }
    }

    /// Points per side.
    pub fn side(&self) -> usize {
        self.m
    }

    /// Total number of points `N = m^2`.
    pub fn n(&self) -> usize {
        self.m * self.m
    }

    /// Grid spacing `h = 1/m`.
    pub fn h(&self) -> f64 {
        1.0 / self.m as f64
    }

    /// The point with flat index `i`.
    pub fn point(&self, i: usize) -> Point {
        let h = self.h();
        let (ix, iy) = (i % self.m, i / self.m);
        Point::new((ix as f64 + 0.5) * h, (iy as f64 + 0.5) * h)
    }

    /// All points in row-major order.
    pub fn points(&self) -> Vec<Point> {
        (0..self.n()).map(|i| self.point(i)).collect()
    }

    /// Integer offset between two flat indices, `(ix_i - ix_j, iy_i - iy_j)`.
    pub fn offset(&self, i: usize, j: usize) -> (i64, i64) {
        let (ix, iy) = ((i % self.m) as i64, (i / self.m) as i64);
        let (jx, jy) = ((j % self.m) as i64, (j / self.m) as i64);
        (ix - jx, iy - jy)
    }

    /// The domain bounding box (the unit square).
    pub fn bbox(&self) -> BBox {
        BBox::UNIT
    }
}

/// Deterministic pseudo-uniform points in the unit square (xorshift; used
/// by tests that need a non-grid distribution without pulling `rand` into
/// the library).
#[doc(hidden)]
// ORACLE: scattered_points, symmetric_mode, column_contract
pub fn scattered_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next(), next())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_layout_row_major() {
        let g = UnitGrid::new(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.h(), 0.25);
        let p0 = g.point(0);
        assert_eq!(p0, Point::new(0.125, 0.125));
        let p5 = g.point(5); // (ix=1, iy=1)
        assert_eq!(p5, Point::new(0.375, 0.375));
        let last = g.point(15);
        assert_eq!(last, Point::new(0.875, 0.875));
        assert_eq!(g.points().len(), 16);
    }

    #[test]
    fn grid_offsets() {
        let g = UnitGrid::new(8);
        assert_eq!(g.offset(0, 0), (0, 0));
        assert_eq!(g.offset(9, 0), (1, 1));
        assert_eq!(g.offset(0, 9), (-1, -1));
        // Offset determines distance on the grid.
        let (dx, dy) = g.offset(17, 42);
        let d = g.point(17).dist(&g.point(42));
        let want = g.h() * ((dx * dx + dy * dy) as f64).sqrt();
        assert!((d - want).abs() < 1e-14);
    }

    #[test]
    fn grid_points_inside_unit_square() {
        let g = UnitGrid::new(16);
        for p in g.points() {
            assert!(g.bbox().contains(&p));
        }
    }

    #[test]
    fn scattered_points_deterministic_and_inside() {
        let a = scattered_points(100, 42);
        let b = scattered_points(100, 42);
        assert_eq!(a.len(), 100);
        for (p, q) in a.iter().zip(b.iter()) {
            assert_eq!(p, q);
        }
        for p in &a {
            assert!((0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y));
        }
        let c = scattered_points(100, 43);
        assert!(a.iter().zip(c.iter()).any(|(p, q)| p != q));
    }
}
