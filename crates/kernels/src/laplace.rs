//! The 2-D Laplace volume-IE kernel (Eqs. 14–17 of the paper).
//!
//! First-kind volume integral equation on the unit square, discretized by
//! piecewise-constant collocation on a uniform grid:
//!
//! * off-diagonal: `A[i,j] = -(h^2 / 2π) ln ||x_i - x_j||`;
//! * diagonal: `A[i,i] = -(1/2π) ∫_cell ln ||x|| dx`, evaluated in closed
//!   form (see `srsf_special::singular`).
//!
//! The resulting system is symmetric positive definite but ill-conditioned
//! (condition number growing like `O(N)`), which is exactly the regime
//! where the paper argues a direct solver beats unpreconditioned CG.

use crate::kernel::Kernel;
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_special::log::ln_slice;
use srsf_special::singular::laplace_log_self_integral;

/// Laplace log kernel with collocation weight `h^2`.
#[derive(Clone, Debug)]
pub struct LaplaceKernel {
    /// Quadrature weight per source cell (`h^2` on the uniform grid).
    weight: f64,
    /// Precomputed diagonal value.
    diag: f64,
}

impl LaplaceKernel {
    /// Kernel for the paper's uniform-grid collocation discretization.
    pub fn new(grid: &UnitGrid) -> Self {
        let h = grid.h();
        Self {
            weight: h * h,
            diag: -laplace_log_self_integral(h) / (2.0 * core::f64::consts::PI),
        }
    }

    /// Custom weight and diagonal — used for non-grid point clouds in tests
    /// and ablations.
    pub fn with_params(weight: f64, diag: f64) -> Self {
        Self { weight, diag }
    }

    /// `r2[k] := -(w / 2π) ln r[k]` from squared distances — the one
    /// formula behind every off-diagonal and proxy value, alone or a
    /// column at a time.
    #[inline]
    fn finish(&self, r2: &mut [f64]) {
        ln_slice(r2);
        // -(w / 2π) ln r = -(w / 4π) ln r^2
        let scale = -self.weight / (4.0 * core::f64::consts::PI);
        for v in r2 {
            *v *= scale;
        }
    }

    #[inline]
    fn eval(&self, a: Point, b: Point) -> f64 {
        let mut r2 = [a.dist_sq(&b)];
        debug_assert!(
            r2[0] > 0.0,
            "coincident points reached the off-diagonal path"
        );
        self.finish(&mut r2);
        r2[0]
    }
}

impl Kernel for LaplaceKernel {
    type Elem = f64;

    fn entry(&self, pts: &[Point], i: usize, j: usize) -> f64 {
        self.eval(pts[i], pts[j])
    }

    fn diag(&self, _pts: &[Point], _i: usize) -> f64 {
        self.diag
    }

    fn proxy_row(&self, pts: &[Point], y: Point, j: usize) -> f64 {
        self.eval(y, pts[j])
    }

    fn proxy_col(&self, pts: &[Point], i: usize, y: Point) -> f64 {
        self.eval(pts[i], y)
    }

    fn column(&self, pts: &[Point], rows: &[u32], col: usize, out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "column: one output per row");
        let c = pts[col];
        for (o, &r) in out.iter_mut().zip(rows) {
            let r2 = pts[r as usize].dist_sq(&c);
            debug_assert!(
                r2 > 0.0 || r as usize == col,
                "coincident points reached the off-diagonal path"
            );
            // The diagonal is no logarithm: a stand-in keeps its `ln 0`
            // off the slice routine's special-value path.
            *o = if r as usize == col { 1.0 } else { r2 };
        }
        self.finish(out);
        for (o, &r) in out.iter_mut().zip(rows) {
            if r as usize == col {
                *o = self.diag;
            }
        }
    }

    fn proxy_column(&self, pts: &[Point], circle: &[Point], j: usize, out: &mut [f64]) {
        assert_eq!(
            circle.len(),
            out.len(),
            "proxy_column: one output per proxy"
        );
        let c = pts[j];
        for (o, y) in out.iter_mut().zip(circle) {
            *o = y.dist_sq(&c);
            debug_assert!(*o > 0.0, "a proxy point coincides with a grid point");
        }
        self.finish(out);
    }

    fn is_translation_invariant(&self) -> bool {
        // entry = -(w / 4π) ln r²: a pure function of the offset, with no
        // per-point scaling.
        true
    }

    fn is_symmetric(&self) -> bool {
        // r² is even in the offset, so entry(i, j) == entry(j, i) bitwise.
        true
    }

    fn seed_id(&self) -> u64 {
        self.weight.to_bits() ^ self.diag.to_bits().rotate_left(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_match_eq_16() {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let h = grid.h();
        let r = pts[0].dist(&pts[3]);
        let want = -h * h / (2.0 * core::f64::consts::PI) * r.ln();
        assert!((k.entry(&pts, 0, 3) - want).abs() < 1e-15);
        // Symmetry.
        assert_eq!(k.entry(&pts, 0, 3), k.entry(&pts, 3, 0));
    }

    #[test]
    fn diagonal_positive_and_dominates_close_entries() {
        let grid = UnitGrid::new(32);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let d = k.diag(&pts, 0);
        assert!(d > 0.0);
        // Nearest-neighbor off-diagonal is positive too (ln(h) < 0) and
        // smaller than the diagonal.
        let near = k.entry(&pts, 0, 1);
        assert!(near > 0.0);
        assert!(d > near);
    }

    #[test]
    fn proxy_entries_consistent_with_grid_entries() {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        // A proxy placed exactly on a grid point reproduces the entry.
        let y = pts[10];
        assert_eq!(k.proxy_row(&pts, y, 3), k.entry(&pts, 10, 3));
        assert_eq!(k.proxy_col(&pts, 3, y), k.entry(&pts, 3, 10));
        assert_eq!(k.kappa(), 0.0);
    }

    #[test]
    fn block_assembly_handles_diagonal() {
        let grid = UnitGrid::new(4);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let m = k.block(&pts, &[0, 1], &[1, 2]);
        assert_eq!(m[(0, 0)], k.entry(&pts, 0, 1));
        assert_eq!(m[(1, 0)], k.diag(&pts, 1)); // row 1, col 1
        assert_eq!(m[(1, 1)], k.entry(&pts, 1, 2));
    }
}
