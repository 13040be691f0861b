//! The 2-D Helmholtz / Lippmann–Schwinger kernel (Eqs. 18–21 of the paper).
//!
//! The variable-coefficient Helmholtz equation is reformulated as the
//! Lippmann–Schwinger equation, symmetrized by `mu = sigma / sqrt(b)`, and
//! collocated on the uniform grid:
//!
//! * off-diagonal: `A[i,j] = h^2 κ^2 sqrt(b_i b_j) · (i/4) H0^(1)(κ r)`;
//! * diagonal: `A[i,i] = 1 + κ^2 b_i ∫_cell (i/4) H0^(1)(κ ||x||) dx`.
//!
//! The scattering potential `0 < b(x) <= 1` is smooth and compactly
//! concentrated; the paper uses the Gaussian bump
//! `b(x) = exp(-32 ||x - c||^2)` centered at `c = (1/2, 1/2)`.

use crate::kernel::Kernel;
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_linalg::c64;
use srsf_special::bessel::{hankel0_1, hankel0_1_slice};
use srsf_special::singular::helmholtz_self_integral;

/// The paper's Gaussian bump scattering potential
/// `b(x) = exp(-32 ||x - (1/2,1/2)||^2)`.
pub fn gaussian_bump(p: Point) -> f64 {
    let dx = p.x - 0.5;
    let dy = p.y - 0.5;
    (-32.0 * (dx * dx + dy * dy)).exp()
}

/// Lippmann–Schwinger kernel on a uniform grid.
#[derive(Clone, Debug)]
pub struct HelmholtzKernel {
    kappa: f64,
    /// `h^2 κ^2` prefactor.
    prefactor: f64,
    /// `sqrt(b(x_i))` per grid point.
    sqrt_b: Vec<f64>,
    /// `(i/4) ∫_cell H0^(1)(κ ||x||) dx` (shared by all diagonal entries).
    self_int: c64,
}

impl HelmholtzKernel {
    /// Build with the paper's Gaussian-bump potential.
    pub fn new(grid: &UnitGrid, kappa: f64) -> Self {
        Self::with_potential(grid, kappa, gaussian_bump)
    }

    /// Build with an arbitrary scattering potential `b` (values clamped to
    /// be positive so `sqrt` and the symmetrization stay well-defined).
    fn with_potential(grid: &UnitGrid, kappa: f64, b: impl Fn(Point) -> f64) -> Self {
        assert!(kappa > 0.0);
        let h = grid.h();
        let sqrt_b = (0..grid.n())
            .map(|i| b(grid.point(i)).max(1e-300).sqrt())
            .collect();
        let (re, im) = helmholtz_self_integral(kappa, h);
        Self {
            kappa,
            prefactor: h * h * kappa * kappa,
            sqrt_b,
            self_int: c64::new(re, im),
        }
    }

    /// The wavenumber.
    pub fn wavenumber(&self) -> f64 {
        self.kappa
    }

    /// `sqrt(b)` at grid point `i` (needed to map `mu` back to `sigma`).
    pub fn sqrt_b(&self, i: usize) -> f64 {
        self.sqrt_b[i]
    }

    /// `(i/4) H0^(1)(κ r)` as a complex number.
    #[inline]
    fn green(&self, r: f64) -> c64 {
        green_of(hankel0_1(self.kappa * r))
    }

    /// `out[k] = scale(k) · (i/4) H0^(1)(κ dist(k))`: the arithmetic of
    /// `entry` / `proxy_row`, the Hankel function taken a group of
    /// arguments at a time.
    #[inline]
    fn green_column(
        &self,
        out: &mut [c64],
        dist: impl Fn(usize) -> f64,
        scale: impl Fn(usize) -> f64,
    ) {
        /// Entries per pass: the `κ r` of that many live on the stack.
        const GROUP: usize = 64;
        let (mut x, mut j0, mut y0) = ([0.0; GROUP], [0.0; GROUP], [0.0; GROUP]);
        for (g, out) in out.chunks_mut(GROUP).enumerate() {
            let (k0, n) = (g * GROUP, out.len());
            for (k, x) in x[..n].iter_mut().enumerate() {
                *x = self.kappa * dist(k0 + k);
            }
            hankel0_1_slice(&x[..n], &mut j0[..n], &mut y0[..n]);
            for (k, o) in out.iter_mut().enumerate() {
                *o = green_of((j0[k], y0[k])).scale(scale(k0 + k));
            }
        }
    }
}

/// `(i/4)(J0 + i Y0) = -Y0/4 + i J0/4`.
#[inline]
fn green_of((j0, y0): (f64, f64)) -> c64 {
    c64::new(-0.25 * y0, 0.25 * j0)
}

impl Kernel for HelmholtzKernel {
    type Elem = c64;

    fn entry(&self, pts: &[Point], i: usize, j: usize) -> c64 {
        let r = pts[i].dist(&pts[j]);
        // The density product first: it commutes bit for bit, which is what
        // makes `entry(i, j) == entry(j, i)` exact (`is_symmetric`).
        self.green(r)
            .scale(self.prefactor * (self.sqrt_b[i] * self.sqrt_b[j]))
    }

    fn diag(&self, _pts: &[Point], i: usize) -> c64 {
        let b = self.sqrt_b[i] * self.sqrt_b[i];
        c64::ONE + self.self_int.scale(self.kappa * self.kappa * b)
    }

    fn proxy_row(&self, pts: &[Point], y: Point, j: usize) -> c64 {
        let r = y.dist(&pts[j]);
        self.green(r).scale(self.prefactor * self.sqrt_b[j])
    }

    fn proxy_col(&self, pts: &[Point], i: usize, y: Point) -> c64 {
        let r = pts[i].dist(&y);
        self.green(r).scale(self.prefactor * self.sqrt_b[i])
    }

    fn column(&self, pts: &[Point], rows: &[u32], col: usize, out: &mut [c64]) {
        assert_eq!(rows.len(), out.len(), "column: one output per row");
        let (c, sc) = (pts[col], self.sqrt_b[col]);
        let on_diag = |k: usize| rows[k] as usize == col;
        self.green_column(
            out,
            // The diagonal is no Green's function: any positive stand-in
            // distance will do for the value replaced below.
            |k| {
                if on_diag(k) {
                    1.0
                } else {
                    pts[rows[k] as usize].dist(&c)
                }
            },
            |k| self.prefactor * (self.sqrt_b[rows[k] as usize] * sc),
        );
        for (k, o) in out.iter_mut().enumerate() {
            if on_diag(k) {
                *o = self.diag(pts, col);
            }
        }
    }

    fn proxy_column(&self, pts: &[Point], circle: &[Point], j: usize, out: &mut [c64]) {
        assert_eq!(
            circle.len(),
            out.len(),
            "proxy_column: one output per proxy"
        );
        let (c, scale) = (pts[j], self.prefactor * self.sqrt_b[j]);
        self.green_column(out, |p| circle[p].dist(&c), |_| scale);
    }

    fn kappa(&self) -> f64 {
        self.kappa
    }

    fn is_translation_invariant(&self) -> bool {
        // entry = sqrt(b_i) · [prefactor · green(r)] · sqrt(b_j): the
        // bracket is a pure function of the offset, the density factors
        // are the per-point scaling.
        true
    }

    fn point_scale(&self, i: usize) -> f64 {
        self.sqrt_b[i]
    }

    fn is_symmetric(&self) -> bool {
        // Complex symmetric (A = Aᵀ, not Hermitian): the Green's function
        // is even in the offset and both points carry the same sqrt(b).
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_special::bessel::{j0, y0};

    #[test]
    fn bump_shape() {
        assert!((gaussian_bump(Point::new(0.5, 0.5)) - 1.0).abs() < 1e-15);
        let edge = gaussian_bump(Point::new(0.0, 0.0));
        assert!(edge < 1e-6 && edge > 0.0);
        // radially symmetric
        let a = gaussian_bump(Point::new(0.7, 0.5));
        let b = gaussian_bump(Point::new(0.5, 0.7));
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn entries_match_eq_20() {
        let grid = UnitGrid::new(16);
        let k = HelmholtzKernel::new(&grid, 25.0);
        let pts = grid.points();
        let h = grid.h();
        let (i, j) = (5, 200);
        let r = pts[i].dist(&pts[j]);
        let bi = gaussian_bump(pts[i]);
        let bj = gaussian_bump(pts[j]);
        let z = 25.0 * r;
        let want =
            c64::new(-0.25 * y0(z), 0.25 * j0(z)).scale(h * h * 25.0 * 25.0 * (bi * bj).sqrt());
        let got = k.entry(&pts, i, j);
        assert!((got - want).norm() < 1e-13 * want.norm());
        // Symmetry of the symmetrized formulation.
        assert!((k.entry(&pts, j, i) - got).norm() < 1e-15);
    }

    #[test]
    fn diagonal_matches_eq_21() {
        let grid = UnitGrid::new(16);
        let kappa = 25.0;
        let k = HelmholtzKernel::new(&grid, kappa);
        let pts = grid.points();
        // Center point: b = max.
        let i_center = grid.n() / 2 + grid.side() / 2;
        let d = k.diag(&pts, i_center);
        let b = gaussian_bump(pts[i_center]);
        let (sr, si) = helmholtz_self_integral(kappa, grid.h());
        let want = c64::ONE + c64::new(sr, si).scale(kappa * kappa * b);
        assert!((d - want).norm() < 1e-13);
        // Far-corner point: b ~ 0, so diag ~ 1.
        let d0 = k.diag(&pts, 0);
        assert!((d0 - c64::ONE).norm() < 1e-4);
    }

    #[test]
    fn proxy_rows_scale_with_single_sqrt_b() {
        let grid = UnitGrid::new(8);
        let k = HelmholtzKernel::new(&grid, 10.0);
        let pts = grid.points();
        let y = Point::new(1.7, -0.3); // off-grid proxy
        let pr = k.proxy_row(&pts, y, 5);
        let pc = k.proxy_col(&pts, 5, y);
        // Symmetric kernel: proxy row and proxy col agree.
        assert!((pr - pc).norm() < 1e-15);
        // Scaling: exactly one sqrt_b factor relative to the raw Green fn.
        let r = y.dist(&pts[5]);
        let raw = c64::new(-0.25 * y0(10.0 * r), 0.25 * j0(10.0 * r));
        let h = grid.h();
        let want = raw.scale(h * h * 100.0 * k.sqrt_b(5));
        assert!((pr - want).norm() < 1e-15);
    }

    #[test]
    fn constant_potential_gives_translation_invariance() {
        let grid = UnitGrid::new(8);
        let k = HelmholtzKernel::with_potential(&grid, 5.0, |_| 1.0);
        let pts = grid.points();
        // Same offset -> same entry.
        let e1 = k.entry(&pts, 0, 3);
        let e2 = k.entry(&pts, 8, 11); // shifted one row
        assert!((e1 - e2).norm() < 1e-15);
        assert_eq!(k.kappa(), 5.0);
    }
}
