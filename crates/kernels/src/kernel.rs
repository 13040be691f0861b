//! The kernel abstraction consumed by the factorization.
//!
//! A [`Kernel`] produces matrix entries of the discretized integral
//! operator, *including every scaling the discretization introduces*
//! (quadrature weights `h^2`, density factors `sqrt(b_i b_j)`, …), plus the
//! interactions against off-grid proxy points needed by the compression
//! step. Entries are indexed against a shared point slice, which must be
//! the same slice handed to the factorization.

use srsf_geometry::point::Point;
use srsf_linalg::{Mat, Scalar};

/// A discretized integral-equation kernel.
pub trait Kernel: Send + Sync {
    /// Matrix element type (`f64` for Laplace, `c64` for Helmholtz).
    type Elem: Scalar;

    /// Off-diagonal entry `A[i,j]`, `i != j`.
    fn entry(&self, pts: &[Point], i: usize, j: usize) -> Self::Elem;

    /// Diagonal entry `A[i,i]` (the singular self-interaction integral).
    fn diag(&self, pts: &[Point], i: usize) -> Self::Elem;

    /// Interaction with an off-grid proxy point `y` as the *row* and grid
    /// point `j` as the *column*: the row block `K_{proxy,B}` of Eq. (7).
    /// Includes the column's scalings but treats the proxy as unweighted.
    fn proxy_row(&self, pts: &[Point], y: Point, j: usize) -> Self::Elem;

    /// Interaction with grid point `i` as the *row* and proxy `y` as the
    /// *column* — the transposed-side block `K_{B,proxy}`.
    fn proxy_col(&self, pts: &[Point], i: usize, y: Point) -> Self::Elem;

    /// Oscillation parameter (`kappa` for Helmholtz, 0 for Laplace); drives
    /// the proxy point-count rule.
    fn kappa(&self) -> f64 {
        0.0
    }

    /// True when off-diagonal entries factor as
    /// `A[i,j] = point_scale(i) · t(x_i − x_j) · point_scale(j)` with a
    /// real scaling and an *even* symbol (`t(−d) = t(d)`) — the structure
    /// the FFT leaf fast path exploits: on a uniform grid, unmodified
    /// blocks can then be applied through a Toeplitz circulant embedding,
    /// or assembled from a precomputed symbol table, instead of being
    /// evaluated entry by entry. Both paper kernels qualify (Laplace
    /// exactly, Helmholtz with `point_scale = sqrt(b_i)`). Defaults to
    /// `false`; claiming it wrongly produces wrong answers, not just slow
    /// ones.
    fn is_translation_invariant(&self) -> bool {
        false
    }

    /// True when the assembled operator is (complex-)symmetric:
    /// `entry(i, j) == entry(j, i)` exactly, i.e. `A = Aᵀ` — *not*
    /// Hermitian for complex kernels. The factorization then sparsifies
    /// with `Tᵀ` (a congruence by transpose, which keeps every Schur
    /// update transpose-symmetric), stores one coupling per box pair and
    /// compresses the forward half `[A_{M,B}; K_{proxy,B}]` of the stack
    /// only: the other half is its duplicate for a real kernel and its
    /// conjugate for a complex one. Both paper kernels qualify (Laplace
    /// is real symmetric; Helmholtz is complex symmetric because both
    /// points carry the same `sqrt(b)` factor). The proxy interactions
    /// must obey the same symmetry, `proxy_row(y, j) == proxy_col(j, y)`
    /// exactly: a complex kernel's `proxy_col` is never evaluated, so
    /// this clause is what makes the one-sided compression cover the
    /// far field in both directions. Defaults to `false`.
    fn is_symmetric(&self) -> bool {
        false
    }

    /// The per-point scaling `s_i` of the translation-invariant
    /// factorization (see [`Kernel::is_translation_invariant`]); identity
    /// by default.
    fn point_scale(&self, _i: usize) -> f64 {
        1.0
    }

    /// Stable identifier mixed into randomized-compression sketch seeds,
    /// so different kernels draw different sketches while the same kernel
    /// draws the same sketch on every driver, thread count, and
    /// transport. Defaults to the bits of `kappa`.
    fn seed_id(&self) -> u64 {
        self.kappa().to_bits()
    }

    /// `A[i,j]` with the diagonal case folded in.
    fn entry_or_diag(&self, pts: &[Point], i: usize, j: usize) -> Self::Elem {
        if i == j {
            self.diag(pts, i)
        } else {
            self.entry(pts, i, j)
        }
    }

    /// Assemble the dense block `A[rows, cols]`.
    fn block(&self, pts: &[Point], rows: &[usize], cols: &[usize]) -> Mat<Self::Elem> {
        Mat::from_fn(rows.len(), cols.len(), |i, j| {
            self.entry_or_diag(pts, rows[i], cols[j])
        })
    }
}
