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

    /// One column of the matrix: `out[k] = A[rows[k], col]`, the diagonal
    /// folded in (`rows` may contain `col`, anywhere, and may be empty;
    /// `out.len() == rows.len()`). `rows` is an active set as the
    /// factorization holds it, hence `u32`.
    ///
    /// This is how every bulk producer — the block store, the dense
    /// blocks of [`Kernel::block`] — asks for entries, so that a kernel
    /// can evaluate a whole column with vector instructions. **The column
    /// contract:** every value is a pure function of its own `(row, col)`
    /// pair and is, bit for bit, what [`Kernel::entry_or_diag`] returns
    /// for that pair. An implementor may therefore vectorise *across*
    /// entries — the same operations, in the same order, on many entries
    /// at once — but may not let anything about the batch reach a value:
    /// no term count or scaling taken from a batch maximum, no
    /// reassociated sum, no approximation chosen by the list length. The
    /// factorization relies on it: the same entry is produced through
    /// lists of different lengths and orders on different drivers, ranks
    /// and thread counts, which must all agree bitwise, and a symmetric
    /// kernel's `A[i, j]` and `A[j, i]` come out of different columns.
    ///
    /// The default loops over [`Kernel::entry_or_diag`], so a kernel that
    /// implements only the scalar methods (a wrapper, a test kernel)
    /// meets the contract as it is.
    fn column(&self, pts: &[Point], rows: &[u32], col: usize, out: &mut [Self::Elem]) {
        assert_eq!(rows.len(), out.len(), "column: one output per row");
        for (o, &r) in out.iter_mut().zip(rows) {
            *o = self.entry_or_diag(pts, r as usize, col);
        }
    }

    /// One column of the proxy block `K_{proxy,B}` of Eq. (7):
    /// `out[p] = proxy_row(circle[p], j)`, under the column contract of
    /// [`Kernel::column`] with [`Kernel::proxy_row`] as the scalar
    /// reference, which is also the default.
    fn proxy_column(&self, pts: &[Point], circle: &[Point], j: usize, out: &mut [Self::Elem]) {
        assert_eq!(
            circle.len(),
            out.len(),
            "proxy_column: one output per proxy"
        );
        for (o, &y) in out.iter_mut().zip(circle) {
            *o = self.proxy_row(pts, y, j);
        }
    }

    /// Assemble the dense block `A[rows, cols]`, column by column.
    fn block(&self, pts: &[Point], rows: &[usize], cols: &[usize]) -> Mat<Self::Elem> {
        // INVARIANT: `rows` index `pts`, and the factorization addresses
        // a point set by `u32` throughout (active sets, records, wire).
        let as_u32 = |&r: &usize| u32::try_from(r).expect("point indices fit in u32");
        let rows: Vec<u32> = rows.iter().map(as_u32).collect();
        let mut m = Mat::zeros(rows.len(), cols.len());
        for (j, &c) in cols.iter().enumerate() {
            self.column(pts, &rows, c, m.col_mut(j));
        }
        m
    }
}
