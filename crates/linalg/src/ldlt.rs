//! Packed block `L D Lᵀ` factorization of a symmetric matrix.
//!
//! The dense top block of a symmetric factorization (`A = Aᵀ`, real or
//! complex — plain transpose, never the conjugate) is the last
//! elimination step of the same discipline every per-box record follows:
//! pivoting is confined to the diagonal block. The matrix is cut into
//! block columns of width [`NB`]; only the block lower triangle is ever
//! held ([`SymPanels`]: per block column its `nb x nb` diagonal block and
//! the `(n - k1) x nb` panel below it, `n (n + NB) / 2` entries in
//! total), and [`Ldlt::factor`] overwrites it right-looking with
//! `A = L D Lᵀ`: `D` block diagonal, each block factored by the
//! partially pivoted [`Lu`] and kept as its explicit inverse `D_k⁻¹`
//! ([`Lu::into_inverse_t`]; the LU itself is dropped) — symmetric, so
//! one triangle is mirrored onto the other before its first use and the
//! factors hold it as one packed triangle ([`SymMat`]), `n (n + NB) / 2`
//! entries less the `nb (nb - 1) / 2` of each diagonal block's strict
//! upper half; `L` unit block lower triangular, its panel
//! `L₂₁ = A₂₁ D_k⁻¹` one GEMM against that inverse; and the trailing
//! update `A₂₂ -= L₂₁ (D L₂₁ᵀ)` applied to the lower panels only —
//! `n³/3` flops against the `2n³/3` of a general LU,
//! half the bytes, and the `n x n` square never exists. The solve then
//! applies every diagonal block as a panel product (`crate::panel`),
//! with no triangular sweep left in it. The update is one left operand
//! into many blocks:
//! `L₂₁` is packed once per step and each later block column's diagonal
//! block and sub-panel take their rows of it straight from the pack
//! ([`crate::gemm::gemm_acc_to_blocks`]), with the bits of one product
//! per block.
//!
//! Confining the pivot search to a diagonal block gives up the
//! unconditional stability of a Bunch–Kaufman factorization, so the
//! factorization checks itself: a singular diagonal block or an entry of
//! `L₂₁` above [`GROWTH_BOUND`] is reported as [`LdltBreakdown`] and the
//! caller falls back to a general LU of the same matrix. SPD matrices
//! and the second-kind operators this solver factors never take that
//! path.

use crate::gemm::{gemm_acc_block, gemm_acc_to_blocks, is_packed, transpose_matmul_acc};
use crate::lu::Lu;
use crate::mat::Mat;
use crate::panel::panel_mul_sym_acc;
use crate::scalar::Scalar;
use crate::sym::SymMat;

/// Width of a block column.
pub const NB: usize = 64;

/// Largest entry of `L₂₁ = A₂₁ D⁻¹` the factorization accepts. Each
/// block step commits a backward error of order `u |L₂₁| |D| |L₂₁ᵀ|`, so
/// with `|L₂₁| <= 1e3` the factorization loses at most six of the sixteen
/// digits — still below the tightest compression tolerance the solver
/// runs at. The tops of the SPD Laplace and second-kind Helmholtz
/// factorizations sit far inside (`max |L₂₁|` between 0.8 and 1.5 on the
/// benchmark's four workloads); a matrix whose leading block is (nearly)
/// singular, like `[[0, B], [Bᵀ, 0]]`, exceeds the bound at the first
/// step.
pub const GROWTH_BOUND: f64 = 1e3;

/// Why a block `L D Lᵀ` without inter-block pivoting gave up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LdltBreakdown {
    /// A diagonal block is singular to working precision.
    ZeroPivot {
        /// Global elimination step of the zero pivot.
        step: usize,
    },
    /// An entry of `L₂₁` exceeded [`GROWTH_BOUND`].
    Growth {
        /// First column of the offending block column.
        step: usize,
        /// The largest `|L₂₁|` entry found there.
        max_l: f64,
    },
}

impl core::fmt::Display for LdltBreakdown {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LdltBreakdown::ZeroPivot { step } => {
                write!(f, "LDLᵀ: singular diagonal block at step {step}")
            }
            LdltBreakdown::Growth { step, max_l } => write!(
                f,
                "LDLᵀ: |L| = {max_l:.3e} exceeds {GROWTH_BOUND:.0e} in the block column at {step}"
            ),
        }
    }
}

impl std::error::Error for LdltBreakdown {}

/// `(first column, width)` of every block column of an `n x n` matrix.
pub(crate) fn block_cols(
    n: usize,
) -> impl DoubleEndedIterator<Item = (usize, usize)> + ExactSizeIterator {
    (0..n).step_by(NB).map(move |k0| (k0, NB.min(n - k0)))
}

/// The block lower triangle of a symmetric `n x n` matrix, as the input
/// of [`Ldlt::factor`]: block column `k` is its full `nb x nb` diagonal
/// block plus the `(n - k1) x nb` panel below it.
#[derive(Clone, Debug, PartialEq)]
pub struct SymPanels<T> {
    n: usize,
    diag: Vec<Mat<T>>,
    sub: Vec<Mat<T>>,
}

impl<T: Scalar> SymPanels<T> {
    /// All-zero panels of an `n x n` matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            diag: block_cols(n).map(|(_, nb)| Mat::zeros(nb, nb)).collect(),
            sub: block_cols(n)
                .map(|(k0, nb)| Mat::zeros(n - k0 - nb, nb))
                .collect(),
        }
    }

    /// Write entry `(r, c)` if the panels hold it (`r` at or below the
    /// top of `c`'s diagonal block).
    #[inline]
    fn put(&mut self, r: usize, c: usize, v: T) {
        let k = c / NB;
        let k0 = k * NB;
        if r >= k0 {
            let nb = self.diag[k].nrows();
            if r < k0 + nb {
                self.diag[k][(r - k0, c - k0)] = v;
            } else {
                self.sub[k][(r - k0 - nb, c - k0)] = v;
            }
        }
    }

    /// Write the block `A[r0.., c0..] = blk` of the block lower triangle
    /// of some coarser partition: either a diagonal block (`r0 == c0`,
    /// `blk` square and symmetric) or one entirely below the diagonal
    /// (`r0 >= c0 + blk.ncols()`). Where a block column straddles the
    /// caller's partition, the part of its diagonal block above the
    /// matrix diagonal is filled from the mirror entry, so the caller
    /// never supplies a block above the diagonal.
    pub fn set_block(&mut self, r0: usize, c0: usize, blk: &Mat<T>) {
        let (m, w) = (blk.nrows(), blk.ncols());
        assert!(r0 + m <= self.n && c0 + w <= self.n);
        assert!(
            (r0 == c0 && m == w) || r0 >= c0 + w,
            "set_block: block must lie on or below the diagonal"
        );
        for j in 0..w {
            let c = c0 + j;
            let k = c / NB;
            let k0 = k * NB;
            let nb = self.diag[k].nrows();
            let col = blk.col(j);
            // Rows of this block column held by the panels: r >= k0.
            let i_lo = k0.saturating_sub(r0).min(m);
            // ... of which the first few may fall in the diagonal block.
            let i_mid = (k0 + nb).saturating_sub(r0).clamp(i_lo, m);
            if i_lo < i_mid {
                let d0 = r0 + i_lo - k0;
                self.diag[k].col_mut(c - k0)[d0..d0 + (i_mid - i_lo)]
                    .copy_from_slice(&col[i_lo..i_mid]);
            }
            if i_mid < m {
                let s0 = r0 + i_mid - k0 - nb;
                self.sub[k].col_mut(c - k0)[s0..s0 + (m - i_mid)].copy_from_slice(&col[i_mid..]);
            }
            if r0 != c0 {
                // Mirror entries (c, r) that land in a diagonal block:
                // rows r of the same block column as c.
                for (i, &v) in col.iter().enumerate().take(i_mid) {
                    self.put(c, r0 + i, v);
                }
            }
        }
    }

    /// Pack the block lower triangle of a full symmetric matrix (the
    /// strict upper block triangle of `a` is not read).
    #[doc(hidden)]
    // ORACLE: oracle.rs ldlt_matches_lu_*, sym_panels_assemble_from_unaligned_lower_blocks
    pub fn from_lower(a: &Mat<T>) -> Self {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "SymPanels: square matrix required");
        Self {
            n,
            diag: block_cols(n)
                .map(|(k0, nb)| a.block(k0, k0, nb, nb))
                .collect(),
            sub: block_cols(n)
                .map(|(k0, nb)| a.block(k0 + nb, k0, n - k0 - nb, nb))
                .collect(),
        }
    }
}

/// Packed factors `A = L D Lᵀ` of a symmetric matrix (see the module
/// docs): per block column the inverse `D_k⁻¹` of its diagonal block,
/// packed, and the panel `L[k1.., k0..k1]` below it.
///
/// A value holds a contiguous range of the block columns — all of them
/// as [`Ldlt::factor`] returns it. The panel solve touches only the
/// block column it is applying, so the columns can be dealt out
/// ([`Ldlt::split_off`]) and the solve run range by range wherever the
/// ranges live (`Ldlt::forward_cols` / `backward_cols` in
/// [`crate::panel`]): first to last forward, last to first backward, the
/// same operations in the same order as on the whole.
#[derive(Clone, Debug)]
pub struct Ldlt<T> {
    n: usize,
    /// Index of the first block column held.
    first: usize,
    /// `D_k⁻¹` per block column held.
    diag: Vec<SymMat<T>>,
    sub: Vec<Mat<T>>,
}

/// `A₂₂ -= L₂₁ Wᵀ` on the block columns `cols` after the step that ends
/// at column `k1`, lower block triangle only: the diagonal block of the
/// block column at `j0` takes rows `j0 - k1 ..` of `L₂₁` and its
/// sub-panel the rows below. Those offsets are multiples of [`NB`], so
/// the products the packed path takes share one packed `L₂₁`
/// ([`gemm_acc_to_blocks`]); one [`is_packed`] rejects (a block column
/// under 12 wide, a sub-panel under 4 rows) runs on its own. Either way
/// every block gets the bits of its own `gemm_acc_block` call.
fn trailing_update<T: Scalar>(
    k1: usize,
    cols: &[(usize, usize)],
    l21: &Mat<T>,
    wt: &Mat<T>,
    dblocks: &mut [Mat<T>],
    sub: &mut [Mat<T>],
) {
    let (m, nb) = (l21.nrows(), l21.ncols());
    let mut packed = Vec::with_capacity(2 * cols.len());
    for (&(j0, nbj), (d, s)) in cols.iter().zip(dblocks.iter_mut().zip(sub.iter_mut())) {
        let off = j0 - k1;
        for (c, a_row) in [(d, off), (s, off + nbj)] {
            let rows = c.nrows();
            if is_packed(rows, nbj, nb) {
                packed.push((c, a_row, off));
            } else {
                gemm_acc_block(
                    c,
                    (0, 0, rows, nbj),
                    -T::ONE,
                    l21,
                    (a_row, 0, rows, nb),
                    wt,
                    (0, off, nb, nbj),
                );
            }
        }
    }
    gemm_acc_to_blocks(-T::ONE, l21, (0, 0, m, nb), wt, &mut packed);
}

impl<T: Scalar> Ldlt<T> {
    /// Factor the symmetric matrix held in `a`.
    pub fn factor(a: SymPanels<T>) -> Result<Self, LdltBreakdown> {
        let SymPanels {
            n,
            diag: mut dblocks,
            mut sub,
        } = a;
        let cols: Vec<(usize, usize)> = block_cols(n).collect();
        let mut diag = Vec::with_capacity(cols.len());
        for (k, &(k0, nb)) in cols.iter().enumerate() {
            let dk = core::mem::replace(&mut dblocks[k], Mat::zeros(0, 0));
            // D_k⁻¹ = (D_k⁻ᵀ)ᵀ, made symmetric bit for bit: every use
            // below and in the solve applies this one matrix.
            let mut dinv = Lu::factor(dk)
                .map_err(|e| LdltBreakdown::ZeroPivot { step: k0 + e.step })?
                .into_inverse_t();
            dinv.mirror_upper();
            let k1 = k0 + nb;
            if k1 < n {
                // W = A₂₁ as assembled and updated so far, kept transposed
                // as the update's right operand; L₂₁ = W D⁻¹ is one
                // product with the inverse, from `Wᵀ` into `W`'s own
                // storage.
                let mut l21 = core::mem::replace(&mut sub[k], Mat::zeros(0, 0));
                let wt = l21.transpose();
                l21.as_mut_slice().fill(T::ZERO);
                transpose_matmul_acc(&mut l21, T::ONE, &wt, &dinv);
                // Squared moduli against the squared bound: no `hypot` per
                // complex entry. A NaN (from a vanishing pivot) sticks,
                // where `f64::max` would drop it.
                let max_sq = l21.as_slice().iter().map(|v| v.abs_sq()).fold(0.0, |m, a| {
                    if a > m || a.is_nan() {
                        a
                    } else {
                        m
                    }
                });
                if max_sq.is_nan() || max_sq > GROWTH_BOUND * GROWTH_BOUND {
                    let max_l = max_sq.sqrt();
                    return Err(LdltBreakdown::Growth { step: k0, max_l });
                }
                trailing_update(
                    k1,
                    &cols[k + 1..],
                    &l21,
                    &wt,
                    &mut dblocks[k + 1..],
                    &mut sub[k + 1..],
                );
                sub[k] = l21;
            }
            diag.push(SymMat::from_lower(&dinv));
        }
        Ok(Self {
            n,
            first: 0,
            diag,
            sub,
        })
    }

    /// Rebuild all block columns from decoded parts:
    /// [`Ldlt::from_col_parts`] for the whole range.
    pub fn from_parts(n: usize, diag: Vec<SymMat<T>>, sub: Vec<Mat<T>>) -> Option<Self> {
        Self::from_col_parts(n, 0, diag, sub).filter(Self::is_whole)
    }

    /// Rebuild the block columns `first .. first + diag.len()` of an
    /// `n x n` factorization from decoded parts; `None` unless the range
    /// lies inside the matrix and every block has exactly the shape
    /// [`Ldlt::factor`] produces there (`diag` the inverses `D_k⁻¹` of
    /// order `nb`), so a solve cannot index out of bounds.
    pub fn from_col_parts(
        n: usize,
        first: usize,
        diag: Vec<SymMat<T>>,
        sub: Vec<Mat<T>>,
    ) -> Option<Self> {
        let ok = diag.len() == sub.len()
            && first
                .checked_add(diag.len())
                .is_some_and(|end| end <= n.div_ceil(NB))
            && block_cols(n)
                .skip(first)
                .zip(diag.iter().zip(&sub))
                .all(|((k0, nb), (d, s))| {
                    d.dim() == nb && (s.nrows(), s.ncols()) == (n - k0 - nb, nb)
                });
        ok.then_some(Self {
            n,
            first,
            diag,
            sub,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The block columns held, as indices into the `dim().div_ceil(NB)`
    /// block columns of the matrix.
    pub fn cols(&self) -> core::ops::Range<usize> {
        self.first..self.first + self.diag.len()
    }

    /// The matrix columns the held block columns cover.
    pub fn col_span(&self) -> core::ops::Range<usize> {
        let cols = self.cols();
        (cols.start * NB).min(self.n)..(cols.end * NB).min(self.n)
    }

    /// `true` when every block column of the matrix is held.
    pub fn is_whole(&self) -> bool {
        self.cols() == (0..self.n.div_ceil(NB))
    }

    /// Move the block columns `at..` (an index into the matrix's block
    /// columns, inside the held range) out into a value of their own;
    /// `self` keeps those before `at`. No block is copied.
    pub fn split_off(&mut self, at: usize) -> Self {
        let cols = self.cols();
        assert!(
            cols.start <= at && at <= cols.end,
            "split point outside the held block columns"
        );
        Self {
            n: self.n,
            first: at,
            diag: self.diag.split_off(at - cols.start),
            sub: self.sub.split_off(at - cols.start),
        }
    }

    /// Move the block columns of `tail`, which must start where the held
    /// range ends, onto the end of `self`: the inverse of
    /// [`Ldlt::split_off`]. No block is copied.
    pub fn append(&mut self, mut tail: Self) {
        assert!(
            tail.n == self.n && tail.first == self.cols().end,
            "appended block columns do not continue the held range"
        );
        self.diag.append(&mut tail.diag);
        self.sub.append(&mut tail.sub);
    }

    /// `(first column, width)` of every block column held.
    pub(crate) fn block_cols(
        &self,
    ) -> impl DoubleEndedIterator<Item = (usize, usize)> + ExactSizeIterator {
        block_cols(self.n).skip(self.first).take(self.diag.len())
    }

    /// The inverses `D_k⁻¹` of the diagonal blocks, packed, one per
    /// block column held.
    pub fn diag_inverses(&self) -> &[SymMat<T>] {
        &self.diag
    }

    /// The sub-diagonal panels of `L`, one per block column held (the
    /// matrix's last is empty).
    pub fn sub_panels(&self) -> &[Mat<T>] {
        &self.sub
    }

    /// In-place multi-RHS solve `B := A^{-1} B` (all block columns held).
    pub fn solve_mat(&self, b: &mut Mat<T>) {
        assert!(self.is_whole(), "solve_mat needs every block column");
        assert_eq!(b.nrows(), self.n);
        let (n, nrhs) = (self.n, b.ncols());
        if nrhs == 0 {
            return;
        }
        for ((k0, nb), (dinv, l21)) in block_cols(n).zip(self.diag.iter().zip(&self.sub)) {
            let k1 = k0 + nb;
            let bk = b.block(k0, 0, nb, nrhs);
            gemm_acc_block(
                b,
                (k1, 0, n - k1, nrhs),
                -T::ONE,
                l21,
                (0, 0, n - k1, nb),
                &bk,
                (0, 0, nb, nrhs),
            );
            // B_k := D_k⁻¹ B_k, as the panel product (B_kᵀ D_k⁻¹)ᵀ.
            let mut y = Mat::zeros(nrhs, nb);
            panel_mul_sym_acc(&mut y, T::ONE, &bk.transpose(), dinv);
            b.set_block(k0, 0, &y.transpose());
        }
        for ((k0, nb), l21) in block_cols(n).zip(&self.sub).rev() {
            let k1 = k0 + nb;
            if k1 == n {
                continue;
            }
            let below = b.block(k1, 0, n - k1, nrhs);
            let mut bk = b.block(k0, 0, nb, nrhs);
            transpose_matmul_acc(&mut bk, -T::ONE, l21, &below);
            b.set_block(k0, 0, &bk);
        }
    }

    /// Approximate heap footprint in bytes of the block columns held.
    pub fn heap_bytes(&self) -> usize {
        self.diag.iter().map(SymMat::heap_bytes).sum::<usize>()
            + self.sub.iter().map(Mat::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::gemm::transpose_matmul;

    /// A symmetric (plain transpose, also for `c64`) matrix with a
    /// dominant diagonal, entries from a fixed stream.
    fn symmetric<T: Scalar>(n: usize, seed: u64) -> Mat<T> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let mut a = Mat::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                let v = T::from_re_im(next(), next());
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
            a[(j, j)] += T::from_f64(n as f64);
        }
        a
    }

    /// [`Ldlt::factor`] with its trailing update as it was before the
    /// packed `L₂₁` was shared: two products per later block column.
    fn factor_per_block_column<T: Scalar>(a: SymPanels<T>) -> Ldlt<T> {
        let SymPanels {
            n,
            diag: mut dblocks,
            mut sub,
        } = a;
        let cols: Vec<(usize, usize)> = block_cols(n).collect();
        let mut diag = Vec::new();
        for (k, &(k0, nb)) in cols.iter().enumerate() {
            let dk = core::mem::replace(&mut dblocks[k], Mat::zeros(0, 0));
            let mut dinv = Lu::factor(dk).unwrap().into_inverse_t();
            dinv.mirror_upper();
            let k1 = k0 + nb;
            if k1 < n {
                let wt = core::mem::replace(&mut sub[k], Mat::zeros(0, 0)).transpose();
                let l21 = transpose_matmul(&wt, &dinv);
                for (j, &(j0, nbj)) in cols.iter().enumerate().skip(k + 1) {
                    let (off, j1) = (j0 - k1, j0 + nbj);
                    let (rhs, alpha) = ((0, off, nb, nbj), -T::ONE);
                    let d = (off, 0, nbj, nb);
                    gemm_acc_block(&mut dblocks[j], (0, 0, nbj, nbj), alpha, &l21, d, &wt, rhs);
                    let s = (off + nbj, 0, n - j1, nb);
                    gemm_acc_block(&mut sub[j], (0, 0, n - j1, nbj), alpha, &l21, s, &wt, rhs);
                }
                sub[k] = l21;
            }
            diag.push(SymMat::from_lower(&dinv));
        }
        Ldlt::from_parts(n, diag, sub).unwrap()
    }

    /// The shared packed `L₂₁` leaves every bit of the factors as the
    /// per-block-column products had them: at 75 the last block column
    /// is 11 wide and at 129 the last sub-panel has one row, so both
    /// sizes send some products down the jki route.
    fn check_bitwise<T: Scalar>(seed: u64) {
        for n in [1, 63, 64, 65, 75, 129, 199] {
            let a = symmetric::<T>(n, seed + n as u64);
            let got = Ldlt::factor(SymPanels::from_lower(&a)).unwrap();
            let want = factor_per_block_column(SymPanels::from_lower(&a));
            assert_eq!(got.diag_inverses(), want.diag_inverses(), "n = {n}");
            assert_eq!(got.sub_panels(), want.sub_panels(), "n = {n}");
        }
    }

    #[test]
    fn factor_is_bitwise_the_per_block_column_update() {
        check_bitwise::<f64>(1);
        check_bitwise::<c64>(2);
    }

    /// The growth check bounds the modulus of a complex `L₂₁` entry, not
    /// its parts: `600 + 800.0001i` breaks down with `|l|` reported,
    /// `600 + 799.9999i` does not.
    #[test]
    fn growth_bound_is_on_the_complex_modulus() {
        let n = NB + 1;
        for (im, breaks) in [(800.0001, true), (799.9999, false)] {
            let l = c64::new(600.0, im);
            let mut a = Mat::<c64>::identity(n);
            a[(NB, 0)] = l;
            a[(0, NB)] = l;
            match Ldlt::factor(SymPanels::from_lower(&a)) {
                Err(LdltBreakdown::Growth { step: 0, max_l }) => {
                    assert!(breaks && max_l > GROWTH_BOUND, "{max_l}");
                    assert!((max_l - l.abs()).abs() <= 1e-12 * max_l);
                }
                Ok(_) => assert!(!breaks),
                other => panic!("{other:?}"),
            }
        }
    }
}
