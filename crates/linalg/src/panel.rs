//! RHS-major panel kernels: the level-3 core of the blocked solve sweep.
//!
//! A *panel* is a [`Mat`] holding right-hand sides in its rows: `h x w`,
//! column `k` being one point's values for all right-hand sides, so a
//! point's data is one contiguous run and a gather from the sweep's
//! `nrhs x n` working block is one copy per index. The solve sweep makes
//! `h` the number of right-hand sides rounded up by [`panel_rows`]; the
//! padding rows are zero and stay zero, because no kernel here ever
//! combines two rows of a panel. For the same reason any other height
//! works too: the factorization solves its `|N| x |R|` couplings as
//! panels as they are, and the rows below the last whole tile go one at
//! a time, each with the bits it would have in a padded panel.
//!
//! Every product of the sweep is then `panel * M` or `panel * M^T` with
//! the panel on the left, which puts the right-hand sides — not the
//! record matrix — in the register tile: 16 `f64` / 8 [`crate::c64`]
//! rows, the GEMM's own tile, then 8 and 4 (4 and 2) for what is left
//! below it, while a single right-hand side is a one-row panel with no
//! padding at all. `M` is read where it lies, unpacked, exactly once per
//! tile, and in both products as a strip of adjacent columns streamed
//! top to bottom — the access the hardware prefetcher follows when a
//! record arrives from memory, which in a solve sweep it always does:
//!
//! * `panel * M` walks a strip of `M` as the inner dimension and keeps
//!   the strip's output columns in registers (`tile_dot`);
//! * `panel * M^T` keeps the strip's *panel* columns in registers and
//!   walks the strip of `M` as the output dimension, each output column
//!   taking a rank-four update (`tile_update`).
//!
//! There is no packing, no allocation and no size threshold, so the
//! sequence of fused multiply-adds that produces one entry depends on the
//! shapes of the operands alone: a right-hand side gets the same bits
//! whatever the batch it travels in and wherever it sits in it.
//!
//! The triangular solves are right-looking sweeps of the second kernel:
//! `X (L U)^{-T}` finishes four panel columns against the small
//! triangle on the diagonal — the only scalar code — and subtracts their
//! rank-four update from the columns still to come.
//! [`Ldlt::solve_panel`] needs nothing else: a block column of the packed
//! top is a record with `EN = L21`, and since a sweep touches one block
//! column at a time it runs over any contiguous range of them
//! ([`Ldlt::forward_cols`], [`Ldlt::backward_cols`]).

use crate::ldlt::Ldlt;
use crate::lu::Lu;
use crate::mat::Mat;
use crate::scalar::Scalar;

/// Adjacent columns of `M` a kernel reads together.
const STRIP: usize = 4;

/// Height of the panels that carry `nrhs` right-hand sides: `nrhs`
/// rounded up to the smallest register tile of the scalar type (4 `f64`,
/// 2 `c64`) — except a single right-hand side, which travels alone: a
/// one-row panel is a plain vector, and the update form then vectorizes
/// along the columns of `M` as a matrix-vector product should.
pub fn panel_rows<T: Scalar>(nrhs: usize) -> usize {
    let q = if T::IS_COMPLEX { 2 } else { 4 };
    if nrhs == 1 {
        1
    } else {
        nrhs.div_ceil(q) * q
    }
}

/// Run `$body` once per register tile of an `$h`-row panel, with `$i0`
/// the tile's first row and `$mr` its height as a constant: tiles of 16,
/// then 8, then 4 rows for reals, 8 / 4 / 2 for complex scalars, and what
/// is left below the smallest tile one row at a time — the whole of a
/// one-row panel, and the tail of a set-up panel whose height is a
/// coupling's row count, not a padded batch.
macro_rules! for_each_tile {
    ($t:ty, $h:expr, |$i0:ident, $mr:ident| $body:expr) => {{
        let h: usize = $h;
        let big = if <$t>::IS_COMPLEX { 8 } else { 16 };
        let mut $i0 = 0;
        while $i0 < h {
            let left = h - $i0;
            if left < big / 4 {
                const $mr: usize = 1;
                $body;
                $i0 += 1;
                continue;
            }
            match (<$t>::IS_COMPLEX, left >= big, left >= big / 2) {
                (false, true, _) => {
                    const $mr: usize = 16;
                    $body;
                    $i0 += 16;
                }
                (false, false, true) | (true, true, _) => {
                    const $mr: usize = 8;
                    $body;
                    $i0 += 8;
                }
                (false, false, false) | (true, false, true) => {
                    const $mr: usize = 4;
                    $body;
                    $i0 += 4;
                }
                (true, false, false) => {
                    const $mr: usize = 2;
                    $body;
                    $i0 += 2;
                }
            }
        }
    }};
}

/// `acc += pv * s` for a *real* number `s` over one tile column of `MR`
/// rows — the one multiply-add every kernel here is made of. A complex
/// product is two of them, `p * s = p * re(s) + (i p) * im(s)`: a complex
/// vector times a real number is the same operation on every `f64` of
/// the interleaved `(re, im)` pairs, so the complex kernels vectorize
/// exactly as the real ones do, with no shuffle in the loop.
///
/// (Every tile in this file is indexed by loop counters with constant
/// bounds only: one indexed by a run-time value is kept in memory, not
/// in registers.)
#[inline(always)]
fn axpy_tile<T: Scalar, const MR: usize>(acc: &mut [T; MR], pv: &[T], s: f64) {
    for i in 0..MR {
        acc[i] = T::from_re_im(
            pv[i].re().mul_add(s, acc[i].re()),
            pv[i].im().mul_add(s, acc[i].im()),
        );
    }
}

/// `i * v` (`-i * v` with `neg`), entry-wise.
#[inline(always)]
fn times_i<T: Scalar, const MR: usize>(v: [T; MR], neg: bool) -> [T; MR] {
    v.map(|z| {
        if neg {
            T::from_re_im(z.im(), -z.re())
        } else {
            T::from_re_im(-z.im(), z.re())
        }
    })
}

/// Dot form, one tile of `panel * M`: `sum_l P[i, l] * M[l, j]` for the
/// `MR` panel rows starting at `p[0]` (leading dimension `h`) and the `W`
/// adjacent columns of `M` starting at `m[0]`, over `l < k` (`CONJ`:
/// `conj(M)`). Complex scalars take one pass over the strip for the real
/// parts of `M` and one for the imaginary parts.
#[inline(always)]
fn tile_dot<T: Scalar, const MR: usize, const W: usize, const CONJ: bool>(
    p: &[T],
    h: usize,
    m: &[T],
    k: usize,
) -> [[T; MR]; W] {
    let cols: [&[T]; W] = core::array::from_fn(|j| &m[j * k..(j + 1) * k]);
    let pass = |imag: bool| {
        let mut acc = [[T::ZERO; MR]; W];
        for (l, pv) in p.windows(MR).step_by(h).take(k).enumerate() {
            for j in 0..W {
                let s = cols[j][l];
                axpy_tile(&mut acc[j], pv, if imag { s.im() } else { s.re() });
            }
        }
        acc
    };
    let mut acc = pass(false);
    if T::IS_COMPLEX {
        let by_im = pass(true);
        for j in 0..W {
            for (a, b) in acc[j].iter_mut().zip(times_i(by_im[j], CONJ)) {
                *a += b;
            }
        }
    }
    acc
}

/// `c[i0.., j] += alpha * acc[j]` for the `W` panel columns at `c[0]`.
#[inline(always)]
fn add_tile<T: Scalar, const MR: usize, const W: usize>(
    (c, h, i0): (&mut [T], usize, usize),
    alpha: T,
    acc: [[T; MR]; W],
) {
    for j in 0..W {
        for (d, v) in c[j * h + i0..j * h + i0 + MR].iter_mut().zip(acc[j]) {
            *d += alpha * v;
        }
    }
}

/// Update form, one tile of `panel * M^T`:
/// `c[i, j] += alpha * sum_{l < W} P[i, l] * M[j, l]` for the `MR` panel
/// rows at `i0`, every output column `j < n`, and the `W` adjacent
/// columns of `M` (`n` rows, leading dimension `ldm`) starting at `m[0]`.
/// `p` starts at panel column `l = 0` of the strip, `c` is `h x n`.
#[inline(always)]
fn tile_update<T: Scalar, const MR: usize, const W: usize>(
    (c, p, h, i0): (&mut [T], &[T], usize, usize),
    alpha: T,
    (m, ldm): (&[T], usize),
    n: usize,
) {
    let pt: [[T; MR]; W] =
        core::array::from_fn(|l| core::array::from_fn(|i| alpha * p[l * h + i0 + i]));
    let ipt = pt.map(|v| times_i(v, false));
    let cols: [&[T]; W] = core::array::from_fn(|l| &m[l * ldm..l * ldm + n]);
    for (j, col) in c.chunks_exact_mut(h).take(n).enumerate() {
        let ct = &mut col[i0..i0 + MR];
        let mut acc: [T; MR] = core::array::from_fn(|i| ct[i]);
        for l in 0..W {
            axpy_tile(&mut acc, &pt[l], cols[l][j].re());
        }
        if T::IS_COMPLEX {
            for l in 0..W {
                axpy_tile(&mut acc, &ipt[l], cols[l][j].im());
            }
        }
        ct.copy_from_slice(&acc);
    }
}

/// `C += alpha * P * M` on `h`-row panel storage: `p` is `h x m.nrows()`,
/// `c` is `h x m.ncols()`.
fn mul_acc<T: Scalar, const CONJ: bool>(h: usize, c: &mut [T], alpha: T, p: &[T], m: &Mat<T>) {
    let (k, n) = (m.nrows(), m.ncols());
    assert_eq!(p.len(), h * k, "panel * M: inner dimension mismatch");
    assert_eq!(c.len(), h * n, "panel * M: output width mismatch");
    if h == 0 || k == 0 {
        return;
    }
    let md = m.as_slice();
    for_each_tile!(T, h, |i0, MR| {
        let mut j = 0;
        // Strips of `$w` columns while they fit. A shorter tile takes a
        // wider strip — sixteen vector accumulators whatever the tile —
        // so that a panel of one to four right-hand sides is not left
        // waiting on the latency of a single strip's four.
        macro_rules! strips {
            ($w:expr) => {
                while $w > 0 && n - j >= $w {
                    let acc = tile_dot::<T, MR, { $w }, CONJ>(&p[i0..], h, &md[j * k..], k);
                    add_tile((&mut c[j * h..], h, i0), alpha, acc);
                    j += $w;
                }
            };
        }
        if MR == 1 {
            strips!(2 * STRIP);
        } else if T::IS_COMPLEX {
            strips!(8 * STRIP / MR);
            strips!(4 * STRIP / MR);
        } else {
            strips!(16 * STRIP / MR);
            strips!(8 * STRIP / MR);
        }
        strips!(STRIP);
        strips!(STRIP / 2);
        strips!(1);
    });
}

/// `C += alpha * P * M[r0.., ..]^T` on `h`-row panel storage, with `M`
/// given as a column-major slice of leading dimension `ldm`: `p` is
/// `h x k`, `c` is `h x n`, the rows of `M` read are `r0 .. r0 + n` of
/// columns `c0 .. c0 + k` (the slice starts at `M[r0, c0]`).
fn mul_t_acc<T: Scalar>(
    h: usize,
    c: &mut [T],
    alpha: T,
    p: &[T],
    (m, ldm): (&[T], usize),
    (n, k): (usize, usize),
) {
    assert_eq!(p.len(), h * k, "panel * M^T: inner dimension mismatch");
    assert_eq!(c.len(), h * n, "panel * M^T: output width mismatch");
    if h == 0 || n == 0 {
        return;
    }
    for_each_tile!(T, h, |i0, MR| {
        let mut l = 0;
        macro_rules! strips {
            ($w:expr) => {
                while k - l >= $w {
                    let io = (&mut *c, &p[l * h..], h, i0);
                    tile_update::<T, MR, { $w }>(io, alpha, (&m[l * ldm..], ldm), n);
                    l += $w;
                }
            };
        }
        // (A complex strip holds `P` and `i P` in registers, so it is
        // half as wide.)
        if !T::IS_COMPLEX {
            strips!(STRIP);
        }
        strips!(STRIP / 2);
        strips!(1);
    });
}

/// `C += alpha * P * M`, or `alpha * P * conj(M)` with `conj` set: `P` is
/// `h x k`, `M` is `k x n`, `C` is `h x n`, `h` a panel height
/// ([`panel_rows`]).
pub fn panel_mul_acc<T: Scalar>(c: &mut Mat<T>, alpha: T, p: &Mat<T>, m: &Mat<T>, conj: bool) {
    assert_eq!(c.nrows(), p.nrows(), "panel * M: panel heights differ");
    let h = p.nrows();
    if conj && T::IS_COMPLEX {
        mul_acc::<T, true>(h, c.as_mut_slice(), alpha, p.as_slice(), m);
    } else {
        mul_acc::<T, false>(h, c.as_mut_slice(), alpha, p.as_slice(), m);
    }
}

/// `C += alpha * P * M^T` (plain transpose): `P` is `h x k`, `M` is
/// `n x k`, `C` is `h x n`.
pub fn panel_mul_t_acc<T: Scalar>(c: &mut Mat<T>, alpha: T, p: &Mat<T>, m: &Mat<T>) {
    assert_eq!(c.nrows(), p.nrows(), "panel * M^T: panel heights differ");
    let (h, n) = (p.nrows(), m.nrows());
    let shape = (n, m.ncols());
    mul_t_acc(
        h,
        c.as_mut_slice(),
        alpha,
        p.as_slice(),
        (m.as_slice(), n),
        shape,
    );
}

/// Solve the `w` panel columns at `x[0]` against the `w x w` triangle of
/// the packed `lu` on the diagonal at `j0`, in place: the unit-lower one
/// forward (`UPPER = false`), the upper one backward with a
/// multiplication by the reciprocal pivots.
#[inline(always)]
fn solve_block<T: Scalar, const MR: usize, const UPPER: bool>(
    (x, h, i0): (&mut [T], usize, usize),
    lu: &Mat<T>,
    j0: usize,
    w: usize,
) {
    let mut xs = [[T::ZERO; MR]; STRIP];
    for j in 0..STRIP {
        if j < w {
            xs[j].copy_from_slice(&x[j * h + i0..j * h + i0 + MR]);
        }
    }
    for step in 0..STRIP {
        // Forward substitution runs down the block, backward up it.
        let jj = if UPPER { STRIP - 1 - step } else { step };
        if jj >= w {
            continue;
        }
        for ll in 0..STRIP {
            let solved = if UPPER { ll > jj && ll < w } else { ll < jj };
            if solved {
                let s = -lu[(j0 + jj, j0 + ll)];
                for i in 0..MR {
                    xs[jj][i] = xs[ll][i].mul_add(s, xs[jj][i]);
                }
            }
        }
        if UPPER {
            let d = lu[(j0 + jj, j0 + jj)].recip();
            for v in &mut xs[jj] {
                *v *= d;
            }
        }
    }
    for j in 0..STRIP {
        if j < w {
            x[j * h + i0..j * h + i0 + MR].copy_from_slice(&xs[j]);
        }
    }
}

/// `X := X L^{-T}` for the unit-lower triangle of the packed `lu`, on an
/// `h`-row panel, right-looking: column block `J` is finished against
/// `L[J, J]`, then `X[:, >J] -= Y[:, J] L[>J, J]^T`.
fn solve_unit_lower_t<T: Scalar>(h: usize, x: &mut [T], lu: &Mat<T>) {
    let r = lu.nrows();
    for j0 in (0..r).step_by(STRIP) {
        let w = STRIP.min(r - j0);
        let j1 = j0 + w;
        let (head, todo) = x.split_at_mut(j1 * h);
        let block = &mut head[j0 * h..];
        for_each_tile!(T, h, |i0, MR| solve_block::<T, MR, false>(
            (&mut *block, h, i0),
            lu,
            j0,
            w
        ));
        let below = (&lu.as_slice()[j0 * r + j1..], r);
        mul_t_acc(h, todo, -T::ONE, block, below, (r - j1, w));
    }
}

/// `X := X U^{-T}` for the upper triangle of the packed `lu`: the same
/// sweep from the last column block to the first, finishing `J` against
/// `U[J, J]`, then `X[:, <J] -= Y[:, J] U[<J, J]^T`.
fn solve_upper_t<T: Scalar>(h: usize, x: &mut [T], lu: &Mat<T>) {
    let r = lu.nrows();
    for j0 in (0..r).step_by(STRIP).rev() {
        let w = STRIP.min(r - j0);
        let (todo, rest) = x.split_at_mut(j0 * h);
        let block = &mut rest[..w * h];
        for_each_tile!(T, h, |i0, MR| solve_block::<T, MR, true>(
            (&mut *block, h, i0),
            lu,
            j0,
            w
        ));
        let above = (&lu.as_slice()[j0 * r..], r);
        mul_t_acc(h, todo, -T::ONE, block, above, (j0, w));
    }
}

/// Swap panel columns `k` and `piv[k]` for every `k` in order — the
/// row permutation `P` of `P A = L U` applied from the right as `X P^T`.
fn permute_cols<T: Scalar>(h: usize, x: &mut [T], piv: &[usize]) {
    for (k, &r) in piv.iter().enumerate() {
        if k != r {
            debug_assert!(k < r, "LU pivots point at or below the diagonal");
            let (lo, hi) = x.split_at_mut(r * h);
            lo[k * h..(k + 1) * h].swap_with_slice(&mut hi[..h]);
        }
    }
}

impl<T: Scalar> Lu<T> {
    /// `X := X P^T L^{-T}` on a panel (`h x dim`): the RHS-major
    /// [`Lu::forward_mat`], `(L^{-1} P B)^T`.
    pub fn forward_panel(&self, x: &mut Mat<T>) {
        assert_eq!(x.ncols(), self.dim(), "panel width != LU dimension");
        let h = x.nrows();
        permute_cols(h, x.as_mut_slice(), &self.piv);
        solve_unit_lower_t(h, x.as_mut_slice(), &self.lu);
    }

    /// `X := X U^{-T}` on a panel: the RHS-major [`Lu::backward_mat`].
    pub fn backward_panel(&self, x: &mut Mat<T>) {
        assert_eq!(x.ncols(), self.dim(), "panel width != LU dimension");
        solve_upper_t(x.nrows(), x.as_mut_slice(), &self.lu);
    }

    /// `X := X A^{-T}` on a panel: the RHS-major [`Lu::solve_mat`],
    /// `(A^{-1} B)^T` with one right-hand side per panel row.
    pub fn solve_panel(&self, x: &mut Mat<T>) {
        assert_eq!(x.ncols(), self.dim(), "panel width != LU dimension");
        self.solve_panel_slice(x.nrows(), x.as_mut_slice());
    }

    fn solve_panel_slice(&self, h: usize, x: &mut [T]) {
        permute_cols(h, x, &self.piv);
        solve_unit_lower_t(h, x, &self.lu);
        solve_upper_t(h, x, &self.lu);
    }
}

impl<T: Scalar> Ldlt<T> {
    /// `X := X A^{-T} = X A^{-1}` on a panel (`h x dim`): the RHS-major
    /// [`Ldlt::solve_mat`], the two sweeps below over every block column.
    pub fn solve_panel(&self, x: &mut Mat<T>) {
        assert!(self.is_whole(), "solve_panel needs every block column");
        self.forward_cols(x);
        self.backward_cols(x);
    }

    /// The forward sweep of the block columns held, first to last, on the
    /// panel columns from the first one held to the end
    /// (`h x (dim - col_span().start)`): block column `k` updates the
    /// panel columns below it, `X_below -= X_k L21^T`, and is solved
    /// against its diagonal block. The columns before the range must have
    /// been swept already; on return those of the range are finished for
    /// this pass and the rest is what the next range starts from.
    pub fn forward_cols(&self, x: &mut Mat<T>) {
        let (c0, h) = (self.col_span().start, x.nrows());
        assert_eq!(
            x.ncols(),
            self.dim() - c0,
            "panel width != trailing dimension"
        );
        let x = x.as_mut_slice();
        let cols = self.diag_blocks().iter().zip(self.sub_panels());
        for ((k0, nb), (lu, l21)) in self.block_cols().zip(cols) {
            let (head, below) = x.split_at_mut((k0 + nb - c0) * h);
            let xk = &mut head[(k0 - c0) * h..];
            let shape = (l21.nrows(), nb);
            mul_t_acc(h, below, -T::ONE, xk, (l21.as_slice(), l21.nrows()), shape);
            lu.solve_panel_slice(h, xk);
        }
    }

    /// The backward sweep of the block columns held, last to first, on
    /// the same panel columns as [`Ldlt::forward_cols`]:
    /// `X_k -= X_below L21`, with everything below the range final.
    pub fn backward_cols(&self, x: &mut Mat<T>) {
        let (c0, h) = (self.col_span().start, x.nrows());
        assert_eq!(
            x.ncols(),
            self.dim() - c0,
            "panel width != trailing dimension"
        );
        let x = x.as_mut_slice();
        for ((k0, nb), l21) in self.block_cols().zip(self.sub_panels()).rev() {
            let (head, below) = x.split_at_mut((k0 + nb - c0) * h);
            mul_acc::<T, false>(h, &mut head[(k0 - c0) * h..], -T::ONE, below, l21);
        }
    }
}
