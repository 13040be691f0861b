//! RHS-major panel kernels: the level-3 core of the blocked solve sweep.
//!
//! A *panel* is a [`Mat`] holding right-hand sides in its rows: `h x w`,
//! column `k` being one point's values for all right-hand sides, so a
//! point's data is one contiguous run and a gather from the sweep's
//! `nrhs x n` working block is one copy per index. The solve sweep makes
//! `h` the number of right-hand sides rounded up by [`panel_rows`]; the
//! padding rows are zero and stay zero, because no kernel here ever
//! combines two rows of a panel. For the same reason any other height
//! works too: [`Lu::into_inverse_t`] solves an identity as a panel of its own
//! height, and the rows below the last whole tile go one at a time, each
//! with the bits it would have in a padded panel.
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
//!   taking a rank-`W` update (`tile_update`).
//!
//! There is no packing, no allocation and no size threshold, so the
//! sequence of fused multiply-adds that produces one entry depends on the
//! shapes of the operands alone: a right-hand side gets the same bits
//! whatever the batch it travels in and wherever it sits in it. Nor does
//! the strip width enter an entry's arithmetic, so both builds below give
//! the same bits. Entry `(i, j)` is, with `fma(a, b, c) = a * b + c`
//! rounded once and a complex number times a real one taken part by
//! part:
//!
//! * `panel_mul_acc`: `s = 0`, `s = fma(P[i, l], re M[l, j], s)` for
//!   `l = 0, 1, …`, the same chain `t` over `im M[l, j]`, then
//!   `C[i, j] += alpha * (s + i t)` (`s - i t` under `conj`);
//! * `panel_mul_t_acc`: `c = C[i, j]` and `p_l = alpha * P[i, l]`, then
//!   `c = fma(p_l, M[j, l], c)` for `l = 0, 1, …` — for complex scalars
//!   the depth in pairs (an odd last one alone), each pair adding
//!   `p_l * re M[j, l]` for both of its `l` before `(i p_l) * im M[j, l]`.
//!
//! The strips are sized by the register file. A narrower tile takes a
//! wider strip, so that a panel of one to four right-hand sides is not
//! left waiting on the latency of a few accumulators; real 16-row tiles
//! take the widest strips the vector registers hold (`WIDE`); complex
//! update strips are two columns on every build, because their pass
//! order is part of an entry's bits. Real 16-row tiles, and the rate of
//! one in-cache product at the solve sweep's median record shape (a
//! `16 x 349` panel against a `349 x 41` `EN`, `panel_mul*/f64_16x349x41`
//! in `crates/bench`; medians of three runs on a shared 2-core AVX-512
//! host):
//!
//! | build | dot strip | update strip | `panel * M` | `panel * M^T` |
//! |-------|-----------|--------------|-------------|---------------|
//! | wide (`srsf_wide_vectors` + AVX-512) | 12: 24 of 32 `zmm` | 8: 16 of 32 | 9.1 µs, 50 GFLOP/s (14.4 µs with 4) | 12.5 µs, 37 GFLOP/s (13.2 µs with 4) |
//! | narrow (`x86-64-v3`) | 4: 16 of 16 `ymm` | 4: 16 of 16 | 25 µs, 18 GFLOP/s | 18 µs, 25 GFLOP/s |
//!
//! The solve sweep itself runs nothing else: every small diagonal block
//! it meets — a record's `X_RR`, a block `D_k` of the packed top — is
//! held as its explicit inverse transpose and applied as a `panel * M`.
//! The right-sided triangular solves below serve the two factors that
//! are still held as LU: the general top ([`Lu::forward_panel`],
//! [`Lu::backward_panel`]) and the formation of those inverses
//! ([`Lu::into_inverse_t`]). They are right-looking sweeps of the update
//! form: `X (L U)^{-T}` finishes four panel columns against the small
//! triangle on the diagonal — the only scalar code — and subtracts their
//! rank-four update from the columns still to come.
//! [`Ldlt::solve_panel`] is two sweeps over the block columns: a block
//! column of the packed top is a record with `EN = L21`, and since a
//! sweep touches one block column at a time it runs over any contiguous
//! range of them ([`Ldlt::forward_cols`], [`Ldlt::backward_cols`]).

use crate::ldlt::Ldlt;
use crate::lu::Lu;
use crate::mat::Mat;
use crate::scalar::Scalar;

/// Adjacent columns of `M` a kernel reads together.
const STRIP: usize = 4;

/// Dot and update strip widths of a real 16-row tile: 24 and 16 of the
/// 32 512-bit registers for accumulators and panel columns where the
/// build has them (the condition `crate::gemm`'s tile table uses), the
/// narrow build's `STRIP` elsewhere.
#[cfg(all(srsf_wide_vectors, target_feature = "avx512f"))]
const WIDE: (usize, usize) = (12, 8);
#[cfg(not(all(srsf_wide_vectors, target_feature = "avx512f")))]
const WIDE: (usize, usize) = (STRIP, STRIP);

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
        // Strips of `$w` columns while they fit (module docs).
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
            if MR == 16 {
                strips!(WIDE.0);
            }
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
            if MR == 16 {
                strips!(WIDE.1);
            }
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
        let h = x.nrows();
        permute_cols(h, x.as_mut_slice(), &self.piv);
        solve_unit_lower_t(h, x.as_mut_slice(), &self.lu);
        solve_upper_t(h, x.as_mut_slice(), &self.lu);
    }

    /// The explicit `A^{-T}`: [`Lu::solve_panel`] on the identity, so
    /// row `i` is the solution of `A y = e_i`. A panel times it is
    /// `X A^{-T}`, the product the solve sweep applies a diagonal block
    /// by. The result takes over the factors' storage — the buffer of the
    /// matrix that was factored — so that a caller replacing a factored
    /// block by its inverse keeps the block's allocation and frees only
    /// the scratch.
    pub fn into_inverse_t(self) -> Mat<T> {
        let mut x = Mat::identity(self.dim());
        self.solve_panel(&mut x);
        let mut inv = self.lu;
        inv.as_mut_slice().copy_from_slice(x.as_slice());
        inv
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
    /// panel columns below it, `X_below -= X_k L21^T`, and is then
    /// replaced by `X_k D_k^{-T}`. The columns before the range must have
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
        let mut y = Vec::new();
        let cols = self.diag_inverses().iter().zip(self.sub_panels());
        for ((k0, nb), (dinv_t, l21)) in self.block_cols().zip(cols) {
            let (head, below) = x.split_at_mut((k0 + nb - c0) * h);
            let xk = &mut head[(k0 - c0) * h..];
            let shape = (l21.nrows(), nb);
            mul_t_acc(h, below, -T::ONE, xk, (l21.as_slice(), l21.nrows()), shape);
            y.clear();
            y.resize(h * nb, T::ZERO);
            mul_acc::<T, false>(h, &mut y, T::ONE, xk, dinv_t);
            xk.copy_from_slice(&y);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    /// Entries from a fixed stream, all distinct, so that a chain summed
    /// in another order shows in the bits.
    fn fill<T: Scalar>(m: usize, n: usize, seed: u64) -> Mat<T> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        Mat::from_fn(m, n, |_, _| T::from_re_im(next(), next()))
    }

    /// `c + fma(pv, s, c)` part by part: the one multiply-add.
    fn axpy<T: Scalar>(c: T, pv: T, s: f64) -> T {
        T::from_re_im(pv.re().mul_add(s, c.re()), pv.im().mul_add(s, c.im()))
    }

    /// `i v`, or `-i v` with `neg`.
    fn times_i<T: Scalar>(v: T, neg: bool) -> T {
        if neg {
            T::from_re_im(v.im(), -v.re())
        } else {
            T::from_re_im(-v.im(), v.re())
        }
    }

    /// Entry `(i, j)` of `C + alpha P M` (`conj`: `P conj(M)`) as the
    /// module docs state it: the chains `s` over `re M` and `t` over
    /// `im M` from zero, then `C + alpha (s ± i t)`.
    fn dot_entry<T: Scalar>(
        c: T,
        alpha: T,
        p: &Mat<T>,
        m: &Mat<T>,
        (i, j): (usize, usize),
        conj: bool,
    ) -> T {
        let (mut s, mut t) = (T::ZERO, T::ZERO);
        for l in 0..m.nrows() {
            s = axpy(s, p[(i, l)], m[(l, j)].re());
            t = axpy(t, p[(i, l)], m[(l, j)].im());
        }
        if T::IS_COMPLEX {
            s += times_i(t, conj);
        }
        c + alpha * s
    }

    /// Entry `(i, j)` of `C + alpha P M^T` as the module docs state it:
    /// one chain from `C` over `alpha P[i, l]`, for complex scalars in
    /// pairs of `l` with the real parts of `M` before the imaginary ones.
    fn update_entry<T: Scalar>(
        c: T,
        alpha: T,
        p: &Mat<T>,
        m: &Mat<T>,
        (i, j): (usize, usize),
    ) -> T {
        let k = p.ncols();
        let mut c = c;
        for l0 in (0..k).step_by(2) {
            let pair = l0..(l0 + 2).min(k);
            if !T::IS_COMPLEX {
                for l in pair {
                    c = axpy(c, alpha * p[(i, l)], m[(j, l)].re());
                }
                continue;
            }
            for l in pair.clone() {
                c = axpy(c, alpha * p[(i, l)], m[(j, l)].re());
            }
            for l in pair {
                c = axpy(c, times_i(alpha * p[(i, l)], false), m[(j, l)].im());
            }
        }
        c
    }

    fn assert_bits<T: Scalar>(got: &Mat<T>, want: &Mat<T>, what: &str) {
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            let bits = |v: &T| (v.re().to_bits(), v.im().to_bits());
            assert_eq!(bits(g), bits(w), "{what}");
        }
    }

    /// Every entry of both products is its documented chain, at panel
    /// heights that take every tile and the one-row tail, and at depths
    /// and widths that are no multiple of any strip (> 1) — so the strip
    /// widths, which differ between builds, never enter a bit.
    fn check_chains<T: Scalar>(alphas: [T; 2]) {
        let mut seed = 1;
        for h in [1, 3, 4, 8, 16, 17, 33] {
            for (k, n) in [(1, 1), (7, 13), (13, 7), (23, 41), (41, 23), (53, 3)] {
                for alpha in alphas {
                    seed += 4;
                    let p = fill::<T>(h, k, seed);
                    let c0 = fill::<T>(h, n, seed + 1);
                    let what = |form: &str| format!("{form}: h {h}, k {k}, n {n}, alpha {alpha:?}");
                    let m = fill::<T>(k, n, seed + 2);
                    for conj in [false, true] {
                        let mut got = c0.clone();
                        panel_mul_acc(&mut got, alpha, &p, &m, conj);
                        let conj = conj && T::IS_COMPLEX;
                        let want = Mat::from_fn(h, n, |i, j| {
                            dot_entry(c0[(i, j)], alpha, &p, &m, (i, j), conj)
                        });
                        assert_bits(&got, &want, &what(if conj { "P conj(M)" } else { "P M" }));
                    }
                    let m = fill::<T>(n, k, seed + 3);
                    let mut got = c0.clone();
                    panel_mul_t_acc(&mut got, alpha, &p, &m);
                    let want =
                        Mat::from_fn(h, n, |i, j| update_entry(c0[(i, j)], alpha, &p, &m, (i, j)));
                    assert_bits(&got, &want, &what("P M^T"));
                }
            }
        }
    }

    #[test]
    fn panel_products_are_the_documented_chains_f64() {
        check_chains::<f64>([-1.0, 0.75]);
    }

    #[test]
    fn panel_products_are_the_documented_chains_c64() {
        check_chains::<c64>([-c64::ONE, c64::new(0.5, -1.25)]);
    }
}
