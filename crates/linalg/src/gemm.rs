//! Matrix-matrix products (the level-3 core of the solver).
//!
//! Two products dominate factorization wall-clock: the Schur-complement
//! update `A_NN -= E * F` during elimination and the trailing-matrix
//! updates inside the blocked QR / CPQR / LU routines. [`matmul_acc`]
//! therefore runs a cache-blocked GEMM: operands are packed into
//! contiguous micro-panels (`MC x KC` of `A`, `KC x NC` of `B`) and
//! combined by a register-tiled fused-multiply-add micro-kernel (16x4 for
//! `f64`, 8x4 for [`crate::c64`]), with an opt-in `std::thread::scope`
//! parallel path over
//! output column panels for large products (see [`set_gemm_threads`]).
//! Small products fall through to a register-blocked jki kernel, which is
//! also exposed as [`matmul_acc_naive`] — the reference oracle the blocked
//! path is tested against.

use crate::mat::Mat;
use crate::scalar::Scalar;
use core::cell::Cell;

// ---------------------------------------------------------------------------
// Threading knob
// ---------------------------------------------------------------------------

thread_local! {
    static GEMM_THREADS: Cell<usize> = const { Cell::new(1) };
}

/// The GEMM worker-thread budget of the *current* thread (default 1, i.e.
/// serial). Thread-local on purpose: the colored and distributed drivers
/// run many box eliminations on their own worker threads, where nested
/// GEMM parallelism would only oversubscribe — their workers keep the
/// serial default while the sequential driver can opt in.
pub fn gemm_threads() -> usize {
    GEMM_THREADS.with(Cell::get)
}

/// Set the GEMM thread budget for the current thread and return the
/// previous value. `0` means "auto" (`std::thread::available_parallelism`).
/// Products below a size threshold stay serial regardless.
pub fn set_gemm_threads(n: usize) -> usize {
    let n = if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    };
    GEMM_THREADS.with(|c| c.replace(n))
}

// ---------------------------------------------------------------------------
// Blocking parameters
// ---------------------------------------------------------------------------

/// Rows of a packed `A` panel (sized so the panel fits in L2 for `f64`).
const MC: usize = 128;
/// Shared inner dimension of packed panels.
const KC: usize = 128;
/// Columns of a packed `B` panel.
const NC: usize = 512;

/// Below this many multiply-adds the packing overhead is not worth it and
/// the jki kernel wins.
const BLOCK_MIN_FLOPS: usize = 96 * 96 * 24;
/// Crossover of the packed `A^H B` product. Far below [`BLOCK_MIN_FLOPS`]
/// because its fallback is the dot-product form — sequential reductions
/// the compiler cannot vectorize (3.5 GFLOP/s against 12+ packed at
/// `42 x 16`, depth 25..300, f64; measured down to 16^3) — where the
/// plain product falls back to the vectorized jki kernel.
const ADJ_PACK_MIN_FLOPS: usize = 16 * 16 * 16;
/// Minimum multiply-adds before the scoped-thread path engages.
const PAR_MIN_FLOPS: usize = 160 * 160 * 160;
/// Minimum output columns handed to one worker thread.
const PAR_MIN_COLS: usize = 32;

// ---------------------------------------------------------------------------
// Column-major views (support sub-block products without copies)
// ---------------------------------------------------------------------------

/// Read-only view of a column-major sub-block.
#[derive(Clone, Copy)]
struct View<'a, T> {
    data: &'a [T],
    ld: usize,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
}

impl<'a, T: Scalar> View<'a, T> {
    fn of(m: &'a Mat<T>) -> Self {
        Self {
            data: m.as_slice(),
            ld: m.nrows().max(1),
            r0: 0,
            c0: 0,
            rows: m.nrows(),
            cols: m.ncols(),
        }
    }

    fn sub(m: &'a Mat<T>, (r0, c0, rows, cols): BlockSpec) -> Self {
        assert!(r0 + rows <= m.nrows() && c0 + cols <= m.ncols());
        Self {
            data: m.as_slice(),
            ld: m.nrows().max(1),
            r0,
            c0,
            rows,
            cols,
        }
    }

    #[inline]
    fn col(&self, j: usize) -> &'a [T] {
        let s = (self.c0 + j) * self.ld + self.r0;
        &self.data[s..s + self.rows]
    }

    /// Narrow to columns `j0 .. j0 + cols`.
    fn subcols(mut self, j0: usize, cols: usize) -> Self {
        debug_assert!(j0 + cols <= self.cols);
        self.c0 += j0;
        self.cols = cols;
        self
    }
}

/// Mutable view of a column-major sub-block. `base` is the element offset
/// of `data[0]` within the original full buffer, so views survive being
/// split at column boundaries for the threaded path.
struct ViewMut<'a, T> {
    data: &'a mut [T],
    ld: usize,
    base: usize,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
}

impl<'a, T: Scalar> ViewMut<'a, T> {
    fn sub(m: &'a mut Mat<T>, (r0, c0, rows, cols): BlockSpec) -> Self {
        assert!(r0 + rows <= m.nrows() && c0 + cols <= m.ncols());
        let ld = m.nrows().max(1);
        Self {
            data: m.as_mut_slice(),
            ld,
            base: 0,
            r0,
            c0,
            rows,
            cols,
        }
    }

    #[inline]
    fn col_mut(&mut self, j: usize) -> &mut [T] {
        let s = (self.c0 + j) * self.ld + self.r0 - self.base;
        &mut self.data[s..s + self.rows]
    }

    /// Split at column `j` into disjoint views over `0..j` and `j..cols`.
    fn split_cols(self, j: usize) -> (ViewMut<'a, T>, ViewMut<'a, T>) {
        debug_assert!(j <= self.cols);
        let cut = (self.c0 + j) * self.ld - self.base;
        let cut = cut.min(self.data.len());
        let (head, tail) = self.data.split_at_mut(cut);
        (
            ViewMut {
                data: head,
                ld: self.ld,
                base: self.base,
                r0: self.r0,
                c0: self.c0,
                rows: self.rows,
                cols: j,
            },
            ViewMut {
                data: tail,
                ld: self.ld,
                base: self.base + cut,
                r0: self.r0,
                c0: self.c0 + j,
                rows: self.rows,
                cols: self.cols - j,
            },
        )
    }
}

/// Sub-block coordinates `(row offset, col offset, rows, cols)`.
pub type BlockSpec = (usize, usize, usize, usize);

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// `C = A * B`.
pub fn matmul<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let mut c = Mat::zeros(a.nrows(), b.ncols());
    matmul_acc(&mut c, T::ONE, a, b);
    c
}

/// `C += alpha * A * B`, cache-blocked above a size threshold.
pub fn matmul_acc<T: Scalar>(c: &mut Mat<T>, alpha: T, a: &Mat<T>, b: &Mat<T>) {
    assert_eq!(a.ncols(), b.nrows(), "gemm: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm: output rows mismatch");
    assert_eq!(c.ncols(), b.ncols(), "gemm: output cols mismatch");
    let (m, n) = (c.nrows(), c.ncols());
    let cblk = (0, 0, m, n);
    gemm_dispatch(ViewMut::sub(c, cblk), alpha, View::of(a), View::of(b));
}

/// `C -= A * B`, the Schur-update form.
pub fn matmul_sub<T: Scalar>(c: &mut Mat<T>, a: &Mat<T>, b: &Mat<T>) {
    matmul_acc(c, -T::ONE, a, b);
}

/// `C[cblk] += alpha * A[ablk] * B[bblk]` on sub-blocks, without copying
/// the operands out — the building block of the panel-blocked LU, the
/// blocked triangular solves, and the block-triangular Schur product of a
/// symmetric elimination.
pub fn gemm_acc_block<T: Scalar>(
    c: &mut Mat<T>,
    cblk: BlockSpec,
    alpha: T,
    a: &Mat<T>,
    ablk: BlockSpec,
    b: &Mat<T>,
    bblk: BlockSpec,
) {
    assert_eq!(ablk.3, bblk.2, "gemm block: inner dimension mismatch");
    assert_eq!(cblk.2, ablk.2, "gemm block: output rows mismatch");
    assert_eq!(cblk.3, bblk.3, "gemm block: output cols mismatch");
    gemm_dispatch(
        ViewMut::sub(c, cblk),
        alpha,
        View::sub(a, ablk),
        View::sub(b, bblk),
    );
}

/// `C += alpha * A * B`, reference jki kernel: for each output column `j`,
/// accumulate rank-1 updates `alpha * b[l,j] * A[:,l]`; both the read of
/// `A[:,l]` and the update of `C[:,j]` are contiguous. Serves small
/// products and is the test oracle for the blocked path.
#[doc(hidden)]
pub fn matmul_acc_naive<T: Scalar>(c: &mut Mat<T>, alpha: T, a: &Mat<T>, b: &Mat<T>) {
    assert_eq!(a.ncols(), b.nrows(), "gemm: inner dimension mismatch");
    assert_eq!(c.nrows(), a.nrows(), "gemm: output rows mismatch");
    assert_eq!(c.ncols(), b.ncols(), "gemm: output cols mismatch");
    let (m, n) = (c.nrows(), c.ncols());
    gemm_naive(
        ViewMut::sub(c, (0, 0, m, n)),
        alpha,
        View::of(a),
        View::of(b),
    );
}

/// `C = A^H * B` (adjoint on the left).
pub fn adjoint_matmul<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let mut c = Mat::zeros(a.ncols(), b.ncols());
    adjoint_matmul_acc(&mut c, T::ONE, a, b);
    c
}

/// `C += alpha * A^H * B`. The blocked GEMM packs the `A^H` micro-panels
/// straight from `A`'s columns — no explicit adjoint is formed, so the
/// solve sweep's per-record `T^H B_S` and `EN^T B_N` products allocate
/// nothing beyond their result. Tiny products and those with fewer than
/// one micro-tile of output columns use the dot-product form directly.
pub fn adjoint_matmul_acc<T: Scalar>(c: &mut Mat<T>, alpha: T, a: &Mat<T>, b: &Mat<T>) {
    flipped_matmul_acc(c, alpha, a, b, LeftOp::Adjoint);
}

/// `C -= A^H * B`.
pub fn adjoint_matmul_sub<T: Scalar>(c: &mut Mat<T>, a: &Mat<T>, b: &Mat<T>) {
    adjoint_matmul_acc(c, -T::ONE, a, b);
}

/// `C = A^T * B` (plain transpose on the left, no conjugation).
pub fn transpose_matmul<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let mut c = Mat::zeros(a.ncols(), b.ncols());
    transpose_matmul_acc(&mut c, T::ONE, a, b);
    c
}

/// `C += alpha * A^T * B`: [`adjoint_matmul_acc`] without the conjugate —
/// the congruence a complex-*symmetric* operator needs (`A = A^T`, not
/// `A^H`). Same packing, same thresholds; for real scalars the two
/// flavours produce the same bits.
pub fn transpose_matmul_acc<T: Scalar>(c: &mut Mat<T>, alpha: T, a: &Mat<T>, b: &Mat<T>) {
    flipped_matmul_acc(c, alpha, a, b, LeftOp::Transpose);
}

/// `C -= A^T * B`.
pub fn transpose_matmul_sub<T: Scalar>(c: &mut Mat<T>, a: &Mat<T>, b: &Mat<T>) {
    transpose_matmul_acc(c, -T::ONE, a, b);
}

/// `C += alpha * op(A) * B` with `op` the adjoint or the plain transpose
/// of the stored `A`.
fn flipped_matmul_acc<T: Scalar>(c: &mut Mat<T>, alpha: T, a: &Mat<T>, b: &Mat<T>, op: LeftOp) {
    assert_eq!(a.nrows(), b.nrows(), "op(A) B: row mismatch");
    assert_eq!(c.nrows(), a.ncols(), "op(A) B: output rows mismatch");
    assert_eq!(c.ncols(), b.ncols(), "op(A) B: output cols mismatch");
    let (m, n, k) = (a.ncols(), b.ncols(), a.nrows());
    if m * n * k >= ADJ_PACK_MIN_FLOPS && n >= 4 {
        let cblk = (0, 0, m, n);
        gemm_large(ViewMut::sub(c, cblk), alpha, View::of(a), View::of(b), op);
    } else {
        flipped_matmul_acc_dot(c, alpha, a, b, op == LeftOp::Adjoint);
    }
}

/// Reference dot-product form of `C += alpha * A^H B`: both operands
/// stream down columns.
#[doc(hidden)]
pub fn adjoint_matmul_acc_naive<T: Scalar>(c: &mut Mat<T>, alpha: T, a: &Mat<T>, b: &Mat<T>) {
    assert_eq!(a.nrows(), b.nrows(), "A^H B: row mismatch");
    flipped_matmul_acc_dot(c, alpha, a, b, true);
}

fn flipped_matmul_acc_dot<T: Scalar>(c: &mut Mat<T>, alpha: T, a: &Mat<T>, b: &Mat<T>, conj: bool) {
    let k = a.nrows();
    for j in 0..b.ncols() {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        for (i, cij) in ccol.iter_mut().enumerate() {
            let acol = a.col(i);
            let mut acc = T::ZERO;
            for l in 0..k {
                let av = if conj { acol[l].conj() } else { acol[l] };
                acc += av * bcol[l];
            }
            *cij += alpha * acc;
        }
    }
}

/// `C = A * B^H` (adjoint on the right). Large products go through a tiled
/// explicit adjoint of `B` plus the blocked GEMM.
pub fn matmul_adjoint<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    assert_eq!(a.ncols(), b.ncols(), "A B^H: inner mismatch");
    let m = a.nrows();
    let n = b.nrows();
    let k = a.ncols();
    if m * n * k >= BLOCK_MIN_FLOPS {
        let bh = b.adjoint();
        return matmul(a, &bh);
    }
    matmul_adjoint_naive(a, b)
}

/// Reference rank-1-update form of `A * B^H`.
#[doc(hidden)]
pub fn matmul_adjoint_naive<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    assert_eq!(a.ncols(), b.ncols(), "A B^H: inner mismatch");
    let m = a.nrows();
    let n = b.nrows();
    let k = a.ncols();
    let mut c = Mat::zeros(m, n);
    for l in 0..k {
        let acol = a.col(l);
        let bcol = b.col(l);
        for j in 0..n {
            let s = bcol[j].conj();
            if s == T::ZERO {
                continue;
            }
            let ccol = c.col_mut(j);
            for i in 0..m {
                ccol[i] += acol[i] * s;
            }
        }
    }
    c
}

// ---------------------------------------------------------------------------
// Dispatch + threaded path
// ---------------------------------------------------------------------------

fn gemm_dispatch<T: Scalar>(c: ViewMut<'_, T>, alpha: T, a: View<'_, T>, b: View<'_, T>) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k < BLOCK_MIN_FLOPS || m < 16 || n < 4 || k < 16 {
        gemm_naive(c, alpha, a, b);
    } else {
        gemm_large(c, alpha, a, b, LeftOp::Plain);
    }
}

/// How the blocked product reads its left operand: as stored, or as the
/// transpose / adjoint of the view `a` (which is then `k x m`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum LeftOp {
    Plain,
    Transpose,
    Adjoint,
}

/// The blocked product, threaded over output column panels when the
/// current thread's budget allows.
fn gemm_large<T: Scalar>(c: ViewMut<'_, T>, alpha: T, a: View<'_, T>, b: View<'_, T>, op: LeftOp) {
    let (m, n, k) = (c.rows, c.cols, b.rows);
    let nt = if m * n * k >= PAR_MIN_FLOPS {
        gemm_threads().min(n / PAR_MIN_COLS).max(1)
    } else {
        1
    };
    if nt <= 1 {
        gemm_blocked(c, alpha, a, b, op);
        return;
    }
    let chunk = n.div_ceil(nt);
    std::thread::scope(|s| {
        let mut rest = c;
        let mut j = 0;
        while j < n {
            let take = chunk.min(n - j);
            let (head, tail) = rest.split_cols(take);
            rest = tail;
            let bsub = b.subcols(j, take);
            s.spawn(move || gemm_blocked(head, alpha, a, bsub, op));
            j += take;
        }
    });
}

/// jki-order register-blocked kernel for small products and the oracle.
fn gemm_naive<T: Scalar>(mut c: ViewMut<'_, T>, alpha: T, a: View<'_, T>, b: View<'_, T>) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    if m == 0 || k == 0 {
        return;
    }
    for j in 0..n {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        // Unroll over pairs of inner indices to expose ILP.
        let mut l = 0;
        while l + 1 < k {
            let s0 = alpha * bcol[l];
            let s1 = alpha * bcol[l + 1];
            let a0 = a.col(l);
            let a1 = a.col(l + 1);
            for i in 0..m {
                ccol[i] = a0[i].mul_add(s0, a1[i].mul_add(s1, ccol[i]));
            }
            l += 2;
        }
        if l < k {
            let s0 = alpha * bcol[l];
            let a0 = a.col(l);
            for i in 0..m {
                ccol[i] = a0[i].mul_add(s0, ccol[i]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked path: packing + register-tiled micro-kernel
// ---------------------------------------------------------------------------

fn gemm_blocked<T: Scalar>(
    c: ViewMut<'_, T>,
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    op: LeftOp,
) {
    // Micro-tile sizes per scalar type: 16x4 keeps the 64 f64 accumulators
    // in sixteen 256-bit registers (tuned empirically against 8x4, 8x8,
    // 24x4 and 16x8). A complex multiply-add is two dependent real FMAs
    // per component, and 8x4 gives c64 the same 64 real accumulators to
    // hide that latency behind: 3.3 G complex multiply-adds per second
    // against 2.7 for 4x4 (800^3 and the 340 x 44 x 340 Schur shape on an
    // AVX-512 host; 6x4 .. 16x4, 4x8, 8x6 and 8x8 measured too). The tile
    // shape does not enter any entry's arithmetic, so results are the
    // same bits for every choice.
    if T::IS_COMPLEX {
        gemm_blocked_mr_nr::<T, 8, 4>(c, alpha, a, b, op);
    } else {
        gemm_blocked_mr_nr::<T, 16, 4>(c, alpha, a, b, op);
    }
}

fn gemm_blocked_mr_nr<T: Scalar, const MR: usize, const NR: usize>(
    mut c: ViewMut<'_, T>,
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    op: LeftOp,
) {
    let (m, n, k) = (c.rows, c.cols, b.rows);
    let mut apack: Vec<T> = Vec::new();
    let mut bpack: Vec<T> = Vec::new();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b::<T, NR>(b, pc, jc, kc, nc, &mut bpack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                match op {
                    LeftOp::Plain => pack_a::<T, MR>(a, ic, pc, mc, kc, &mut apack),
                    _ => pack_a_adj::<T, MR>(a, ic, pc, mc, kc, op == LeftOp::Adjoint, &mut apack),
                }
                let np = nc.div_ceil(NR);
                let mp = mc.div_ceil(MR);
                for q in 0..np {
                    let j0 = q * NR;
                    let jcols = NR.min(nc - j0);
                    let bpanel = &bpack[q * kc * NR..(q + 1) * kc * NR];
                    for p in 0..mp {
                        let i0 = p * MR;
                        let irows = MR.min(mc - i0);
                        let apanel = &apack[p * kc * MR..(p + 1) * kc * MR];
                        let acc = micro_kernel::<T, MR, NR>(kc, apanel, bpanel);
                        for j in 0..jcols {
                            let col = c.col_mut(jc + j0 + j);
                            let dst = &mut col[ic + i0..ic + i0 + irows];
                            for (d, av) in dst.iter_mut().zip(acc[j].iter()) {
                                *d += alpha * *av;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `MR x NR` register-tiled inner product over a depth-`kc` packed pair.
#[inline(always)]
fn micro_kernel<T: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    apanel: &[T],
    bpanel: &[T],
) -> [[T; MR]; NR] {
    let mut acc = [[T::ZERO; MR]; NR];
    for (av, bv) in apanel
        .chunks_exact(MR)
        .zip(bpanel.chunks_exact(NR))
        .take(kc)
    {
        for j in 0..NR {
            let s = bv[j];
            for i in 0..MR {
                acc[j][i] = av[i].mul_add(s, acc[j][i]);
            }
        }
    }
    acc
}

/// Pack `A[ic.., pc..]` (`mc x kc`) into row micro-panels of `MR`,
/// zero-padding the ragged bottom panel.
fn pack_a<T: Scalar, const MR: usize>(
    a: View<'_, T>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    buf: &mut Vec<T>,
) {
    let panels = mc.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kc * MR, T::ZERO);
    for p in 0..panels {
        let i0 = p * MR;
        let rows = MR.min(mc - i0);
        let dst = &mut buf[p * kc * MR..(p + 1) * kc * MR];
        for l in 0..kc {
            let src = &a.col(pc + l)[ic + i0..ic + i0 + rows];
            dst[l * MR..l * MR + rows].copy_from_slice(src);
        }
    }
}

/// Pack `A^H[ic.., pc..]` (`conj`) or `A^T[ic.., pc..]` (`mc x kc`) into
/// the same row micro-panels as [`pack_a`], reading the stored `A`: row
/// `i` of the flipped operand is column `i` of `A`, so each source run is
/// contiguous.
fn pack_a_adj<T: Scalar, const MR: usize>(
    a: View<'_, T>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    conj: bool,
    buf: &mut Vec<T>,
) {
    let panels = mc.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kc * MR, T::ZERO);
    for p in 0..panels {
        let i0 = p * MR;
        let rows = MR.min(mc - i0);
        let dst = &mut buf[p * kc * MR..(p + 1) * kc * MR];
        for i in 0..rows {
            let src = &a.col(ic + i0 + i)[pc..pc + kc];
            for (l, &v) in src.iter().enumerate() {
                dst[l * MR + i] = if conj { v.conj() } else { v };
            }
        }
    }
}

/// Pack `B[pc.., jc..]` (`kc x nc`) into column micro-panels of `NR`,
/// zero-padding the ragged right panel.
fn pack_b<T: Scalar, const NR: usize>(
    b: View<'_, T>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    buf: &mut Vec<T>,
) {
    let panels = nc.div_ceil(NR);
    buf.clear();
    buf.resize(panels * kc * NR, T::ZERO);
    for q in 0..panels {
        let j0 = q * NR;
        let cols = NR.min(nc - j0);
        let dst = &mut buf[q * kc * NR..(q + 1) * kc * NR];
        for j in 0..cols {
            let src = &b.col(jc + j0 + j)[pc..pc + kc];
            for (l, &v) in src.iter().enumerate() {
                dst[l * NR + j] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::norms::max_abs_diff;

    fn naive<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
        Mat::from_fn(a.nrows(), b.ncols(), |i, j| {
            (0..a.ncols()).map(|l| a[(i, l)] * b[(l, j)]).sum()
        })
    }

    #[test]
    fn matmul_matches_naive_real() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 2), (5, 5, 5), (7, 3, 6), (2, 8, 1)] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
            let b = Mat::from_fn(k, n, |i, j| ((i * 5 + j * 2) % 13) as f64 - 6.0);
            let c = matmul(&a, &b);
            assert!(max_abs_diff(&c, &naive(&a, &b)) < 1e-12);
        }
    }

    #[test]
    fn matmul_matches_naive_complex() {
        let a = Mat::from_fn(4, 3, |i, j| c64::new(i as f64, j as f64 - 1.0));
        let b = Mat::from_fn(3, 5, |i, j| c64::new(j as f64, -(i as f64)));
        let c = matmul(&a, &b);
        assert!(max_abs_diff(&c, &naive(&a, &b)) < 1e-12);
    }

    #[test]
    fn blocked_path_matches_naive() {
        // Big enough to cross BLOCK_MIN_FLOPS and exercise ragged edges.
        for (m, k, n) in [(97, 103, 67), (130, 260, 41), (256, 64, 64)] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 23) as f64 * 0.25 - 2.0);
            let b = Mat::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.5 - 4.0);
            let mut c = Mat::from_fn(m, n, |i, j| (i + j) as f64 * 0.01);
            let mut c_ref = c.clone();
            matmul_acc(&mut c, 1.5, &a, &b);
            matmul_acc_naive(&mut c_ref, 1.5, &a, &b);
            let scale = crate::norms::fro_norm(&c_ref).max(1.0);
            assert!(max_abs_diff(&c, &c_ref) < 1e-12 * scale);
        }
    }

    #[test]
    fn threaded_path_matches_serial() {
        let m = 192;
        let k = 192;
        let n = 192;
        let a = Mat::from_fn(m, k, |i, j| ((i * 13 + j) % 17) as f64 - 8.0);
        let b = Mat::from_fn(k, n, |i, j| ((i + 3 * j) % 29) as f64 * 0.1);
        let serial = matmul(&a, &b);
        let prev = set_gemm_threads(3);
        let threaded = matmul(&a, &b);
        set_gemm_threads(prev);
        // Thread split is by output columns only, so the arithmetic per
        // column is identical: results must match bit-for-bit.
        assert_eq!(max_abs_diff(&serial, &threaded), 0.0);
    }

    #[test]
    fn thread_knob_is_thread_local_and_restores() {
        assert_eq!(gemm_threads(), 1);
        let prev = set_gemm_threads(4);
        assert_eq!(prev, 1);
        assert_eq!(gemm_threads(), 4);
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(gemm_threads(), 1, "knob must not leak across threads"));
        });
        set_gemm_threads(prev);
        assert_eq!(gemm_threads(), 1);
        // 0 resolves to the available parallelism (>= 1).
        let before = set_gemm_threads(0);
        assert!(gemm_threads() >= 1);
        set_gemm_threads(before);
    }

    #[test]
    fn acc_and_sub_forms() {
        let a = Mat::from_fn(3, 3, |i, j| (i + 2 * j) as f64);
        let b = Mat::from_fn(3, 3, |i, j| (2 * i + j) as f64);
        let mut c = Mat::identity(3);
        matmul_acc(&mut c, 2.0, &a, &b);
        let mut expect = naive(&a, &b);
        expect.scale_assign(2.0);
        expect.axpy(1.0, &Mat::identity(3));
        assert!(max_abs_diff(&c, &expect) < 1e-12);

        let mut d = naive(&a, &b);
        matmul_sub(&mut d, &a, &b);
        assert!(max_abs_diff(&d, &Mat::zeros(3, 3)) < 1e-12);
    }

    #[test]
    fn adjoint_left_right() {
        let a = Mat::from_fn(4, 2, |i, j| c64::new(i as f64 + 1.0, j as f64));
        let b = Mat::from_fn(4, 3, |i, j| c64::new(j as f64, i as f64 - 2.0));
        let c = adjoint_matmul(&a, &b);
        let expect = naive(&a.adjoint(), &b);
        assert!(max_abs_diff(&c, &expect) < 1e-12);

        let w = Mat::from_fn(5, 3, |i, j| c64::new(i as f64 * 0.5, 1.0 - j as f64));
        let d = matmul_adjoint(&b, &w);
        let expect2 = naive(&b, &w.adjoint());
        assert!(max_abs_diff(&d, &expect2) < 1e-12);

        let mut e = expect.clone();
        adjoint_matmul_sub(&mut e, &a, &b);
        assert!(max_abs_diff(&e, &Mat::zeros(2, 3)) < 1e-12);
    }

    #[test]
    fn adjoint_blocked_path_matches_naive() {
        let a = Mat::from_fn(140, 90, |i, j| {
            c64::new((i % 9) as f64 - 4.0, (j % 5) as f64)
        });
        let b = Mat::from_fn(140, 70, |i, j| {
            c64::new((j % 7) as f64, (i % 3) as f64 - 1.0)
        });
        let big = adjoint_matmul(&a, &b);
        let mut small = Mat::zeros(90, 70);
        adjoint_matmul_acc_naive(&mut small, c64::ONE, &a, &b);
        let scale = crate::norms::fro_norm(&small).max(1.0);
        assert!(max_abs_diff(&big, &small) < 1e-12 * scale);

        let w = Mat::from_fn(130, 140, |i, j| c64::new((i + j) as f64 * 0.01, 1.0));
        let ah = a.adjoint(); // 90x140
        let r_big = matmul_adjoint(&ah, &w); // 90x130 result via blocked
        let r_ref = matmul_adjoint_naive(&ah, &w);
        let scale2 = crate::norms::fro_norm(&r_ref).max(1.0);
        assert!(max_abs_diff(&r_big, &r_ref) < 1e-12 * scale2);
    }

    #[test]
    fn sub_block_gemm_matches_full() {
        let a = Mat::from_fn(12, 9, |i, j| (i * 9 + j) as f64 * 0.1);
        let b = Mat::from_fn(9, 10, |i, j| (i + j) as f64 - 4.0);
        let mut c = Mat::zeros(14, 12);
        // C[2..2+5, 3..3+4] += A[1..1+5, 2..2+6] * B[0..0+6, 5..5+4]
        gemm_acc_block(
            &mut c,
            (2, 3, 5, 4),
            1.0,
            &a,
            (1, 2, 5, 6),
            &b,
            (0, 5, 6, 4),
        );
        for i in 0..5 {
            for j in 0..4 {
                let want: f64 = (0..6).map(|l| a[(1 + i, 2 + l)] * b[(l, 5 + j)]).sum();
                assert!((c[(2 + i, 3 + j)] - want).abs() < 1e-12);
            }
        }
        // Everything outside the target block stays zero.
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(c[(7, 3)], 0.0);
        assert_eq!(c[(2, 7)], 0.0);
    }

    #[test]
    fn empty_dimensions() {
        let a: Mat<f64> = Mat::zeros(0, 3);
        let b: Mat<f64> = Mat::zeros(3, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.nrows(), 0);
        let a2: Mat<f64> = Mat::zeros(2, 0);
        let b2: Mat<f64> = Mat::zeros(0, 2);
        let c2 = matmul(&a2, &b2);
        assert_eq!(max_abs_diff(&c2, &Mat::zeros(2, 2)), 0.0);
    }
}
