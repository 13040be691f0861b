//! Matrix-matrix products (the level-3 core of the solver).
//!
//! Two products dominate factorization wall-clock: the Schur-complement
//! update `A_NN -= E * F` during elimination and the trailing-matrix
//! updates inside the blocked QR / CPQR / LU / LDL^T routines.
//! [`matmul_acc`] therefore runs a cache-blocked GEMM: operands are packed
//! into contiguous micro-panels (`MC x KC` of `A`, `KC x NC` of `B`) and
//! combined by a register-tiled fused-multiply-add micro-kernel. Small
//! products fall through to a register-blocked jki kernel, which is also
//! exposed as [`matmul_acc_naive`] — the reference oracle the blocked path
//! is tested against. Every product runs on the calling thread: the
//! drivers parallelize across boxes and ranks, never inside one product.
//!
//! # The register tile
//!
//! There is one micro-kernel, and it works on *real lanes*: a packed panel
//! is a run of `f64`, a [`crate::c64`] being its interleaved `(re, im)`
//! pair. A real product uses the lanes directly. A complex product runs in
//! split form: the packed `B` carries `re(b)` and `im(b)` as two lane
//! columns, the kernel accumulates `A * re(b)` and `A * im(b)` on the
//! interleaved lanes of `A` — each one broadcast and one fused
//! multiply-add per vector, exactly the real kernel's work, with no
//! shuffle inside the depth loop — and the pair is combined into
//! `(re * re - im * im, re * im + im * re)` once per tile, when the tile
//! is added to `C`. A complex multiply-add written on `c64` values instead
//! makes the compiler swap and negate lanes at every step (24 GFLOP/s
//! against 65 in the split form, real flops, AVX-512).
//!
//! The tile is `ML x NL` lanes and the build picks one of two (`TILE`):
//!
//! * **wide**, 16 x 12 (`f64` 16 x 12, `c64` 8 x 6): 24 accumulators of
//!   eight lanes out of the 32 512-bit registers, two more for the `A`
//!   vectors and one for the broadcast. Needs a build that targets
//!   AVX-512 *and* lifts LLVM's 256-bit vector preference, which
//!   `.cargo/config.toml` does and announces with `--cfg
//!   srsf_wide_vectors`.
//! * **narrow**, 8 x 6 (`f64` 8 x 6, `c64` 4 x 3), every other build: 12
//!   accumulators of four lanes, which fit the 16 registers of AVX2 and,
//!   as 24 of two lanes, the 32 of NEON.
//!
//! The code is plain loops that the compiler vectorizes, and which loop it
//! picks depends on the shape: where it takes the column loop the
//! accumulators turn into gathers and scatters. Rates measured on an
//! AVX-512 host (rustc 1.95, real GFLOP/s at `512^3` / `340 x 44 x 340`,
//! `f64` then `c64`; the second column is `target-cpu=native` alone, 32
//! `ymm` registers, the third AVX2 with 16), the reason for both choices:
//!
//! | lanes   | wide build            | 256-bit preference    | `x86-64-v3`           |
//! |---------|-----------------------|-----------------------|-----------------------|
//! | 16 x 12 | **62 / 60, 65 / 60**  | 27 / 26, 20 / 19      | 13 / 13, 17 / 21      |
//! | 32 x 6  | 61 / 60, 65 / 62      |                       |                       |
//! | 16 x 10 | 58 / 61, 62 / 60      |                       |                       |
//! | 16 x 6  | 57 / 55, 58 / 55      | 36 / 33, 34 / 29      | 19 / 19, 14 / 14      |
//! | 8 x 6   | 47 / 47, 48 / 47      | **34 / 36, 34 / 32**  | **35 / 36, 37 / 34**  |
//! | 16 x 4  | 45 / 42, 45 / 42      | 38 / 35, 34 / 26      | 17 / 17, 14 / 14      |
//! | 8 x 8   |                       | 37 / 36, 37 / 33      | 18 / 20, 18 / 19      |
//! | 12 x 4  |                       | 37 / 35, 32 / 24      | 37 / 35, 37 / 34      |
//! | 8 x 12  | 2.8 / 2.8 (gathers)   | 4.0 / 4.0 (gathers)   | 21 / 21, 17 / 16      |
//! | 16 x 8, 24 x 8, 16 x 14 | 4.5 / 4.4 (gathers) |         |                       |
//!
//! (The tile before this table was 16 x 4 for `f64`, 34 GFLOP/s, and a
//! shuffling 8 x 4 on `c64` values, 24.) The kernel and the tile update
//! are functions of their own, never inlined, so that what the compiler
//! makes of them does not depend on the caller: inlined into the blocked
//! loop nest the same 16 x 12 kernel came out anywhere between 13 and 52
//! GFLOP/s. The tile shape does not enter any entry's arithmetic — each is
//! one fused multiply-add chain down a depth block, added to `C` once — so
//! a real product has the same bits under either table.

use crate::mat::Mat;
use crate::scalar::Scalar;
use core::cell::RefCell;

// ---------------------------------------------------------------------------
// Blocking parameters
// ---------------------------------------------------------------------------

/// Rows of a packed `A` block. With [`KC`] it sizes the block the
/// micro-kernel streams from L2: 192 x 256 `f64` is 384 KiB.
const MC: usize = 192;
/// Shared inner dimension of the packed blocks: the depth a tile
/// accumulates before it is added to `C` once. 256 steps of a 12-lane `B`
/// micro-panel are 24 KiB, half of a 48 KiB L1; going from 128 to 256 is
/// worth 8 % at `512^3` (52 to 56 GFLOP/s) and nothing on the narrow tile
/// or at depths the set-up's own products have (44 .. 64).
const KC: usize = 256;
/// Columns of a packed `B` block (a multiple of every tile width). Each
/// further block packs `A` again, and the block itself only has to stay
/// in the last-level cache — a 24 KiB micro-panel of it is read once per
/// `MC` rows — so it is wide enough that the dense tops of the paper's
/// sizes are one block (`n = 512` against 504 cost 5 %).
const NC: usize = 2040;

/// The register tile as `(row lanes, column lanes)` of `f64` accumulators
/// (see the module comment for how the two were chosen).
#[cfg(all(srsf_wide_vectors, target_feature = "avx512f"))]
const TILE: (usize, usize) = (16, 12);
#[cfg(not(all(srsf_wide_vectors, target_feature = "avx512f")))]
const TILE: (usize, usize) = (8, 6);

/// Below this many multiply-adds a product stays on the direct kernels
/// (jki, or the dot-product form of `A^H B`): no packed panel would fill.
const PACK_MIN_FLOPS: usize = 16 * 16 * 16;
/// The plain product is packed from these extents on. Its fallback, the
/// jki kernel, streams whole columns of `A` and is hard to beat only
/// where packing `A` is not amortized: measured (blocked over jki, `f64`
/// and `c64`, wide and narrow tile) the packed path is 1.2-2.4x ahead at
/// the sketch products `62 x 16..64 x 64` and the ragged Schur strips
/// `22 x 45 x 22..90`, level at `340 x 16 x 12`, and behind at `n = 8`
/// (`340 x 44 x 8`: 0.8-1.2), at `n <= 6` (0.6-0.9) and, for `c64`, at
/// depth 8-12 (`100 x 8 x 100`: 0.8). Two rows are enough (`2 x 64 x 64`:
/// 1.5); the guard says 4 because a thinner product is a matrix-vector
/// one. The `A^H B` product has only [`PACK_MIN_FLOPS`] and `n >= 4`: its
/// fallback is sequential reductions the compiler cannot vectorize
/// (3.5 GFLOP/s against 12+ packed at `42 x 16`, depth 25..300).
const BLOCK_MIN_ROWS: usize = 4;
const BLOCK_MIN_COLS: usize = 12;
const BLOCK_MIN_DEPTH: usize = 16;

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
}

/// Mutable view of a column-major sub-block.
struct ViewMut<'a, T> {
    data: &'a mut [T],
    ld: usize,
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
            r0,
            c0,
            rows,
            cols,
        }
    }

    #[inline]
    fn col_mut(&mut self, j: usize) -> &mut [T] {
        let s = (self.c0 + j) * self.ld + self.r0;
        &mut self.data[s..s + self.rows]
    }

    /// Everything from entry `(i, j)` on: the columns of a tile that
    /// starts there are `ld` apart.
    #[inline]
    fn tile_mut(&mut self, i: usize, j: usize) -> &mut [T] {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[(self.c0 + j) * self.ld + self.r0 + i..]
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
    if m * n * k >= PACK_MIN_FLOPS && n >= 4 {
        let cblk = (0, 0, m, n);
        gemm_blocked(ViewMut::sub(c, cblk), alpha, View::of(a), View::of(b), op);
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
    if m * n * k >= PACK_MIN_FLOPS {
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
// Dispatch
// ---------------------------------------------------------------------------

fn gemm_dispatch<T: Scalar>(c: ViewMut<'_, T>, alpha: T, a: View<'_, T>, b: View<'_, T>) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k >= PACK_MIN_FLOPS
        && m >= BLOCK_MIN_ROWS
        && n >= BLOCK_MIN_COLS
        && k >= BLOCK_MIN_DEPTH
    {
        gemm_blocked(c, alpha, a, b, LeftOp::Plain);
    } else {
        gemm_naive(c, alpha, a, b);
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

/// Real lanes of one scalar: a `c64` is an interleaved `(re, im)` pair.
const fn lanes<T: Scalar>() -> usize {
    if T::IS_COMPLEX {
        2
    } else {
        1
    }
}

thread_local! {
    /// The packed `A` and `B` blocks of the blocked product, as real
    /// lanes, kept across calls: a factorization issues thousands of
    /// products (one sketch GEMM per box side, the Schur strips) that
    /// each need the same few hundred kilobytes. Each driver worker thread
    /// has its own pair.
    static PACK: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

fn gemm_blocked<T: Scalar>(
    c: ViewMut<'_, T>,
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    op: LeftOp,
) {
    gemm_blocked_tile::<T, { TILE.0 }, { TILE.1 }>(c, alpha, a, b, op);
}

/// The blocked product on an `ML x NL` tile of real lanes: `ML / lanes`
/// rows by `NL / lanes` columns of `T`.
fn gemm_blocked_tile<T: Scalar, const ML: usize, const NL: usize>(
    mut c: ViewMut<'_, T>,
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    op: LeftOp,
) {
    let (mr, nr) = (ML / lanes::<T>(), NL / lanes::<T>());
    const { assert!(MC.is_multiple_of(ML) && NC.is_multiple_of(NL)) };
    let (m, n, k, ld) = (c.rows, c.cols, b.rows, c.ld);
    let mut acc = [[0.0; ML]; NL];
    PACK.with_borrow_mut(|(apack, bpack)| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b::<T, NL>(b, pc, jc, kc, nc, bpack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a::<T, ML>(a, ic, pc, mc, kc, op, apack);
                    let bpanels = bpack.chunks_exact(kc * NL).take(nc.div_ceil(nr));
                    for (q, bpanel) in bpanels.enumerate() {
                        let j0 = jc + q * nr;
                        let jcols = nr.min(jc + nc - j0);
                        let apanels = apack.chunks_exact(kc * ML).take(mc.div_ceil(mr));
                        for (p, apanel) in apanels.enumerate() {
                            let i0 = ic + p * mr;
                            let irows = mr.min(ic + mc - i0);
                            micro_kernel(apanel, bpanel, &mut acc);
                            add_tile(&acc, alpha, c.tile_mut(i0, j0), ld, irows, jcols);
                        }
                    }
                }
            }
        }
    });
}

/// The micro-kernel: `out[j][i] = sum_l a[l][i] * b[l][j]` over the depth
/// of a packed pair, one fused multiply-add per lane and step. The sums
/// are built in a local and stored once, which is what lets them live in
/// registers for the whole depth.
#[inline(never)]
fn micro_kernel<const ML: usize, const NL: usize>(
    apanel: &[f64],
    bpanel: &[f64],
    out: &mut [[f64; ML]; NL],
) {
    let mut acc = [[0.0; ML]; NL];
    for (av, bv) in apanel.chunks_exact(ML).zip(bpanel.chunks_exact(NL)) {
        for j in 0..NL {
            let s = bv[j];
            for i in 0..ML {
                acc[j][i] = av[i].mul_add(s, acc[j][i]);
            }
        }
    }
    *out = acc;
}

/// `C_tile += alpha * acc` on the leading `irows x jcols` of the tile
/// whose top-left entry is `ctile[0]`, columns `ld` apart.
#[inline(never)]
fn add_tile<T: Scalar, const ML: usize, const NL: usize>(
    acc: &[[f64; ML]; NL],
    alpha: T,
    ctile: &mut [T],
    ld: usize,
    irows: usize,
    jcols: usize,
) {
    let (mr, nr) = (ML / lanes::<T>(), NL / lanes::<T>());
    if irows == mr && jcols == nr {
        // The same loops with constant trip counts, spelled out: shared
        // through a closure they lose the constants (47 -> 41 GFLOP/s at
        // `340 x 44 x 340`).
        for (j, col) in ctile.chunks_mut(ld).take(nr).enumerate() {
            for (i, d) in col[..mr].iter_mut().enumerate() {
                *d += alpha * tile_entry::<T, ML, NL>(acc, i, j);
            }
        }
    } else {
        for (j, col) in ctile.chunks_mut(ld).take(jcols).enumerate() {
            for (i, d) in col[..irows].iter_mut().enumerate() {
                *d += alpha * tile_entry::<T, ML, NL>(acc, i, j);
            }
        }
    }
}

/// Entry `(i, j)` of the `T` tile the real accumulators hold. For complex
/// scalars lane column `2j` is `A * re(b_j)` and `2j + 1` is
/// `A * im(b_j)`, both on the interleaved `(re, im)` lanes of `A`.
#[inline(always)]
fn tile_entry<T: Scalar, const ML: usize, const NL: usize>(
    acc: &[[f64; ML]; NL],
    i: usize,
    j: usize,
) -> T {
    if T::IS_COMPLEX {
        let (by_re, by_im) = (&acc[2 * j], &acc[2 * j + 1]);
        T::from_re_im(
            by_re[2 * i] - by_im[2 * i + 1],
            by_re[2 * i + 1] + by_im[2 * i],
        )
    } else {
        T::from_re_im(acc[j][i], 0.0)
    }
}

/// Write `v` as lane(s) `i` of a packed row.
#[inline(always)]
fn put<T: Scalar>(row: &mut [f64], i: usize, v: T) {
    if T::IS_COMPLEX {
        row[2 * i] = v.re();
        row[2 * i + 1] = v.im();
    } else {
        row[i] = v.re();
    }
}

/// The first `panels` micro-panels of `len` lanes each, growing `buf` to
/// hold them. What they held before is the caller's to overwrite: only a
/// ragged last panel needs zeros, and only in its padding lanes.
fn panels_mut(buf: &mut Vec<f64>, panels: usize, len: usize) -> impl Iterator<Item = &mut [f64]> {
    if buf.len() < panels * len {
        buf.resize(panels * len, 0.0);
    }
    buf.chunks_exact_mut(len).take(panels)
}

/// Pack `op(A)[ic.., pc..]` (`mc x kc`) into row micro-panels of `ML`
/// lanes, zero-padding the ragged bottom panel. For the flipped operand
/// row `i` is column `i` of the stored `A`, so every source run is
/// contiguous either way.
fn pack_a<T: Scalar, const ML: usize>(
    a: View<'_, T>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    op: LeftOp,
    buf: &mut Vec<f64>,
) {
    let mr = ML / lanes::<T>();
    for (p, dst) in panels_mut(buf, mc.div_ceil(mr), kc * ML).enumerate() {
        let i0 = ic + p * mr;
        let rows = mr.min(ic + mc - i0);
        if rows < mr {
            for row in dst.chunks_exact_mut(ML) {
                row[rows * lanes::<T>()..].fill(0.0);
            }
        }
        if op == LeftOp::Plain {
            for (l, row) in dst.chunks_exact_mut(ML).enumerate() {
                for (i, &v) in a.col(pc + l)[i0..i0 + rows].iter().enumerate() {
                    put(row, i, v);
                }
            }
        } else {
            for i in 0..rows {
                let src = &a.col(i0 + i)[pc..pc + kc];
                for (&v, row) in src.iter().zip(dst.chunks_exact_mut(ML)) {
                    put(row, i, if op == LeftOp::Adjoint { v.conj() } else { v });
                }
            }
        }
    }
}

/// Pack `B[pc.., jc..]` (`kc x nc`) into column micro-panels of `NL`
/// lanes, zero-padding the ragged right panel.
fn pack_b<T: Scalar, const NL: usize>(
    b: View<'_, T>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    buf: &mut Vec<f64>,
) {
    let nr = NL / lanes::<T>();
    for (q, dst) in panels_mut(buf, nc.div_ceil(nr), kc * NL).enumerate() {
        let j0 = jc + q * nr;
        let cols = nr.min(jc + nc - j0);
        if cols < nr {
            for row in dst.chunks_exact_mut(NL) {
                row[cols * lanes::<T>()..].fill(0.0);
            }
        }
        for j in 0..cols {
            let src = &b.col(j0 + j)[pc..pc + kc];
            for (&v, row) in src.iter().zip(dst.chunks_exact_mut(NL)) {
                put(row, j, v);
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
        // Past the packing crossover, with ragged edges.
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

    /// Entries in (-1, 1) from a fixed stream.
    fn noise<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        Mat::from_fn(rows, cols, |_, _| T::from_re_im(next(), next()))
    }

    /// Ragged in every direction: `m`, `n` off the tile multiples, `m`
    /// past `MC`, `k` across `KC`, `n` past `NC`.
    const TILE_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (37, 300, 29),
        (MC + 5, 70, 25),
        (50, KC + 1, 13),
        (3, 17, NC + 7),
    ];

    /// Runs every shape and left operand as sub-block views at an offset,
    /// checks the result against the jki oracle on explicit copies and
    /// that nothing outside the target block moved, and hands the
    /// results back for the cross-tile comparison.
    fn tile_oracle<T: Scalar, const ML: usize, const NL: usize>(alpha: T) -> Vec<Mat<T>> {
        let mut results = Vec::new();
        for (s, &(m, k, n)) in TILE_SHAPES.iter().enumerate() {
            for op in [LeftOp::Plain, LeftOp::Transpose, LeftOp::Adjoint] {
                let seed = 10 * s as u64;
                let (ar, ac) = if op == LeftOp::Plain { (m, k) } else { (k, m) };
                let a = noise::<T>(ar + 3, ac + 2, seed + 1);
                let b = noise::<T>(k + 1, n + 4, seed + 2);
                let c0 = noise::<T>(m + 2, n + 3, seed + 3);
                let (ablk, bblk, cblk) = ((3, 1, ar, ac), (1, 2, k, n), (1, 3, m, n));

                let mut c = c0.clone();
                gemm_blocked_tile::<T, ML, NL>(
                    ViewMut::sub(&mut c, cblk),
                    alpha,
                    View::sub(&a, ablk),
                    View::sub(&b, bblk),
                    op,
                );

                let a_sub = a.block(3, 1, ar, ac);
                let op_a = match op {
                    LeftOp::Plain => a_sub,
                    LeftOp::Transpose => a_sub.transpose(),
                    LeftOp::Adjoint => a_sub.adjoint(),
                };
                let mut want = c0.block(1, 3, m, n);
                matmul_acc_naive(&mut want, alpha, &op_a, &b.block(1, 2, k, n));
                let scale = crate::norms::fro_norm(&want).max(1.0);
                let err = max_abs_diff(&c.block(1, 3, m, n), &want);
                assert!(err <= 1e-13 * scale, "{ML}x{NL} tile, {m}x{k}x{n}: {err:e}");

                let mut outside = c.clone();
                outside.set_block(1, 3, &c0.block(1, 3, m, n));
                assert_eq!(outside.as_slice(), c0.as_slice(), "wrote outside the block");
                results.push(c);
            }
        }
        results
    }

    #[test]
    fn every_tile_of_both_tables_matches_the_oracle() {
        let wide = tile_oracle::<f64, 16, 12>(-0.75);
        let narrow = tile_oracle::<f64, 8, 6>(-0.75);
        // The tile shape does not enter an entry's arithmetic.
        for (w, n) in wide.iter().zip(&narrow) {
            assert_eq!(w.as_slice(), n.as_slice());
        }
        let alpha = c64::new(0.7, -0.3);
        tile_oracle::<c64, 16, 12>(alpha);
        tile_oracle::<c64, 8, 6>(alpha);
    }

    /// The public sub-block entry point on whichever tile this build
    /// dispatches to, at a shape the packed path takes.
    #[test]
    fn sub_block_gemm_blocked_matches_naive() {
        fn check<T: Scalar>(alpha: T) {
            let (m, k, n) = (45, 33, 29);
            let a = noise::<T>(m + 4, k + 1, 1);
            let b = noise::<T>(k + 2, n + 5, 2);
            let c0 = noise::<T>(m + 1, n + 2, 3);
            let mut c = c0.clone();
            gemm_acc_block(
                &mut c,
                (1, 2, m, n),
                alpha,
                &a,
                (4, 0, m, k),
                &b,
                (0, 5, k, n),
            );
            let mut want = c0.clone();
            let mut blk = c0.block(1, 2, m, n);
            matmul_acc_naive(&mut blk, alpha, &a.block(4, 0, m, k), &b.block(0, 5, k, n));
            want.set_block(1, 2, &blk);
            let scale = crate::norms::fro_norm(&want).max(1.0);
            assert!(max_abs_diff(&c, &want) <= 1e-13 * scale);
        }
        check::<f64>(1.5);
        check::<c64>(c64::new(-0.2, 1.1));
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
