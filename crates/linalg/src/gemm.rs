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
//! # Three entries
//!
//! The plain product ([`matmul_acc`], [`gemm_acc_block`] on sub-blocks),
//! the flipped one (`A^H B`, `A^T B`, packed straight from `A`'s
//! columns), and one left operand into many blocks,
//! [`gemm_acc_to_blocks`]: `C_d += alpha * A[rows_d, :] * B[:, cols_d]`
//! for a list of destination matrices `C_d`. It packs `A` once per depth
//! block and each destination's columns of `B` once, and writes each
//! product into its own block — the Schur deltas of a neighbor strip, the
//! diagonal blocks and sub-panels of the packed top's trailing update —
//! where the plain product would fill a scratch square to be cut, or
//! pack the same rows of `A` once per block. Each entry gets exactly the
//! packed path's arithmetic (one fused multiply-add chain per depth
//! block, one `alpha * acc` add per tile), so a destination has the bits
//! one [`gemm_acc_block`] of it has *when that call is packed*. The rule
//! a caller keeps bits with: a product goes through the new entry
//! exactly when the call it replaces took the packed path
//! ([`is_packed`], the dispatch's own test), and through
//! [`gemm_acc_block`] otherwise. Destinations start on a tile row (a
//! multiple of 16 rows is one on every build).
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

/// `C += alpha * A[ablk][a_row.., :] * B[:, b_col..]` for every
/// destination `(C, a_row, b_col)`, the shape of `C` setting the rows and
/// columns taken (`B` is `ablk`'s width deep): one left operand into many
/// blocks, `A[ablk]` packed once per depth block and each destination's
/// columns of `B` once. Each destination gets the bits one packed
/// [`gemm_acc_block`] of it would; the module comment states the rule
/// that keeps a caller's bits. `a_row` must be a multiple of the tile's
/// row count (any multiple of 16 is, on every build); a misaligned or
/// out-of-range destination panics.
pub fn gemm_acc_to_blocks<T: Scalar>(
    alpha: T,
    a: &Mat<T>,
    ablk: BlockSpec,
    b: &Mat<T>,
    dests: &mut [(&mut Mat<T>, usize, usize)],
) {
    gemm_to_blocks_tile::<T, { TILE.0 }, { TILE.1 }>(alpha, View::sub(a, ablk), View::of(b), dests);
}

/// `C += alpha * A * B`, reference jki kernel: for each output column `j`,
/// accumulate rank-1 updates `alpha * b[l,j] * A[:,l]`; both the read of
/// `A[:,l]` and the update of `C[:,j]` are contiguous. Serves small
/// products and is the test oracle for the blocked path.
#[doc(hidden)]
// ORACLE: oracle.rs gemm_blocked_matches_naive_*, gemm unit tests
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
// ORACLE: oracle.rs packed_adjoint_gemm_matches_naive_*
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

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// `true` when the plain product `C += alpha * A * B` of an `m x n`
/// result at depth `k` takes the packed path ([`matmul_acc`],
/// [`gemm_acc_block`]); otherwise it runs the jki kernel. A caller of
/// [`gemm_acc_to_blocks`] asks it of the product its destinations replace.
pub fn is_packed(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= PACK_MIN_FLOPS
        && m >= BLOCK_MIN_ROWS
        && n >= BLOCK_MIN_COLS
        && k >= BLOCK_MIN_DEPTH
}

fn gemm_dispatch<T: Scalar>(c: ViewMut<'_, T>, alpha: T, a: View<'_, T>, b: View<'_, T>) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if is_packed(m, n, k) {
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
    const { assert!(MC.is_multiple_of(ML) && NC.is_multiple_of(NL)) };
    let (m, n, k) = (c.rows, c.cols, b.rows);
    PACK.with_borrow_mut(|(apack, bpack)| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b::<T, NL>(b, pc, jc, kc, nc, bpack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a::<T, ML>(a, ic, pc, mc, kc, op, apack);
                    packed_block::<T, ML, NL>(apack, bpack, kc, (ic, mc), (jc, nc), alpha, &mut c);
                }
            }
        }
    });
}

/// `C[ic.., jc..] += alpha * A * B` on an `mc x nc` block whose operands
/// are packed: `apack` starts with the `mc` rows' micro-panels, `bpack`
/// with the `nc` columns', both `kc` deep. One micro-kernel call and one
/// tile update per pair of panels, `B` panels outermost.
fn packed_block<T: Scalar, const ML: usize, const NL: usize>(
    apack: &[f64],
    bpack: &[f64],
    kc: usize,
    (ic, mc): (usize, usize),
    (jc, nc): (usize, usize),
    alpha: T,
    c: &mut ViewMut<'_, T>,
) {
    let (mr, nr, ld) = (ML / lanes::<T>(), NL / lanes::<T>(), c.ld);
    let mut acc = [[0.0; ML]; NL];
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

/// [`gemm_acc_to_blocks`] on an `ML x NL` tile of real lanes.
fn gemm_to_blocks_tile<T: Scalar, const ML: usize, const NL: usize>(
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    dests: &mut [(&mut Mat<T>, usize, usize)],
) {
    let mr = ML / lanes::<T>();
    let (m, k) = (a.rows, a.cols);
    assert_eq!(b.rows, k, "gemm to blocks: inner dimension mismatch");
    for (c, a_row, b_col) in dests.iter() {
        assert!(
            a_row.is_multiple_of(mr),
            "gemm to blocks: row offset {a_row} is not a multiple of the {mr}-row tile"
        );
        assert!(
            a_row + c.nrows() <= m && b_col + c.ncols() <= b.cols,
            "gemm to blocks: destination outside the operands"
        );
    }
    if dests.is_empty() {
        return;
    }
    PACK.with_borrow_mut(|(apack, bpack)| {
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_a::<T, ML>(a, 0, pc, m, kc, LeftOp::Plain, apack);
            for (c, a_row, b_col) in dests.iter_mut() {
                let (rows, cols) = (c.nrows(), c.ncols());
                let mut cv = ViewMut::sub(c, (0, 0, rows, cols));
                for jc in (0..cols).step_by(NC) {
                    let nc = NC.min(cols - jc);
                    pack_b::<T, NL>(b, pc, *b_col + jc, kc, nc, bpack);
                    for ic in (0..rows).step_by(MC) {
                        let mc = MC.min(rows - ic);
                        let a0 = (*a_row + ic) / mr * kc * ML;
                        packed_block::<T, ML, NL>(
                            &apack[a0..],
                            bpack,
                            kc,
                            (ic, mc),
                            (jc, nc),
                            alpha,
                            &mut cv,
                        );
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

    /// The products of one left operand into many blocks against one
    /// packed product per destination on the same tile, bit for bit:
    /// ragged rows and columns, depth across `KC`, row offsets at tile
    /// multiples, blocks ending inside a row panel, empty blocks.
    fn to_blocks_oracle<T: Scalar, const ML: usize, const NL: usize>(alpha: T) {
        let mr = ML / lanes::<T>();
        let (m, n) = (6 * mr + 5, 70);
        // (rows, cols, a_row, b_col)
        let shapes = [
            (m, n, 0, 0),
            (mr + 3, 13, 0, 0),
            (2 * mr, 1, mr, 5),
            (3 * mr + 1, 29, 2 * mr, 41),
            (5, 30, 6 * mr, 40),
            (0, 7, 2 * mr, 3),
            (4 * mr, 0, 0, n),
        ];
        for (s, k) in [17, 64, 300].into_iter().enumerate() {
            let seed = 100 * s as u64;
            let a = noise::<T>(m + 3, k + 2, seed + 1);
            let b = noise::<T>(k, n, seed + 2);
            let c0: Vec<Mat<T>> = (shapes.iter().enumerate())
                .map(|(i, &(r, c, _, _))| noise::<T>(r, c, seed + 10 + i as u64))
                .collect();
            let mut got = c0.clone();
            let mut dests: Vec<_> = (got.iter_mut().zip(&shapes))
                .map(|(c, &(_, _, a_row, b_col))| (c, a_row, b_col))
                .collect();
            let ablk = View::sub(&a, (2, 1, m, k));
            gemm_to_blocks_tile::<T, ML, NL>(alpha, ablk, View::of(&b), &mut dests);
            for ((want, got), &(r, c, a_row, b_col)) in c0.into_iter().zip(&got).zip(&shapes) {
                let mut want = want;
                gemm_blocked_tile::<T, ML, NL>(
                    ViewMut::sub(&mut want, (0, 0, r, c)),
                    alpha,
                    View::sub(&a, (2 + a_row, 1, r, k)),
                    View::sub(&b, (0, b_col, k, c)),
                    LeftOp::Plain,
                );
                let what =
                    format!("{ML}x{NL} tile, depth {k}, {r}x{c} block at ({a_row}, {b_col})");
                assert_eq!(got.as_slice(), want.as_slice(), "{what}");
            }
        }
    }

    #[test]
    fn products_into_blocks_match_one_product_per_block_on_both_tables() {
        to_blocks_oracle::<f64, 16, 12>(-0.75);
        to_blocks_oracle::<f64, 8, 6>(-0.75);
        let alpha = c64::new(0.7, -0.3);
        to_blocks_oracle::<c64, 16, 12>(alpha);
        to_blocks_oracle::<c64, 8, 6>(alpha);
    }

    /// The public entry on this build's tile against `gemm_acc_block` on
    /// destinations whose own products are packed.
    #[test]
    fn gemm_acc_to_blocks_matches_gemm_acc_block_where_packed() {
        fn check<T: Scalar>(alpha: T) {
            let (m, k, n) = (80, 64, 90);
            let a = noise::<T>(m, k, 7);
            let b = noise::<T>(k, n, 8);
            let shapes = [(16, 12, 0, 0), (64, 40, 16, 50), (17, 90, 48, 0)];
            let c0: Vec<Mat<T>> = (shapes.iter().enumerate())
                .map(|(i, &(r, c, _, _))| noise::<T>(r, c, 9 + i as u64))
                .collect();
            let mut got = c0.clone();
            let mut dests: Vec<_> = (got.iter_mut().zip(&shapes))
                .map(|(c, &(_, _, a_row, b_col))| (c, a_row, b_col))
                .collect();
            gemm_acc_to_blocks(alpha, &a, (0, 0, m, k), &b, &mut dests);
            for ((mut want, got), &(r, c, a_row, b_col)) in c0.into_iter().zip(&got).zip(&shapes) {
                assert!(is_packed(r, c, k));
                gemm_acc_block(
                    &mut want,
                    (0, 0, r, c),
                    alpha,
                    &a,
                    (a_row, 0, r, k),
                    &b,
                    (0, b_col, k, c),
                );
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{r}x{c} block at ({a_row}, {b_col})"
                );
            }
        }
        check::<f64>(-1.0);
        check::<c64>(c64::new(-1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_block_panics() {
        let (a, b) = (noise::<f64>(40, 20, 1), noise::<f64>(20, 20, 2));
        let mut c = Mat::zeros(4, 4);
        gemm_acc_to_blocks(1.0, &a, (0, 0, 40, 20), &b, &mut [(&mut c, 3, 0)]);
    }

    #[test]
    #[should_panic(expected = "outside the operands")]
    fn out_of_range_block_panics() {
        let (a, b) = (noise::<f64>(40, 20, 1), noise::<f64>(20, 20, 2));
        let mut c = Mat::zeros(4, 8);
        gemm_acc_to_blocks(1.0, &a, (0, 0, 40, 20), &b, &mut [(&mut c, 0, 16)]);
    }

    /// `is_packed` is the dispatch's test: `gemm_acc_block` gives the
    /// packed product's bits exactly where it says so, the jki kernel's
    /// elsewhere, across the edges of every threshold.
    #[test]
    fn is_packed_is_the_dispatch_rule() {
        fn check<T: Scalar>(alpha: T) {
            let (mut seen, mut differ) = ([0; 2], 0);
            for m in [1, 3, 4, 5, 16, 40] {
                for n in [1, 11, 12, 13, 40] {
                    for k in [1, 15, 16, 17, 64] {
                        let a = noise::<T>(m, k, 1);
                        let b = noise::<T>(k, n, 2);
                        let c0 = noise::<T>(m, n, 3);
                        let (mut got, mut packed, mut naive) = (c0.clone(), c0.clone(), c0);
                        let full = (0, 0, m, n);
                        gemm_acc_block(&mut got, full, alpha, &a, (0, 0, m, k), &b, (0, 0, k, n));
                        gemm_blocked(
                            ViewMut::sub(&mut packed, full),
                            alpha,
                            View::of(&a),
                            View::of(&b),
                            LeftOp::Plain,
                        );
                        gemm_naive(
                            ViewMut::sub(&mut naive, full),
                            alpha,
                            View::of(&a),
                            View::of(&b),
                        );
                        let p = is_packed(m, n, k);
                        let want = if p { &packed } else { &naive };
                        assert_eq!(got.as_slice(), want.as_slice(), "{m}x{n}x{k}, packed {p}");
                        seen[p as usize] += 1;
                        differ += (packed != naive) as usize;
                    }
                }
            }
            // Both rules taken, and the two kernels told apart.
            assert!(
                seen[0] > 0 && seen[1] > 0 && differ > seen[1] / 2,
                "{seen:?}, {differ}"
            );
        }
        check::<f64>(-0.75);
        check::<c64>(c64::new(0.7, -0.3));
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
        expect.as_mut_slice().iter_mut().for_each(|v| *v *= 2.0);
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
