//! Householder QR and greedy column-pivoted QR (CPQR).
//!
//! CPQR is the engine behind the interpolative decomposition (Definition 1
//! in the paper): pivot columns become skeleton indices, and the truncated
//! trailing block bounds the compression error. We follow the greedy
//! column-pivoting strategy of `LowRankApprox.jl` (paper §II-B) rather than
//! strong RRQR: cheaper, and well behaved on kernel matrices in practice.
//!
//! Both factorizations are blocked. Reflectors are accumulated in compact-WY
//! form `Q = I - V T V^H` so trailing-matrix updates ride the cache-blocked
//! GEMM of [`crate::gemm`], and `cpqr` maintains partial column norms by
//! classic downdating (one subtraction per column per step instead of a full
//! renorm) with the LAPACK-style recompute-on-cancellation safeguard. The
//! original level-2 routines are kept as `*_naive` reference oracles.

use crate::gemm::{adjoint_matmul, gemm_acc_block, matmul_sub};
use crate::mat::Mat;
use crate::scalar::Scalar;
use crate::vecops::nrm2;

/// Reflector block size of the compact-WY paths.
const NB: usize = 32;

/// Result of an (optionally truncated) column-pivoted QR factorization.
#[derive(Clone, Debug)]
pub struct Cpqr<T> {
    /// Packed Householder vectors (below diagonal) and `R` (upper triangle).
    pub factors: Mat<T>,
    /// Householder coefficients, one per elimination step.
    pub tau: Vec<T>,
    /// Column permutation: `jpvt[k]` is the original index of permuted column `k`.
    pub jpvt: Vec<usize>,
    /// Numerical rank detected at the requested tolerance.
    pub rank: usize,
}

impl<T: Scalar> Cpqr<T> {
    /// The `rank x rank` leading upper-triangular block `R11`.
    pub fn r11(&self) -> Mat<T> {
        let k = self.rank;
        let mut r = Mat::zeros(k, k);
        for j in 0..k {
            for i in 0..=j {
                r[(i, j)] = self.factors[(i, j)];
            }
        }
        r
    }

    /// The `rank x (n - rank)` coupling block `R12`.
    pub fn r12(&self) -> Mat<T> {
        let k = self.rank;
        let n = self.factors.ncols();
        let mut r = Mat::zeros(k, n - k);
        for j in k..n {
            for i in 0..k {
                r[(i, j - k)] = self.factors[(i, j)];
            }
        }
        r
    }
}

/// Generate a Householder reflector for `x`, returning `(tau, beta)` and
/// overwriting `x[1..]` with the reflector tail `v[1..]` (with `v[0] = 1`).
///
/// The reflector satisfies `(I - tau v v^H) x = beta e1` with `|beta| = ||x||`.
fn make_householder<T: Scalar>(x: &mut [T]) -> (T, T) {
    let alpha = x[0];
    let tail_sq: f64 = x[1..].iter().map(|v| v.abs_sq()).sum();
    let alpha_abs = alpha.abs();
    let norm = (alpha_abs * alpha_abs + tail_sq).sqrt();
    if norm == 0.0 || (tail_sq == 0.0 && !T::IS_COMPLEX) {
        // Already collinear with e1; no reflection needed.
        return (T::ZERO, alpha);
    }
    // beta = -sign(alpha) * norm (for complex: -alpha/|alpha| * norm).
    let phase = if alpha_abs == 0.0 {
        T::ONE
    } else {
        alpha.scale(1.0 / alpha_abs)
    };
    let beta = -phase.scale(norm);
    let denom = alpha - beta;
    // tau = (beta - alpha) / beta
    let tau = (beta - alpha) / beta;
    let inv = denom.recip();
    for v in x[1..].iter_mut() {
        *v *= inv;
    }
    x[0] = T::ONE;
    (tau, beta)
}

/// Apply `(I - tau v v^H)` to a column slice, where `v` has implicit leading 1.
fn apply_householder<T: Scalar>(v: &[T], tau: T, col: &mut [T]) {
    debug_assert_eq!(v.len(), col.len());
    if tau == T::ZERO {
        return;
    }
    // w = v^H col (v[0] is the implicit 1)
    let w = col[0] + crate::vecops::dot(&v[1..], &col[1..]);
    let tw = tau * w;
    col[0] -= tw;
    for i in 1..v.len() {
        col[i] = v[i].mul_add(-tw, col[i]);
    }
}

// ---------------------------------------------------------------------------
// Compact-WY machinery
// ---------------------------------------------------------------------------

/// Extract the unit-lower-trapezoidal reflector block `V` (rows `j0..m`)
/// from packed factors columns `j0..j0+kb`.
fn extract_v<T: Scalar>(f: &Mat<T>, j0: usize, kb: usize) -> Mat<T> {
    let m = f.nrows() - j0;
    let mut v = Mat::zeros(m, kb);
    for j in 0..kb {
        let src = &f.col(j0 + j)[j0..];
        let dst = v.col_mut(j);
        dst[j] = T::ONE;
        dst[j + 1..].copy_from_slice(&src[j + 1..]);
    }
    v
}

/// Form the upper-triangular compact-WY factor `T` of the forward product
/// `H(1) H(2) ... H(kb) = I - V T V^H` (LAPACK `larft`, forward/columnwise).
fn form_t<T: Scalar>(v: &Mat<T>, tau: &[T]) -> Mat<T> {
    let kb = tau.len();
    let m = v.nrows();
    let mut t = Mat::zeros(kb, kb);
    for i in 0..kb {
        t[(i, i)] = tau[i];
        if i == 0 {
            continue;
        }
        // w = V[:, ..i]^H v_i (v_i is zero above row i).
        let vi = v.col(i);
        let mut w = vec![T::ZERO; i];
        for (j, wj) in w.iter_mut().enumerate() {
            let vj = v.col(j);
            *wj = crate::vecops::dot(&vj[i..m], &vi[i..m]);
        }
        // T[..i, i] = -tau_i * T[..i, ..i] * w.
        for r in 0..i {
            let mut acc = T::ZERO;
            for (l, wl) in w.iter().enumerate().skip(r) {
                acc += t[(r, l)] * *wl;
            }
            t[(r, i)] = -(tau[i] * acc);
        }
    }
    t
}

/// In-place `W := T W` (or `T^H W` when `adjoint`) with `T` upper triangular.
fn trmm_upper_left<T: Scalar>(t: &Mat<T>, adjoint: bool, w: &mut Mat<T>) {
    let k = t.nrows();
    for jcol in 0..w.ncols() {
        let col = w.col_mut(jcol);
        if !adjoint {
            // y[i] = sum_{l >= i} T[i,l] x[l]; ascending overwrite is safe.
            for i in 0..k {
                let mut acc = t[(i, i)] * col[i];
                for l in (i + 1)..k {
                    acc += t[(i, l)] * col[l];
                }
                col[i] = acc;
            }
        } else {
            // y[i] = sum_{l <= i} conj(T[l,i]) x[l]; descending is safe.
            for i in (0..k).rev() {
                let mut acc = t[(i, i)].conj() * col[i];
                for l in 0..i {
                    acc += t[(l, i)].conj() * col[l];
                }
                col[i] = acc;
            }
        }
    }
}

/// Apply the block reflector: `C := (I - V op(T) V^H) C`, with
/// `op(T) = T^H` when `adjoint_t` (the `Q^H C` product used during
/// factorization) and `T` otherwise (the `Q C` product used by `form_q`).
fn apply_block_reflector<T: Scalar>(v: &Mat<T>, t: &Mat<T>, adjoint_t: bool, c: &mut Mat<T>) {
    if v.ncols() == 0 || c.ncols() == 0 {
        return;
    }
    // W = V^H C (kb x n), then W := op(T) W, then C -= V W.
    let mut w = adjoint_matmul(v, c);
    trmm_upper_left(t, adjoint_t, &mut w);
    matmul_sub(c, v, &w);
}

// ---------------------------------------------------------------------------
// Unpivoted QR
// ---------------------------------------------------------------------------

/// Unpivoted Householder QR. Returns packed factors and `tau`.
///
/// Blocked: each `NB`-column panel is factored with the level-2 kernel and
/// the trailing matrix is updated with one compact-WY block reflector
/// (`C -= V (T^H (V^H C))`), which is all GEMM.
pub fn householder_qr<T: Scalar>(mut a: Mat<T>) -> (Mat<T>, Vec<T>) {
    let m = a.nrows();
    let n = a.ncols();
    let steps = m.min(n);
    let mut tau = Vec::with_capacity(steps);
    let mut j0 = 0;
    while j0 < steps {
        let kb = NB.min(steps - j0);
        // Level-2 factorization of the panel columns.
        for k in j0..j0 + kb {
            let (t, beta) = {
                let col = &mut a.col_mut(k)[k..];
                make_householder(col)
            };
            tau.push(t);
            let v: Vec<T> = a.col(k)[k..].to_vec();
            for j in (k + 1)..(j0 + kb) {
                let col = &mut a.col_mut(j)[k..];
                apply_householder(&v, t, col);
            }
            a[(k, k)] = beta;
        }
        // Trailing update: A[j0.., j0+kb..] := (I - V T^H V^H) A[j0.., j0+kb..].
        if j0 + kb < n {
            let v = extract_v(&a, j0, kb);
            let t = form_t(&v, &tau[j0..j0 + kb]);
            let mut trail = a.block(j0, j0 + kb, m - j0, n - j0 - kb);
            apply_block_reflector(&v, &t, true, &mut trail);
            a.set_block(j0, j0 + kb, &trail);
        }
        j0 += kb;
    }
    (a, tau)
}

/// Level-2 reference QR (test oracle for the blocked path).
#[doc(hidden)]
// ORACLE: oracle.rs qr_blocked_matches_naive_*
pub fn householder_qr_naive<T: Scalar>(mut a: Mat<T>) -> (Mat<T>, Vec<T>) {
    let m = a.nrows();
    let n = a.ncols();
    let steps = m.min(n);
    let mut tau = Vec::with_capacity(steps);
    for k in 0..steps {
        let (t, beta) = {
            let col = &mut a.col_mut(k)[k..];
            make_householder(col)
        };
        tau.push(t);
        let v: Vec<T> = a.col(k)[k..].to_vec();
        for j in (k + 1)..n {
            let col = &mut a.col_mut(j)[k..];
            apply_householder(&v, t, col);
        }
        a[(k, k)] = beta;
    }
    (a, tau)
}

/// Extract the explicit `Q` (thin, `m x k`) from packed Householder factors.
///
/// Blocked backward accumulation: reflector blocks are applied in reverse
/// order to the identity, each as one compact-WY product restricted to the
/// rows and columns it can touch.
pub fn form_q<T: Scalar>(factors: &Mat<T>, tau: &[T], k: usize) -> Mat<T> {
    let m = factors.nrows();
    let mut q = Mat::zeros(m, k);
    for j in 0..k.min(m) {
        q[(j, j)] = T::ONE;
    }
    let r = tau.len().min(k);
    let mut starts: Vec<usize> = (0..r).step_by(NB).collect();
    while let Some(j0) = starts.pop() {
        let kb = NB.min(r - j0);
        let v = extract_v(factors, j0, kb);
        let t = form_t(&v, &tau[j0..j0 + kb]);
        // Columns `< j0` are still unit vectors supported above row j0 and
        // are untouched by this block; apply to the rest only.
        let mut blk = q.block(j0, j0, m - j0, k - j0);
        apply_block_reflector(&v, &t, false, &mut blk);
        q.set_block(j0, j0, &blk);
    }
    q
}

/// Level-2 reference `form_q` (test oracle for the blocked path).
#[doc(hidden)]
// ORACLE: oracle.rs qr_blocked_matches_naive_*
pub fn form_q_naive<T: Scalar>(factors: &Mat<T>, tau: &[T], k: usize) -> Mat<T> {
    let m = factors.nrows();
    let mut q = Mat::zeros(m, k);
    for j in 0..k.min(m) {
        q[(j, j)] = T::ONE;
    }
    // Apply reflectors in reverse order to the identity block.
    for step in (0..tau.len().min(k)).rev() {
        let mut v: Vec<T> = factors.col(step)[step..].to_vec();
        if !v.is_empty() {
            v[0] = T::ONE;
        }
        for j in 0..k {
            let col = &mut q.col_mut(j)[step..];
            apply_householder(&v, tau[step], col);
        }
    }
    q
}

// ---------------------------------------------------------------------------
// Column-pivoted QR
// ---------------------------------------------------------------------------

/// Greedy column-pivoted QR, truncated at relative tolerance `tol` (on
/// `|R[k,k]| / |R[0,0]|`) or at `max_rank`, whichever comes first.
///
/// LAPACK `xGEQP3`-style blocked factorization. Pivoting uses partial
/// column norms maintained by downdating (`vn1[j]^2 -= |R[k,j]|^2` per
/// step, O(n) instead of the O(mn) exact renorm) with a
/// recompute-on-cancellation safeguard: when cancellation would leave a
/// downdated norm with fewer than half the mantissa bits trusted, the
/// affected columns are renormed exactly — lazily materialized against the
/// panel's reflectors when few columns are hit (the common case on the
/// fast-decaying kernel matrices this solver compresses), or after a
/// LAPACK-style panel cut when cancellation is widespread. Within a panel,
/// updates are applied lazily — only the pivot column and pivot row are
/// brought up to date per step — and the bulk of the trailing matrix is
/// updated once per panel with a single GEMM (`A22 -= V2 F^H`). The
/// selected pivot column's norm is always recomputed exactly before the
/// tolerance test, so truncation decisions match the naive implementation.
pub fn cpqr<T: Scalar>(mut a: Mat<T>, tol: f64, max_rank: usize) -> Cpqr<T> {
    let m = a.nrows();
    let n = a.ncols();
    let steps = m.min(n).min(max_rank);
    let mut jpvt: Vec<usize> = (0..n).collect();
    let mut tau: Vec<T> = Vec::with_capacity(steps);
    let mut rank = 0;
    if steps == 0 {
        return Cpqr {
            factors: a,
            tau,
            jpvt,
            rank,
        };
    }

    // Partial column norms: vn1[j] approximates ||A_true[k.., j]|| at the
    // current step k; vn2[j] is the value at the last exact computation.
    let mut vn1: Vec<f64> = (0..n).map(|j| nrm2(a.col(j))).collect();
    let mut vn2 = vn1.clone();
    let tol3z = f64::EPSILON.sqrt();
    let mut first_pivot = 0.0_f64;
    let mut recompute: Vec<usize> = Vec::new();
    let mut flagged: Vec<usize> = Vec::new();
    let mut scratch: Vec<T> = Vec::new();

    let mut j0 = 0;
    let mut stopped = false;
    'panels: while j0 < steps {
        let nb = NB.min(steps - j0);
        // F accumulates the panel's trailing-update coefficients:
        // A_true[:, j] = A_stored[:, j] - V[:, ..kb] * conj(F[j - j0, ..kb])
        // for the not-yet-updated trailing columns j >= j0 + kb.
        let mut f = Mat::<T>::zeros(n - j0, nb);
        let mut kb = 0;
        while kb < nb {
            let k = j0 + kb;
            // Select the pivot by the maintained partial norms.
            let mut best = k;
            let mut best_v = vn1[k];
            for j in (k + 1)..n {
                if vn1[j] > best_v {
                    best_v = vn1[j];
                    best = j;
                }
            }
            if best != k {
                a.swap_cols(k, best);
                jpvt.swap(k, best);
                vn1.swap(k, best);
                vn2.swap(k, best);
                f.swap_rows(k - j0, best - j0);
            }
            // Bring the pivot column up to date against the panel's
            // earlier reflectors: A[k.., k] -= V[k.., i] * conj(F[k-j0, i]).
            for i in 0..kb {
                let fv = f[(k - j0, i)].conj();
                if fv == T::ZERO {
                    continue;
                }
                let (vcol, pcol) = a.cols_mut_pair(j0 + i, k);
                for r in k..m {
                    pcol[r] = vcol[r].mul_add(-fv, pcol[r]);
                }
            }
            // The updated pivot column's exact norm drives the tolerance
            // test, exactly as in the unblocked algorithm.
            let pivot_norm = nrm2(&a.col(k)[k..]);
            if j0 == 0 && kb == 0 {
                first_pivot = pivot_norm;
            }
            if pivot_norm == 0.0 || pivot_norm <= tol * first_pivot {
                stopped = true;
                break;
            }
            // Householder step.
            let (t, beta) = {
                let col = &mut a.col_mut(k)[k..];
                make_householder(col)
            };
            tau.push(t);
            rank = k + 1;
            // F[jl, kb] = tau * A_stored[k.., j]^H v for trailing j, then
            // the incremental correction for the stale part:
            // F[:, kb] -= tau * F[:, ..kb] * (V[:, ..kb]^H v).
            {
                let vcol = a.col(k);
                for j in (k + 1)..n {
                    let acol = a.col(j);
                    f[(j - j0, kb)] = t * crate::vecops::dot(&acol[k..m], &vcol[k..m]);
                }
                for jl in 0..=kb {
                    f[(jl, kb)] = T::ZERO;
                }
                if kb > 0 {
                    let mut auxv = vec![T::ZERO; kb];
                    for (i, aux) in auxv.iter_mut().enumerate() {
                        let pcol = a.col(j0 + i);
                        *aux = -(t * crate::vecops::dot(&pcol[k..m], &vcol[k..m]));
                    }
                    for (i, aux) in auxv.iter().enumerate() {
                        if *aux == T::ZERO {
                            continue;
                        }
                        let (fi, fk) = f.cols_mut_pair(i, kb);
                        for (dst, src) in fk.iter_mut().zip(fi.iter()) {
                            *dst += *src * *aux;
                        }
                    }
                }
            }
            // Bring the pivot *row* up to date across all trailing columns
            // (makes row k of R exact): A[k, j] -= V[k, i] * conj(F[jl, i]).
            {
                let mut row_upd = vec![T::ZERO; n - k - 1];
                for i in 0..=kb {
                    let vki = if i == kb { T::ONE } else { a[(k, j0 + i)] };
                    if vki == T::ZERO {
                        continue;
                    }
                    let fcol = &f.col(i)[k + 1 - j0..];
                    for (dst, fv) in row_upd.iter_mut().zip(fcol.iter()) {
                        *dst = vki.mul_add(fv.conj(), *dst);
                    }
                }
                for (jl, upd) in row_upd.into_iter().enumerate() {
                    a[(k, k + 1 + jl)] -= upd;
                }
            }
            a[(k, k)] = beta;
            // Downdate the partial norms below the now-exact pivot row.
            flagged.clear();
            for j in (k + 1)..n {
                if vn1[j] == 0.0 {
                    continue;
                }
                let temp = (a[(k, j)].abs() / vn1[j]).min(1.0);
                let temp = ((1.0 + temp) * (1.0 - temp)).max(0.0);
                let ratio = vn1[j] / vn2[j].max(f64::MIN_POSITIVE);
                if temp * ratio * ratio <= tol3z {
                    // Cancellation: the downdated value has lost too many
                    // mantissa bits to be trusted.
                    flagged.push(j);
                } else {
                    vn1[j] *= temp.sqrt();
                }
            }
            kb += 1;
            let mut cut_panel = false;
            if !flagged.is_empty() {
                // LAPACK's xLAQPS cuts the panel here and recomputes after
                // the block update. That is ruinous on fast-decaying
                // (kernel-type) matrices, where cancellation fires every
                // couple of steps and shrinks every panel to one or two
                // columns. Instead, when only a few columns are affected,
                // materialize each one's updated trailing part against the
                // panel's reflectors (`A_true = A_stored - V F^H`, O(m kb)
                // per column) and renorm it exactly; fall back to the
                // panel cut only when cancellation is widespread and the
                // bulk block update amortizes better.
                if flagged.len() <= (n - k) / 4 {
                    for &j in &flagged {
                        scratch.clear();
                        scratch.extend_from_slice(&a.col(j)[k + 1..]);
                        let frow = j - j0;
                        for i in 0..kb {
                            let fv = f[(frow, i)].conj();
                            if fv == T::ZERO {
                                continue;
                            }
                            let vcol = &a.col(j0 + i)[k + 1..];
                            for (d, v) in scratch.iter_mut().zip(vcol.iter()) {
                                *d = v.mul_add(-fv, *d);
                            }
                        }
                        vn1[j] = nrm2(&scratch);
                        vn2[j] = vn1[j];
                    }
                } else {
                    recompute.extend_from_slice(&flagged);
                    cut_panel = true;
                }
            }
            if cut_panel {
                break;
            }
        }
        // Block update of the rows below the panel, written straight into
        // `a`: A[j0+kb.., j0+kb..] -= V2 * F2^H (one GEMM per panel). This
        // also runs when the tolerance stopped the factorization mid-panel,
        // so the trailing block of `factors` is the true residual under the
        // returned permutation — the same contract as the level-2 oracle.
        if stopped && kb > 0 && j0 + kb < n {
            // The stopped step's pivot column (position j0+kb) was already
            // lazily brought up to date; un-apply that so the block update
            // below does not subtract the panel's corrections twice.
            let k = j0 + kb;
            for i in 0..kb {
                let fv = f[(k - j0, i)].conj();
                if fv == T::ZERO {
                    continue;
                }
                let (vcol, pcol) = a.cols_mut_pair(j0 + i, k);
                for r in k..m {
                    pcol[r] = vcol[r].mul_add(fv, pcol[r]);
                }
            }
        }
        if kb > 0 && j0 + kb < n && j0 + kb < m {
            let v2 = {
                let mut v = Mat::zeros(m - j0 - kb, kb);
                for i in 0..kb {
                    let src = &a.col(j0 + i)[j0 + kb..];
                    v.col_mut(i).copy_from_slice(src);
                }
                v
            };
            let f2h = f.block(kb, 0, n - j0 - kb, kb).adjoint();
            gemm_acc_block(
                &mut a,
                (j0 + kb, j0 + kb, m - j0 - kb, n - j0 - kb),
                -T::ONE,
                &v2,
                (0, 0, m - j0 - kb, kb),
                &f2h,
                (0, 0, kb, n - j0 - kb),
            );
        }
        j0 += kb;
        if stopped {
            break 'panels;
        }
        // Exact renorms for the columns that hit cancellation.
        for j in recompute.drain(..) {
            if j >= j0 {
                vn1[j] = nrm2(&a.col(j)[j0..]);
                vn2[j] = vn1[j];
            }
        }
    }
    Cpqr {
        factors: a,
        tau,
        jpvt,
        rank,
    }
}

/// Level-2 reference CPQR with exact per-step renorms (test oracle).
///
/// Column norms are recomputed exactly at every step — a factor ~`rank`
/// more norm work than downdating (O(rank * mn) versus O(mn) total), which
/// is why the blocked [`cpqr`] replaces it on the hot path — but it is
/// unconditionally robust, making it the reference the blocked
/// factorization is validated against.
#[doc(hidden)]
// ORACLE: oracle.rs cpqr_blocked_matches_naive_*, cpqr_truncated_residual_matches_naive
pub fn cpqr_naive<T: Scalar>(mut a: Mat<T>, tol: f64, max_rank: usize) -> Cpqr<T> {
    let m = a.nrows();
    let n = a.ncols();
    let steps = m.min(n).min(max_rank);
    let mut jpvt: Vec<usize> = (0..n).collect();
    let mut tau: Vec<T> = Vec::with_capacity(steps);
    let mut rank = 0;
    let mut first_pivot = 0.0_f64;
    for k in 0..steps {
        // Exact column norms of the trailing block.
        let mut best = k;
        let mut best_norm = -1.0_f64;
        for j in k..n {
            let norm_sq: f64 = a.col(j)[k..].iter().map(|v| v.abs_sq()).sum();
            if norm_sq > best_norm {
                best_norm = norm_sq;
                best = j;
            }
        }
        let pivot_norm = best_norm.max(0.0).sqrt();
        if k == 0 {
            first_pivot = pivot_norm;
        }
        if pivot_norm <= tol * first_pivot || pivot_norm == 0.0 {
            break;
        }
        a.swap_cols(k, best);
        jpvt.swap(k, best);
        let (t, beta) = {
            let col = &mut a.col_mut(k)[k..];
            make_householder(col)
        };
        tau.push(t);
        let v: Vec<T> = a.col(k)[k..].to_vec();
        for j in (k + 1)..n {
            let col = &mut a.col_mut(j)[k..];
            apply_householder(&v, t, col);
        }
        a[(k, k)] = beta;
        rank = k + 1;
    }
    Cpqr {
        factors: a,
        tau,
        jpvt,
        rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::gemm::{adjoint_matmul, matmul};
    use crate::norms::{fro_norm, max_abs_diff};

    fn upper_of<T: Scalar>(f: &Mat<T>, k: usize) -> Mat<T> {
        let n = f.ncols();
        let mut r = Mat::zeros(k, n);
        for j in 0..n {
            for i in 0..=j.min(k - 1) {
                r[(i, j)] = f[(i, j)];
            }
        }
        r
    }

    #[test]
    fn qr_reconstructs() {
        let a = Mat::from_fn(6, 4, |i, j| ((i * 5 + j * 3) % 11) as f64 - 5.0);
        let (f, tau) = householder_qr(a.clone());
        let q = form_q(&f, &tau, 4);
        let r = upper_of(&f, 4);
        let qr = matmul(&q, &r);
        assert!(max_abs_diff(&qr, &a) < 1e-12);
        // Q orthonormal
        let qtq = adjoint_matmul(&q, &q);
        assert!(max_abs_diff(&qtq, &Mat::identity(4)) < 1e-12);
    }

    #[test]
    fn qr_complex_reconstructs() {
        let a = Mat::from_fn(5, 3, |i, j| {
            c64::new((i + j) as f64, (i as f64) - 2.0 * j as f64)
        });
        let (f, tau) = householder_qr(a.clone());
        let q = form_q(&f, &tau, 3);
        let r = upper_of(&f, 3);
        let qr = matmul(&q, &r);
        assert!(max_abs_diff(&qr, &a) < 1e-12);
        let qtq = adjoint_matmul(&q, &q);
        assert!(max_abs_diff(&qtq, &Mat::identity(3)) < 1e-12);
    }

    /// Full-rank pseudo-random matrix; lattice-style formulas are avoided
    /// here because they tend to be numerically rank deficient, which makes
    /// factor-by-factor comparison meaningless past the rank.
    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Mat::from_fn(m, n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2_000_000) as f64 / 1_000_000.0 - 1.0
        })
    }

    /// Shapes spanning several reflector blocks so the compact-WY path is
    /// exercised, validated against the level-2 oracle.
    #[test]
    fn blocked_qr_matches_naive_multi_panel() {
        for (m, n) in [(80, 70), (97, 45), (64, 100)] {
            let a = rand_mat(m, n, (m * 1000 + n) as u64);
            let (f_b, tau_b) = householder_qr(a.clone());
            let (f_n, tau_n) = householder_qr_naive(a.clone());
            let scale = fro_norm(&a).max(1.0);
            assert!(max_abs_diff(&f_b, &f_n) < 1e-12 * scale);
            for (tb, tn) in tau_b.iter().zip(tau_n.iter()) {
                assert!((*tb - *tn).abs() < 1e-12);
            }
            let k = m.min(n);
            let q_b = form_q(&f_b, &tau_b, k);
            let q_n = form_q_naive(&f_n, &tau_n, k);
            assert!(max_abs_diff(&q_b, &q_n) < 1e-12);
            let qr = matmul(&q_b, &upper_of(&f_b, k));
            assert!(max_abs_diff(&qr, &a) < 1e-11 * scale);
        }
    }

    #[test]
    fn cpqr_full_rank_reconstructs_with_permutation() {
        let a = Mat::from_fn(6, 5, |i, j| {
            ((i * 7 + j) % 5) as f64 + if i == j { 4.0 } else { 0.0 }
        });
        let c = cpqr(a.clone(), 1e-14, usize::MAX);
        assert_eq!(c.rank, 5);
        let q = form_q(&c.factors, &c.tau, c.rank);
        let r = upper_of(&c.factors, c.rank);
        let qr = matmul(&q, &r);
        // qr should equal a with columns permuted by jpvt
        let ap = Mat::from_fn(6, 5, |i, j| a[(i, c.jpvt[j])]);
        assert!(max_abs_diff(&qr, &ap) < 1e-12);
    }

    #[test]
    fn cpqr_detects_low_rank() {
        // Rank-2 matrix: outer product of genuinely independent factors.
        let u = Mat::from_fn(8, 2, |i, j| {
            if j == 0 {
                i as f64
            } else {
                (i * i) as f64 * 0.1
            }
        });
        let v = Mat::from_fn(2, 6, |i, j| {
            if i == 0 {
                1.0 + j as f64
            } else {
                (-1.0f64).powi(j as i32)
            }
        });
        let a = matmul(&u, &v);
        let c = cpqr(a.clone(), 1e-10, usize::MAX);
        assert_eq!(c.rank, 2, "rank-2 matrix should truncate at 2");
        // Residual of the dropped block is small.
        let q = form_q(&c.factors, &c.tau, c.rank);
        let r = upper_of(&c.factors, c.rank);
        let ap = Mat::from_fn(8, 6, |i, j| a[(i, c.jpvt[j])]);
        let qr = matmul(&q, &r);
        assert!(max_abs_diff(&qr, &ap) < 1e-9 * fro_norm(&a).max(1.0));
    }

    #[test]
    fn cpqr_diag_of_r_nonincreasing() {
        let a = Mat::from_fn(10, 10, |i, j| 1.0 / ((i + j) as f64 + 1.0)); // Hilbert: fast decay
        let c = cpqr(a, 1e-12, usize::MAX);
        let mut prev = f64::INFINITY;
        for k in 0..c.rank {
            let d = c.factors[(k, k)].abs();
            // Downdated norms are exact to a few ulps between recomputes,
            // so allow a slightly wider slack than exact renorming would.
            assert!(d <= prev * (1.0 + 1e-8), "pivot magnitudes must decay");
            prev = d;
        }
        assert!(c.rank < 10, "Hilbert matrix is numerically rank deficient");
    }

    #[test]
    fn cpqr_max_rank_cap() {
        let a = Mat::from_fn(6, 6, |i, j| if i == j { 1.0 } else { 0.1 * (i + j) as f64 });
        let c = cpqr(a, 0.0, 3);
        assert_eq!(c.rank, 3);
        assert_eq!(c.tau.len(), 3);
    }

    #[test]
    fn cpqr_zero_matrix_rank_zero() {
        let a: Mat<f64> = Mat::zeros(4, 5);
        let c = cpqr(a, 1e-10, usize::MAX);
        assert_eq!(c.rank, 0);
        assert_eq!(c.jpvt.len(), 5);
    }

    #[test]
    fn cpqr_r11_r12_shapes() {
        let a = Mat::from_fn(6, 5, |i, j| ((i * 3 + j * 5) % 7) as f64);
        let c = cpqr(a, 1e-13, usize::MAX);
        let r11 = c.r11();
        let r12 = c.r12();
        assert_eq!(r11.nrows(), c.rank);
        assert_eq!(r11.ncols(), c.rank);
        assert_eq!(r12.nrows(), c.rank);
        assert_eq!(r12.ncols(), 5 - c.rank);
    }

    /// Multi-panel CPQR against the exact-renorm oracle: identical pivots
    /// and factors on a matrix with well-separated column norms.
    #[test]
    fn blocked_cpqr_matches_naive_multi_panel() {
        let (m, n) = (90, 75);
        let mut a = rand_mat(m, n, 424242);
        // Scale columns to distinct, well-separated norms so the pivot
        // order is unambiguous for both norm strategies.
        for j in 0..n {
            let s = 1.0 + (n - j) as f64;
            for v in a.col_mut(j) {
                *v *= s;
            }
        }
        let c_b = cpqr(a.clone(), 1e-13, usize::MAX);
        let c_n = cpqr_naive(a.clone(), 1e-13, usize::MAX);
        assert_eq!(c_b.rank, c_n.rank);
        assert_eq!(c_b.jpvt, c_n.jpvt);
        let k = c_b.rank;
        let scale = fro_norm(&a).max(1.0);
        assert!(
            max_abs_diff(&upper_of(&c_b.factors, k), &upper_of(&c_n.factors, k)) < 1e-11 * scale
        );
        // Reconstruction through the blocked factors.
        let q = form_q(&c_b.factors, &c_b.tau, k);
        let qr = matmul(&q, &upper_of(&c_b.factors, k));
        let ap = Mat::from_fn(m, n, |i, j| a[(i, c_b.jpvt[j])]);
        assert!(max_abs_diff(&qr, &ap) < 1e-11 * scale);
    }

    /// Near-identical columns force catastrophic cancellation in the
    /// downdating formula; the recompute safeguard must keep the
    /// factorization correct.
    #[test]
    fn cpqr_downdating_cancellation_stress() {
        let m = 60;
        let n = 40;
        // All columns nearly equal to a common vector, with tiny
        // perturbations: after the first reflector every partial norm
        // collapses by ~1e8, exactly the regime the safeguard targets.
        let a = Mat::from_fn(m, n, |i, j| {
            let base = ((i * 7) % 13) as f64 + 1.0;
            base + 1e-8 * ((i * 31 + j * 57) % 101) as f64
        });
        let c = cpqr(a.clone(), 1e-14, usize::MAX);
        let k = c.rank;
        assert!(k >= 2, "perturbations are independent, rank must exceed 1");
        let q = form_q(&c.factors, &c.tau, k);
        let qtq = adjoint_matmul(&q, &q);
        assert!(max_abs_diff(&qtq, &Mat::identity(k)) < 1e-10);
        let qr = matmul(&q, &upper_of(&c.factors, k));
        let ap = Mat::from_fn(m, n, |i, j| a[(i, c.jpvt[j])]);
        assert!(max_abs_diff(&qr, &ap) < 1e-10 * fro_norm(&a).max(1.0));
    }

    /// The compact-WY accumulation must reproduce the explicit product
    /// of Householder matrices: `H0 H1 H2 = I - V T V^H`.
    #[test]
    fn compact_wy_matches_explicit_product() {
        let m = 8;
        let kb = 3;
        let mut v = Mat::zeros(m, kb);
        for j in 0..kb {
            v[(j, j)] = 1.0;
            for i in (j + 1)..m {
                v[(i, j)] = ((i * 7 + j * 3) % 5) as f64 * 0.2 - 0.4;
            }
        }
        let tau = vec![0.7, 1.3, 0.4];
        // Explicit P = H0 H1 H2 with Hi = I - tau_i v_i v_i^T.
        let mut p = Mat::identity(m);
        for i in 0..kb {
            let mut h = Mat::identity(m);
            for r in 0..m {
                for c in 0..m {
                    h[(r, c)] -= tau[i] * v[(r, i)] * v[(c, i)];
                }
            }
            p = matmul(&p, &h);
        }
        let t = super::form_t(&v, &tau);
        let vt = matmul(&v, &t);
        let mut wy = Mat::identity(m);
        wy.axpy(-1.0, &matmul(&vt, &v.transpose()));
        assert!(max_abs_diff(&p, &wy) < 1e-14);
        // Forward application (form_q direction): C := P C.
        let c0 = Mat::from_fn(m, 4, |i, j| (i * 4 + j) as f64 * 0.1 - 1.0);
        let mut c1 = c0.clone();
        super::apply_block_reflector(&v, &t, false, &mut c1);
        assert!(max_abs_diff(&c1, &matmul(&p, &c0)) < 1e-13);
        // Adjoint application (factorization direction): C := P^T C, which
        // equals the sequential H2 (H1 (H0 C)) of the level-2 kernel.
        let mut c2 = c0.clone();
        super::apply_block_reflector(&v, &t, true, &mut c2);
        assert!(max_abs_diff(&c2, &matmul(&p.transpose(), &c0)) < 1e-13);
        let mut c3 = c0.clone();
        for i in 0..kb {
            let vv: Vec<f64> = (i..m).map(|r| v[(r, i)]).collect();
            for j in 0..c3.ncols() {
                super::apply_householder(&vv, tau[i], &mut c3.col_mut(j)[i..]);
            }
        }
        assert!(max_abs_diff(&c2, &c3) < 1e-13);
    }

    #[test]
    fn householder_on_e1_is_identity_like() {
        let mut x = vec![2.0, 0.0, 0.0];
        let (tau, beta) = make_householder(&mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(beta, 2.0);
    }
}
