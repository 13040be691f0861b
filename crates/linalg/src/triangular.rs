//! Triangular solves (TRSM/TRSV equivalents).
//!
//! `L^{-1} B` and `U^{-1} B`: the LU's own panel step and its
//! column-major solves. (The solve sweep's right-sided `X (LU)^{-T}` is
//! RHS-major, in [`crate::panel`].) The matrix variants are blocked: the triangle is cut into `NB x NB`
//! diagonal blocks that are solved with the level-2 kernels, and the bulk
//! of the work — propagating each solved block into the remaining rows or
//! columns — rides the cache-blocked GEMM ([`crate::gemm`]). The
//! per-column level-2 forms are kept as `*_unblocked` reference oracles.

use crate::gemm::gemm_acc_block;
use crate::mat::Mat;
use crate::scalar::Scalar;

/// Diagonal-block size of the blocked TRSM forms.
const NB: usize = 64;

/// In-place `b := L^{-1} b` with `L` lower triangular (vector RHS).
pub fn solve_lower_vec<T: Scalar>(l: &Mat<T>, unit_diag: bool, b: &mut [T]) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n);
    assert_eq!(b.len(), n);
    for j in 0..n {
        if !unit_diag {
            b[j] /= l[(j, j)];
        }
        let bj = b[j];
        if bj == T::ZERO {
            continue;
        }
        let col = l.col(j);
        for i in (j + 1)..n {
            b[i] -= col[i] * bj;
        }
    }
}

/// In-place `b := U^{-1} b` with `U` upper triangular (vector RHS).
pub fn solve_upper_vec<T: Scalar>(u: &Mat<T>, unit_diag: bool, b: &mut [T]) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n);
    assert_eq!(b.len(), n);
    for j in (0..n).rev() {
        if !unit_diag {
            b[j] /= u[(j, j)];
        }
        let bj = b[j];
        if bj == T::ZERO {
            continue;
        }
        let col = u.col(j);
        for i in 0..j {
            b[i] -= col[i] * bj;
        }
    }
}

/// In-place `B := L^{-1} B`, matrix RHS (blocked).
pub fn solve_lower_mat<T: Scalar>(l: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    let n = l.nrows();
    assert_eq!(l.nrows(), b.nrows());
    if n <= NB || b.ncols() == 0 {
        return solve_lower_mat_unblocked(l, unit_diag, b);
    }
    let ncols = b.ncols();
    let mut j0 = 0;
    while j0 < n {
        let nb = NB.min(n - j0);
        // Solve the diagonal block against rows j0..j0+nb of B.
        let l11 = l.block(j0, j0, nb, nb);
        let mut b1 = b.block(j0, 0, nb, ncols);
        solve_lower_mat_unblocked(&l11, unit_diag, &mut b1);
        b.set_block(j0, 0, &b1);
        // Propagate: B[j0+nb.., :] -= L[j0+nb.., j0..j0+nb] * B1.
        if j0 + nb < n {
            gemm_acc_block(
                b,
                (j0 + nb, 0, n - j0 - nb, ncols),
                -T::ONE,
                l,
                (j0 + nb, j0, n - j0 - nb, nb),
                &b1,
                (0, 0, nb, ncols),
            );
        }
        j0 += nb;
    }
}

/// In-place `B := U^{-1} B`, matrix RHS (blocked).
pub fn solve_upper_mat<T: Scalar>(u: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    let n = u.nrows();
    assert_eq!(u.nrows(), b.nrows());
    if n <= NB || b.ncols() == 0 {
        return solve_upper_mat_unblocked(u, unit_diag, b);
    }
    let ncols = b.ncols();
    let mut jend = n;
    while jend > 0 {
        let nb = NB.min(jend);
        let j0 = jend - nb;
        let u11 = u.block(j0, j0, nb, nb);
        let mut b1 = b.block(j0, 0, nb, ncols);
        solve_upper_mat_unblocked(&u11, unit_diag, &mut b1);
        b.set_block(j0, 0, &b1);
        // Propagate upward: B[..j0, :] -= U[..j0, j0..jend] * B1.
        if j0 > 0 {
            gemm_acc_block(
                b,
                (0, 0, j0, ncols),
                -T::ONE,
                u,
                (0, j0, j0, nb),
                &b1,
                (0, 0, nb, ncols),
            );
        }
        jend = j0;
    }
}

/// Per-column reference form of [`solve_lower_mat`] (test oracle; also the
/// diagonal-block kernel of the blocked path).
#[doc(hidden)]
pub fn solve_lower_mat_unblocked<T: Scalar>(l: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    assert_eq!(l.nrows(), b.nrows());
    for j in 0..b.ncols() {
        solve_lower_vec(l, unit_diag, b.col_mut(j));
    }
}

/// Per-column reference form of [`solve_upper_mat`] (test oracle; also the
/// diagonal-block kernel of the blocked path).
#[doc(hidden)]
// ORACLE: oracle.rs triangular_blocked_matches_unblocked_*
pub fn solve_upper_mat_unblocked<T: Scalar>(u: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    assert_eq!(u.nrows(), b.nrows());
    for j in 0..b.ncols() {
        solve_upper_vec(u, unit_diag, b.col_mut(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::gemm::matmul;
    use crate::norms::max_abs_diff;

    fn lower(n: usize) -> Mat<f64> {
        Mat::from_fn(n, n, |i, j| {
            if i > j {
                0.3 * (i as f64 - j as f64)
            } else if i == j {
                2.0 + i as f64
            } else {
                0.0
            }
        })
    }

    fn upper(n: usize) -> Mat<f64> {
        lower(n).transpose()
    }

    #[test]
    fn lower_vec_roundtrip() {
        let l = lower(5);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let mut b = l.matvec(&x);
        solve_lower_vec(&l, false, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_vec_roundtrip() {
        let u = upper(5);
        let x: Vec<f64> = (0..5).map(|i| (i * i) as f64 * 0.1 - 1.0).collect();
        let mut b = u.matvec(&x);
        solve_upper_vec(&u, false, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_diagonal_variants() {
        let mut l = lower(4);
        for i in 0..4 {
            l[(i, i)] = 1.0;
        }
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut b = l.matvec(&x);
        solve_lower_vec(&l, true, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_left_solves() {
        let l = lower(4);
        let u = upper(4);
        let x = Mat::from_fn(4, 3, |i, j| (i + j) as f64 - 1.5);
        let mut bl = matmul(&l, &x);
        solve_lower_mat(&l, false, &mut bl);
        assert!(max_abs_diff(&bl, &x) < 1e-12);
        let mut bu = matmul(&u, &x);
        solve_upper_mat(&u, false, &mut bu);
        assert!(max_abs_diff(&bu, &x) < 1e-12);
    }

    /// The blocked matrix solves must agree with the per-column forms on
    /// systems big enough to engage the block path.
    #[test]
    fn blocked_left_solves_match_unblocked() {
        let n = 150; // > NB so at least three blocks
        let l = lower(n);
        let u = upper(n);
        let b0 = Mat::from_fn(n, 37, |i, j| ((i * 7 + j * 13) % 23) as f64 * 0.1 - 1.0);
        for unit in [false, true] {
            let mut b_blocked = b0.clone();
            let mut b_ref = b0.clone();
            solve_lower_mat(&l, unit, &mut b_blocked);
            solve_lower_mat_unblocked(&l, unit, &mut b_ref);
            let scale = crate::norms::fro_norm(&b_ref).max(1.0);
            assert!(max_abs_diff(&b_blocked, &b_ref) < 1e-12 * scale);

            let mut c_blocked = b0.clone();
            let mut c_ref = b0.clone();
            solve_upper_mat(&u, unit, &mut c_blocked);
            solve_upper_mat_unblocked(&u, unit, &mut c_ref);
            let scale = crate::norms::fro_norm(&c_ref).max(1.0);
            assert!(max_abs_diff(&c_blocked, &c_ref) < 1e-12 * scale);
        }
    }

    #[test]
    fn complex_triangular() {
        let l = Mat::from_fn(3, 3, |i, j| {
            if i >= j {
                c64::new(1.0 + i as f64, 0.5 * j as f64)
            } else {
                c64::ZERO
            }
        });
        let x = vec![c64::new(1.0, 1.0), c64::new(-1.0, 0.0), c64::new(0.0, 2.0)];
        let mut b = l.matvec(&x);
        solve_lower_vec(&l, false, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((*a - *e).norm() < 1e-12);
        }
    }
}
