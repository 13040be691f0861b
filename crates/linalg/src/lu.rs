//! Partially pivoted LU factorization.
//!
//! Used to eliminate the redundant diagonal blocks `X_RR` in the strong
//! skeletonization operator, to factor the diagonal blocks of the packed
//! `L D Lᵀ` ([`crate::ldlt`]) that finishes the top of the tree for a
//! symmetric kernel, and as the whole top factorization for every other
//! kernel. Row pivoting is essential: the skeletonized diagonal blocks are
//! well conditioned empirically but carry no structural guarantee.

use crate::gemm::gemm_acc_block;
use crate::mat::Mat;
use crate::scalar::Scalar;
use crate::triangular::{
    solve_lower_mat, solve_lower_mat_unblocked, solve_lower_vec, solve_upper_mat, solve_upper_vec,
};

/// Panel width of the blocked factorization.
const NB: usize = 48;

/// Packed LU factors of a square matrix: `P A = L U` with unit-lower `L`
/// and upper `U` stored in one matrix, plus the pivot row swaps.
#[derive(Clone, Debug)]
pub struct Lu<T> {
    /// Packed factors: strictly-lower part of `L` and the whole of `U`.
    pub lu: Mat<T>,
    /// `piv[k] = r` means rows `k` and `r` were swapped at step `k`.
    pub piv: Vec<usize>,
}

/// Error raised when a pivot column is exactly zero (singular to working
/// precision).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularError {
    /// Elimination step at which no usable pivot was found.
    pub step: usize,
}

impl core::fmt::Display for SingularError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "matrix is singular at elimination step {}", self.step)
    }
}

impl std::error::Error for SingularError {}

impl<T: Scalar> Lu<T> {
    /// Factor `a` with partial (row) pivoting.
    ///
    /// Panel-blocked right-looking elimination: each `NB`-column panel is
    /// factored with the level-2 kernel (pivot swaps applied across the
    /// full matrix), the `U12` block is obtained by a unit-lower
    /// triangular solve against the panel, and the trailing Schur update
    /// `A22 -= L21 * U12` rides the cache-blocked GEMM.
    pub fn factor(mut a: Mat<T>) -> Result<Self, SingularError> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "LU requires a square matrix");
        if n <= NB {
            return Self::factor_unblocked(a);
        }
        let mut piv = Vec::with_capacity(n);
        let mut j0 = 0;
        while j0 < n {
            let nb = NB.min(n - j0);
            // Level-2 panel factorization on columns j0..j0+nb.
            for k in j0..j0 + nb {
                let col = a.col(k);
                let mut best = k;
                let mut best_abs = col[k].abs();
                for i in (k + 1)..n {
                    let v = col[i].abs();
                    if v > best_abs {
                        best_abs = v;
                        best = i;
                    }
                }
                if best_abs == 0.0 {
                    return Err(SingularError { step: k });
                }
                piv.push(best);
                a.swap_rows(k, best);
                let inv = a[(k, k)].recip();
                let colk_tail: Vec<T> = {
                    let colk = a.col_mut(k);
                    for i in (k + 1)..n {
                        colk[i] *= inv;
                    }
                    colk[k + 1..].to_vec()
                };
                // Rank-1 update restricted to the remaining panel columns.
                for j in (k + 1)..(j0 + nb) {
                    let akj = a[(k, j)];
                    if akj == T::ZERO {
                        continue;
                    }
                    let colj = a.col_mut(j);
                    for (off, lik) in colk_tail.iter().enumerate() {
                        colj[k + 1 + off] -= *lik * akj;
                    }
                }
            }
            if j0 + nb < n {
                // U12 := L11^{-1} A12 (unit lower triangular from the panel).
                let l11 = a.block(j0, j0, nb, nb);
                let mut u12 = a.block(j0, j0 + nb, nb, n - j0 - nb);
                solve_lower_mat_unblocked(&l11, true, &mut u12);
                a.set_block(j0, j0 + nb, &u12);
                // Schur update: A22 -= L21 * U12.
                let l21 = a.block(j0 + nb, j0, n - j0 - nb, nb);
                gemm_acc_block(
                    &mut a,
                    (j0 + nb, j0 + nb, n - j0 - nb, n - j0 - nb),
                    -T::ONE,
                    &l21,
                    (0, 0, n - j0 - nb, nb),
                    &u12,
                    (0, 0, nb, n - j0 - nb),
                );
            }
            j0 += nb;
        }
        Ok(Self { lu: a, piv })
    }

    /// Unblocked right-looking reference factorization (test oracle; also
    /// handles small matrices).
    #[doc(hidden)]
    pub fn factor_unblocked(mut a: Mat<T>) -> Result<Self, SingularError> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "LU requires a square matrix");
        let mut piv = Vec::with_capacity(n);
        for k in 0..n {
            // Pivot search in column k, rows k..n.
            let col = a.col(k);
            let mut best = k;
            let mut best_abs = col[k].abs();
            for i in (k + 1)..n {
                let v = col[i].abs();
                if v > best_abs {
                    best_abs = v;
                    best = i;
                }
            }
            if best_abs == 0.0 {
                return Err(SingularError { step: k });
            }
            piv.push(best);
            a.swap_rows(k, best);
            let pivot = a[(k, k)];
            let inv = pivot.recip();
            // Scale multipliers and apply the rank-1 update column by column.
            let colk_tail: Vec<T> = {
                let colk = a.col_mut(k);
                for i in (k + 1)..n {
                    colk[i] *= inv;
                }
                colk[k + 1..].to_vec()
            };
            for j in (k + 1)..n {
                let akj = a[(k, j)];
                if akj == T::ZERO {
                    continue;
                }
                let colj = a.col_mut(j);
                for (off, lik) in colk_tail.iter().enumerate() {
                    colj[k + 1 + off] -= *lik * akj;
                }
            }
        }
        Ok(Self { lu: a, piv })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// `true` when these are factors [`Lu::factor`] could have produced:
    /// a square packed matrix and one pivot per row, at or below that row
    /// (`k <= piv[k] < dim`). Decoders check it on factors that arrive
    /// from outside the program — the solves swap rows and panel columns
    /// by the pivots without looking at them again.
    pub fn is_well_formed(&self) -> bool {
        let n = self.lu.nrows();
        self.lu.ncols() == n
            && self.piv.len() == n
            && self.piv.iter().enumerate().all(|(k, &p)| k <= p && p < n)
    }

    /// Apply the row permutation `P` to a vector in place.
    pub fn apply_piv_vec(&self, b: &mut [T]) {
        for (k, &r) in self.piv.iter().enumerate() {
            b.swap(k, r);
        }
    }

    /// Apply `P` to every column of a matrix in place.
    pub fn apply_piv_mat(&self, b: &mut Mat<T>) {
        for (k, &r) in self.piv.iter().enumerate() {
            if k != r {
                b.swap_rows(k, r);
            }
        }
    }

    /// In-place solve `b := A^{-1} b`.
    pub fn solve_vec(&self, b: &mut [T]) {
        assert_eq!(b.len(), self.dim());
        self.apply_piv_vec(b);
        solve_lower_vec(&self.lu, true, b);
        solve_upper_vec(&self.lu, false, b);
    }

    /// In-place multi-RHS solve `B := A^{-1} B`.
    pub fn solve_mat(&self, b: &mut Mat<T>) {
        assert_eq!(b.nrows(), self.dim());
        self.apply_piv_mat(b);
        solve_lower_mat(&self.lu, true, b);
        solve_upper_mat(&self.lu, false, b);
    }

    /// `B := L^{-1} P B` — the forward half of [`Lu::solve_mat`].
    pub fn forward_mat(&self, b: &mut Mat<T>) {
        assert_eq!(b.nrows(), self.dim());
        self.apply_piv_mat(b);
        solve_lower_mat(&self.lu, true, b);
    }

    /// `B := U^{-1} B` — the backward half of [`Lu::solve_mat`].
    pub fn backward_mat(&self, b: &mut Mat<T>) {
        assert_eq!(b.nrows(), self.dim());
        solve_upper_mat(&self.lu, false, b);
    }

    /// `B := B U^{-1}` from the right, used to build `X_SR U^{-1}`.
    pub fn solve_upper_right(&self, b: &mut Mat<T>) {
        crate::triangular::solve_upper_right_mat(b, &self.lu, false);
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.lu.heap_bytes() + self.piv.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::gemm::matmul;
    use crate::norms::max_abs_diff;

    fn test_matrix(n: usize) -> Mat<f64> {
        // Diagonally dominant + nonsymmetric perturbation: well conditioned.
        Mat::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 1.0
            } else {
                ((i * 31 + j * 17) % 7) as f64 * 0.3 - 1.0
            }
        })
    }

    #[test]
    fn solve_recovers_solution() {
        for n in [1, 2, 5, 17] {
            let a = test_matrix(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let mut b = a.matvec(&x);
            let lu = Lu::factor(a).unwrap();
            lu.solve_vec(&mut b);
            for (got, want) in b.iter().zip(x.iter()) {
                assert!((got - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn multi_rhs_solve() {
        let a = test_matrix(8);
        let x = Mat::from_fn(8, 3, |i, j| (i as f64 - j as f64) * 0.2);
        let mut b = matmul(&a, &x);
        let lu = Lu::factor(a).unwrap();
        lu.solve_mat(&mut b);
        assert!(max_abs_diff(&b, &x) < 1e-10);
    }

    #[test]
    fn forward_backward_mat_compose_to_solve_mat() {
        let a = test_matrix(9);
        let x = Mat::from_fn(9, 4, |i, j| (i as f64 * 0.6 - j as f64).cos());
        let b = matmul(&a, &x);
        let lu = Lu::factor(a).unwrap();
        let mut via_halves = b.clone();
        lu.forward_mat(&mut via_halves);
        lu.backward_mat(&mut via_halves);
        assert!(max_abs_diff(&via_halves, &x) < 1e-10);
        // And the halves compose to exactly the same op sequence solve_mat runs.
        let mut direct = b;
        lu.solve_mat(&mut direct);
        assert_eq!(via_halves, direct);
    }

    #[test]
    fn right_solve_matches_inverse() {
        let a = test_matrix(5);
        let lu = Lu::factor(a.clone()).unwrap();
        // Compute A^{-1} column by column.
        let mut inv = Mat::identity(5);
        lu.solve_mat(&mut inv);
        // B U^{-1} where U from packed factors.
        let b = Mat::from_fn(3, 5, |i, j| (i + j) as f64 * 0.5 - 1.0);
        let mut upper = Mat::zeros(5, 5);
        for j in 0..5 {
            for i in 0..=j {
                upper[(i, j)] = lu.lu[(i, j)];
            }
        }
        let mut got = matmul(&b, &upper);
        lu.solve_upper_right(&mut got);
        assert!(max_abs_diff(&got, &b) < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]); // [[0,1],[1,0]]
        let lu = Lu::factor(a).unwrap();
        let mut b = vec![2.0, 3.0];
        lu.solve_vec(&mut b);
        // A = antidiagonal, A x = b => x = [3, 2]
        assert!((b[0] - 3.0).abs() < 1e-14);
        assert!((b[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]); // rank 1
        match Lu::factor(a) {
            Err(SingularError { step }) => assert_eq!(step, 1),
            Ok(_) => panic!("expected singularity"),
        }
    }

    #[test]
    fn complex_lu() {
        let a = Mat::from_fn(4, 4, |i, j| {
            if i == j {
                c64::new(4.0, 1.0)
            } else {
                c64::new(0.3 * i as f64, -0.2 * j as f64)
            }
        });
        let x: Vec<c64> = (0..4).map(|i| c64::new(i as f64, 1.0 - i as f64)).collect();
        let mut b = a.matvec(&x);
        let lu = Lu::factor(a).unwrap();
        lu.solve_vec(&mut b);
        for (got, want) in b.iter().zip(x.iter()) {
            assert!((*got - *want).norm() < 1e-10);
        }
    }

    #[test]
    fn reconstruction_pa_eq_lu() {
        let n = 7;
        let a = test_matrix(n);
        let lu = Lu::factor(a.clone()).unwrap();
        let mut l = Mat::identity(n);
        let mut u = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    l[(i, j)] = lu.lu[(i, j)];
                } else {
                    u[(i, j)] = lu.lu[(i, j)];
                }
            }
        }
        let mut pa = a;
        lu.apply_piv_mat(&mut pa);
        assert!(max_abs_diff(&pa, &matmul(&l, &u)) < 1e-12);
    }
}
