//! Preconditioning with any [`Factorized`] object.
//!
//! The paper's Tables III and V use the RS-S factorization as a
//! preconditioner. With the unified solver API, *any* driver's output —
//! sequential, box-colored, or distributed — arrives here as a
//! `&dyn Factorized<T>`, and the Krylov methods never learn which driver
//! built it.

use crate::cg::{pcg, CgResult};
use crate::gmres::{gmres, GmresOpts, GmresResult};
use crate::op::LinOp;
use srsf_core::solver::Factorized;
use srsf_linalg::vecops::{dot, nrm2};
use srsf_linalg::{Mat, Scalar};

/// Adapter presenting a [`Factorized`] object as a `LinOp` whose action is
/// the approximate inverse (i.e., a preconditioner application).
pub struct FactorizedOp<'a, T> {
    inner: &'a dyn Factorized<T>,
}

impl<'a, T: Scalar> FactorizedOp<'a, T> {
    /// Wrap a factorization for use as a preconditioner operator.
    pub fn new(inner: &'a dyn Factorized<T>) -> Self {
        Self { inner }
    }
}

impl<T: Scalar> LinOp<T> for FactorizedOp<'_, T> {
    fn dim(&self) -> usize {
        self.inner.n()
    }
    fn apply(&self, x: &[T]) -> Vec<T> {
        self.inner.solve(x)
    }
}

/// Preconditioned CG with any factorization as the preconditioner.
pub fn pcg_factorized<T: Scalar>(
    a: &dyn LinOp<T>,
    m: &dyn Factorized<T>,
    b: &[T],
    tol: f64,
    max_iters: usize,
) -> CgResult<T> {
    pcg(a, &FactorizedOp::new(m), b, tol, max_iters)
}

/// Right-preconditioned GMRES with any factorization as the
/// preconditioner.
pub fn gmres_factorized<T: Scalar>(
    a: &dyn LinOp<T>,
    m: &dyn Factorized<T>,
    b: &[T],
    opts: &GmresOpts,
) -> GmresResult<T> {
    let op = FactorizedOp::new(m);
    gmres(a, Some(&op), b, opts)
}

/// Preconditioned CG over a block of right-hand sides, advanced in
/// lockstep so every iteration applies the preconditioner to all still
/// unconverged columns with *one* [`Factorized::solve_mat`] call — the
/// level-3 solve path — instead of one vector solve per column per
/// iteration.
///
/// Each column runs an independent CG recurrence (its own `alpha`,
/// `beta`, residual); columns that reach the tolerance or break down are
/// frozen and drop out of the batch. Results are mathematically
/// identical to calling [`pcg_factorized`] per column (the recurrences
/// never mix), and each column's result is reported separately.
pub fn pcg_factorized_mat<T: Scalar>(
    a: &dyn LinOp<T>,
    m: &dyn Factorized<T>,
    b: &Mat<T>,
    tol: f64,
    max_iters: usize,
) -> Vec<CgResult<T>> {
    let n = b.nrows();
    let k = b.ncols();
    assert_eq!(a.dim(), n);
    assert_eq!(m.n(), n);
    let mut x = Mat::<T>::zeros(n, k);
    let mut r = b.clone();
    // p starts as z_0 = M^{-1} r_0; later iterations rebuild p from the
    // batch preconditioner output directly.
    let mut p = m.solve_mat(&r);
    let mut rz: Vec<T> = (0..k).map(|j| dot(r.col(j), p.col(j))).collect();
    let bnorm: Vec<f64> = (0..k)
        .map(|j| nrm2(b.col(j)).max(f64::MIN_POSITIVE))
        .collect();
    let mut relres: Vec<f64> = (0..k).map(|j| nrm2(r.col(j)) / bnorm[j]).collect();
    let mut iters = vec![0usize; k];
    let mut converged: Vec<bool> = relres.iter().map(|&rr| rr <= tol).collect();
    // `active`: still iterating (not converged, not broken down).
    let mut active: Vec<bool> = converged.iter().map(|&c| !c).collect();

    for _ in 0..max_iters {
        if active.iter().all(|&a| !a) {
            break;
        }
        // Per-column CG step against the shared operator.
        for j in 0..k {
            if !active[j] {
                continue;
            }
            let ap = a.apply(p.col(j));
            let pap = dot(p.col(j), &ap);
            if pap.abs() == 0.0 {
                active[j] = false;
                continue;
            }
            let alpha = rz[j] / pap;
            iters[j] += 1;
            for (xi, pi) in x.col_mut(j).iter_mut().zip(p.col(j).iter()) {
                *xi += alpha * *pi;
            }
            // r update needs p's column immutable and r's mutable — index
            // split by taking the alpha-scaled ap.
            for (ri, ai) in r.col_mut(j).iter_mut().zip(ap.iter()) {
                *ri -= alpha * *ai;
            }
            relres[j] = nrm2(r.col(j)) / bnorm[j];
            if relres[j] <= tol {
                converged[j] = true;
                active[j] = false;
            }
        }
        let batch: Vec<usize> = (0..k).filter(|&j| active[j]).collect();
        if batch.is_empty() {
            break;
        }
        // One blocked preconditioner application for the whole batch.
        let mut rb = Mat::<T>::zeros(n, batch.len());
        for (c, &j) in batch.iter().enumerate() {
            rb.col_mut(c).copy_from_slice(r.col(j));
        }
        let zb = m.solve_mat(&rb);
        for (c, &j) in batch.iter().enumerate() {
            let rz_new = dot(r.col(j), zb.col(c));
            let beta = rz_new / rz[j];
            rz[j] = rz_new;
            let (pc, zc) = (p.col_mut(j), zb.col(c));
            for (pi, zi) in pc.iter_mut().zip(zc.iter()) {
                *pi = *zi + beta * *pi;
            }
        }
    }

    (0..k)
        .map(|j| CgResult {
            x: x.col(j).to_vec(),
            iterations: iters[j],
            converged: converged[j],
            relres: relres[j],
        })
        .collect()
}

/// Right-preconditioned GMRES over a block of right-hand sides, one
/// column after another.
///
/// The per-column loop is a choice, not a limit: Arnoldi step `j` of
/// every column applies `M^{-1}` to that column's own `v_j`, so the
/// columns could advance in lockstep with one [`Factorized::solve_mat`]
/// per step, as [`pcg_factorized_mat`] does. Whether that pays is left
/// to the accuracy–cost study of ROADMAP item 6. For heavy multi-RHS
/// traffic prefer the direct [`Factorized::solve_mat`], which is the
/// blocked path end-to-end.
pub fn gmres_factorized_mat<T: Scalar>(
    a: &dyn LinOp<T>,
    m: &dyn Factorized<T>,
    b: &Mat<T>,
    opts: &GmresOpts,
) -> Vec<GmresResult<T>> {
    (0..b.ncols())
        .map(|j| gmres_factorized(a, m, b.col(j), opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_core::stats::FactorStats;

    /// A mock "factorization" of the identity matrix.
    struct IdentityFact {
        n: usize,
        stats: FactorStats,
    }

    impl Factorized<f64> for IdentityFact {
        fn n(&self) -> usize {
            self.n
        }
        fn solve_mat(&self, b: &Mat<f64>) -> Mat<f64> {
            b.clone()
        }
        fn stats(&self) -> &FactorStats {
            &self.stats
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn factorized_op_applies_inverse() {
        let f = IdentityFact {
            n: 3,
            stats: FactorStats::new(3, 0),
        };
        let op = FactorizedOp::new(&f as &dyn Factorized<f64>);
        assert_eq!(op.dim(), 3);
        assert_eq!(op.apply(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn pcg_factorized_mat_matches_per_column_pcg() {
        struct Diag;
        impl LinOp<f64> for Diag {
            fn dim(&self) -> usize {
                6
            }
            fn apply(&self, x: &[f64]) -> Vec<f64> {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| (i + 1) as f64 * v)
                    .collect()
            }
        }
        let f = IdentityFact {
            n: 6,
            stats: FactorStats::new(6, 0),
        };
        // Three RHS, including an all-zero column (converges at iteration 0).
        let b = srsf_linalg::Mat::from_fn(6, 3, |i, j| match j {
            0 => 1.0,
            1 => (i as f64 * 0.7).sin(),
            _ => 0.0,
        });
        let block = pcg_factorized_mat(&Diag, &f, &b, 1e-12, 100);
        assert_eq!(block.len(), 3);
        assert!(block[2].converged);
        assert_eq!(block[2].iterations, 0);
        for j in 0..3 {
            let single = pcg_factorized(&Diag, &f, b.col(j), 1e-12, 100);
            assert_eq!(block[j].converged, single.converged);
            assert_eq!(block[j].iterations, single.iterations);
            for (p, q) in block[j].x.iter().zip(single.x.iter()) {
                assert!((p - q).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn pcg_with_identity_factorized_matches_cg() {
        // A = diag(1..5); exact preconditioner solves in one apply per CG
        // iteration either way; just exercise the plumbing.
        struct Diag;
        impl LinOp<f64> for Diag {
            fn dim(&self) -> usize {
                5
            }
            fn apply(&self, x: &[f64]) -> Vec<f64> {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| (i + 1) as f64 * v)
                    .collect()
            }
        }
        let f = IdentityFact {
            n: 5,
            stats: FactorStats::new(5, 0),
        };
        let b = vec![1.0; 5];
        let res = pcg_factorized(&Diag, &f, &b, 1e-12, 50);
        assert!(res.converged);
        for (i, x) in res.x.iter().enumerate() {
            assert!((x - 1.0 / (i + 1) as f64).abs() < 1e-10);
        }
    }
}
