//! BLAS-1 style helpers on slices.
//!
//! Dot products conjugate their first argument, matching the complex inner
//! product convention used by GMRES and the ID error bounds.

use crate::scalar::Scalar;

/// Conjugated dot product `x^H y`, four-way unrolled to expose ILP (these
/// reductions sit on the CPQR pivot path).
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    let mut acc = [T::ZERO; 4];
    let (xc, xr) = x.split_at(x.len() - x.len() % 4);
    let (yc, yr) = y.split_at(xc.len());
    for (a, b) in xc.chunks_exact(4).zip(yc.chunks_exact(4)) {
        for i in 0..4 {
            acc[i] = a[i].conj().mul_add(b[i], acc[i]);
        }
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for (a, b) in xr.iter().zip(yr.iter()) {
        s = a.conj().mul_add(*b, s);
    }
    s
}

/// Euclidean norm, accumulated in squared modulus to avoid complex sqrt;
/// four-way unrolled like [`dot`].
pub fn nrm2<T: Scalar>(x: &[T]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (xc, xr) = x.split_at(x.len() - x.len() % 4);
    for a in xc.chunks_exact(4) {
        for i in 0..4 {
            acc[i] += a[i].abs_sq();
        }
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for a in xr {
        s += a.abs_sq();
    }
    s.sqrt()
}

/// `y += alpha * x`.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha`.
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Maximum modulus of any entry.
pub fn max_abs<T: Scalar>(x: &[T]) -> f64 {
    x.iter().map(|v| v.abs()).fold(0.0, f64::max)
}

/// Relative l2 difference `||x - y|| / max(||y||, floor)`.
#[doc(hidden)]
// ORACLE: tests/integration.rs, solver_api, sequential_correctness, symmetric_mode
pub fn rel_diff<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    assert_eq!(x.len(), y.len());
    let num = x
        .iter()
        .zip(y.iter())
        .map(|(a, b)| (*a - *b).abs_sq())
        .sum::<f64>()
        .sqrt();
    let den = nrm2(y).max(f64::MIN_POSITIVE.sqrt());
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn dot_conjugates_first_argument() {
        let x = [c64::new(0.0, 1.0)];
        let y = [c64::new(0.0, 1.0)];
        // <i, i> = conj(i)*i = 1
        assert_eq!(dot(&x, &y), c64::ONE);
        let r = dot(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(r, 11.0);
    }

    #[test]
    fn nrm2_and_max_abs() {
        assert_eq!(nrm2(&[3.0, 4.0]), 5.0);
        let z = [c64::new(3.0, 4.0)];
        assert_eq!(nrm2(&z), 5.0);
        assert_eq!(max_abs(&[-2.0, 1.5]), 2.0);
        assert_eq!(nrm2::<f64>(&[]), 0.0);
    }

    #[test]
    fn axpy_scal() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
        scal(0.5, &mut y);
        assert_eq!(y, vec![1.5, -0.5]);
    }

    #[test]
    fn rel_diff_basic() {
        assert!(rel_diff(&[1.0, 2.0], &[1.0, 2.0]) == 0.0);
        let d = rel_diff(&[1.1, 2.0], &[1.0, 2.0]);
        assert!((d - 0.1 / 5.0f64.sqrt()).abs() < 1e-12);
    }
}
