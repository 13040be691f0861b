//! Matrix norms and comparison helpers.

use crate::mat::Mat;
use crate::scalar::Scalar;

/// Frobenius norm.
pub fn fro_norm<T: Scalar>(a: &Mat<T>) -> f64 {
    a.as_slice().iter().map(|v| v.abs_sq()).sum::<f64>().sqrt()
}

/// Largest entry modulus.
pub fn max_abs<T: Scalar>(a: &Mat<T>) -> f64 {
    a.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max)
}

/// Largest entry-wise difference.
#[doc(hidden)]
// ORACLE: oracle.rs, and the linalg, kernels and core unit tests
pub fn max_abs_diff<T: Scalar>(a: &Mat<T>, b: &Mat<T>) -> f64 {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn norms_on_known_matrix() {
        let a = Mat::from_vec(2, 2, vec![3.0, 0.0, -4.0, 0.0]); // cols [3,0],[-4,0]
        assert_eq!(fro_norm(&a), 5.0);
        assert_eq!(max_abs(&a), 4.0);
    }

    #[test]
    fn complex_norms() {
        let a = Mat::from_vec(1, 1, vec![c64::new(3.0, 4.0)]);
        assert_eq!(fro_norm(&a), 5.0);
    }

    #[test]
    fn diffs() {
        let a = Mat::identity(2);
        let mut b: Mat<f64> = Mat::identity(2);
        b[(0, 1)] = 1e-3;
        assert!((max_abs_diff(&a, &b) - 1e-3).abs() < 1e-18);
    }
}
