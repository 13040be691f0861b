//! Packed symmetric matrices: each entry held once.
//!
//! A symmetric `n x n` matrix (`A = Aᵀ`, real or complex — the plain
//! transpose, never the conjugate) is held as its lower triangle, column
//! by column: column `j` is the run `A[j.., j]` of `n - j` entries from
//! the diagonal down, and the runs follow one another, `n (n + 1) / 2`
//! entries in all. An entry above the diagonal is read as its mirror,
//! `A[i, j] = A[j, i]`. The solve sweep applies such a matrix straight
//! from this layout ([`crate::panel::panel_mul_sym_acc`]).

use crate::mat::Mat;
use crate::scalar::Scalar;

/// A symmetric matrix held as its packed lower columns (module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct SymMat<T> {
    n: usize,
    data: Vec<T>,
}

/// Entries a packed matrix of order `n` holds, `n (n + 1) / 2`; `None`
/// where that overflows.
pub fn packed_len(n: usize) -> Option<usize> {
    n.checked_add(1)?.checked_mul(n).map(|e| e / 2)
}

/// Offset of column `j`'s run in the packed storage of order `n`.
#[inline]
pub(crate) fn col_start(n: usize, j: usize) -> usize {
    j * (2 * n + 1 - j) / 2
}

impl<T: Scalar> SymMat<T> {
    /// Pack the lower triangle of the square `a`; its strict upper
    /// triangle is not read. The buffer is exactly `n (n + 1) / 2` long.
    pub fn from_lower(a: &Mat<T>) -> Self {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "SymMat: square matrix required");
        let mut data = Vec::with_capacity(n * (n + 1) / 2);
        for j in 0..n {
            data.extend_from_slice(&a.col(j)[j..]);
        }
        Self { n, data }
    }

    /// Wrap a packed buffer of order `n`: `None` unless it holds exactly
    /// [`packed_len`]`(n)` entries.
    pub fn from_packed(n: usize, data: Vec<T>) -> Option<Self> {
        (packed_len(n) == Some(data.len())).then_some(Self { n, data })
    }

    /// Order of the matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The packed lower columns, one after another.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The full square, its upper triangle mirrored from the lower.
    #[doc(hidden)]
    // ORACLE: panel.rs panel_sym_* tests, oracle.rs ldlt_dense_factors
    pub fn to_mat(&self) -> Mat<T> {
        let n = self.n;
        Mat::from_fn(n, n, |i, j| {
            let (r, c) = if i >= j { (i, j) } else { (j, i) };
            self.data[col_start(n, c) + r - c]
        })
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_the_lower_columns_and_mirrors_them_back() {
        for n in [0, 1, 2, 5, 13] {
            let mut a = Mat::<f64>::from_fn(n, n, |i, j| (i * 31 + j) as f64);
            a.mirror_upper();
            let s = SymMat::from_lower(&a);
            assert_eq!(s.as_slice().len(), packed_len(n).unwrap());
            assert_eq!(s.heap_bytes(), 8 * n * (n + 1) / 2);
            for j in 0..n {
                assert_eq!(s.as_slice()[col_start(n, j)], a[(j, j)]);
            }
            assert_eq!(s.to_mat(), a);
            assert_eq!(SymMat::from_packed(n, s.as_slice().to_vec()), Some(s));
        }
        assert_eq!(SymMat::<f64>::from_packed(2, vec![0.0; 2]), None);
        assert_eq!(packed_len(usize::MAX), None);
    }
}
