//! Dense assembly of kernel matrices (reference path for validation and
//! small problems).

use crate::kernel::Kernel;
use srsf_geometry::point::Point;
use srsf_linalg::{LinOp, Mat, Scalar};

/// Assemble the dense block `A[rows, cols]`.
pub fn assemble_block<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    rows: &[usize],
    cols: &[usize],
) -> Mat<K::Elem> {
    kernel.block(pts, rows, cols)
}

/// Assemble the full dense matrix. Quadratic memory — only for validation.
#[doc(hidden)]
// ORACLE: distributed_correctness, sequential_correctness, symmetric_mode, fast_op unit tests
pub fn assemble_dense<K: Kernel>(kernel: &K, pts: &[Point]) -> Mat<K::Elem> {
    let idx: Vec<usize> = (0..pts.len()).collect();
    kernel.block(pts, &idx, &idx)
}

/// A lazily-evaluated dense kernel operator: `O(N^2)` work per apply but no
/// `O(N^2)` storage, which keeps the reference residual path usable at
/// mid-size `N`.
pub struct DenseKernelOp<T> {
    n: usize,
    row_chunks: Vec<Mat<T>>,
    chunk: usize,
}

impl<T: Scalar> DenseKernelOp<T> {
    /// Pre-assemble in row chunks (bounded temporary memory during build,
    /// contiguous GEMV-friendly blocks afterwards).
    pub fn new<K: Kernel<Elem = T>>(kernel: &K, pts: &[Point]) -> Self {
        let n = pts.len();
        let chunk = 512.min(n.max(1));
        let cols: Vec<usize> = (0..n).collect();
        let mut row_chunks = Vec::new();
        let mut r0 = 0;
        while r0 < n {
            let r1 = (r0 + chunk).min(n);
            let rows: Vec<usize> = (r0..r1).collect();
            row_chunks.push(kernel.block(pts, &rows, &cols));
            r0 = r1;
        }
        Self {
            n,
            row_chunks,
            chunk,
        }
    }
}

impl<T: Scalar> LinOp<T> for DenseKernelOp<T> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![T::ZERO; self.n];
        for (c, block) in self.row_chunks.iter().enumerate() {
            let r0 = c * self.chunk;
            let rows = block.nrows();
            block.matvec_acc_into(x, &mut y[r0..r0 + rows]);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::LaplaceKernel;
    use srsf_geometry::grid::UnitGrid;
    use srsf_linalg::norms::max_abs_diff;

    #[test]
    fn dense_assembly_symmetric_for_laplace() {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let a = assemble_dense(&k, &pts);
        assert_eq!(a.nrows(), 64);
        let at = a.transpose();
        assert!(max_abs_diff(&a, &at) < 1e-15);
    }

    #[test]
    fn block_is_submatrix_of_dense() {
        let grid = UnitGrid::new(4);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let a = assemble_dense(&k, &pts);
        let rows = [3usize, 7, 11];
        let cols = [0usize, 7];
        let b = assemble_block(&k, &pts, &rows, &cols);
        for (bi, &i) in rows.iter().enumerate() {
            for (bj, &j) in cols.iter().enumerate() {
                assert_eq!(b[(bi, bj)], a[(i, j)]);
            }
        }
    }

    #[test]
    fn op_matches_dense_matvec() {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let a = assemble_dense(&k, &pts);
        let op = DenseKernelOp::new(&k, &pts);
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let want = a.matvec(&x);
        let got = op.apply(&x);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-13);
        }
        assert_eq!(op.dim(), 64);
    }
}
