//! Column-major dense matrix.
//!
//! Column-major storage matches the access pattern of every kernel in this
//! crate (Householder reflections, triangular solves and GEMM all sweep down
//! columns), so the innermost loops are contiguous.

use crate::scalar::Scalar;
use core::fmt;
use core::ops::{Index, IndexMut};

/// Dense `nrows x ncols` matrix stored column-major.
#[derive(Clone, PartialEq)]
pub struct Mat<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// All-zero matrix. Zero-sized dimensions are allowed and useful: boxes
    /// with no redundant points produce genuinely empty blocks.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build entry-wise from a function of `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Wrap an existing column-major buffer.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length {} != {nrows}x{ncols}",
            data.len()
        );
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `true` if either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// Raw column-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable column-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Contiguous view of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutable view of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two disjoint mutable column views (`j1 != j2`), used by pivoting swaps.
    pub fn cols_mut_pair(&mut self, j1: usize, j2: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(j1, j2);
        let n = self.nrows;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (a, b) = self.data.split_at_mut(hi * n);
        let first = &mut a[lo * n..(lo + 1) * n];
        let second = &mut b[..n];
        if j1 < j2 {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Swap two columns.
    pub fn swap_cols(&mut self, j1: usize, j2: usize) {
        if j1 == j2 {
            return;
        }
        let (a, b) = self.cols_mut_pair(j1, j2);
        a.swap_with_slice(b);
    }

    /// Swap two rows.
    pub fn swap_rows(&mut self, i1: usize, i2: usize) {
        if i1 == i2 {
            return;
        }
        for j in 0..self.ncols {
            self.data.swap(j * self.nrows + i1, j * self.nrows + i2);
        }
    }

    /// Plain transpose, tiled so both the strided writes and the
    /// contiguous reads stay within one cache tile at a time.
    pub fn transpose(&self) -> Mat<T> {
        self.transposed(false)
    }

    /// Conjugate transpose (adjoint). Equal to [`Mat::transpose`] for reals.
    pub fn adjoint(&self) -> Mat<T> {
        self.transposed(T::IS_COMPLEX)
    }

    /// Cache-tiled out-of-place (conjugate) transpose: within a tile the
    /// source is read down its columns and the writes stride through
    /// `out` — unless that stride is a multiple of 4 KiB, which maps every
    /// write of a tile column onto one L1 cache set (the solve sweep's
    /// `nrhs x n` block going back to `n x nrhs` with `n` a power of two:
    /// 4 ns an entry instead of 1). Then the tile is walked the other
    /// way, contiguous in `out` and strided in the source.
    fn transposed(&self, conj: bool) -> Mat<T> {
        const TILE: usize = 32;
        let (m, n) = (self.nrows, self.ncols);
        let aliased = |stride: usize| (stride * core::mem::size_of::<T>()).is_multiple_of(4096);
        let by_rows = aliased(n) && !aliased(m);
        let mut out = Mat::zeros(n, m);
        for jb in (0..n).step_by(TILE) {
            let jend = (jb + TILE).min(n);
            for ib in (0..m).step_by(TILE) {
                let iend = (ib + TILE).min(m);
                if by_rows {
                    for i in ib..iend {
                        let dst = &mut out.data[i * n + jb..i * n + jend];
                        for (off, d) in dst.iter_mut().enumerate() {
                            let v = self.data[(jb + off) * m + i];
                            *d = if conj { v.conj() } else { v };
                        }
                    }
                    continue;
                }
                for j in jb..jend {
                    let src = &self.col(j)[ib..iend];
                    for (off, &v) in src.iter().enumerate() {
                        out.data[(ib + off) * n + j] = if conj { v.conj() } else { v };
                    }
                }
            }
        }
        out
    }

    /// Entry-wise reference transpose (test oracle for the tiled path).
    #[doc(hidden)]
    pub fn transpose_naive(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Entry-wise reference adjoint (test oracle for the tiled path).
    #[doc(hidden)]
    pub fn adjoint_naive(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Gather the submatrix `self[rows, cols]`.
    pub fn select(&self, rows: &[usize], cols: &[usize]) -> Mat<T> {
        let mut out = Mat::zeros(rows.len(), cols.len());
        for (jj, &j) in cols.iter().enumerate() {
            let src = self.col(j);
            let dst = out.col_mut(jj);
            for (ii, &i) in rows.iter().enumerate() {
                dst[ii] = src[i];
            }
        }
        out
    }

    /// Gather the rows `self[rows, :]` (all columns).
    pub fn select_rows(&self, rows: &[usize]) -> Mat<T> {
        let mut out = Mat::zeros(rows.len(), self.ncols);
        for j in 0..self.ncols {
            let src = self.col(j);
            for (d, &i) in out.col_mut(j).iter_mut().zip(rows) {
                *d = src[i];
            }
        }
        out
    }

    /// Gather the columns `self[:, cols]` (all rows) — whole-column copies.
    pub fn select_cols(&self, cols: &[usize]) -> Mat<T> {
        let mut data = Vec::with_capacity(self.nrows * cols.len());
        for &j in cols {
            data.extend_from_slice(self.col(j));
        }
        Mat::from_vec(self.nrows, cols.len(), data)
    }

    /// Contiguous block copy `self[r0..r0+nr, c0..c0+nc]`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Mat<T> {
        assert!(r0 + nr <= self.nrows && c0 + nc <= self.ncols);
        let mut out = Mat::zeros(nr, nc);
        for j in 0..nc {
            let src = &self.col(c0 + j)[r0..r0 + nr];
            out.col_mut(j).copy_from_slice(src);
        }
        out
    }

    /// Overwrite the strict lower triangle with the mirror of the upper
    /// one, making a square matrix symmetric bit for bit (plain
    /// transpose, no conjugation).
    pub fn mirror_upper(&mut self) {
        assert_eq!(self.nrows, self.ncols, "mirror_upper: square only");
        let n = self.nrows;
        for j in 0..n {
            for i in (j + 1)..n {
                self.data[j * n + i] = self.data[i * n + j];
            }
        }
    }

    /// Write `block` into `self` starting at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Mat<T>) {
        assert!(r0 + block.nrows <= self.nrows && c0 + block.ncols <= self.ncols);
        for j in 0..block.ncols {
            let dst_col = self.col_mut(c0 + j);
            dst_col[r0..r0 + block.nrows].copy_from_slice(block.col(j));
        }
    }

    /// Re-shape to an all-zero `nrows x ncols` matrix, keeping the
    /// allocation — for scratch that is refilled once per record.
    pub fn reset_zeros(&mut self, nrows: usize, ncols: usize) {
        self.data.clear();
        self.data.resize(nrows * ncols, T::ZERO);
        (self.nrows, self.ncols) = (nrows, ncols);
    }

    /// Gather columns `idx` into `out`, re-shaped to `nrows x idx.len()`
    /// (its allocation is kept): `out[.., k] = self[.., idx[k]]`, rows
    /// beyond `self.nrows()` zero, rows beyond `nrows` dropped. With the
    /// solve sweep's RHS-major block as `self` this is one contiguous
    /// copy per point, into a panel padded to the register-tile height or
    /// out of one into an exact-height wire frame. Indices may repeat.
    pub fn gather_cols_into(&self, idx: &[u32], nrows: usize, out: &mut Mat<T>) {
        let keep = nrows.min(self.nrows);
        out.data.clear();
        out.data.reserve(nrows * idx.len());
        for &j in idx {
            out.data.extend_from_slice(&self.col(j as usize)[..keep]);
            out.data.resize(out.data.len() + nrows - keep, T::ZERO);
        }
        (out.nrows, out.ncols) = (nrows, idx.len());
    }

    /// Scatter the columns of `vals` back: `self[.., idx[k]] = vals[.., k]`
    /// over `self`'s rows (`vals` may be taller — panel padding).
    pub fn scatter_cols(&mut self, idx: &[u32], vals: &Mat<T>) {
        assert_eq!(vals.ncols, idx.len());
        assert!(vals.nrows >= self.nrows);
        let h = self.nrows;
        for (k, &j) in idx.iter().enumerate() {
            self.col_mut(j as usize).copy_from_slice(&vals.col(k)[..h]);
        }
    }

    /// Subtract the columns of `vals`: `self[.., idx[k]] -= vals[.., k]`.
    /// Used to merge additive neighbor updates in a fixed record order so
    /// the threaded solve apply stays bit-deterministic.
    pub fn scatter_cols_sub(&mut self, idx: &[u32], vals: &Mat<T>) {
        assert_eq!(vals.ncols, idx.len());
        assert!(vals.nrows >= self.nrows);
        for (k, &j) in idx.iter().enumerate() {
            for (d, s) in self.col_mut(j as usize).iter_mut().zip(vals.col(k)) {
                *d -= *s;
            }
        }
    }

    /// `self += alpha * other`, entry-wise.
    pub fn axpy(&mut self, alpha: T, other: &Mat<T>) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        for (d, s) in self.data.iter_mut().zip(other.data.iter()) {
            *d += alpha * *s;
        }
    }

    /// Scale every entry by `alpha`.
    pub fn scale_assign(&mut self, alpha: T) {
        for d in self.data.iter_mut() {
            *d *= alpha;
        }
    }

    /// Stack vertically: `[self; bottom]`.
    pub fn vstack(&self, bottom: &Mat<T>) -> Mat<T> {
        assert_eq!(self.ncols, bottom.ncols, "vstack: column mismatch");
        let mut out = Mat::zeros(self.nrows + bottom.nrows, self.ncols);
        for j in 0..self.ncols {
            out.col_mut(j)[..self.nrows].copy_from_slice(self.col(j));
            out.col_mut(j)[self.nrows..].copy_from_slice(bottom.col(j));
        }
        out
    }

    /// Stack horizontally: `[self, right]`.
    pub fn hstack(&self, right: &Mat<T>) -> Mat<T> {
        assert_eq!(self.nrows, right.nrows, "hstack: row mismatch");
        let mut data = Vec::with_capacity((self.ncols + right.ncols) * self.nrows);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&right.data);
        Mat::from_vec(self.nrows, self.ncols + right.ncols, data)
    }

    /// Matrix-vector product `y = self * x`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![T::ZERO; self.nrows];
        self.matvec_acc_into(x, &mut y);
        y
    }

    /// `y += self * x`.
    pub fn matvec_acc_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == T::ZERO {
                continue;
            }
            let col = self.col(j);
            for i in 0..self.nrows {
                y[i] += col[i] * xj;
            }
        }
    }

    /// Approximate number of heap bytes held by the matrix.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<T>()
    }
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[j * self.nrows + i]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[j * self.nrows + i]
    }
}

impl<T: fmt::Debug> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        let show_cols = self.ncols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:?} ", self.data[j * self.nrows + i])?;
            }
            writeln!(f, "{}", if self.ncols > show_cols { "..." } else { "" })?;
        }
        if self.nrows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn construction_and_indexing() {
        let m = Mat::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.col(1), &[1.0, 11.0, 21.0]);
        let id: Mat<f64> = Mat::identity(3);
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(1, 0)], 0.0);
    }

    #[test]
    fn zero_sized_matrices_are_fine() {
        let m: Mat<f64> = Mat::zeros(0, 5);
        assert!(m.is_empty());
        let v = m.matvec(&[1.0; 5]);
        assert!(v.is_empty());
        let t = m.transpose();
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.ncols(), 0);
        let s = m.select(&[], &[1, 2]);
        assert_eq!(s.nrows(), 0);
        assert_eq!(s.ncols(), 2);
    }

    #[test]
    fn transpose_and_adjoint() {
        let m = Mat::from_fn(2, 3, |i, j| c64::new(i as f64, j as f64));
        let t = m.transpose();
        let a = m.adjoint();
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(a[(2, 1)], m[(1, 2)].conj());
        // (A^H)^H == A
        let back = a.adjoint();
        assert_eq!(back, m);
    }

    #[test]
    fn select_and_block() {
        let m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.select(&[3, 0], &[1, 2]);
        assert_eq!(s[(0, 0)], m[(3, 1)]);
        assert_eq!(s[(1, 1)], m[(0, 2)]);
        let b = m.block(1, 2, 2, 2);
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 1)], m[(2, 3)]);
        let mut z = Mat::zeros(4, 4);
        z.set_block(1, 2, &b);
        assert_eq!(z[(2, 3)], m[(2, 3)]);
        assert_eq!(z[(0, 0)], 0.0);
        // One-sided selects agree with the two-sided one on identity lists.
        let all: Vec<usize> = (0..4).collect();
        assert_eq!(m.select_rows(&[3, 0]), m.select(&[3, 0], &all));
        assert_eq!(m.select_cols(&[1, 2]), m.select(&all, &[1, 2]));
        assert_eq!(m.select_rows(&[]).nrows(), 0);
        assert_eq!(m.select_cols(&[]).ncols(), 0);
    }

    #[test]
    fn mirror_upper_makes_exactly_symmetric() {
        let mut m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64 + 0.1);
        let upper = m.clone();
        m.mirror_upper();
        assert_eq!(m, m.transpose());
        for j in 0..4 {
            for i in 0..=j {
                assert_eq!(m[(i, j)], upper[(i, j)]);
            }
        }
    }

    #[test]
    fn swap_rows_cols() {
        let mut m = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let orig = m.clone();
        m.swap_cols(0, 2);
        assert_eq!(m[(1, 0)], orig[(1, 2)]);
        m.swap_cols(0, 2);
        m.swap_rows(0, 1);
        assert_eq!(m[(0, 2)], orig[(1, 2)]);
        m.swap_rows(0, 0); // no-op
        m.swap_cols(1, 1); // no-op
    }

    #[test]
    fn stack_operations() {
        let a = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Mat::from_fn(1, 2, |_, j| (10 + j) as f64);
        let v = a.vstack(&b);
        assert_eq!(v.nrows(), 3);
        assert_eq!(v[(2, 1)], 11.0);
        let c = Mat::from_fn(2, 1, |i, _| (20 + i) as f64);
        let h = a.hstack(&c);
        assert_eq!(h.ncols(), 3);
        assert_eq!(h[(1, 2)], 21.0);
    }

    #[test]
    fn matvec_variants() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 3 + j + 1) as f64);
        let x = [1.0, 0.0, -1.0];
        let y = m.matvec(&x);
        assert_eq!(y, vec![1.0 - 3.0, 4.0 - 6.0]);
        let mut acc = vec![1.0, 1.0];
        m.matvec_acc_into(&x, &mut acc);
        assert_eq!(acc, vec![-1.0, -1.0]);
    }

    #[test]
    fn gather_scatter_cols_roundtrip() {
        let m = Mat::from_fn(3, 5, |i, j| (i + 10 * j) as f64 + 1.0);
        let idx = [4u32, 0, 2];
        // Into a padded panel: extra rows are zero.
        let mut g = Mat::zeros(0, 0);
        m.gather_cols_into(&idx, 4, &mut g);
        assert_eq!((g.nrows(), g.ncols()), (4, 3));
        assert_eq!(g[(1, 0)], m[(1, 4)]);
        assert_eq!(g[(2, 2)], m[(2, 2)]);
        assert_eq!(g[(3, 1)], 0.0);
        // Out of it again at the exact height: padding dropped.
        let mut exact = Mat::zeros(7, 7);
        g.gather_cols_into(&[2, 0], 3, &mut exact);
        assert_eq!(exact, m.select_cols(&[2, 4]));
        let mut back = Mat::zeros(3, 5);
        back.scatter_cols(&idx, &g);
        for &j in &idx {
            assert_eq!(back.col(j as usize), m.col(j as usize));
        }
        assert_eq!(back[(1, 1)], 0.0);
        let mut sub = m.clone();
        sub.scatter_cols_sub(&idx, &g);
        for &j in &idx {
            assert_eq!(sub.col(j as usize), &[0.0; 3]);
        }
        assert_eq!(sub.col(3), m.col(3));
        // Empty index set and zero right-hand sides are fine.
        m.gather_cols_into(&[], 4, &mut g);
        assert_eq!((g.nrows(), g.ncols()), (4, 0));
        let z: Mat<f64> = Mat::zeros(0, 5);
        z.gather_cols_into(&idx, 0, &mut g);
        assert_eq!((g.nrows(), g.ncols()), (0, 3));
        g.reset_zeros(2, 2);
        assert_eq!(g, Mat::zeros(2, 2));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Mat::identity(2);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 1)], 4.0);
        a.scale_assign(0.5);
        assert_eq!(a[(1, 1)], 2.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        let _ = Mat::<f64>::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
