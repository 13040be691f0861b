//! Coupling blocks held at the width the factorization chose.
//!
//! A record's neighbor couplings (`EN = X_NR`, and `FN = X_RN` of a
//! general record) are most of a factor's bytes. Where the compression
//! tolerance leaves room for it, the factorization rounds them to `f32`
//! once they have served the Schur update in `f64`, and holds them as a
//! [`NarrowMat`]: every real number of the matrix — an `f64` entry, or
//! the `re` and `im` of a complex one — as one `f32`, column-major, the
//! two parts of a complex entry side by side. A [`Coupling`] is either
//! width. The panel products of the solve sweep read a narrow one by
//! widening it exactly into `f64` a chunk of each strip at a time
//! ([`crate::panel`]), so its entries enter the arithmetic as those of
//! the widened matrix.

use crate::mat::Mat;
use crate::scalar::Scalar;
use core::marker::PhantomData;

/// `f32` parts per entry of `T`: 1 real, 2 complex.
#[inline(always)]
pub(crate) const fn parts<T: Scalar>() -> usize {
    if T::IS_COMPLEX {
        2
    } else {
        1
    }
}

/// `dst[q] = src`'s entry `q`, widened exactly: `src` holds
/// `dst.len()` entries of `T`, [`parts`] `f32`s each.
#[inline(always)]
pub(crate) fn widen<T: Scalar>(src: &[f32], dst: &mut [T]) {
    if T::IS_COMPLEX {
        for (d, s) in dst.iter_mut().zip(src.chunks_exact(2)) {
            *d = T::from_re_im(f64::from(s[0]), f64::from(s[1]));
        }
    } else {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = T::from_re_im(f64::from(s), 0.0);
        }
    }
}

/// A matrix of `T` whose parts are held as `f32` (module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct NarrowMat<T> {
    nrows: usize,
    ncols: usize,
    parts: Vec<f32>,
    elem: PhantomData<T>,
}

impl<T: Scalar> NarrowMat<T> {
    /// `m` with every part rounded to the nearest `f32`.
    fn from_mat(m: &Mat<T>) -> Self {
        let mut parts = Vec::with_capacity(m.as_slice().len() * parts::<T>());
        for &v in m.as_slice() {
            parts.push(v.re() as f32);
            if T::IS_COMPLEX {
                parts.push(v.im() as f32);
            }
        }
        Self {
            nrows: m.nrows(),
            ncols: m.ncols(),
            parts,
            elem: PhantomData,
        }
    }

    /// Wrap the column-major parts of an `nrows x ncols` matrix: `None`
    /// unless there are exactly `nrows · ncols` entries' worth.
    pub fn from_parts(nrows: usize, ncols: usize, parts: Vec<f32>) -> Option<Self> {
        let want = nrows.checked_mul(ncols)?.checked_mul(self::parts::<T>())?;
        (parts.len() == want).then_some(Self {
            nrows,
            ncols,
            parts,
            elem: PhantomData,
        })
    }

    /// The parts, column-major, `re` before `im`.
    pub fn parts(&self) -> &[f32] {
        &self.parts
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }
}

/// A coupling block at either width (module docs).
#[derive(Clone, Debug, PartialEq)]
pub enum Coupling<T> {
    /// Held as computed.
    Wide(Mat<T>),
    /// Rounded to `f32` parts.
    Narrow(NarrowMat<T>),
}

impl<T: Scalar> Coupling<T> {
    /// `m` as it is, or rounded to `f32` with `narrow`.
    pub fn new(m: Mat<T>, narrow: bool) -> Self {
        if narrow {
            Self::Narrow(NarrowMat::from_mat(&m))
        } else {
            Self::Wide(m)
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        match self {
            Self::Wide(m) => m.nrows(),
            Self::Narrow(m) => m.nrows(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        match self {
            Self::Wide(m) => m.ncols(),
            Self::Narrow(m) => m.ncols(),
        }
    }

    /// `true` for the `f32` form.
    #[doc(hidden)]
    // ORACLE: accuracy, symmetric_mode, wire_fuzz
    pub fn is_narrow(&self) -> bool {
        matches!(self, Self::Narrow(_))
    }

    /// The matrix the products apply: the entries as held, a narrow
    /// block's widened exactly.
    #[doc(hidden)]
    // ORACLE: panel.rs panel_narrow_products_are_the_widened_products_*
    pub fn to_mat(&self) -> Mat<T> {
        match self {
            Self::Wide(m) => m.clone(),
            Self::Narrow(m) => {
                let mut out = Mat::zeros(m.nrows, m.ncols);
                widen(&m.parts, out.as_mut_slice());
                out
            }
        }
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Self::Wide(m) => m.heap_bytes(),
            Self::Narrow(m) => m.parts.capacity() * core::mem::size_of::<f32>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn narrow_rounds_each_part_and_widens_exactly() {
        let m = Mat::from_fn(3, 2, |i, j| c64::new(0.1 * i as f64, -1.0 / (j + 3) as f64));
        let c = Coupling::new(m.clone(), true);
        assert!(c.is_narrow());
        assert_eq!((c.nrows(), c.ncols(), c.heap_bytes()), (3, 2, 6 * 8));
        let back = c.to_mat();
        for (b, v) in back.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(b.re, f64::from(v.re as f32));
            assert_eq!(b.im, f64::from(v.im as f32));
        }
        let Coupling::Narrow(n) = &c else {
            unreachable!()
        };
        let again = NarrowMat::<c64>::from_parts(3, 2, n.parts().to_vec());
        assert_eq!(again.as_ref(), Some(n));
        assert_eq!(NarrowMat::<c64>::from_parts(3, 2, vec![0.0; 6]), None);
        assert_eq!(
            NarrowMat::<f64>::from_parts(usize::MAX, 2, Vec::new()),
            None
        );
        let wide = Coupling::new(Mat::<f64>::identity(3), false);
        assert!(!wide.is_narrow());
        assert_eq!(wide.heap_bytes(), 9 * 8);
        assert_eq!(wide.to_mat(), Mat::identity(3));
    }
}
