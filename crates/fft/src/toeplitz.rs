//! Fast matvec with 2-level (block) Toeplitz matrices via circulant
//! embedding.
//!
//! On an `m x m` uniform grid, a translation-invariant kernel produces
//! `A[i,j] = t(ix - jx, iy - jy)`. Embedding the `(2m-1)^2` offsets into a
//! `2m x 2m` circulant makes `A x` two 2-D FFTs and a pointwise multiply —
//! O(N log N) total. This is how the paper evaluates `||A x - b||` for
//! billion-row matrices without storing `A`.
//!
//! The symbol value at offset `(0,0)` is the matrix diagonal; callers that
//! need a non-translation-invariant diagonal (as both paper kernels do)
//! pass `t(0,0) = 0` and add the diagonal contribution separately.

use crate::fft2::Fft2;
use srsf_linalg::c64;

/// Fast multiplication by a 2-level Toeplitz matrix on an `m x m` grid.
#[derive(Clone, Debug)]
pub struct Toeplitz2D {
    m: usize,
    big: usize,
    plan: Fft2,
    /// FFT of the embedded circulant symbol.
    symbol_hat: Vec<c64>,
}

impl Toeplitz2D {
    /// Build from the offset symbol `t(dx, dy)`, `dx, dy in (-m, m)`.
    ///
    /// `m` must be a power of two (grid sizes in the experiments are).
    pub fn new(m: usize, symbol: impl Fn(i64, i64) -> c64) -> Self {
        assert!(m.is_power_of_two(), "grid side must be a power of two");
        let big = 2 * m;
        let mut c = vec![c64::ZERO; big * big];
        for dy in -(m as i64 - 1)..(m as i64) {
            let wy = dy.rem_euclid(big as i64) as usize;
            for dx in -(m as i64 - 1)..(m as i64) {
                let wx = dx.rem_euclid(big as i64) as usize;
                c[wy * big + wx] = symbol(dx, dy);
            }
        }
        let plan = Fft2::new(big, big);
        plan.forward(&mut c);
        Self {
            m,
            big,
            plan,
            symbol_hat: c,
        }
    }

    /// Grid side length `m` (the operator acts on vectors of length `m*m`).
    pub fn grid_side(&self) -> usize {
        self.m
    }

    /// Allocate a reusable scratch buffer for [`Toeplitz2D::apply_into`].
    ///
    /// One `2m x 2m` complex buffer — the single allocation every apply
    /// needs. Callers in a loop (the sketch accumulation applies the same
    /// operator once per sketch row) allocate it once and reuse it.
    pub fn scratch(&self) -> ToeplitzScratch {
        ToeplitzScratch {
            buf: vec![c64::ZERO; self.big * self.big],
        }
    }

    /// `y = A x` into a caller-provided output, reusing `scratch` —
    /// the allocation-free path behind [`Toeplitz2D::apply`].
    pub fn apply_into(&self, x: &[c64], y: &mut [c64], scratch: &mut ToeplitzScratch) {
        let m = self.m;
        assert_eq!(x.len(), m * m, "vector length must be m^2");
        assert_eq!(y.len(), m * m, "output length must be m^2");
        let buf = self.convolve(scratch, |buf, big| {
            for iy in 0..m {
                buf[iy * big..iy * big + m].copy_from_slice(&x[iy * m..(iy + 1) * m]);
            }
        });
        for iy in 0..m {
            y[iy * m..(iy + 1) * m].copy_from_slice(&buf[iy * self.big..iy * self.big + m]);
        }
    }

    /// `y = A x` for `x` of length `m*m` in row-major grid order.
    pub fn apply(&self, x: &[c64]) -> Vec<c64> {
        let mut y = vec![c64::ZERO; self.m * self.m];
        self.apply_into(x, &mut y, &mut self.scratch());
        y
    }

    /// Real-input apply into a caller-provided real output: packs `x`
    /// straight into the embedding buffer and extracts real parts straight
    /// out of it — no intermediate complex vectors.
    pub fn apply_real_into(&self, x: &[f64], y: &mut [f64], scratch: &mut ToeplitzScratch) {
        let m = self.m;
        assert_eq!(x.len(), m * m, "vector length must be m^2");
        assert_eq!(y.len(), m * m, "output length must be m^2");
        let buf = self.convolve(scratch, |buf, big| {
            for iy in 0..m {
                for ix in 0..m {
                    buf[iy * big + ix] = c64::new(x[iy * m + ix], 0.0);
                }
            }
        });
        for iy in 0..m {
            for ix in 0..m {
                y[iy * m + ix] = buf[iy * self.big + ix].re;
            }
        }
    }

    /// Shared circulant convolution: zero the embedding buffer, let the
    /// caller pack the top-left `m x m` corner, then FFT -> pointwise
    /// symbol multiply -> inverse FFT. Returns the buffer for extraction.
    fn convolve<'s>(
        &self,
        scratch: &'s mut ToeplitzScratch,
        pack: impl FnOnce(&mut [c64], usize),
    ) -> &'s [c64] {
        let big = self.big;
        assert_eq!(
            scratch.buf.len(),
            big * big,
            "scratch sized for a different operator"
        );
        scratch.buf.fill(c64::ZERO);
        pack(&mut scratch.buf, big);
        self.plan.forward(&mut scratch.buf);
        for (b, s) in scratch.buf.iter_mut().zip(self.symbol_hat.iter()) {
            *b *= *s;
        }
        self.plan.inverse(&mut scratch.buf);
        &scratch.buf
    }
}

/// Reusable workspace for [`Toeplitz2D::apply_into`] /
/// [`Toeplitz2D::apply_real_into`]; obtain from [`Toeplitz2D::scratch`].
#[derive(Clone, Debug)]
pub struct ToeplitzScratch {
    buf: Vec<c64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: A[i,j] = t(offset).
    fn dense_apply(m: usize, t: &dyn Fn(i64, i64) -> c64, x: &[c64]) -> Vec<c64> {
        let n = m * m;
        let mut y = vec![c64::ZERO; n];
        for i in 0..n {
            let (ix, iy) = ((i % m) as i64, (i / m) as i64);
            for j in 0..n {
                let (jx, jy) = ((j % m) as i64, (j / m) as i64);
                y[i] += t(ix - jx, iy - jy) * x[j];
            }
        }
        y
    }

    #[test]
    fn matches_dense_complex_kernel() {
        let m = 8;
        let t = |dx: i64, dy: i64| {
            if dx == 0 && dy == 0 {
                c64::ZERO
            } else {
                let r = ((dx * dx + dy * dy) as f64).sqrt();
                c64::from_polar(1.0 / r, 0.7 * r)
            }
        };
        let x: Vec<c64> = (0..m * m)
            .map(|i| c64::new((i % 13) as f64 - 6.0, (i % 7) as f64))
            .collect();
        let fast = Toeplitz2D::new(m, t).apply(&x);
        let want = dense_apply(m, &t, &x);
        for (a, b) in fast.iter().zip(want.iter()) {
            assert!((*a - *b).norm() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn matches_dense_log_kernel() {
        // The Laplace symbol shape: -log r with zeroed diagonal.
        let m = 16;
        let h = 1.0 / m as f64;
        let t = move |dx: i64, dy: i64| {
            if dx == 0 && dy == 0 {
                c64::ZERO
            } else {
                let r = h * ((dx * dx + dy * dy) as f64).sqrt();
                c64::new(-r.ln(), 0.0)
            }
        };
        let x: Vec<f64> = (0..m * m)
            .map(|i| ((i * 31) % 17) as f64 / 17.0 - 0.5)
            .collect();
        let top = Toeplitz2D::new(m, t);
        let mut fast = vec![0.0; m * m];
        top.apply_real_into(&x, &mut fast, &mut top.scratch());
        let xc: Vec<c64> = x.iter().map(|&v| c64::new(v, 0.0)).collect();
        let want = dense_apply(m, &t, &xc);
        for (a, b) in fast.iter().zip(want.iter()) {
            assert!((a - b.re).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_symbol_is_identity() {
        let m = 4;
        let t = |dx: i64, dy: i64| {
            if dx == 0 && dy == 0 {
                c64::ONE
            } else {
                c64::ZERO
            }
        };
        let x: Vec<c64> = (0..16).map(|i| c64::new(i as f64, -(i as f64))).collect();
        let y = Toeplitz2D::new(m, t).apply(&x);
        for (a, b) in y.iter().zip(x.iter()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn apply_into_reuses_scratch_and_matches_apply() {
        let m = 8;
        let t = |dx: i64, dy: i64| {
            if dx == 0 && dy == 0 {
                c64::ZERO
            } else {
                let r = ((dx * dx + dy * dy) as f64).sqrt();
                c64::new(1.0 / r, 0.3 / r)
            }
        };
        let top = Toeplitz2D::new(m, t);
        let mut scratch = top.scratch();
        let mut y = vec![c64::ZERO; m * m];
        for trial in 0..3 {
            // Same scratch across applies; a stale buffer would corrupt
            // later results.
            let x: Vec<c64> = (0..m * m)
                .map(|i| c64::new((i + trial) as f64, (i % 5) as f64 - 2.0))
                .collect();
            top.apply_into(&x, &mut y, &mut scratch);
            let want = top.apply(&x);
            for (a, b) in y.iter().zip(want.iter()) {
                assert!((*a - *b).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn apply_real_into_matches_complex_path() {
        let m = 16;
        let h = 1.0 / m as f64;
        let t = move |dx: i64, dy: i64| {
            if dx == 0 && dy == 0 {
                c64::ZERO
            } else {
                let r = h * ((dx * dx + dy * dy) as f64).sqrt();
                c64::new(-r.ln(), 0.0)
            }
        };
        let top = Toeplitz2D::new(m, t);
        let mut scratch = top.scratch();
        let x: Vec<f64> = (0..m * m).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        let mut y = vec![0.0; m * m];
        top.apply_real_into(&x, &mut y, &mut scratch);
        let xc: Vec<c64> = x.iter().map(|&v| c64::new(v, 0.0)).collect();
        let want = top.apply(&xc);
        for (a, b) in y.iter().zip(want.iter()) {
            assert!((a - b.re).abs() < 1e-10);
        }
    }

    #[test]
    fn shift_symbol_translates() {
        // t = 1 at offset (1, 0): y[(ix,iy)] = x[(ix-1,iy)] for interior,
        // 0 at the ix = 0 boundary (Toeplitz, not circulant!).
        let m = 8;
        let t = |dx: i64, dy: i64| {
            if dx == 1 && dy == 0 {
                c64::ONE
            } else {
                c64::ZERO
            }
        };
        let x: Vec<c64> = (0..m * m).map(|i| c64::new(i as f64 + 1.0, 0.0)).collect();
        let y = Toeplitz2D::new(m, t).apply(&x);
        for iy in 0..m {
            for ix in 0..m {
                let got = y[iy * m + ix];
                let want = if ix == 0 {
                    c64::ZERO
                } else {
                    x[iy * m + ix - 1]
                };
                assert!((got - want).norm() < 1e-10, "at ({ix},{iy})");
            }
        }
    }
}
