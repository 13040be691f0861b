//! A double-precision complex number, written from scratch.
//!
//! The approved dependency set for this reproduction does not include
//! `num-complex`, and the solver only needs a small surface: field
//! arithmetic, conjugation, modulus, exponential (for plane waves) and
//! polar construction (for FFT twiddle factors). Division uses Smith's
//! algorithm to avoid overflow for badly scaled operands.

use crate::scalar::Scalar;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components.
#[allow(non_camel_case_types)]
#[derive(Copy, Clone, PartialEq, Default)]
pub struct c64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl c64 {
    /// The imaginary unit `i`.
    pub const I: c64 = c64 { re: 0.0, im: 1.0 };
    /// Zero.
    pub const ZERO: c64 = c64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: c64 = c64 { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `r * e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex exponential `e^{self}`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Principal argument in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Modulus, overflow-safe via `hypot`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiply by a real factor (inherent twin of [`Scalar::scale`], so
    /// call sites don't need the trait in scope).
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Complex conjugate (inherent twin of [`Scalar::conj`]).
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Principal square root.
    #[inline]
    fn sqrt_c(self) -> Self {
        // Kahan's branch-stable formulation.
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let m = self.norm();
        let t = ((m + self.re.abs()) * 0.5).sqrt();
        if self.re >= 0.0 {
            Self::new(t, self.im / (2.0 * t))
        } else {
            let u = self.im.abs() / (2.0 * t);
            Self::new(u, if self.im >= 0.0 { t } else { -t })
        }
    }
}

impl fmt::Debug for c64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}i",
            self.re,
            if self.im < 0.0 { "-" } else { "+" },
            self.im.abs()
        )
    }
}

impl fmt::Display for c64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for c64 {
    #[inline]
    fn from(x: f64) -> Self {
        Self::new(x, 0.0)
    }
}

impl Add for c64 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for c64 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for c64 {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for c64 {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        // Smith's algorithm: scale by the larger component of the divisor.
        if o.re.abs() >= o.im.abs() {
            let r = o.im / o.re;
            let d = o.re + o.im * r;
            Self::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = o.re / o.im;
            let d = o.re * r + o.im;
            Self::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for c64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for c64 {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for c64 {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for c64 {
    #[inline]
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}

impl DivAssign for c64 {
    #[inline]
    fn div_assign(&mut self, o: Self) {
        *self = *self / o;
    }
}

impl Mul<f64> for c64 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
}

impl Mul<c64> for f64 {
    type Output = c64;
    #[inline]
    fn mul(self, z: c64) -> c64 {
        c64::new(self * z.re, self * z.im)
    }
}

impl Sum for c64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl Scalar for c64 {
    const ZERO: Self = c64::ZERO;
    const ONE: Self = c64::ONE;
    const IS_COMPLEX: bool = true;

    #[inline]
    fn from_f64(x: f64) -> Self {
        Self::new(x, 0.0)
    }
    #[inline]
    fn from_re_im(re: f64, im: f64) -> Self {
        Self::new(re, im)
    }
    #[inline]
    fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }
    #[inline]
    fn abs(self) -> f64 {
        self.norm()
    }
    #[inline]
    fn abs_sq(self) -> f64 {
        self.norm_sq()
    }
    #[inline]
    fn re(self) -> f64 {
        self.re
    }
    #[inline]
    fn im(self) -> f64 {
        self.im
    }
    #[inline]
    fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt_c()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
    #[inline]
    fn mul_add(self, b: Self, c: Self) -> Self {
        // Four real FMAs: re = re*b.re - im*b.im + c.re, analogous for im.
        Self::new(
            self.re.mul_add(b.re, self.im.mul_add(-b.im, c.re)),
            self.re.mul_add(b.im, self.im.mul_add(b.re, c.im)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: c64, b: c64, tol: f64) -> bool {
        (a - b).norm() <= tol * (1.0 + a.norm().max(b.norm()))
    }

    #[test]
    fn field_arithmetic() {
        let a = c64::new(1.0, 2.0);
        let b = c64::new(-3.0, 0.5);
        assert_eq!(a + b, c64::new(-2.0, 2.5));
        assert_eq!(a - b, c64::new(4.0, 1.5));
        assert_eq!(a * b, c64::new(-3.0 - 1.0, 0.5 - 6.0));
        assert!(close(a / b * b, a, 1e-15));
        assert!(close(a * a.recip(), c64::ONE, 1e-15));
    }

    #[test]
    fn division_is_overflow_safe() {
        let big = c64::new(1e300, 1e300);
        let q = big / big;
        assert!(close(q, c64::ONE, 1e-14));
        let q2 = c64::ONE / c64::new(1e-300, 1e-300);
        assert!(q2.is_finite());
    }

    #[test]
    fn conjugation_and_modulus() {
        let a = c64::new(3.0, -4.0);
        assert_eq!(a.conj(), c64::new(3.0, 4.0));
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!((a * a.conj()).re, 25.0);
        assert_eq!((a * a.conj()).im, 0.0);
    }

    #[test]
    fn exp_and_polar() {
        // Euler's identity.
        let z = c64::new(0.0, std::f64::consts::PI);
        assert!(close(z.exp(), c64::new(-1.0, 0.0), 1e-15));
        let w = c64::from_polar(2.0, 0.7);
        assert!((w.norm() - 2.0).abs() < 1e-15);
        assert!((w.arg() - 0.7).abs() < 1e-15);
    }

    #[test]
    fn sqrt_branches() {
        for &z in &[
            c64::new(4.0, 0.0),
            c64::new(-4.0, 0.0),
            c64::new(0.0, 2.0),
            c64::new(0.0, -2.0),
            c64::new(3.0, -4.0),
            c64::new(-3.0, 4.0),
        ] {
            let s = z.sqrt_c();
            assert!(close(s * s, z, 1e-14), "sqrt({z:?})^2 = {:?}", s * s);
            // Principal branch: non-negative real part.
            assert!(s.re >= -1e-15);
        }
        assert_eq!(c64::ZERO.sqrt_c(), c64::ZERO);
    }

    #[test]
    fn scalar_trait_impl() {
        let a = c64::new(1.0, -1.0);
        assert_eq!(a.re(), 1.0);
        assert_eq!(a.im(), -1.0);
        assert_eq!(a.scale(2.0), c64::new(2.0, -2.0));
        assert_eq!(c64::from_re_im(0.5, 0.25), c64::new(0.5, 0.25));
        assert!((a.abs_sq() - 2.0).abs() < 1e-15);
    }
}
