//! Singular self-interaction integrals for the collocation diagonal.
//!
//! Piecewise-constant collocation on a uniform grid needs, per diagonal
//! entry, the integral of the kernel over one grid cell centered at the
//! collocation point (Eqs. 17 and 21 of the paper). Both kernels have a
//! logarithmic point singularity at the cell center.
//!
//! * Laplace: the log integral has a closed form (derived below), which we
//!   use directly; the adaptive `dblquad` route is kept for cross-checking
//!   (the paper used `MultiQuad.jl`).
//! * Helmholtz: we subtract the log singularity of `Y0` analytically and
//!   integrate the smooth remainders with a tensor Gauss rule.

use crate::bessel::{j0, y0_smooth_remainder, EULER_GAMMA};
use crate::gauss::GaussLegendre;
use crate::quad::dblquad;
use core::f64::consts::PI;

/// Closed form of `∫∫_{[-h/2,h/2]^2} ln ||x|| dx`.
///
/// Derivation: split the square into 8 congruent triangles and integrate in
/// polar coordinates,
/// `I = 8 ∫_0^{π/4} ∫_0^{a/cosθ} ln(r) r dr dθ` with `a = h/2`, giving
/// `I = 4 a^2 [ ln a + (ln 2)/2 − 3/2 + π/4 ]`.
pub fn laplace_log_self_integral(h: f64) -> f64 {
    assert!(h > 0.0);
    let a = 0.5 * h;
    4.0 * a * a * (a.ln() + 0.5 * (2.0f64).ln() - 1.5 + PI / 4.0)
}

/// Same integral via adaptive `dblquad` over the four quadrants
/// (singularity at a corner of each). Used to validate the closed form and
/// to mirror the paper's `MultiQuad.jl` approach.
#[doc(hidden)]
// ORACLE: closed_form_matches_adaptive_quadrature
pub fn laplace_log_self_integral_adaptive(h: f64, tol: f64) -> f64 {
    let a = 0.5 * h;
    let f = |x: f64, y: f64| {
        let r = (x * x + y * y).sqrt();
        if r > 0.0 {
            r.ln()
        } else {
            0.0
        }
    };
    // One quadrant times four, by symmetry.
    let (q, _) = dblquad(f, (0.0, a), (0.0, a), tol / 4.0);
    4.0 * q
}

/// `∫∫_{[-h/2,h/2]^2} (i/4) H0^(1)(kappa ||x||) dx`, returned as
/// `(re, im)`.
///
/// Uses the decomposition `(i/4) H0 = (i/4) J0 − (1/4) Y0` and the splitting
/// `Y0(z) = (2/π)(ln(z/2) + γ) J0(z) + R(z)` with smooth remainder `R`:
///
/// * `∫ J0(kappa r)` — smooth, tensor Gauss;
/// * `∫ ln(r) J0(kappa r) = ∫ ln r + ∫ ln(r)(J0 − 1)` — closed form plus a
///   C¹ integrand handled by Gauss on quadrants;
/// * `∫ R(kappa r)` — smooth, tensor Gauss.
pub fn helmholtz_self_integral(kappa: f64, h: f64) -> (f64, f64) {
    assert!(kappa > 0.0 && h > 0.0);
    let a = 0.5 * h;
    let g = GaussLegendre::new(32);
    // Integrate over one quadrant [0,a]^2 and multiply by 4 (radial symmetry).
    let quad4 = |f: &dyn Fn(f64) -> f64| -> f64 {
        4.0 * g.integrate_2d((0.0, a), (0.0, a), |x, y| {
            let r = (x * x + y * y).sqrt();
            f(r)
        })
    };
    let int_j0 = quad4(&|r| j0(kappa * r));
    // ln(r) * (J0(kappa r) - 1): define the r->0 limit as 0.
    let int_ln_j0m1 = quad4(&|r| {
        if r < 1e-300 {
            0.0
        } else {
            r.ln() * (j0(kappa * r) - 1.0)
        }
    });
    let int_ln = laplace_log_self_integral(h);
    let int_remainder = quad4(&|r| y0_smooth_remainder(kappa * r));
    let int_ln_j0 = int_ln + int_ln_j0m1;
    let int_y0 =
        (2.0 / PI) * (int_ln_j0 + ((kappa / 2.0).ln() + EULER_GAMMA) * int_j0) + int_remainder;
    // (i/4)(J0 + i Y0) = -Y0/4 + i J0/4
    (-0.25 * int_y0, 0.25 * int_j0)
}

/// Brute-force adaptive version of [`helmholtz_self_integral`], quadrant by
/// quadrant. Slow but direct; used in tests and available as the
/// paper-faithful fallback.
#[doc(hidden)]
// ORACLE: helmholtz_diagonal_matches_adaptive
pub fn helmholtz_self_integral_adaptive(kappa: f64, h: f64, tol: f64) -> (f64, f64) {
    let a = 0.5 * h;
    let re = |x: f64, y: f64| {
        let r = (x * x + y * y).sqrt();
        if r <= 0.0 {
            return 0.0;
        }
        -0.25 * crate::bessel::y0(kappa * r)
    };
    let im = |x: f64, y: f64| {
        let r = (x * x + y * y).sqrt();
        0.25 * j0(kappa * r)
    };
    let (qr, _) = dblquad(re, (0.0, a), (0.0, a), tol / 4.0);
    let (qi, _) = dblquad(im, (0.0, a), (0.0, a), tol / 4.0);
    (4.0 * qr, 4.0 * qi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_adaptive_quadrature() {
        for &h in &[1.0, 0.25, 1.0 / 64.0] {
            let exact = laplace_log_self_integral(h);
            let adaptive = laplace_log_self_integral_adaptive(h, 1e-10);
            assert!(
                (exact - adaptive).abs() < 1e-6 * exact.abs(),
                "h={h}: {exact} vs {adaptive}"
            );
        }
    }

    #[test]
    fn log_integral_scaling_law() {
        // I(h) = h^2 [ln(h/2) + ln2/2 - 3/2 + pi/4]; check the h^2 ln h scaling.
        let h = 0.1;
        let i1 = laplace_log_self_integral(h);
        let i2 = laplace_log_self_integral(2.0 * h);
        let pred = 4.0 * i1 + 4.0 * h * h * (2.0f64).ln();
        assert!((i2 - pred).abs() < 1e-12 * i2.abs().max(1.0));
    }

    #[test]
    fn helmholtz_diagonal_matches_adaptive() {
        for &(kappa, h) in &[(25.0, 1.0 / 32.0), (5.0, 1.0 / 16.0), (50.0, 1.0 / 64.0)] {
            let (re, im) = helmholtz_self_integral(kappa, h);
            let (are, aim) = helmholtz_self_integral_adaptive(kappa, h, 1e-10);
            let scale = (re * re + im * im).sqrt();
            assert!(
                (re - are).abs() < 1e-5 * scale,
                "kappa={kappa}, h={h}: re {re} vs {are}"
            );
            assert!(
                (im - aim).abs() < 1e-5 * scale,
                "kappa={kappa}, h={h}: im {im} vs {aim}"
            );
        }
    }

    #[test]
    fn helmholtz_small_kappa_h_asymptotics() {
        // For kappa*r -> 0: (i/4)H0(kr) ~ -(1/2pi)[ln(kr/2)+gamma] + i/4.
        // So Im part ~ h^2/4 and Re part ~ -(1/2pi)(ln-ish) * h^2 > 0 for tiny kh.
        let kappa = 1e-3;
        let h = 1e-3;
        let (re, im) = helmholtz_self_integral(kappa, h);
        assert!((im - h * h / 4.0).abs() < 1e-3 * h * h);
        let log_est = -(1.0 / (2.0 * PI))
            * (laplace_log_self_integral(h) + h * h * ((kappa / 2.0).ln() + EULER_GAMMA));
        assert!((re - log_est).abs() < 1e-3 * re.abs());
        assert!(re > 0.0);
    }

    #[test]
    fn laplace_diagonal_entry_sign() {
        // A_ii = -(1/2pi) * I(h) must be positive for small h (log is very
        // negative near the singularity).
        let h = 1.0 / 1024.0;
        let aii = -laplace_log_self_integral(h) / (2.0 * PI);
        assert!(aii > 0.0);
    }
}
