//! Adaptive quadrature: 1-D and nested 2-D (`dblquad`).
//!
//! The error estimator compares a 10-point Gauss–Legendre evaluation of an
//! interval against the sum over its two halves and bisects until the
//! difference meets the local tolerance. No tabulated embedded-rule
//! constants are needed, and the estimator is reliable for the integrands
//! appearing here (smooth away from an integrable log point singularity).
//!
//! This is the Rust stand-in for `MultiQuad.jl`'s `dblquad`, which the paper
//! uses for the singular diagonal entries (Eqs. 17 and 21).

use crate::gauss::GaussLegendre;

/// Diagnostics from an adaptive integration.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuadStats {
    /// Function evaluations performed.
    pub evals: usize,
    /// Deepest bisection level reached.
    pub max_depth: usize,
    /// `true` if some subinterval hit the depth limit before converging.
    pub depth_exhausted: bool,
}

#[allow(clippy::too_many_arguments)]
fn adaptive_rec(
    f: &mut dyn FnMut(f64) -> f64,
    rule: &GaussLegendre,
    a: f64,
    b: f64,
    whole: f64,
    tol: f64,
    depth: usize,
    max_depth: usize,
    stats: &mut QuadStats,
) -> f64 {
    let mid = 0.5 * (a + b);
    let left = rule.integrate(a, mid, &mut *f);
    let right = rule.integrate(mid, b, &mut *f);
    stats.evals += 2 * rule.len();
    stats.max_depth = stats.max_depth.max(depth);
    let refined = left + right;
    let err = (refined - whole).abs();
    if err <= tol || depth >= max_depth {
        if depth >= max_depth && err > tol {
            stats.depth_exhausted = true;
        }
        // Richardson-style correction: the refined value plus the estimated
        // remaining error direction.
        refined + (refined - whole) / 1023.0
    } else {
        let half_tol = 0.5 * tol;
        adaptive_rec(f, rule, a, mid, left, half_tol, depth + 1, max_depth, stats)
            + adaptive_rec(
                f,
                rule,
                mid,
                b,
                right,
                half_tol,
                depth + 1,
                max_depth,
                stats,
            )
    }
}

/// Adaptively integrate `f` over `[a, b]` to absolute tolerance `tol`.
fn adaptive_quad(mut f: impl FnMut(f64) -> f64, a: f64, b: f64, tol: f64) -> (f64, QuadStats) {
    assert!(tol > 0.0, "tolerance must be positive");
    assert!(a.is_finite() && b.is_finite(), "bounds must be finite");
    let rule = GaussLegendre::new(10);
    let mut stats = QuadStats::default();
    let whole = rule.integrate(a, b, &mut f);
    stats.evals += rule.len();
    let mut g: &mut dyn FnMut(f64) -> f64 = &mut f;
    let v = adaptive_rec(&mut g, &rule, a, b, whole, tol, 0, 48, &mut stats);
    (v, stats)
}

/// Adaptive 2-D integration of `f(x, y)` over a rectangle
/// (`dblquad` equivalent): an adaptive outer integral over `x` of adaptive
/// inner integrals over `y`.
///
/// The inner tolerance is tightened relative to the outer one so inner
/// errors do not pollute the outer error estimator.
pub fn dblquad(
    f: impl Fn(f64, f64) -> f64,
    (ax, bx): (f64, f64),
    (ay, by): (f64, f64),
    tol: f64,
) -> (f64, QuadStats) {
    let inner_tol = tol / (10.0 * (bx - ax).abs().max(1.0));
    let mut total_stats = QuadStats::default();
    let stats_cell = core::cell::RefCell::new(&mut total_stats);
    let outer = |x: f64| -> f64 {
        let (v, s) = adaptive_quad(|y| f(x, y), ay, by, inner_tol);
        let mut st = stats_cell.borrow_mut();
        st.evals += s.evals;
        st.max_depth = st.max_depth.max(s.max_depth);
        st.depth_exhausted |= s.depth_exhausted;
        v
    };
    let (v, outer_stats) = adaptive_quad(outer, ax, bx, tol);
    total_stats.max_depth = total_stats.max_depth.max(outer_stats.max_depth);
    total_stats.depth_exhausted |= outer_stats.depth_exhausted;
    (v, total_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::PI;

    #[test]
    fn integrates_smooth_1d() {
        let (v, s) = adaptive_quad(|x| x.sin(), 0.0, PI, 1e-12);
        assert!((v - 2.0).abs() < 1e-11, "{v}");
        assert!(s.evals >= 10);
        assert!(!s.depth_exhausted);
    }

    #[test]
    fn integrates_oscillatory() {
        // ∫_0^1 cos(50 x) dx = sin(50)/50
        let (v, _) = adaptive_quad(|x| (50.0 * x).cos(), 0.0, 1.0, 1e-12);
        assert!((v - (50.0f64).sin() / 50.0).abs() < 1e-11);
    }

    #[test]
    fn integrates_log_singularity_at_endpoint() {
        // ∫_0^1 ln x dx = -1; singular at the left endpoint.
        let (v, _) = adaptive_quad(|x| if x > 0.0 { x.ln() } else { 0.0 }, 0.0, 1.0, 1e-10);
        assert!((v + 1.0).abs() < 1e-7, "{v}");
    }

    #[test]
    fn integrates_sqrt_singularity() {
        // ∫_0^1 1/sqrt(x) dx = 2.
        let (v, _) = adaptive_quad(
            |x| if x > 0.0 { x.sqrt().recip() } else { 0.0 },
            0.0,
            1.0,
            1e-9,
        );
        assert!((v - 2.0).abs() < 1e-5, "{v}");
    }

    #[test]
    fn dblquad_polynomial() {
        let (v, _) = dblquad(|x, y| x * x + y, (0.0, 1.0), (0.0, 2.0), 1e-11);
        // ∫∫ = 2/3 + 1*2 = 2/3 + 2
        assert!((v - (2.0 / 3.0 + 2.0)).abs() < 1e-10, "{v}");
    }

    #[test]
    fn dblquad_gaussian() {
        let (v, _) = dblquad(
            |x, y| (-(x * x + y * y)).exp(),
            (-4.0, 4.0),
            (-4.0, 4.0),
            1e-10,
        );
        // ≈ pi * erf(4)^2; erf(4) = 0.9999999845827421
        let erf4 = 0.999_999_984_582_742_1;
        assert!((v - PI * erf4 * erf4).abs() < 1e-8, "{v}");
    }

    #[test]
    fn dblquad_log_corner_singularity() {
        // ∫∫_{[0,1]^2} ln(sqrt(x^2+y^2)) dx dy — singular at the origin.
        // Closed form: quadrant version of the square log integral:
        //   = ln(1)/... derived from I(h) with h=2 on [-1,1]^2 / 4.
        // ∫∫_{[-1,1]^2} ln r = 4 [ ln 1 + ln(2)/2 - 3/2 + pi/4 ] (a=1)
        let whole = 4.0 * (0.5 * (2.0f64).ln() - 1.5 + PI / 4.0);
        let want = whole / 4.0;
        let (v, _) = dblquad(
            |x, y| {
                let r = (x * x + y * y).sqrt();
                if r > 0.0 {
                    r.ln()
                } else {
                    0.0
                }
            },
            (0.0, 1.0),
            (0.0, 1.0),
            1e-9,
        );
        assert!((v - want).abs() < 1e-6, "{v} vs {want}");
    }
}
