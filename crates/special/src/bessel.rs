//! Bessel functions of the first and second kind, orders 0 and 1, and the
//! Hankel function `H0^(1)(x) = J0(x) + i Y0(x)`.
//!
//! Implementation strategy (self-derived, no tabulated rational fits):
//!
//! * `x < SWITCH` (= 11): ascending power series (A&S 9.1.10 / 9.1.13 /
//!   9.1.11). The series alternate, so cancellation grows with `x`; at the
//!   switch point the largest term is ~2e4, costing ~4 digits — absolute
//!   error stays below ~5e-12.
//! * `x >= SWITCH`: Hankel's modulus/phase asymptotic expansions
//!   (A&S 9.2.5–9.2.10) with adaptive truncation at the smallest term; at
//!   `8x >= 88` the smallest term is far below 1e-13.
//!
//! The worst-case absolute error (~1e-12, near the switch) is comfortably
//! below every compression tolerance the paper sweeps (1e-3 … 1e-12
//! *relative* to matrix norms), and both the matrix assembly and the FFT
//! residual path evaluate the same functions, so comparisons stay
//! consistent.
//!
//! The Helmholtz kernel of the paper (Eq. 19) calls `H0^(1)(kappa r)` once
//! per matrix entry, making these the hottest scalar routines in the
//! Helmholtz experiments — the paper observes exactly that ("an evaluation
//! of the complex Helmholtz kernel takes longer").

use core::f64::consts::{FRAC_PI_4, PI};

/// Euler–Mascheroni constant.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

const TWO_OVER_PI: f64 = 2.0 / PI;
const THREE_PI_4: f64 = 3.0 * FRAC_PI_4;
const SWITCH: f64 = 11.0;

/// Ascending series for `J0` (A&S 9.1.10 with nu = 0).
fn j0_series(x: f64) -> f64 {
    let q = x * x * 0.25;
    let mut term = 1.0;
    let mut acc = 1.0;
    for k in 1..200 {
        term *= -q / ((k * k) as f64);
        acc += term;
        if term.abs() < 1e-17 * acc.abs().max(1.0) {
            break;
        }
    }
    acc
}

/// Ascending series for `J1` (A&S 9.1.10 with nu = 1).
fn j1_series(x: f64) -> f64 {
    let q = x * x * 0.25;
    let mut term = 0.5 * x; // k = 0 term: (x/2) / (0! 1!)
    let mut acc = term;
    for k in 1..200 {
        term *= -q / ((k * (k + 1)) as f64);
        acc += term;
        if term.abs() < 1e-17 * acc.abs().max(1e-300) {
            break;
        }
    }
    acc
}

/// Hankel asymptotic modulus/phase pieces `(P_n, Q_n)` for order `n`.
///
/// `P = sum (-1)^m a_{2m} / ((2m)! (8x)^{2m})`,
/// `Q = sum (-1)^m a_{2m+1} / ((2m+1)! (8x)^{2m+1})` with
/// `a_k = prod_{j=1..k} (4 n^2 - (2j-1)^2)`. Terms are added while they
/// shrink (optimal truncation of the divergent series).
fn hankel_pq(n: u32, x: f64) -> (f64, f64) {
    let mu = (4 * n * n) as f64;
    let inv8x = 1.0 / (8.0 * x);
    let mut p = 1.0;
    let mut q = 0.0;
    // term_k = a_k / (k! (8x)^k), signs (-1)^{floor(k/2)} applied per pair.
    let mut term = 1.0;
    let mut prev_mag = f64::INFINITY;
    for k in 1..60u32 {
        let odd = (2 * k - 1) as f64;
        term *= (mu - odd * odd) / k as f64 * inv8x;
        let mag = term.abs();
        if mag >= prev_mag || mag < 1e-18 {
            break; // asymptotic series started diverging or converged
        }
        prev_mag = mag;
        let m = k / 2;
        let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
        if k % 2 == 1 {
            q += sign * term;
        } else {
            p += sign * term;
        }
    }
    (p, q)
}

/// Bessel function of the first kind, order zero.
pub fn j0(x: f64) -> f64 {
    let x = x.abs();
    if x < SWITCH {
        j0_series(x)
    } else {
        let (p, q) = hankel_pq(0, x);
        let chi = x - FRAC_PI_4;
        (TWO_OVER_PI / x).sqrt() * (p * chi.cos() - q * chi.sin())
    }
}

/// Bessel function of the second kind, order zero. Requires `x > 0`.
pub fn y0(x: f64) -> f64 {
    assert!(x > 0.0, "y0 requires a positive argument, got {x}");
    if x < SWITCH {
        TWO_OVER_PI * ((x / 2.0).ln() + EULER_GAMMA) * j0_series(x) + y0_remainder_series(x)
    } else {
        let (p, q) = hankel_pq(0, x);
        let chi = x - FRAC_PI_4;
        (TWO_OVER_PI / x).sqrt() * (p * chi.sin() + q * chi.cos())
    }
}

/// Bessel function of the first kind, order one (odd in `x`).
pub fn j1(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    if x < SWITCH {
        sign * j1_series(x)
    } else {
        let (p, q) = hankel_pq(1, x);
        let chi = x - THREE_PI_4;
        sign * (TWO_OVER_PI / x).sqrt() * (p * chi.cos() - q * chi.sin())
    }
}

/// Bessel function of the second kind, order one. Requires `x > 0`.
pub fn y1(x: f64) -> f64 {
    assert!(x > 0.0, "y1 requires a positive argument, got {x}");
    if x < SWITCH {
        // A&S 9.1.11 (n = 1):
        // Y1 = (2/pi) ln(x/2) J1 - (2/(pi x))
        //      - (1/pi) sum_k (-1)^k [psi(k+1) + psi(k+2)] / (k!(k+1)!) (x/2)^{2k+1}
        // with psi(1) = -gamma, psi(m+1) = -gamma + H_m.
        let q = x * x * 0.25;
        let mut term = 0.5 * x; // (x/2)^{2k+1} / (k!(k+1)!) at k=0
        let mut hk = 0.0; // H_k
        let mut hk1 = 1.0; // H_{k+1}
        let mut acc = term * (-2.0 * EULER_GAMMA + hk + hk1);
        for k in 1..200 {
            term *= -q / ((k * (k + 1)) as f64);
            hk += 1.0 / k as f64;
            hk1 += 1.0 / (k + 1) as f64;
            let contrib = term * (-2.0 * EULER_GAMMA + hk + hk1);
            acc += contrib;
            if term.abs() * (hk + hk1 + 2.0) < 1e-17 * acc.abs().max(1e-300) {
                break;
            }
        }
        TWO_OVER_PI * (x / 2.0).ln() * j1_series(x) - TWO_OVER_PI / x - acc / PI
    } else {
        let (p, q) = hankel_pq(1, x);
        let chi = x - THREE_PI_4;
        (TWO_OVER_PI / x).sqrt() * (p * chi.sin() + q * chi.cos())
    }
}

/// Hankel function of the first kind, order zero:
/// `H0^(1)(x) = J0(x) + i Y0(x)`, returned as `(re, im)`. Requires
/// `x > 0`.
///
/// One pass over the pieces [`j0`] and [`y0`] share — one `J0` series
/// below the switch, one `(P, Q)` expansion and one `sin_cos` above it —
/// combined with the same operations in the same order, so the result is
/// `(j0(x), y0(x))` bit for bit at about half the cost.
pub fn hankel0_1(x: f64) -> (f64, f64) {
    assert!(x > 0.0, "hankel0_1 requires a positive argument, got {x}");
    if x < SWITCH {
        let j = j0_series(x);
        let y = TWO_OVER_PI * ((x / 2.0).ln() + EULER_GAMMA) * j + y0_remainder_series(x);
        (j, y)
    } else {
        let (p, q) = hankel_pq(0, x);
        let (sin, cos) = (x - FRAC_PI_4).sin_cos();
        let amp = (TWO_OVER_PI / x).sqrt();
        (amp * (p * cos - q * sin), amp * (p * sin + q * cos))
    }
}

/// `(2/pi) * sum_{k>=1} (-1)^{k+1} H_k (z^2/4)^k / (k!)^2`, the series part
/// of `Y0` after removing the log term.
fn y0_remainder_series(z: f64) -> f64 {
    let q = z * z * 0.25;
    let mut term = 1.0;
    let mut hk = 0.0;
    let mut acc = 0.0;
    for k in 1..200usize {
        term *= q / ((k * k) as f64);
        hk += 1.0 / k as f64;
        acc += if k % 2 == 1 { hk * term } else { -hk * term };
        if term * hk < 1e-17 * acc.abs().max(1e-300) {
            break;
        }
    }
    TWO_OVER_PI * acc
}

/// The smooth remainder `R(z) = Y0(z) - (2/pi)(ln(z/2) + gamma) J0(z)`.
///
/// `R` is entire; it is the piece of `Y0` left after peeling off the
/// logarithmic singularity, used by the singularity-subtracted Helmholtz
/// diagonal integral.
pub fn y0_smooth_remainder(z: f64) -> f64 {
    if z < SWITCH {
        y0_remainder_series(z)
    } else {
        y0(z) - TWO_OVER_PI * ((z / 2.0).ln() + EULER_GAMMA) * j0(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values (Abramowitz & Stegun / mpmath, 15+ digits).
    const REFS_J0: [(f64, f64); 7] = [
        (0.5, 0.938_469_807_240_813),
        (1.0, 0.765_197_686_557_966_6),
        (2.0, 0.223_890_779_141_235_67),
        (5.0, -0.177_596_771_314_338_3),
        (10.0, -0.245_935_764_451_348_34),
        (20.0, 0.167_024_664_340_583_13),
        (50.0, 0.055_812_327_669_251_75),
    ];
    const REFS_Y0: [(f64, f64); 6] = [
        (0.5, -0.444_518_733_506_707),
        (1.0, 0.088_256_964_215_676_96),
        (2.0, 0.510_375_672_649_745_1),
        (5.0, -0.308_517_625_249_033_8),
        (10.0, 0.055_671_167_283_599_395),
        (20.0, 0.062_640_596_809_384_05),
    ];
    const REFS_J1: [(f64, f64); 6] = [
        (0.5, 0.242_268_457_674_873_9),
        (1.0, 0.440_050_585_744_933_5),
        (2.0, 0.576_724_807_756_873_4),
        (5.0, -0.327_579_137_591_465_2),
        (10.0, 0.043_472_746_168_861_44),
        (20.0, 0.066_833_124_175_850_05),
    ];
    const REFS_Y1: [(f64, f64); 5] = [
        (0.5, -1.471_472_392_670_243),
        (1.0, -0.781_212_821_300_288_7),
        (5.0, 0.147_863_143_391_226_8),
        (10.0, 0.249_015_424_206_953_9),
        (20.0, -0.165_511_614_362_521_86),
    ];

    const TOL: f64 = 5e-12;

    #[test]
    fn j0_reference_values() {
        for &(x, want) in &REFS_J0 {
            let got = j0(x);
            assert!((got - want).abs() < TOL, "j0({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn y0_reference_values() {
        for &(x, want) in &REFS_Y0 {
            let got = y0(x);
            assert!((got - want).abs() < TOL, "y0({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn j1_reference_values() {
        for &(x, want) in &REFS_J1 {
            let got = j1(x);
            assert!((got - want).abs() < TOL, "j1({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn y1_reference_values() {
        for &(x, want) in &REFS_Y1 {
            let got = y1(x);
            assert!((got - want).abs() < TOL, "y1({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn wronskian_identity() {
        // J1(x) Y0(x) - J0(x) Y1(x) = 2/(pi x): a strong joint consistency
        // check across both regimes and the switch point.
        let mut x = 0.01;
        while x < 300.0 {
            let w = j1(x) * y0(x) - j0(x) * y1(x);
            let want = TWO_OVER_PI / x;
            assert!(
                (w - want).abs() < 5e-12 * want.abs().max(1e-2),
                "Wronskian at x={x}: {w} vs {want}"
            );
            x *= 1.13;
        }
    }

    #[test]
    fn accuracy_straddling_branch_switch() {
        // mpmath (30 digits) references on both sides of SWITCH = 11, the
        // worst-accuracy region for both the series and the asymptotics.
        let refs: [(f64, [f64; 4]); 4] = [
            (
                10.5,
                [
                    -0.236_648_194_462_347_13,
                    -0.067_530_372_497_876_4,
                    -0.078_850_014_227_331_5,
                    0.233_704_228_357_268_6,
                ],
            ),
            (
                10.9,
                [
                    -0.188_062_245_963_342_07,
                    -0.151_583_193_223_045_1,
                    -0.160_349_686_680_853_33,
                    0.181_318_509_674_164_25,
                ],
            ),
            (
                11.1,
                [
                    -0.152_768_295_435_676_89,
                    -0.184_275_771_621_513_67,
                    -0.191_328_287_775_049_14,
                    0.144_637_110_206_295_12,
                ],
            ),
            (
                12.0,
                [
                    0.047_689_310_796_833_54,
                    -0.225_237_312_634_361_43,
                    -0.223_447_104_490_627_6,
                    -0.057_099_218_260_896_52,
                ],
            ),
        ];
        for &(x, [rj0, ry0, rj1, ry1]) in &refs {
            assert!((j0(x) - rj0).abs() < 1e-11, "j0({x}) = {}", j0(x));
            assert!((y0(x) - ry0).abs() < 1e-11, "y0({x}) = {}", y0(x));
            assert!((j1(x) - rj1).abs() < 1e-11, "j1({x}) = {}", j1(x));
            assert!((y1(x) - ry1).abs() < 1e-11, "y1({x}) = {}", y1(x));
        }
    }

    #[test]
    fn j1_odd_j0_even() {
        for &x in &[0.3, 1.0, 4.0, 9.0, 15.0] {
            assert_eq!(j0(-x), j0(x));
            assert_eq!(j1(-x), -j1(x));
        }
    }

    #[test]
    fn y0_log_singularity_shape() {
        // Y0(z) ~ (2/pi)(ln(z/2) + gamma) as z -> 0.
        for &z in &[1e-8, 1e-6, 1e-4] {
            let want = TWO_OVER_PI * ((z / 2.0f64).ln() + EULER_GAMMA);
            assert!((y0(z) - want).abs() < 1e-8 * want.abs());
        }
    }

    #[test]
    fn y1_small_argument_pole() {
        // Y1(z) ~ -2/(pi z) as z -> 0.
        for &z in &[1e-8, 1e-6] {
            let want = -TWO_OVER_PI / z;
            assert!((y1(z) - want).abs() < 1e-6 * want.abs());
        }
    }

    #[test]
    fn hankel_is_j0_y0_bit_for_bit() {
        // Dense sweep across both regimes, plus the points hugging SWITCH.
        let mut xs: Vec<f64> = (1..4000).map(|i| i as f64 * 0.0137).collect();
        xs.extend([
            1e-9,
            SWITCH - f64::EPSILON * 8.0,
            SWITCH,
            SWITCH + 1e-12,
            300.0,
        ]);
        for x in xs {
            let (re, im) = hankel0_1(x);
            assert_eq!(re.to_bits(), j0(x).to_bits(), "re at x = {x}");
            assert_eq!(im.to_bits(), y0(x).to_bits(), "im at x = {x}");
        }
    }

    #[test]
    fn smooth_remainder_consistent_across_branch() {
        for &z in &[10.5, 10.9, 11.1, 12.0] {
            let direct = y0(z) - TWO_OVER_PI * ((z / 2.0f64).ln() + EULER_GAMMA) * j0(z);
            let api = y0_smooth_remainder(z);
            assert!(
                (api - direct).abs() < 1e-9,
                "remainder mismatch at z={z}: {api} vs {direct}"
            );
        }
        // Tiny z: remainder ~ (2/pi) * z^2/4 up to the O(z^4) series tail.
        let z = 1e-4;
        let want = TWO_OVER_PI * z * z / 4.0;
        assert!((y0_smooth_remainder(z) - want).abs() < 1e-16);
    }

    #[test]
    fn bessel_recurrence_j2() {
        // J2(x) = (2/x) J1(x) - J0(x); check against a reference value.
        // J2(3) = 0.486091260585891.
        let x = 3.0;
        let j2 = 2.0 / x * j1(x) - j0(x);
        assert!((j2 - 0.486_091_260_585_891).abs() < 1e-11);
    }

    #[test]
    #[should_panic]
    fn y0_rejects_nonpositive() {
        let _ = y0(0.0);
    }
}
