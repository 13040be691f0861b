//! Bessel functions of the first and second kind, orders 0 and 1, and the
//! Hankel function `H0^(1)(x) = J0(x) + i Y0(x)`, one argument at a time
//! or over a slice.
//!
//! Implementation strategy (self-derived, no tabulated rational fits):
//! every sum has a *fixed* length, so a value is a pure function of its
//! own argument — the same operations in the same order whatever batch it
//! is evaluated in — and the order-zero functions run several arguments
//! side by side as a loop over lanes the compiler vectorises.
//!
//! * `x < SWITCH` (= 11): ascending power series (A&S 9.1.10 / 9.1.13 /
//!   9.1.11), [`SERIES_TERMS`] (= 30) terms: at `x = 11` the first
//!   omitted term is below `1e-21`, under the rounding of the terms kept.
//!   The series alternate, so cancellation grows with `x`; at the switch
//!   point the largest term is ~2e4, costing ~4 digits — measured
//!   absolute error below `6e-13` against 40-digit references. The
//!   factors `1/k²` and the harmonic numbers of the `Y0` series are
//!   tabulated.
//! * `x >= SWITCH`: Hankel's modulus/phase asymptotic expansions
//!   (A&S 9.2.5–9.2.10) through [`PQ_TERMS`] (= 22) terms. The terms of
//!   the divergent series shrink while `k < 2x + 0.96`, hence through
//!   `k = 22` for every `x >= 11`: the fixed length never runs past the
//!   smallest term, equals the optimal truncation at the switch point
//!   (where the smallest term, `4.7e-11`, sets the worst absolute error of
//!   the module, `8e-12`) and leaves out only terms below `2e-13` from
//!   `x = 14` on.
//!
//! That worst case is comfortably below every compression tolerance the
//! paper sweeps (1e-3 … 1e-12 *relative* to matrix norms), and both the
//! matrix assembly and the FFT residual path evaluate the same functions,
//! so comparisons stay consistent.
//!
//! The Helmholtz kernel of the paper (Eq. 19) calls `H0^(1)(kappa r)` once
//! per matrix entry, making these the hottest routines in the Helmholtz
//! experiments — the paper observes exactly that ("an evaluation of the
//! complex Helmholtz kernel takes longer"). [`hankel0_1_slice`] is what
//! the kernel's column evaluation calls; [`hankel0_1`], [`j0`] and [`y0`]
//! are its one-lane case, bit for bit.

use crate::log::{ln, ln_slice};
use core::f64::consts::{FRAC_PI_4, PI};

/// Euler–Mascheroni constant.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

const TWO_OVER_PI: f64 = 2.0 / PI;
const THREE_PI_4: f64 = 3.0 * FRAC_PI_4;
const SWITCH: f64 = 11.0;

/// Terms of every ascending series after the leading one.
const SERIES_TERMS: usize = 30;
/// Terms of the `(P, Q)` expansion after the leading one; even, so `P`
/// and `Q` get the same number.
const PQ_TERMS: usize = 22;
/// Arguments [`hankel0_1_slice`] evaluates side by side. A series step
/// is one multiplication that depends on the step before it, so two
/// 512-bit vectors (four 256-bit ones) in flight keep the multiplier
/// busy where one would wait out its latency: 16 lanes measure 7 ns per
/// argument below the switch, 8 lanes 10 ns.
const LANES: usize = 16;

/// `1/k²` and `-H_k` (`H_k` the harmonic number) for `k <= SERIES_TERMS`;
/// index 0 is unused.
const SERIES_TABLE: ([f64; SERIES_TERMS + 1], [f64; SERIES_TERMS + 1]) = {
    let mut inv_k2 = [0.0; SERIES_TERMS + 1];
    let mut neg_hk = [0.0; SERIES_TERMS + 1];
    let mut hk = 0.0;
    let mut k = 1;
    while k <= SERIES_TERMS {
        let kf = k as f64;
        inv_k2[k] = 1.0 / (kf * kf);
        hk += 1.0 / kf;
        neg_hk[k] = -hk;
        k += 1;
    }
    (inv_k2, neg_hk)
};

/// The two ascending series of order zero, per lane: `J0(x)` (A&S 9.1.10
/// with nu = 0) and `sum_{k>=1} (-1)^{k+1} H_k (x²/4)^k / (k!)²`, the
/// series part of `Y0` after removing the log term (A&S 9.1.13) — both
/// from the one running term `(-x²/4)^k / (k!)²`.
#[inline(always)]
fn series0<const L: usize>(x: &[f64; L]) -> ([f64; L], [f64; L]) {
    let (inv_k2, neg_hk) = &SERIES_TABLE;
    let nq = x.map(|v| -(v * v * 0.25));
    let mut term = [1.0; L];
    let mut j = [1.0; L];
    let mut rem = [0.0; L];
    for k in 1..=SERIES_TERMS {
        for l in 0..L {
            term[l] *= nq[l] * inv_k2[k];
            j[l] += term[l];
            rem[l] += neg_hk[k] * term[l];
        }
    }
    (j, rem)
}

/// `(J0, Y0)` per lane from the ascending series; valid for `x < SWITCH`.
#[inline(always)]
fn hankel0_small<const L: usize>(x: &[f64; L]) -> ([f64; L], [f64; L]) {
    let (j, rem) = series0(x);
    let mut y = x.map(|v| v / 2.0);
    ln_slice(&mut y);
    for l in 0..L {
        y[l] = TWO_OVER_PI * (y[l] + EULER_GAMMA) * j[l] + TWO_OVER_PI * rem[l];
    }
    (j, y)
}

/// Hankel asymptotic modulus/phase pieces `(P, Q)` per lane, for the
/// order `n` with `mu = 4 n²`.
///
/// `P = sum (-1)^m a_{2m} / ((2m)! (8x)^{2m})`,
/// `Q = sum (-1)^m a_{2m+1} / ((2m+1)! (8x)^{2m+1})` with
/// `a_k = prod_{j=1..k} (mu - (2j-1)^2)`, through `k = PQ_TERMS` (module
/// docs: the terms shrink that far for every `x >= SWITCH`).
#[inline(always)]
fn hankel_pq<const L: usize>(mu: f64, x: &[f64; L]) -> ([f64; L], [f64; L]) {
    let inv8x = x.map(|v| 1.0 / (8.0 * v));
    let mut p = [1.0; L];
    let mut q = [0.0; L];
    // term_k = a_k / (k! (8x)^k); the pair k = 2m + 1, 2m + 2 enters Q
    // and P with signs (-1)^m and (-1)^{m+1}.
    let mut term = [1.0; L];
    let step = |k: usize| {
        let odd = (2 * k - 1) as f64;
        (mu - odd * odd) / k as f64
    };
    for m in 0..PQ_TERMS / 2 {
        let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
        let (c_odd, c_even) = (step(2 * m + 1), step(2 * m + 2));
        for l in 0..L {
            term[l] *= c_odd * inv8x[l];
            q[l] += sign * term[l];
            term[l] *= c_even * inv8x[l];
            p[l] -= sign * term[l];
        }
    }
    (p, q)
}

/// `(J_n, Y_n)` per lane from the asymptotic expansion with phase
/// `chi = x - phase`; valid for `x >= SWITCH`.
#[inline(always)]
fn hankel_large<const L: usize>(mu: f64, phase: f64, x: &[f64; L]) -> ([f64; L], [f64; L]) {
    let (p, q) = hankel_pq(mu, x);
    let mut j = [0.0; L];
    let mut y = [0.0; L];
    for l in 0..L {
        let (sin, cos) = (x[l] - phase).sin_cos();
        let amp = (TWO_OVER_PI / x[l]).sqrt();
        j[l] = amp * (p[l] * cos - q[l] * sin);
        y[l] = amp * (p[l] * sin + q[l] * cos);
    }
    (j, y)
}

/// `(J0(x), Y0(x))` per lane. Each lane takes the branch its own
/// argument selects; a group that straddles the switch evaluates both
/// and keeps, per lane, the one that applies.
#[inline(always)]
fn hankel0_lanes<const L: usize>(x: &[f64; L]) -> ([f64; L], [f64; L]) {
    let n_small = x.iter().filter(|&&v| v < SWITCH).count();
    if n_small == L {
        return hankel0_small(x);
    }
    let (mut j, mut y) = hankel_large(0.0, FRAC_PI_4, x);
    if n_small > 0 {
        let (js, ys) = hankel0_small(x);
        for l in 0..L {
            if x[l] < SWITCH {
                (j[l], y[l]) = (js[l], ys[l]);
            }
        }
    }
    (j, y)
}

/// Bessel function of the first kind, order zero.
pub fn j0(x: f64) -> f64 {
    let x = [x.abs()];
    if x[0] < SWITCH {
        series0(&x).0[0]
    } else {
        hankel_large(0.0, FRAC_PI_4, &x).0[0]
    }
}

/// Bessel function of the second kind, order zero. Requires `x > 0`.
pub fn y0(x: f64) -> f64 {
    assert!(x > 0.0, "y0 requires a positive argument, got {x}");
    hankel0_lanes(&[x]).1[0]
}

/// Hankel function of the first kind, order zero:
/// `H0^(1)(x) = J0(x) + i Y0(x)`, returned as `(re, im)`. Requires
/// `x > 0`.
///
/// The one-lane case of [`hankel0_1_slice`], and `(j0(x), y0(x))` bit for
/// bit: all four run the same lane formulas.
pub fn hankel0_1(x: f64) -> (f64, f64) {
    assert!(x > 0.0, "hankel0_1 requires a positive argument, got {x}");
    let (j, y) = hankel0_lanes(&[x]);
    (j[0], y[0])
}

/// `(re[i], im[i]) := H0^(1)(x[i])` for every element, [`LANES`]
/// arguments at a time. Requires every `x[i] > 0` and three slices of one
/// length. A value depends on its own argument alone — not on its
/// neighbours, its position or the slice length — and equals
/// [`hankel0_1`] of it bit for bit.
pub fn hankel0_1_slice(x: &[f64], re: &mut [f64], im: &mut [f64]) {
    assert!(
        x.len() == re.len() && x.len() == im.len(),
        "hankel0_1_slice: slices of different lengths"
    );
    assert!(
        x.iter().all(|&v| v > 0.0),
        "hankel0_1_slice requires positive arguments"
    );
    let outs = re.chunks_mut(LANES).zip(im.chunks_mut(LANES));
    for (xc, (rc, ic)) in x.chunks(LANES).zip(outs) {
        // A short last group is padded with a harmless argument.
        let mut lanes = [1.0; LANES];
        lanes[..xc.len()].copy_from_slice(xc);
        let (j, y) = hankel0_lanes(&lanes);
        rc.copy_from_slice(&j[..xc.len()]);
        ic.copy_from_slice(&y[..xc.len()]);
    }
}

/// Ascending series for `J1` (A&S 9.1.10 with nu = 1).
fn j1_series(x: f64) -> f64 {
    let q = x * x * 0.25;
    let mut term = 0.5 * x; // k = 0 term: (x/2) / (0! 1!)
    let mut acc = term;
    for k in 1..=SERIES_TERMS {
        term *= -q / ((k * (k + 1)) as f64);
        acc += term;
    }
    acc
}

/// Bessel function of the first kind, order one (odd in `x`).
pub fn j1(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    if x < SWITCH {
        sign * j1_series(x)
    } else {
        sign * hankel_large(4.0, THREE_PI_4, &[x]).0[0]
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
        for k in 1..=SERIES_TERMS {
            term *= -q / ((k * (k + 1)) as f64);
            hk += 1.0 / k as f64;
            hk1 += 1.0 / (k + 1) as f64;
            acc += term * (-2.0 * EULER_GAMMA + hk + hk1);
        }
        TWO_OVER_PI * ln(x / 2.0) * j1_series(x) - TWO_OVER_PI / x - acc / PI
    } else {
        hankel_large(4.0, THREE_PI_4, &[x]).1[0]
    }
}

/// The smooth remainder `R(z) = Y0(z) - (2/pi)(ln(z/2) + gamma) J0(z)`.
///
/// `R` is entire; it is the piece of `Y0` left after peeling off the
/// logarithmic singularity, used by the singularity-subtracted Helmholtz
/// diagonal integral.
pub fn y0_smooth_remainder(z: f64) -> f64 {
    if z < SWITCH {
        TWO_OVER_PI * series0(&[z]).1[0]
    } else {
        y0(z) - TWO_OVER_PI * (ln(z / 2.0) + EULER_GAMMA) * j0(z)
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

    /// The order-zero routines as they were before the sums got a fixed
    /// length — libm `ln`, termination on the size of the running term —
    /// kept as an independent oracle.
    mod adaptive {
        use super::super::{EULER_GAMMA, SWITCH, TWO_OVER_PI};
        use core::f64::consts::FRAC_PI_4;

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

        fn hankel_pq(x: f64) -> (f64, f64) {
            let inv8x = 1.0 / (8.0 * x);
            let (mut p, mut q) = (1.0, 0.0);
            let mut term = 1.0;
            let mut prev_mag = f64::INFINITY;
            for k in 1..60u32 {
                let odd = (2 * k - 1) as f64;
                term *= -(odd * odd) / k as f64 * inv8x;
                let mag = term.abs();
                if mag >= prev_mag || mag < 1e-18 {
                    break;
                }
                prev_mag = mag;
                let sign = if (k / 2) % 2 == 0 { 1.0 } else { -1.0 };
                if k % 2 == 1 {
                    q += sign * term;
                } else {
                    p += sign * term;
                }
            }
            (p, q)
        }

        pub fn hankel0_1(x: f64) -> (f64, f64) {
            if x < SWITCH {
                let j = j0_series(x);
                let y = TWO_OVER_PI * ((x / 2.0).ln() + EULER_GAMMA) * j + y0_remainder_series(x);
                (j, y)
            } else {
                let (p, q) = hankel_pq(x);
                let (sin, cos) = (x - FRAC_PI_4).sin_cos();
                let amp = (TWO_OVER_PI / x).sqrt();
                (amp * (p * cos - q * sin), amp * (p * sin + q * cos))
            }
        }
    }

    /// Arguments across both regimes, dense around the switch.
    fn sweep() -> Vec<f64> {
        let mut xs: Vec<f64> = (1..4000).map(|i| i as f64 * 0.0137).collect();
        xs.extend((0..400).map(|i| SWITCH - 0.2 + i as f64 * 0.001));
        xs.extend([1e-9, 1e-3, SWITCH, 80.0, 300.0, 5e3]);
        xs
    }

    /// The fixed-length sums against the adaptive ones. Below the switch
    /// and from `x = 12` on they agree to 5e-12 (in fact far closer);
    /// just above the switch the asymptotic series is cut where its terms
    /// are still ~5e-11 either way, and the two truncations — both
    /// within 8e-12 of the true value there — may differ by the terms
    /// `k = 23, 24` the adaptive loop went on to add.
    #[test]
    fn fixed_length_matches_the_adaptive_oracle() {
        for x in sweep() {
            let (re, im) = hankel0_1(x);
            let (ore, oim) = adaptive::hankel0_1(x);
            let tol = if (SWITCH..12.0).contains(&x) {
                1e-11
            } else {
                5e-12
            };
            assert!((re - ore).abs() <= tol, "J0({x}): {re} vs {ore}");
            assert!((im - oim).abs() <= tol, "Y0({x}): {im} vs {oim}");
        }
    }

    #[test]
    fn slice_reproduces_reference_values() {
        let xs: Vec<f64> = REFS_J0.iter().map(|r| r.0).collect();
        let (mut re, mut im) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
        hankel0_1_slice(&xs, &mut re, &mut im);
        for (&(x, want), got) in REFS_J0.iter().zip(&re) {
            assert!((got - want).abs() < TOL, "slice J0({x}) = {got}");
        }
        for &(x, want) in &REFS_Y0 {
            let at = xs.iter().position(|&v| v == x).expect("shared abscissa");
            assert!((im[at] - want).abs() < TOL, "slice Y0({x}) = {}", im[at]);
        }
    }

    /// A value is a function of its own argument: the same bits alone,
    /// at any position of a slice of any length, next to arguments of the
    /// other branch or not.
    #[test]
    fn slice_is_the_scalar_bit_for_bit() {
        let xs = sweep();
        let (mut re, mut im) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
        hankel0_1_slice(&xs, &mut re, &mut im);
        for (i, &x) in xs.iter().enumerate() {
            let (j, y) = hankel0_1(x);
            assert_eq!(
                (re[i].to_bits(), im[i].to_bits()),
                (j.to_bits(), y.to_bits())
            );
        }
        // Every length around the lane count, with the two branches
        // interleaved so that most groups straddle the switch.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 257] {
            let xs: Vec<f64> = (0..len)
                .map(|i| {
                    if i % 3 == 0 {
                        11.0 + i as f64 * 0.37
                    } else {
                        0.05 + i as f64 * 0.041
                    }
                })
                .collect();
            let (mut re, mut im) = (vec![0.0; len], vec![0.0; len]);
            hankel0_1_slice(&xs, &mut re, &mut im);
            for (i, &x) in xs.iter().enumerate() {
                let (j, y) = hankel0_1(x);
                assert_eq!(re[i].to_bits(), j.to_bits(), "re, x = {x}, len {len}");
                assert_eq!(im[i].to_bits(), y.to_bits(), "im, x = {x}, len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive arguments")]
    fn slice_rejects_nonpositive() {
        let (mut re, mut im) = ([0.0; 3], [0.0; 3]);
        hankel0_1_slice(&[1.0, 0.0, 2.0], &mut re, &mut im);
    }
}
