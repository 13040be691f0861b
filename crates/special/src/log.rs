//! Natural logarithm over a slice.
//!
//! The Laplace kernel ends every matrix entry in a logarithm, and the
//! factorization asks for entries a column at a time, so the logarithm is
//! written as one branch-free loop the compiler vectorises (fdlibm's
//! `e_log.c` reduction, after the branch-free form in musl):
//!
//! * split `x = 2^k (1 + f)` on the bits, with `√2/2 < 1 + f < √2`; the
//!   exponent goes through `i32`, the one integer-to-`f64` conversion
//!   every vector ISA down to AVX2 has;
//! * `ln(1 + f) = 2s + s·R(s²)` with `s = f / (2 + f)` and `R` the
//!   degree-7 minimax polynomial in `s²` of fdlibm (`|error| < 2⁻⁵⁸·⁴⁵`),
//!   reassembled so that the leading terms `f − f²/2` and `k ln 2` (in a
//!   high and a low part) are added last.
//!
//! No fused multiply-add is used, so a lane's result is the same bits
//! whatever the vector width, the position in the slice or the target
//! CPU — [`ln`] is the one-element case of [`ln_slice`], bit for bit.
//!
//! # Special values
//!
//! The lane formula is valid for positive normal finite arguments only.
//! Every other lane — `+0` (`−inf`), subnormals, negatives and `NaN`
//! (`NaN`), `+inf` (`+inf`) — is taken from `f64::ln`, so the routine
//! agrees with the standard library on all of them exactly and within one
//! unit in the last place everywhere else.

const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LG1: f64 = 0.666_666_666_666_673_5;
const LG2: f64 = 0.399_999_999_994_094_2;
const LG3: f64 = 0.285_714_287_436_623_9;
const LG4: f64 = 0.222_221_984_321_497_84;
const LG5: f64 = 0.181_835_721_616_180_5;
const LG6: f64 = 0.153_138_376_992_093_73;
const LG7: f64 = 0.147_981_986_051_165_86;

/// High word of `√2/2`, the lower end of the reduced mantissa range.
const SQRT_HALF_HI: u64 = 0x3FE6_A09E;
/// What brings the high word of `√2/2` to that of `1.0`: added to the
/// bits, it moves mantissas at or above `√2` into the next exponent.
const EXP_ROUND: u64 = (0x3FF0_0000 - SQRT_HALF_HI) << 32;

/// `ln x` of one positive, normal, finite `x`.
#[inline(always)]
fn ln_lane(x: f64) -> f64 {
    let b = x.to_bits().wrapping_add(EXP_ROUND);
    let k = f64::from((b >> 52) as i32 - 0x3FF);
    let m = f64::from_bits((b & 0x000F_FFFF_FFFF_FFFF) + (SQRT_HALF_HI << 32));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    s * (hfsq + (t2 + t1)) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// Whether [`ln_lane`] covers `x`: positive, normal and finite.
#[inline(always)]
fn is_plain(x: f64) -> bool {
    (f64::MIN_POSITIVE..f64::INFINITY).contains(&x)
}

/// `x[i] := ln x[i]` for every element (module docs: one vectorised lane
/// formula, `f64::ln` on the special values).
pub fn ln_slice(x: &mut [f64]) {
    // A duplicated point or a caller's bug, never the common case: note
    // what the standard library makes of such lanes before they are
    // overwritten.
    let special: Vec<(usize, f64)> = if x.iter().fold(true, |all, &v| all & is_plain(v)) {
        Vec::new()
    } else {
        let odd = |(i, &v): (usize, &f64)| (!is_plain(v)).then(|| (i, v.ln()));
        x.iter().enumerate().filter_map(odd).collect()
    };
    for v in x.iter_mut() {
        *v = ln_lane(*v);
    }
    for (i, l) in special {
        x[i] = l;
    }
}

/// `ln x`: the one-element [`ln_slice`].
pub fn ln(x: f64) -> f64 {
    let mut v = [x];
    ln_slice(&mut v);
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two finite doubles of
    /// the same sign (or either zero).
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |v: f64| {
            let b = v.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Within one ulp of `f64::ln` over 1e-300 … 1e300 (log-uniform), a
    /// dense band around 1 where `k = 0` and the result is tiny, and the
    /// neighbourhood of the `√2` mantissa split.
    #[test]
    fn within_one_ulp_of_std() {
        let mut st = 7u64;
        let mut xs: Vec<f64> = Vec::with_capacity(1_300_000);
        for _ in 0..600_000 {
            xs.push(10f64.powf(-300.0 + 600.0 * unit(&mut st)));
        }
        for _ in 0..400_000 {
            xs.push(0.5 + 1.5 * unit(&mut st));
        }
        for _ in 0..200_000 {
            xs.push(1.0 + (unit(&mut st) - 0.5) * 1e-3);
        }
        for _ in 0..100_000 {
            let m = core::f64::consts::SQRT_2 * (1.0 + (unit(&mut st) - 0.5) * 1e-6);
            xs.push(m * 2f64.powi((splitmix(&mut st) % 200) as i32 - 100));
        }
        xs.extend([
            1.0,
            2.0,
            0.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 - f64::EPSILON / 2.0,
        ]);
        assert!(xs.len() >= 1_000_000);
        let mut got = xs.clone();
        ln_slice(&mut got);
        let mut worst = 0;
        for (&x, &g) in xs.iter().zip(&got) {
            let d = ulps(g, x.ln());
            assert!(d <= 1, "ln({x:e}) = {g:e}, std {:e}: {d} ulp", x.ln());
            worst = worst.max(d);
        }
        assert_eq!(ln(1.0), 0.0);
        assert!(worst <= 1);
    }

    /// The contract of the module docs on everything the lane formula
    /// does not cover, alone and in the middle of a long slice.
    #[test]
    fn special_values_follow_std() {
        let specials = [
            0.0,
            -0.0,
            -1.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE / 2.0,
        ];
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan());
        for &s in &specials {
            assert_eq!(ln(s).to_bits(), s.ln().to_bits(), "ln({s:e}) alone");
            for len in [2usize, 9, 40] {
                for at in [0, len / 2, len - 1] {
                    let mut x: Vec<f64> = (0..len).map(|i| 0.3 + i as f64).collect();
                    x[at] = s;
                    let want: Vec<f64> = x.iter().map(|&v| ln(v)).collect();
                    ln_slice(&mut x);
                    for (g, w) in x.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "special {s:e} at {at} of {len}");
                    }
                }
            }
        }
    }

    /// A lane's bits do not depend on the slice it travels in.
    #[test]
    fn scalar_is_the_one_element_slice() {
        let mut st = 3u64;
        for len in [0usize, 1, 7, 8, 9, 63, 257] {
            let xs: Vec<f64> = (0..len)
                .map(|_| 10f64.powf(-20.0 + 40.0 * unit(&mut st)))
                .collect();
            let mut got = xs.clone();
            ln_slice(&mut got);
            for (&x, g) in xs.iter().zip(&got) {
                assert_eq!(g.to_bits(), ln(x).to_bits(), "x = {x:e}, len {len}");
            }
        }
    }
}
