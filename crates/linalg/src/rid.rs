//! Randomized sketch-then-ID: the fast path behind skeletonization.
//!
//! A column ID of a tall `m x n` matrix `A` only needs the *pivot order*
//! and the triangular factor of the leading columns — information that
//! survives a row sketch. [`rand_interp_decomp`] therefore draws a seeded
//! Rademacher sketch `Ω` (`l x m`, entries ±1), forms the small matrix
//! `Y = Ω A` with the packed level-3 GEMM, and runs the downdated-norm
//! CPQR on `Y` instead of on `A` — `O(l m n + l n k)` instead of
//! `O(m n k)` with `l ≪ m`.
//!
//! # A-posteriori verification loop
//!
//! The sketch certifies its own accuracy in two layers:
//!
//! 1. **Pivot certificate.** The CPQR on the `l`-row pivot block of `Y`
//!    must *stop early* (`rank < l`): the downdated column norms — the
//!    exact residual norms of the sketched matrix — dropped below
//!    `tol * |first pivot|` while rows were still available. If CPQR
//!    consumes every sketch row, the tolerance was never certified and
//!    the attempt is rejected. (Stopping at the caller's `max_rank` cap
//!    or at full column rank `n` is accepted by definition.)
//! 2. **Holdout check.** [`RID_VERIFY_ROWS`] extra sketch rows are held
//!    out of the pivot CPQR entirely. The candidate `(S, R, T)` must
//!    reproduce them: `‖Y_v[:,R] − Y_v[:,S] T‖_F ≤ c·tol·‖Y_v‖_F`.
//!    Because these rows never influenced pivot selection, they catch an
//!    unluckily aligned sketch that layer 1 cannot see.
//!
//! On rejection the sketch size doubles and the loop retries; once
//! `2 l ≥ m` the sketch is no longer cheaper than the real thing and the
//! routine falls back to the full deterministic [`interp_decomp`] — so
//! accuracy is never worse than the non-randomized path.
//!
//! # Failure probability
//!
//! Write `E = A[:,R] − A[:,S] T` for the error of a candidate ID. The
//! holdout rows read `Ω_v E`, and `Ω_v` took no part in choosing the
//! candidate. What [`RID_VERIFY_ROWS`] = 8 such rows buy:
//!
//! * **Proven for Gaussian rows only.** Halko–Martinsson–Tropp (2011),
//!   §4.3, Lemma 4.1: with `r` independent standard Gaussian probes,
//!   `‖E‖ > 10 √(2/π) max_i ‖ω_iᵀ E‖` has probability at most `10^-r`.
//!   For our 8 rows that would be `10^-8`.
//! * **Proven for the Rademacher rows drawn here.** The bound is much
//!   weaker. Each row is isotropic, so `E ‖ωᵀE‖² = ‖E‖_F²`. A Rademacher
//!   quadratic form with `M = E Eᵀ` has `E[(ωᵀMω)²] ≤ 3 (tr M)²`. So by
//!   Paley–Zygmund one row reads `‖ωᵀE‖² ≥ θ ‖E‖_F²` with probability at
//!   least `(1 − θ)² / 3`. All eight rows under-read the error by more
//!   than `1/√θ` with probability at most `(1 − (1 − θ)²/3)^8`: 0.043 at
//!   `θ = 10^-2`, and 0.039 as `θ → 0`. Only errors concentrated on one
//!   or two rows of the stack come near this worst case. The rows come
//!   from a counter hash, so their independence is itself an assumption.
//! * **Measured, not proven: the Gaussian-like rate.** `srsf-core`'s
//!   `sketch_seed_sweep_meets_far_field_bound` runs 1000 seeds on one
//!   leaf box for each of Laplace at tol 1e-6 and 1e-9 and Helmholtz at
//!   κ = 25. It sees no true-far-field violation, no retry and no
//!   fallback. Zero failures in 1000 trials bound the end-to-end rate
//!   per case by 3 × 10^-3 at 95 % confidence. The benchmark's
//!   `core.compress.sketch_retries` and `sketch_fallbacks` are 0 on all
//!   four workloads.
//!
//! # Determinism
//!
//! Sketch entries are a pure function of the seed and the *global*
//! (row, column) coordinates: one counter-based splitmix-style hash
//! `mix(seed, r, c/64)` yields the signs of 64 consecutive columns (bit
//! `c mod 64`), with no sequential state. Any
//! sub-block of `Ω` can be generated independently ([`sketch_block`]),
//! which is what lets `srsf-core` accumulate `Y` block-by-block without
//! materializing the tall matrix, and guarantees the same seed yields
//! the same sketch on every driver, thread count, and transport.

use crate::gemm::matmul;
use crate::id::{id_from_cpqr, interp_decomp, IdResult};
use crate::mat::Mat;
use crate::norms::fro_norm;
use crate::qr::cpqr;
use crate::scalar::Scalar;

/// Extra sketch rows held out of the pivot CPQR for the a-posteriori
/// verification (layer 2 of the module-level loop).
pub const RID_VERIFY_ROWS: usize = 8;

/// What happened inside one [`rand_interp_decomp`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RidTelemetry {
    /// Times the sketch was rejected and doubled.
    pub retries: u32,
    /// Whether the routine fell back to the full deterministic CPQR ID.
    pub fell_back: bool,
    /// Pivot rows of the accepted sketch (0 when `fell_back`).
    pub sketch_rows: usize,
}

/// SplitMix64-style finalizer over `(seed, r, c)` — a stateless
/// counter-based generator with O(1) random access to any sketch entry.
#[inline]
fn mix(seed: u64, r: u64, c: u64) -> u64 {
    let mut z =
        seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a sub-seed from a base seed and two coordinates (used by
/// `srsf-core` to key the per-box sketch by `(kernel, level, ix, iy)`).
#[inline]
pub fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    mix(base, a, b)
}

/// Rademacher sketch entry `ω[r, c] ∈ {+1, −1}` for global coordinates.
///
/// One `mix` call yields the signs of 64 consecutive columns (bit `c mod
/// 64` of the hash word for column group `c / 64`), so bulk generation in
/// [`sketch_block`] pays one hash per 64 entries while random access stays
/// O(1) and bitwise consistent with the bulk path.
#[cfg(test)]
fn sketch_sign(seed: u64, r: usize, c: usize) -> f64 {
    let word = mix(seed, r as u64, (c >> 6) as u64);
    if (word >> (c & 63)) & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Materialize the sketch sub-block `Ω[0..rows, col0..col0+cols]`.
///
/// Columns index rows of the sketched matrix; because entries are a pure
/// function of global coordinates, disjoint column ranges of `Ω` can be
/// generated independently and their `Ω_blk · A_blk` products summed.
pub fn sketch_block<T: Scalar>(seed: u64, rows: usize, col0: usize, cols: usize) -> Mat<T> {
    sketch_block_sum(seed, rows, &[col0], cols)
}

/// The sum of the sketch sub-blocks `Ω[0..rows, c0..c0+cols]` over every
/// `c0` in `col0s` — what multiplies a block that sits at several row
/// offsets of the sketched stack (a real symmetric kernel's forward and
/// adjoint halves). Sums of signs are exact, so the result has the bits
/// of adding the blocks one by one.
pub fn sketch_block_sum<T: Scalar>(seed: u64, rows: usize, col0s: &[usize], cols: usize) -> Mat<T> {
    let mut out = Mat::zeros(rows, cols);
    if rows == 0 {
        return out;
    }
    // One hash word holds the signs of 64 consecutive columns of a row:
    // hash a word column once, then peel one bit per output column.
    let mut words = vec![0u64; rows];
    for &col0 in col0s {
        let mut hashed = usize::MAX;
        for c in 0..cols {
            let (w, bit) = ((col0 + c) >> 6, (col0 + c) & 63);
            if w != hashed {
                for (r, word) in words.iter_mut().enumerate() {
                    *word = mix(seed, r as u64, w as u64);
                }
                hashed = w;
            }
            for (o, word) in out.col_mut(c).iter_mut().zip(&words) {
                *o += T::from_f64(1.0 - 2.0 * ((word >> bit) & 1) as f64);
            }
        }
    }
    out
}

/// Attempt an ID from an already-formed sketch `Y = Ω A`.
///
/// `y` holds `pivot_rows` pivot rows on top of [`RID_VERIFY_ROWS`]
/// holdout rows (fewer holdout rows — including zero — are allowed; the
/// holdout check then weakens accordingly). Returns `None` when the
/// attempt fails either verification layer and the caller should retry
/// with a larger sketch.
pub fn id_from_sketch<T: Scalar>(
    y: &Mat<T>,
    pivot_rows: usize,
    tol: f64,
    max_rank: usize,
) -> Option<IdResult<T>> {
    let n = y.ncols();
    debug_assert!(pivot_rows <= y.nrows());
    let yp = y.block(0, 0, pivot_rows, n);
    let c = cpqr(yp, tol, max_rank);
    let k = c.rank;
    // Layer 1: the CPQR must have stopped for a *reason* — tolerance
    // reached (rank < pivot_rows), full column rank, or the caller's cap.
    if k >= pivot_rows && k < n && k < max_rank {
        return None;
    }
    let id = id_from_cpqr(c, n);
    // Layer 2: the holdout rows must be reproduced by (S, T). Skipped
    // when the rank was capped (best-effort by definition) or exact.
    let v_rows = y.nrows() - pivot_rows;
    if v_rows > 0 && k < n && k < max_rank && !id.redundant.is_empty() {
        let yv = y.block(pivot_rows, 0, v_rows, n);
        let all: Vec<usize> = (0..v_rows).collect();
        let vr = yv.select(&all, &id.redundant);
        let vs = yv.select(&all, &id.skel);
        let mut err = vr;
        err.axpy(-T::ONE, &matmul(&vs, &id.t));
        let slack = 100.0 * (n.max(1) as f64).sqrt();
        if fro_norm(&err) > slack * tol * fro_norm(&yv).max(1e-300) {
            return None;
        }
    }
    Some(id)
}

/// Compute a column ID of `a` by randomized sketching (module-level
/// algorithm), with the full deterministic [`interp_decomp`] as fallback.
///
/// `rank_guess` sizes the initial sketch (`rank_guess + oversample`
/// pivot rows); a guess below the true rank costs retries, never
/// accuracy. Returns the ID together with [`RidTelemetry`] describing
/// the path taken.
pub fn rand_interp_decomp<T: Scalar>(
    a: &Mat<T>,
    tol: f64,
    max_rank: usize,
    rank_guess: usize,
    oversample: usize,
    seed: u64,
) -> (IdResult<T>, RidTelemetry) {
    let m = a.nrows();
    let n = a.ncols();
    let mut tel = RidTelemetry::default();
    if m == 0 || n == 0 {
        return (interp_decomp(a.clone(), tol, max_rank), tel);
    }
    let mut l = (rank_guess + oversample).max(4);
    loop {
        if 2 * (l + RID_VERIFY_ROWS) >= m {
            tel.fell_back = true;
            tel.sketch_rows = 0;
            return (interp_decomp(a.clone(), tol, max_rank), tel);
        }
        let omega = sketch_block::<T>(seed, l + RID_VERIFY_ROWS, 0, m);
        let y = matmul(&omega, a);
        match id_from_sketch(&y, l, tol, max_rank) {
            Some(id) => {
                tel.sketch_rows = l;
                return (id, tel);
            }
            None => {
                tel.retries += 1;
                l *= 2;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::norms::max_abs_diff;

    /// The defining ID property plus the index partition, with the same
    /// slack conventions as the deterministic oracle tests in `id.rs`.
    fn check_id<T: Scalar>(a: &Mat<T>, id: &IdResult<T>, tol: f64, slack: f64) {
        let m = a.nrows();
        let rows: Vec<usize> = (0..m).collect();
        let ar = a.select(&rows, &id.redundant);
        let as_ = a.select(&rows, &id.skel);
        let approx = matmul(&as_, &id.t);
        let err = max_abs_diff(&ar, &approx);
        let scale = fro_norm(a).max(1e-300);
        assert!(
            err <= slack * tol * scale + 1e-13 * scale,
            "RID error {err:.3e} vs tol {tol:.1e} (scale {scale:.3e})"
        );
        let mut all: Vec<usize> = id.skel.iter().chain(id.redundant.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..a.ncols()).collect::<Vec<usize>>());
    }

    fn xorshift(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % 2000) as f64 / 1000.0 - 1.0
    }

    fn low_rank_f64(m: usize, n: usize, k: usize, seed: u64) -> Mat<f64> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let u = Mat::from_fn(m, k, |_, _| xorshift(&mut s));
        let v = Mat::from_fn(k, n, |_, _| xorshift(&mut s));
        let mut a = matmul(&u, &v);
        for val in a.as_mut_slice().iter_mut() {
            *val += 1e-9 * xorshift(&mut s);
        }
        a
    }

    #[test]
    fn rid_matches_oracle_bound_on_sweep() {
        for (m, n) in [(80usize, 24usize), (120, 40), (200, 17), (96, 96)] {
            for k in [2usize, 5, 9] {
                for seed in [1u64, 42, 4096] {
                    let a = low_rank_f64(m, n, k, seed);
                    let tol = 1e-6;
                    let (id, tel) = rand_interp_decomp(&a, tol, usize::MAX, k, 8, seed);
                    assert!(!tel.fell_back, "sketch should suffice at {m}x{n} rank {k}");
                    check_id(&a, &id, tol, 1e3);
                    // Deterministic full ID finds (about) the same rank.
                    let full = interp_decomp(a.clone(), tol, usize::MAX);
                    assert!(
                        id.rank() <= full.rank() + 4 && id.rank() + 4 >= full.rank(),
                        "rank {} vs deterministic {}",
                        id.rank(),
                        full.rank()
                    );
                }
            }
        }
    }

    #[test]
    fn rid_complex_kernel_matrix() {
        let src: Vec<f64> = (0..48).map(|i| i as f64 / 48.0).collect();
        let trg: Vec<f64> = (0..160).map(|i| 4.0 + i as f64 / 160.0).collect();
        let kappa = 3.0;
        let a = Mat::from_fn(160, 48, |i, j| {
            let r = (trg[i] - src[j]).abs();
            c64::from_polar(1.0 / r.sqrt(), kappa * r)
        });
        let (id, tel) = rand_interp_decomp(&a, 1e-8, usize::MAX, 12, 8, 7);
        assert!(!tel.fell_back);
        assert!(id.rank() < 30);
        check_id(&a, &id, 1e-8, 1e3);
    }

    #[test]
    fn rid_ragged_shapes() {
        // Wide (m < n) and nearly square ragged shapes still satisfy the
        // bound — the sketch may fall back when m is small, which is fine.
        for (m, n) in [(30usize, 90usize), (45, 44), (64, 7)] {
            let a = low_rank_f64(m, n, 3, 11);
            let (id, _tel) = rand_interp_decomp(&a, 1e-6, usize::MAX, 3, 8, 11);
            check_id(&a, &id, 1e-6, 1e3);
        }
    }

    #[test]
    fn rid_rank_cap_respected() {
        let a = Mat::from_fn(200, 16, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let (id, _) = rand_interp_decomp(&a, 0.0, 6, 6, 8, 3);
        assert_eq!(id.rank(), 6);
        assert_eq!(id.redundant.len(), 10);
    }

    #[test]
    fn rid_zero_matrix_all_redundant() {
        let a: Mat<f64> = Mat::zeros(100, 12);
        let (id, _) = rand_interp_decomp(&a, 1e-10, usize::MAX, 4, 8, 5);
        assert_eq!(id.rank(), 0);
        assert_eq!(id.redundant.len(), 12);
    }

    #[test]
    fn rid_empty_matrix() {
        let a: Mat<f64> = Mat::zeros(0, 0);
        let (id, tel) = rand_interp_decomp(&a, 1e-10, usize::MAX, 4, 8, 5);
        assert_eq!(id.rank(), 0);
        assert!(id.skel.is_empty() && id.redundant.is_empty());
        assert!(!tel.fell_back);
        let b: Mat<f64> = Mat::zeros(50, 0);
        let (id, _) = rand_interp_decomp(&b, 1e-10, usize::MAX, 4, 8, 5);
        assert_eq!(id.rank(), 0);
    }

    #[test]
    fn rid_forced_fallback_matches_deterministic() {
        // m too small for any sketch to be cheaper: the guess alone puts
        // 2(l + verify) past m, so the first iteration falls back.
        let a = low_rank_f64(20, 15, 4, 9);
        let (id, tel) = rand_interp_decomp(&a, 1e-6, usize::MAX, 16, 8, 9);
        assert!(tel.fell_back);
        assert_eq!(tel.retries, 0);
        let full = interp_decomp(a.clone(), 1e-6, usize::MAX);
        assert_eq!(id.skel, full.skel);
        assert_eq!(id.redundant, full.redundant);
        assert_eq!(max_abs_diff(&id.t, &full.t), 0.0);
    }

    #[test]
    fn rid_undersized_guess_retries_then_succeeds() {
        // True rank 10 but guess 1: the first sketch cannot certify the
        // tolerance (CPQR eats every pivot row), so the loop doubles.
        let a = low_rank_f64(400, 40, 10, 21);
        let (id, tel) = rand_interp_decomp(&a, 1e-6, usize::MAX, 1, 2, 21);
        assert!(tel.retries >= 1, "expected at least one doubling");
        assert!(!tel.fell_back);
        check_id(&a, &id, 1e-6, 1e3);
    }

    #[test]
    fn rid_full_rank_keeps_everything() {
        let a: Mat<f64> = Mat::from_fn(96, 8, |i, j| if i == j { 1.0 } else { 0.0 });
        let (id, _) = rand_interp_decomp(&a, 1e-12, usize::MAX, 8, 8, 2);
        assert_eq!(id.rank(), 8);
        assert!(id.redundant.is_empty());
    }

    #[test]
    fn sketch_entries_are_stateless_and_blockwise_consistent() {
        let seed = 0xDEAD_BEEF;
        let whole = sketch_block::<f64>(seed, 6, 0, 32);
        let left = sketch_block::<f64>(seed, 6, 0, 20);
        let right = sketch_block::<f64>(seed, 6, 20, 12);
        for r in 0..6 {
            for c in 0..32 {
                let want = whole[(r, c)];
                let got = if c < 20 {
                    left[(r, c)]
                } else {
                    right[(r, c - 20)]
                };
                assert_eq!(want, got);
                assert!(want == 1.0 || want == -1.0);
                assert_eq!(want, sketch_sign(seed, r, c));
            }
        }
        // Different seeds give different sketches.
        let other = sketch_block::<f64>(seed ^ 1, 6, 0, 32);
        assert!(max_abs_diff(&whole, &other) > 0.0);
        // Blocks that straddle hash words agree with random access, and
        // the summed block has the bits of adding its parts.
        let (a, b) = (
            sketch_block::<c64>(seed, 5, 50, 100),
            sketch_block::<c64>(seed, 5, 150, 100),
        );
        for c in 0..100 {
            assert_eq!(a[(4, c)], c64::new(sketch_sign(seed, 4, 50 + c), 0.0));
        }
        let mut sum = a;
        sum.axpy(c64::ONE, &b);
        assert_eq!(sketch_block_sum::<c64>(seed, 5, &[50, 150], 100), sum);
    }
}
