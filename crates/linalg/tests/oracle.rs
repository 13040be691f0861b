//! Randomized oracle tests: every blocked level-3 kernel must agree with
//! its retained naive/unblocked predecessor to 1e-12 relative error,
//! across rectangular shapes, degenerate (empty / single-column) edges,
//! and both `f64` and `c64` scalars.

use srsf_linalg::gemm::{
    adjoint_matmul, adjoint_matmul_acc, adjoint_matmul_acc_naive, matmul, matmul_acc,
    matmul_acc_naive, transpose_matmul, transpose_matmul_acc,
};
use srsf_linalg::ldlt::NB;
use srsf_linalg::norms::{fro_norm, max_abs_diff};
use srsf_linalg::panel::{panel_mul_acc, panel_mul_t_acc, panel_rows};
use srsf_linalg::qr::{
    cpqr, cpqr_naive, form_q, form_q_naive, householder_qr, householder_qr_naive,
};
use srsf_linalg::triangular::{
    solve_lower_mat, solve_lower_mat_unblocked, solve_upper_mat, solve_upper_mat_unblocked,
};
use srsf_linalg::{c64, Ldlt, LdltBreakdown, Lu, Mat, Scalar, SymPanels};

const TOL: f64 = 1e-12;

/// Deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
    }
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % 2_000_000) as f64 / 1_000_000.0 - 1.0
    }
}

trait TestScalar: Scalar {
    fn rand(rng: &mut Rng) -> Self;
}

impl TestScalar for f64 {
    fn rand(rng: &mut Rng) -> Self {
        rng.next_f64()
    }
}

impl TestScalar for c64 {
    fn rand(rng: &mut Rng) -> Self {
        c64::new(rng.next_f64(), rng.next_f64())
    }
}

fn rand_mat<T: TestScalar>(m: usize, n: usize, rng: &mut Rng) -> Mat<T> {
    Mat::from_fn(m, n, |_, _| T::rand(rng))
}

fn assert_close<T: Scalar>(got: &Mat<T>, want: &Mat<T>, what: &str) {
    let scale = fro_norm(want).max(1.0);
    let err = max_abs_diff(got, want);
    assert!(
        err <= TOL * scale,
        "{what}: {err:.3e} vs scale {scale:.3e} ({}x{})",
        want.nrows(),
        want.ncols()
    );
}

/// Shapes spanning small (naive path), large (blocked path), ragged
/// micro-tile edges, and degenerate cases.
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (5, 3, 7),
    (17, 33, 9),
    (64, 64, 64),
    (97, 103, 67),
    (130, 260, 41),
    (200, 17, 200),
    (0, 4, 3),
    (4, 0, 3),
    (4, 3, 0),
    (128, 1, 128),
];

fn gemm_oracle<T: TestScalar>(seed: u64) {
    for (i, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let mut rng = Rng::new(seed + i as u64);
        let a = rand_mat::<T>(m, k, &mut rng);
        let b = rand_mat::<T>(k, n, &mut rng);
        let c0 = rand_mat::<T>(m, n, &mut rng);
        let alpha = T::from_re_im(0.7, -0.3);
        let mut c = c0.clone();
        matmul_acc(&mut c, alpha, &a, &b);
        let mut c_ref = c0.clone();
        matmul_acc_naive(&mut c_ref, alpha, &a, &b);
        assert_close(&c, &c_ref, "matmul_acc");

        // The adjoint form.
        let at = rand_mat::<T>(k, m, &mut rng);
        let got = adjoint_matmul(&at, &b);
        let mut want = Mat::zeros(m, n);
        adjoint_matmul_acc_naive(&mut want, T::ONE, &at, &b);
        assert_close(&got, &want, "adjoint_matmul");
    }
}

#[test]
fn gemm_blocked_matches_naive_f64() {
    gemm_oracle::<f64>(1);
}

#[test]
fn gemm_blocked_matches_naive_c64() {
    gemm_oracle::<c64>(2);
}

/// `(k, m, n)` for `C (m x n) += alpha * A^H (A is k x m) * B (k x n)`:
/// the solve sweep's record shapes, every packing edge of the adjoint
/// path (micro-tile 16/8 rows, `KC`/`MC` = 128, ragged last panels), the
/// crossover to the dot-product form (`n < 4`, under 16^3 multiply-adds),
/// and empty dimensions.
const ADJ_SHAPES: &[(usize, usize, usize)] = &[
    (300, 42, 16),
    (25, 42, 16),
    (26, 62, 62),
    (16, 16, 16),
    (15, 17, 16),
    (129, 131, 5),
    (128, 128, 4),
    (257, 33, 19),
    (300, 42, 3),
    (300, 42, 1),
    (7, 9, 11),
    (0, 5, 6),
    (5, 0, 6),
    (5, 6, 0),
    (400, 170, 100), // depth across two `KC` blocks
];

fn packed_adjoint_oracle<T: TestScalar>(seed: u64) {
    for (i, &(k, m, n)) in ADJ_SHAPES.iter().enumerate() {
        let mut rng = Rng::new(seed + i as u64);
        let a = rand_mat::<T>(k, m, &mut rng);
        let b = rand_mat::<T>(k, n, &mut rng);
        let c0 = rand_mat::<T>(m, n, &mut rng);
        let alpha = T::from_re_im(-0.6, 0.45);
        let mut want = c0.clone();
        adjoint_matmul_acc_naive(&mut want, alpha, &a, &b);
        let mut got = c0.clone();
        adjoint_matmul_acc(&mut got, alpha, &a, &b);
        assert_close(&got, &want, "adjoint_matmul_acc");
    }
}

#[test]
fn packed_adjoint_gemm_matches_naive_f64() {
    packed_adjoint_oracle::<f64>(11);
}

#[test]
fn packed_adjoint_gemm_matches_naive_c64() {
    packed_adjoint_oracle::<c64>(12);
}

/// The transpose flavour of the packed product against an entry-wise
/// `A^T B` with no conjugate anywhere, over the same shapes: both
/// branches of the size switch (`PACK_MIN_FLOPS`, `n >= 4`), ragged
/// panels, empty dimensions.
fn packed_transpose_oracle<T: TestScalar>(seed: u64) {
    for (i, &(k, m, n)) in ADJ_SHAPES.iter().enumerate() {
        let mut rng = Rng::new(seed + i as u64);
        let a = rand_mat::<T>(k, m, &mut rng);
        let b = rand_mat::<T>(k, n, &mut rng);
        let c0 = rand_mat::<T>(m, n, &mut rng);
        let alpha = T::from_re_im(-0.6, 0.45);
        let want = Mat::from_fn(m, n, |r, c| {
            let dot: T = (0..k).map(|l| a[(l, r)] * b[(l, c)]).sum();
            c0[(r, c)] + alpha * dot
        });
        let mut got = c0.clone();
        transpose_matmul_acc(&mut got, alpha, &a, &b);
        assert_close(&got, &want, "transpose_matmul_acc");

        let mut adj = c0.clone();
        adjoint_matmul_acc(&mut adj, alpha, &a, &b);
        if T::IS_COMPLEX && k * m * n > 0 {
            // A swapped conjugate flag must not pass: with random complex
            // entries the two flavours differ at order one.
            assert!(
                max_abs_diff(&got, &adj) > 1e-3,
                "A^T B and A^H B coincide at {k}x{m}x{n}"
            );
        } else {
            assert_eq!(got, adj, "real A^T B must be the bits of A^H B");
        }

        // The allocating form is the same product.
        let mut sum = transpose_matmul(&a, &b);
        transpose_matmul_acc(&mut sum, -T::ONE, &a, &b);
        assert_close(&sum, &Mat::zeros(m, n), "transpose_matmul - A^T B");
    }
}

#[test]
fn packed_transpose_gemm_matches_naive_f64() {
    packed_transpose_oracle::<f64>(21);
}

#[test]
fn packed_transpose_gemm_matches_naive_c64() {
    packed_transpose_oracle::<c64>(22);
}

#[test]
fn transpose_tiled_matches_naive() {
    for (i, &(m, n)) in [(0usize, 5usize), (1, 1), (33, 65), (100, 7), (70, 129)]
        .iter()
        .enumerate()
    {
        let mut rng = Rng::new(77 + i as u64);
        let a = rand_mat::<c64>(m, n, &mut rng);
        assert_eq!(a.transpose(), a.transpose_naive());
        assert_eq!(a.adjoint(), a.adjoint_naive());
        let b = rand_mat::<f64>(n, m, &mut rng);
        assert_eq!(b.transpose(), b.transpose_naive());
        assert_eq!(b.adjoint(), b.adjoint_naive());
    }
}

fn qr_oracle<T: TestScalar>(seed: u64) {
    for (i, &(m, n)) in [
        (1usize, 1usize),
        (10, 4),
        (4, 10),
        (50, 50),
        (90, 70),
        (64, 100),
        (130, 40),
        (5, 0),
    ]
    .iter()
    .enumerate()
    {
        let mut rng = Rng::new(seed + i as u64);
        let a = rand_mat::<T>(m, n, &mut rng);
        let (f_b, tau_b) = householder_qr(a.clone());
        let (f_n, tau_n) = householder_qr_naive(a.clone());
        assert_close(&f_b, &f_n, "householder_qr factors");
        for (tb, tn) in tau_b.iter().zip(tau_n.iter()) {
            assert!((*tb - *tn).abs() < TOL * 10.0, "tau mismatch");
        }
        let k = m.min(n);
        let q_b = form_q(&f_b, &tau_b, k);
        let q_n = form_q_naive(&f_n, &tau_n, k);
        assert_close(&q_b, &q_n, "form_q");
    }
}

#[test]
fn qr_blocked_matches_naive_f64() {
    qr_oracle::<f64>(3);
}

#[test]
fn qr_blocked_matches_naive_c64() {
    qr_oracle::<c64>(4);
}

fn cpqr_oracle<T: TestScalar>(seed: u64) {
    for (i, &(m, n)) in [(20usize, 12usize), (60, 90), (90, 60), (80, 80)]
        .iter()
        .enumerate()
    {
        let mut rng = Rng::new(seed + i as u64);
        // Distinct, well-separated column norms make the pivot sequence
        // unambiguous for both norm strategies.
        let mut a = rand_mat::<T>(m, n, &mut rng);
        for j in 0..n {
            let s = T::from_f64(1.0 + (n - j) as f64);
            for v in a.col_mut(j) {
                *v *= s;
            }
        }
        let c_b = cpqr(a.clone(), 1e-13, usize::MAX);
        let c_n = cpqr_naive(a.clone(), 1e-13, usize::MAX);
        assert_eq!(c_b.rank, c_n.rank, "rank mismatch {m}x{n}");
        assert_eq!(c_b.jpvt, c_n.jpvt, "pivot mismatch {m}x{n}");
        // Compare the R factor on the factored rows.
        let k = c_b.rank;
        let r_b = Mat::from_fn(
            k,
            n,
            |i, j| if i <= j { c_b.factors[(i, j)] } else { T::ZERO },
        );
        let r_n = Mat::from_fn(
            k,
            n,
            |i, j| if i <= j { c_n.factors[(i, j)] } else { T::ZERO },
        );
        assert_close(&r_b, &r_n, "cpqr R");
        // Both must reconstruct the permuted input.
        let q = form_q(&c_b.factors, &c_b.tau, k);
        let qr = matmul(&q, &r_b);
        let ap = Mat::from_fn(m, n, |i, j| a[(i, c_b.jpvt[j])]);
        let scale = fro_norm(&a).max(1.0);
        let err = max_abs_diff(&qr, &ap);
        assert!(err <= 1e-11 * scale, "cpqr reconstruction {err:.3e}");
    }
}

#[test]
fn cpqr_blocked_matches_naive_f64() {
    cpqr_oracle::<f64>(5);
}

#[test]
fn cpqr_blocked_matches_naive_c64() {
    cpqr_oracle::<c64>(6);
}

/// Near-identical columns collapse every partial norm by ~1e8 after one
/// reflector — the downdating-cancellation regime. The blocked CPQR must
/// stay a valid factorization (the pivot *order* may legitimately differ
/// from the exact-renorm oracle in this regime, the error bound may not).
#[test]
fn cpqr_cancellation_stress_both_scalars() {
    fn run<T: TestScalar>(seed: u64) {
        let (m, n) = (70, 50);
        let mut rng = Rng::new(seed);
        let base: Vec<T> = (0..m).map(|_| T::rand(&mut rng)).collect();
        let a = Mat::from_fn(m, n, |i, _| base[i] + T::rand(&mut rng).scale(1e-8));
        let c = cpqr(a.clone(), 1e-14, usize::MAX);
        let k = c.rank;
        assert!(k >= 2, "perturbations are independent; rank must exceed 1");
        let q = form_q(&c.factors, &c.tau, k);
        let qtq = adjoint_matmul(&q, &q);
        assert!(
            max_abs_diff(&qtq, &Mat::identity(k)) < 1e-9,
            "Q lost orthonormality"
        );
        let r = Mat::from_fn(
            k,
            n,
            |i, j| if i <= j { c.factors[(i, j)] } else { T::ZERO },
        );
        let qr = matmul(&q, &r);
        let ap = Mat::from_fn(m, n, |i, j| a[(i, c.jpvt[j])]);
        assert!(max_abs_diff(&qr, &ap) < 1e-9 * fro_norm(&a).max(1.0));
    }
    run::<f64>(7);
    run::<c64>(8);
}

fn lu_oracle<T: TestScalar>(seed: u64) {
    for (i, &n) in [1usize, 7, 48, 49, 100, 150].iter().enumerate() {
        let mut rng = Rng::new(seed + i as u64);
        let mut a = rand_mat::<T>(n, n, &mut rng);
        for d in 0..n {
            a[(d, d)] += T::from_f64(n as f64); // diagonally dominant
        }
        let lu_b = Lu::factor(a.clone()).expect("blocked LU");
        let lu_n = Lu::factor_unblocked(a.clone()).expect("unblocked LU");
        assert_eq!(lu_b.piv, lu_n.piv, "pivot mismatch n={n}");
        assert_close(&lu_b.lu, &lu_n.lu, "LU factors");
    }
}

#[test]
fn lu_blocked_matches_unblocked_f64() {
    lu_oracle::<f64>(9);
}

#[test]
fn lu_blocked_matches_unblocked_c64() {
    lu_oracle::<c64>(10);
}

/// A random well-conditioned symmetric matrix: `R + Rᵀ + n I`. For `c64`
/// it is complex *symmetric*, not Hermitian (the imaginary parts of
/// mirrored entries are equal, not opposite).
fn rand_symmetric<T: TestScalar>(n: usize, rng: &mut Rng) -> Mat<T> {
    let r = rand_mat::<T>(n, n, rng);
    let mut a = Mat::from_fn(n, n, |i, j| r[(i, j)] + r[(j, i)]);
    for d in 0..n {
        a[(d, d)] += T::from_f64(n as f64);
    }
    a
}

/// Expand packed `L D Lᵀ` factors back into dense `L` and `D`.
fn ldlt_dense_factors<T: Scalar>(f: &Ldlt<T>) -> (Mat<T>, Mat<T>) {
    let n = f.dim();
    let (mut l, mut d) = (Mat::identity(n), Mat::zeros(n, n));
    let mut k0 = 0;
    for (dinv_t, l21) in f.diag_inverses().iter().zip(f.sub_panels()) {
        let nb = dinv_t.nrows();
        // D_k = (D_k⁻ᵀ)⁻ᵀ.
        let dk = Lu::factor(dinv_t.clone())
            .expect("invertible")
            .into_inverse_t();
        d.set_block(k0, k0, &dk);
        l.set_block(k0 + nb, k0, l21);
        k0 += nb;
    }
    (l, d)
}

/// `Ldlt` against `Lu` on the same symmetric matrix: solutions, the
/// reconstruction `L D Lᵀ`, and the packed footprint — at the
/// block-column edges and one ragged multi-panel size.
fn ldlt_oracle<T: TestScalar>(seed: u64) {
    for (i, &n) in [1, NB - 1, NB, NB + 1, 3 * NB + 7].iter().enumerate() {
        let mut rng = Rng::new(seed + i as u64);
        let a = rand_symmetric::<T>(n, &mut rng);
        if T::IS_COMPLEX && n > 1 {
            assert_ne!(a[(1, 0)], a[(0, 1)].conj(), "test matrix is Hermitian");
        }
        let f = Ldlt::factor(SymPanels::from_lower(&a)).expect("well-conditioned LDLᵀ");
        assert_eq!(f.dim(), n);
        let lu = Lu::factor(a.clone()).expect("LU");

        let b = rand_mat::<T>(n, 5, &mut rng);
        let (mut x_ldlt, mut x_lu) = (b.clone(), b.clone());
        f.solve_mat(&mut x_ldlt);
        lu.solve_mat(&mut x_lu);
        assert_close(&x_ldlt, &x_lu, "LDLᵀ vs LU solution");

        let (l, d) = ldlt_dense_factors(&f);
        let ldlt = matmul(&matmul(&l, &d), &l.transpose());
        assert_close(&ldlt, &a, "L D Lᵀ reconstruction");
        // Entry-wise too: `L₂₁ = W D⁻ᵀ` comes out of one product of the
        // sub-diagonal panel with the explicit inverse, ragged last block
        // included.
        let err = max_abs_diff(&ldlt, &a);
        assert!(err <= 1e-13 * n as f64, "n={n}: |L D Lᵀ - A| = {err:.3e}");

        let elem = std::mem::size_of::<T>();
        let bound = (n * (n + NB) / 2 + n) * elem + 64 * n;
        assert!(
            f.heap_bytes() <= bound,
            "n={n}: {} B packed, bound {bound}",
            f.heap_bytes()
        );
        if n > 2 * NB {
            assert!(
                f.heap_bytes() * 10 < lu.heap_bytes() * 7,
                "n={n}: not packed"
            );
        }
    }
}

#[test]
fn ldlt_matches_lu_f64() {
    ldlt_oracle::<f64>(31);
}

#[test]
fn ldlt_matches_lu_c64() {
    ldlt_oracle::<c64>(32);
}

/// Right-hand-side counts of the panel oracles: one row, ragged tiles,
/// exactly one tile of either scalar type, one row more, several tiles.
const PANEL_HEIGHTS: [usize; 6] = [1, 3, 8, 16, 17, 64];

/// `b` (`n x nrhs`) as a panel: transposed and zero-padded to the tile.
fn to_panel<T: Scalar>(b: &Mat<T>) -> Mat<T> {
    let mut p = Mat::zeros(panel_rows::<T>(b.ncols()), b.nrows());
    p.set_block(0, 0, &b.transpose());
    p
}

/// Back again: the first `nrhs` rows of `p`, transposed; the padding rows
/// must still be zero (no kernel may leak one row into another).
fn from_panel<T: Scalar>(p: &Mat<T>, nrhs: usize) -> Mat<T> {
    for j in 0..p.ncols() {
        assert!(
            p.col(j)[nrhs..].iter().all(|v| *v == T::ZERO),
            "padding row written in column {j}"
        );
    }
    p.block(0, 0, nrhs, p.ncols()).transpose()
}

/// The two panel products against the column-major GEMM on the
/// transposed operands — the record shapes of the solve sweep, widths
/// straddling the four-wide strips, and empty index sets on either side.
fn panel_product_oracle<T: TestScalar>(seed: u64) {
    let alpha = T::from_re_im(-0.7, 0.4);
    for (i, &nrhs) in PANEL_HEIGHTS.iter().enumerate() {
        for (j, &r) in [0usize, 1, 3, 4, 5, 41, 64, 67].iter().enumerate() {
            for &n in &[0usize, 1, 7, 90] {
                let mut rng = Rng::new(seed + (i * 100 + j * 10 + n) as u64);
                let m = rand_mat::<T>(n, r, &mut rng);
                let (bn, br) = (
                    rand_mat::<T>(n, nrhs, &mut rng),
                    rand_mat::<T>(r, nrhs, &mut rng),
                );
                let what = format!("nrhs {nrhs}, M {n}x{r}");
                // (alpha M^T B_N + B_R)^T = alpha X_N M + X_R, and with
                // conj(M) for the adjoint.
                for conj in [false, true] {
                    let mut want = br.clone();
                    if conj {
                        adjoint_matmul_acc(&mut want, alpha, &m, &bn);
                    } else {
                        transpose_matmul_acc(&mut want, alpha, &m, &bn);
                    }
                    let mut c = to_panel(&br);
                    panel_mul_acc(&mut c, alpha, &to_panel(&bn), &m, conj);
                    assert_close(&from_panel(&c, nrhs), &want, &format!("panel * M, {what}"));
                }
                // (alpha M B_R + B_N)^T = alpha X_R M^T + X_N.
                let mut want = bn.clone();
                matmul_acc(&mut want, alpha, &m, &br);
                let mut c = to_panel(&bn);
                panel_mul_t_acc(&mut c, alpha, &to_panel(&br), &m);
                assert_close(
                    &from_panel(&c, nrhs),
                    &want,
                    &format!("panel * M^T, {what}"),
                );
            }
        }
    }
}

#[test]
fn panel_products_match_gemm_f64() {
    panel_product_oracle::<f64>(51);
}

#[test]
fn panel_products_match_gemm_c64() {
    panel_product_oracle::<c64>(52);
}

/// `Lu::{solve,forward,backward}_panel` against their column-major twins
/// on a pivoting (not diagonally dominant) matrix.
fn panel_lu_oracle<T: TestScalar>(seed: u64) {
    for (i, &nrhs) in PANEL_HEIGHTS.iter().enumerate() {
        for (j, &r) in [0usize, 1, 3, 4, 5, 41, 64, 67].iter().enumerate() {
            let mut rng = Rng::new(seed + (i * 10 + j) as u64);
            let mut a = rand_mat::<T>(r, r, &mut rng);
            for d in 0..r {
                a[(d, (d * 7 + 3) % r)] += T::from_f64(3.0);
            }
            let lu = Lu::factor(a).expect("LU");
            assert!(r < 4 || lu.piv.iter().enumerate().any(|(k, &p)| k != p));
            let b = rand_mat::<T>(r, nrhs, &mut rng);
            let run = |col: &dyn Fn(&mut Mat<T>), panel: &dyn Fn(&mut Mat<T>), what: &str| {
                let (mut want, mut x) = (b.clone(), to_panel(&b));
                col(&mut want);
                panel(&mut x);
                assert_close(
                    &from_panel(&x, nrhs),
                    &want,
                    &format!("{what}, nrhs {nrhs}, r {r}"),
                );
            };
            run(&|m| lu.solve_mat(m), &|x| lu.solve_panel(x), "solve_panel");
            run(
                &|m| lu.forward_mat(m),
                &|x| lu.forward_panel(x),
                "forward_panel",
            );
            run(
                &|m| lu.backward_mat(m),
                &|x| lu.backward_panel(x),
                "backward_panel",
            );
        }
    }
}

/// The set-up path solves a coupling as a panel at its own height: tall,
/// not padded to a tile. `Lu::solve_panel` on `B^T` as it is must match
/// `Lu::solve_mat` of `B`, and give every row the bits it has in the
/// padded panel (the rows below the last whole tile go one at a time).
fn tall_panel_oracle<T: TestScalar>(seed: u64) {
    for (i, &h) in [1usize, 3, 512, 515].iter().enumerate() {
        for (j, &r) in [1usize, 41, 64].iter().enumerate() {
            let mut rng = Rng::new(seed + (i * 10 + j) as u64);
            let mut a = rand_mat::<T>(r, r, &mut rng);
            for d in 0..r {
                a[(d, (d * 7 + 3) % r)] += T::from_f64(3.0);
            }
            let lu = Lu::factor(a).expect("LU");
            assert!(r < 4 || lu.piv.iter().enumerate().any(|(k, &p)| k != p));
            let b = rand_mat::<T>(r, h, &mut rng);
            let mut want = b.clone();
            lu.solve_mat(&mut want);
            let mut x = b.transpose();
            lu.solve_panel(&mut x);
            assert_close(&x.transpose(), &want, &format!("tall panel {h} x {r}"));
            let mut padded = to_panel(&b);
            lu.solve_panel(&mut padded);
            assert!(
                x == padded.block(0, 0, h, r),
                "tall panel {h} x {r}: bits differ from the padded panel"
            );
        }
    }
}

#[test]
fn tall_panel_solves_match_column_major() {
    tall_panel_oracle::<f64>(57);
    tall_panel_oracle::<c64>(58);
}

#[test]
fn panel_lu_solves_match_column_major_f64() {
    panel_lu_oracle::<f64>(53);
}

#[test]
fn panel_lu_solves_match_column_major_c64() {
    panel_lu_oracle::<c64>(54);
}

/// `Ldlt::solve_panel` against `Ldlt::solve_mat` at the block-column
/// edges (complex *symmetric* for `c64`).
fn panel_ldlt_oracle<T: TestScalar>(seed: u64) {
    for (i, &n) in [1, NB - 1, NB, NB + 1, 3 * NB + 7].iter().enumerate() {
        let mut rng = Rng::new(seed + i as u64);
        let a = rand_symmetric::<T>(n, &mut rng);
        let f = Ldlt::factor(SymPanels::from_lower(&a)).expect("well-conditioned LDLᵀ");
        for &nrhs in &PANEL_HEIGHTS {
            let b = rand_mat::<T>(n, nrhs, &mut rng);
            let (mut want, mut x) = (b.clone(), to_panel(&b));
            f.solve_mat(&mut want);
            f.solve_panel(&mut x);
            assert_close(
                &from_panel(&x, nrhs),
                &want,
                &format!("Ldlt::solve_panel, n {n}, nrhs {nrhs}"),
            );
        }
    }
}

#[test]
fn panel_ldlt_solve_matches_column_major_f64() {
    panel_ldlt_oracle::<f64>(55);
}

#[test]
fn panel_ldlt_solve_matches_column_major_c64() {
    panel_ldlt_oracle::<c64>(56);
}

/// A shape-consistent packed `L D Lᵀ` with random, well-scaled blocks —
/// what the sweeps see, without the cost of factoring a matrix that
/// large in a debug build: diagonally dominant diagonal inverses, panels
/// small enough that nothing grows.
fn rand_ldlt<T: TestScalar>(n: usize, rng: &mut Rng) -> Ldlt<T> {
    let (mut diag, mut sub) = (Vec::new(), Vec::new());
    for k0 in (0..n).step_by(NB) {
        let nb = NB.min(n - k0);
        let mut dinv_t = rand_mat::<T>(nb, nb, rng);
        let s = T::from_f64(1.0 / nb as f64);
        dinv_t.as_mut_slice().iter_mut().for_each(|v| *v *= s);
        for i in 0..nb {
            dinv_t[(i, i)] += T::from_f64(2.0);
        }
        diag.push(dinv_t);
        let mut l21 = rand_mat::<T>(n - k0 - nb, nb, rng);
        let s = T::from_f64(1.0 / n as f64);
        l21.as_mut_slice().iter_mut().for_each(|v| *v *= s);
        sub.push(l21);
    }
    Ldlt::from_parts(n, diag, sub).expect("consistent shapes")
}

/// The top solve as a chain of owners runs it: forward over the block
/// columns held, the panel columns past them on to the next owner and
/// back, backward over the block columns held.
fn chain_solve<T: Scalar>(owners: &[Ldlt<T>], mut panel: Mat<T>) -> Mat<T> {
    let (me, rest) = owners.split_first().expect("a chain has a head");
    me.forward_cols(&mut panel);
    if !rest.is_empty() {
        let (h, done) = (panel.nrows(), me.col_span().len());
        let onward = panel.block(0, done, h, panel.ncols() - done);
        panel.set_block(0, done, &chain_solve(rest, onward));
    }
    me.backward_cols(&mut panel);
    panel
}

/// Every way to cut `n_cols` block columns into one to four contiguous
/// ranges, the first of which may be empty (a head that only gathers) —
/// at up to eight block columns; beyond that (a debug build sweeps a
/// 1677-column panel in a second) the cuts over four boundaries.
fn range_cuts(n_cols: usize) -> Vec<Vec<usize>> {
    let at: Vec<usize> = if n_cols <= 8 {
        (0..n_cols).collect()
    } else {
        vec![0, 1, n_cols / 2, n_cols - 1]
    };
    let mut cuts = vec![Vec::new()];
    for (i, &a) in at.iter().enumerate() {
        cuts.push(vec![a]);
        for (j, &b) in at.iter().enumerate().skip(i + 1) {
            cuts.push(vec![a, b]);
            cuts.extend(at[j + 1..].iter().map(|&c| vec![a, b, c]));
        }
    }
    cuts
}

/// Dealing the block columns out changes no bit and no byte: the chain
/// over any contiguous ranges equals `Ldlt::solve_panel` on the whole,
/// the ranges' footprints add up to the whole's, and appending them back
/// together in chain order gives the whole again.
fn ldlt_split_oracle<T: TestScalar>(seed: u64) {
    let same = |got: &Mat<T>, want: &Mat<T>| {
        got.as_slice().iter().zip(want.as_slice()).all(|(a, b)| {
            (a.re().to_bits(), a.im().to_bits()) == (b.re().to_bits(), b.im().to_bits())
        })
    };
    for (i, &n) in [63, 64, 65, 200, 1677].iter().enumerate() {
        let mut rng = Rng::new(seed + i as u64);
        let f = rand_ldlt::<T>(n, &mut rng);
        let panels: Vec<(Mat<T>, Mat<T>)> = [1, 3, 16]
            .iter()
            .map(|&h| {
                let x = rand_mat::<T>(h, n, &mut rng);
                let mut want = x.clone();
                f.solve_panel(&mut want);
                (x, want)
            })
            .collect();
        for cuts in range_cuts(n.div_ceil(NB)) {
            let mut head = f.clone();
            let mut owners: Vec<Ldlt<T>> = cuts.iter().rev().map(|&c| head.split_off(c)).collect();
            owners.push(head);
            owners.reverse();
            assert_eq!(
                owners.iter().map(Ldlt::heap_bytes).sum::<usize>(),
                f.heap_bytes(),
                "n {n}, cuts {cuts:?}: bytes"
            );
            assert!(owners
                .windows(2)
                .all(|w| w[0].cols().end == w[1].cols().start));
            for (x, want) in &panels {
                let got = chain_solve(&owners, x.clone());
                assert!(
                    same(&got, want),
                    "n {n}, cuts {cuts:?}, h {}: bits",
                    x.nrows()
                );
            }
            let mut owners = owners.into_iter();
            let mut whole = owners.next().expect("the head range");
            owners.for_each(|tail| whole.append(tail));
            assert!(whole.is_whole(), "n {n}, cuts {cuts:?}: re-joined range");
            assert_eq!(whole.heap_bytes(), f.heap_bytes(), "n {n}, cuts {cuts:?}");
            for (x, want) in &panels {
                let mut got = x.clone();
                whole.solve_panel(&mut got);
                assert!(same(&got, want), "n {n}, cuts {cuts:?}: re-joined bits");
            }
        }
    }
}

#[test]
fn ldlt_column_ranges_solve_bitwise_f64() {
    ldlt_split_oracle::<f64>(59);
}

#[test]
fn ldlt_column_ranges_solve_bitwise_c64() {
    ldlt_split_oracle::<c64>(60);
}

/// The property the solve sweep's batch invariance rests on: a panel row
/// gets the same bits whatever the panel height and wherever it sits.
#[test]
fn panel_kernels_are_batch_invariant() {
    fn run<T: TestScalar>(seed: u64) {
        let mut rng = Rng::new(seed);
        let (r, n, top) = (41, 90, 2 * NB + 9);
        let (m, a) = (
            rand_mat::<T>(n, r, &mut rng),
            rand_symmetric::<T>(r, &mut rng),
        );
        let (lu, ldlt) = (
            Lu::factor(a).expect("LU"),
            Ldlt::factor(SymPanels::from_lower(&rand_symmetric::<T>(top, &mut rng))).expect("LDLᵀ"),
        );
        let pipeline = |b: &Mat<T>| {
            // b: (r + n + top) x nrhs, split into three panels.
            let nrhs = b.ncols();
            let mut xr = to_panel(&b.block(0, 0, r, nrhs));
            let mut xn = to_panel(&b.block(r, 0, n, nrhs));
            let mut xt = to_panel(&b.block(r + n, 0, top, nrhs));
            panel_mul_acc(&mut xr, -T::ONE, &xn, &m, true);
            lu.solve_panel(&mut xr);
            panel_mul_t_acc(&mut xn, -T::ONE, &xr, &m);
            ldlt.solve_panel(&mut xt);
            let mut x = Mat::zeros(r + n + top, nrhs);
            x.set_block(0, 0, &from_panel(&xr, nrhs));
            x.set_block(r, 0, &from_panel(&xn, nrhs));
            x.set_block(r + n, 0, &from_panel(&xt, nrhs));
            x
        };
        let col = rand_mat::<T>(r + n + top, 1, &mut rng);
        let alone = pipeline(&col);
        for &nrhs in &PANEL_HEIGHTS[1..] {
            for at in [0, nrhs / 2, nrhs - 1] {
                let mut b = rand_mat::<T>(r + n + top, nrhs, &mut rng);
                b.set_block(0, at, &col);
                let x = pipeline(&b);
                assert_eq!(x.col(at), alone.col(0), "nrhs {nrhs}, column {at}");
            }
        }
    }
    run::<f64>(57);
    run::<c64>(58);
}

/// `SymPanels::set_block` from a partition that does not line up with the
/// block columns packs the same panels as `from_lower` — including the
/// upper parts of straddled diagonal blocks, which only ever arrive as
/// mirrors of blocks below the diagonal.
#[test]
fn sym_panels_assemble_from_unaligned_lower_blocks() {
    let mut rng = Rng::new(33);
    let sizes = [40usize, 0, 70, 3, 90, 25, 64];
    let n: usize = sizes.iter().sum();
    let a = rand_symmetric::<c64>(n, &mut rng);
    let mut p = SymPanels::zeros(n);
    let mut r0 = 0;
    for (i, &si) in sizes.iter().enumerate() {
        let mut c0 = 0;
        for &sj in &sizes[..=i] {
            if si > 0 && sj > 0 {
                p.set_block(r0, c0, &a.block(r0, c0, si, sj));
            }
            c0 += sj;
        }
        r0 += si;
    }
    assert_eq!(p, SymPanels::from_lower(&a));
}

/// Without pivoting across blocks some nonsingular symmetric matrices
/// cannot be factored: the factorization must say so, not return a wrong
/// answer. The saddle `[[0, B], [Bᵀ, 0]]` sits at `at`, behind a
/// well-conditioned leading block coupled to its second half only, so the
/// block columns before `at` factor and update the trailing matrix while
/// its diagonal block at `at` stays zero. General LU factors every one of
/// these matrices.
fn ldlt_breakdown_at<T: TestScalar>(at: usize, seed: u64) {
    let mut rng = Rng::new(seed);
    let m = NB + 9;
    let mut b = rand_mat::<T>(m, m, &mut rng);
    for d in 0..m {
        b[(d, d)] += T::from_f64(m as f64);
    }
    let mut a = Mat::zeros(at + 2 * m, at + 2 * m);
    if at > 0 {
        let e = rand_mat::<T>(m, at, &mut rng);
        a.set_block(0, 0, &rand_symmetric::<T>(at, &mut rng));
        a.set_block(at + m, 0, &e);
        a.set_block(0, at + m, &e.transpose());
    }
    a.set_block(at + m, at, &b.transpose());
    a.set_block(at, at + m, &b);
    assert!(Lu::factor(a.clone()).is_ok());
    assert_eq!(
        Ldlt::factor(SymPanels::from_lower(&a)).err(),
        Some(LdltBreakdown::ZeroPivot { step: at })
    );
    // A tiny diagonal block instead of a zero one: factorable in exact
    // arithmetic, hopeless in floating point.
    for d in 0..m {
        a[(at + d, at + d)] = T::from_f64(1e-9);
    }
    assert!(Lu::factor(a.clone()).is_ok());
    match Ldlt::factor(SymPanels::from_lower(&a)) {
        Err(LdltBreakdown::Growth { step, max_l }) if step == at => assert!(max_l > 1e3),
        other => panic!("expected a growth breakdown at {at}, got {:?}", other.err()),
    }
}

#[test]
fn ldlt_reports_breakdown() {
    ldlt_breakdown_at::<f64>(0, 35);
}

#[test]
fn ldlt_reports_breakdown_c64() {
    ldlt_breakdown_at::<c64>(0, 36);
}

#[test]
fn ldlt_reports_breakdown_in_a_later_block_column() {
    ldlt_breakdown_at::<f64>(2 * NB, 37);
    ldlt_breakdown_at::<c64>(2 * NB, 38);
}

fn triangular_oracle<T: TestScalar>(seed: u64) {
    for (i, &(n, nrhs)) in [(1usize, 1usize), (40, 7), (65, 64), (150, 33), (150, 0)]
        .iter()
        .enumerate()
    {
        let mut rng = Rng::new(seed + i as u64);
        let mut l = Mat::<T>::zeros(n, n);
        for j in 0..n {
            for r in j..n {
                l[(r, j)] = T::rand(&mut rng).scale(0.5);
            }
            l[(j, j)] = T::from_f64(2.0 + j as f64 * 0.01);
        }
        let u = l.adjoint();
        let b0 = rand_mat::<T>(n, nrhs, &mut rng);
        for unit in [false, true] {
            let mut x = b0.clone();
            let mut x_ref = b0.clone();
            solve_lower_mat(&l, unit, &mut x);
            solve_lower_mat_unblocked(&l, unit, &mut x_ref);
            assert_close(&x, &x_ref, "solve_lower_mat");

            let mut y = b0.clone();
            let mut y_ref = b0.clone();
            solve_upper_mat(&u, unit, &mut y);
            solve_upper_mat_unblocked(&u, unit, &mut y_ref);
            assert_close(&y, &y_ref, "solve_upper_mat");
        }
    }
}

#[test]
fn triangular_blocked_matches_unblocked_f64() {
    triangular_oracle::<f64>(11);
}

#[test]
fn triangular_blocked_matches_unblocked_c64() {
    triangular_oracle::<c64>(12);
}

/// On tolerance-truncated factorizations the trailing block of `factors`
/// must be the true residual under the returned permutation — the same
/// contract as the exact-renorm oracle (pivot order within the redundant
/// set may differ, so compare the permutation-invariant residual norm).
#[test]
fn cpqr_truncated_residual_matches_naive() {
    let (m, n) = (120, 200);
    // Fast-decaying kernel-type matrix: truncates well below min(m, n).
    let src: Vec<f64> = (0..n).map(|j| j as f64 / n as f64).collect();
    let trg: Vec<f64> = (0..m).map(|i| 1.4 + i as f64 / m as f64).collect();
    let a = Mat::from_fn(m, n, |i, j| 1.0 / (trg[i] - src[j]));
    let c_b = cpqr(a.clone(), 1e-8, usize::MAX);
    let c_n = cpqr_naive(a.clone(), 1e-8, usize::MAX);
    assert_eq!(c_b.rank, c_n.rank);
    let k = c_b.rank;
    assert!(
        k < m.min(n),
        "test needs an actually truncated factorization"
    );
    let res_b = c_b.factors.block(k, k, m - k, n - k);
    let res_n = c_n.factors.block(k, k, m - k, n - k);
    let (nb, nn) = (fro_norm(&res_b), fro_norm(&res_n));
    // The residual sits at the factorization's noise floor, so the two
    // arithmetic orders agree to ~single-precision there — while stale
    // (missing-update) data would be wrong by orders of magnitude.
    assert!(
        (nb - nn).abs() <= 1e-5 * nn.max(1e-300),
        "residual norms differ: blocked {nb:.6e} vs naive {nn:.6e}"
    );
}
