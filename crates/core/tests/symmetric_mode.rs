//! The symmetric (one-sided) record form against the general path.
//!
//! A symmetric kernel — real Laplace, complex Helmholtz — selects the
//! symmetric mode on its own (`BlockStore::symmetric`). Wrapping the same
//! kernel in a newtype that reports `is_symmetric() == false` forces the
//! general two-sided path on identical matrix entries, which makes it the
//! reference: both must solve the same system to the compression
//! tolerance, under every driver, while the symmetric factor is about a
//! third smaller — and its dense top block, a packed `L D Lᵀ` instead of
//! an LU, about half.

use srsf_core::{Driver, FactorOpts, Solver, TopFactor};
use srsf_geometry::grid::{scattered_points, UnitGrid};
use srsf_geometry::point::Point;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::ldlt::NB;
use srsf_linalg::vecops::rel_diff;
use srsf_linalg::{relative_residual, DenseOp};

mod common;
use common::HideSymmetry;

const TOL: f64 = 1e-6;

/// Skeletonization runs down to level 1 so the per-box records, not the
/// dense top block (which both modes hold alike), carry the footprint —
/// as they do at the benchmark's sizes.
fn opts() -> FactorOpts {
    FactorOpts::default()
        .with_tol(TOL)
        .with_leaf_size(16)
        .with_min_compress_level(1)
}

fn drivers() -> [Driver; 3] {
    [
        Driver::Sequential,
        Driver::colored(2),
        Driver::distributed(4),
    ]
}

fn build<K: Kernel>(kernel: &K, pts: &[Point], driver: Driver) -> Solver<K::Elem> {
    Solver::builder(kernel, pts)
        .opts(opts())
        .driver(driver)
        .build()
        .expect("factorization")
}

/// Factor `pts` both ways under every driver: the solutions — of one
/// vector and of a block — must agree to `10 * tol`, and the symmetric
/// factor must be under 70 % of the general one.
fn assert_modes_agree<K: Kernel + Clone>(kernel: K, pts: &[Point], what: &str) {
    let general = HideSymmetry(kernel.clone());
    let b = random_vector::<K::Elem>(pts.len(), 5);
    for driver in drivers() {
        let f_sym = build(&kernel, pts, driver);
        let f_gen = build(&general, pts, driver);
        let (x_sym, x_gen) = (f_sym.solve(&b), f_gen.solve(&b));
        let diff = rel_diff(&x_sym, &x_gen);
        assert!(
            diff < 10.0 * TOL,
            "{what}, {driver:?}: symmetric vs general solution differ by {diff:.3e}"
        );
        // A block crosses the general records through branches of the
        // sweep — `conj(T)`, `FS`/`FN`, the split `L^{-1} P` / `U^{-1}` —
        // which no symmetric factorization ever reaches.
        let mut bm = srsf_linalg::Mat::zeros(pts.len(), 5);
        for j in 0..5 {
            bm.col_mut(j)
                .copy_from_slice(&random_vector::<K::Elem>(pts.len(), 60 + j as u64));
        }
        let (xm_sym, xm_gen) = (f_sym.solve_mat(&bm), f_gen.solve_mat(&bm));
        for j in 0..5 {
            let diff = rel_diff(xm_sym.col(j), xm_gen.col(j));
            assert!(
                diff < 10.0 * TOL,
                "{what}, {driver:?}: block column {j} differs across modes by {diff:.3e}"
            );
            assert!(
                xm_gen.col(j) == f_gen.solve(bm.col(j)),
                "{what}, {driver:?}: general block column {j} vs vector solve"
            );
        }
        let ratio = f_sym.memory_bytes() as f64 / f_gen.memory_bytes() as f64;
        assert!(
            ratio < 0.70,
            "{what}, {driver:?}: symmetric factor is {ratio:.3} of the general one"
        );
        // The form of the top follows the kernel's symmetry alone, and
        // the packed form holds the lower block triangle: `top (top +
        // NB) / 2` entries against the `top^2` of an LU of that size,
        // plus pivots either way. (The two modes sketch different stacks,
        // so their skeletons and top sizes may differ by a few.)
        // The distributed driver's factorization lives on its ranks.
        let local = |f: &Solver<K::Elem>| f.gather().ok();
        let (g_sym, g_gen) = (local(&f_sym), local(&f_gen));
        let (top_sym, top_gen) = (
            g_sym
                .as_ref()
                .unwrap_or_else(|| f_sym.factorization())
                .top_factor(),
            g_gen
                .as_ref()
                .unwrap_or_else(|| f_gen.factorization())
                .top_factor(),
        );
        assert!(
            matches!(top_sym, TopFactor::Symmetric(_)),
            "{what}, {driver:?}"
        );
        assert!(
            matches!(top_gen, TopFactor::General(_)),
            "{what}, {driver:?}"
        );
        let elem = std::mem::size_of::<K::Elem>();
        let lu_bytes = |top: usize| top * top * elem;
        let pivots = |top: usize| top * std::mem::size_of::<usize>();
        let top = top_gen.dim();
        assert_eq!(top_gen.heap_bytes(), lu_bytes(top) + pivots(top));
        let top = top_sym.dim();
        let share = 0.5 + NB as f64 / (2.0 * top as f64);
        assert!(
            top_sym.heap_bytes() as f64 <= share * lu_bytes(top) as f64 + pivots(top) as f64,
            "{what}, {driver:?}: packed top of {top} holds {} B, an LU {} B",
            top_sym.heap_bytes(),
            lu_bytes(top)
        );
    }
}

/// A block and its columns one at a time cross the one-sided records
/// through the same kernels (`upward_parts`/`downward_parts`): the same
/// bits column for column, under all three drivers.
fn assert_block_solve_matches_vector_solve<K: Kernel>(kernel: &K, pts: &[Point]) {
    for driver in drivers() {
        let f = build(kernel, pts, driver);
        let mut b = srsf_linalg::Mat::zeros(pts.len(), 16);
        for j in 0..16 {
            b.col_mut(j)
                .copy_from_slice(&random_vector::<K::Elem>(pts.len(), 40 + j as u64));
        }
        let x = f.solve_mat(&b);
        for j in 0..16 {
            assert!(
                x.col(j) == f.solve(b.col(j)),
                "{driver:?}: block column {j} differs from the vector solve"
            );
        }
    }
}

#[test]
fn symmetric_mode_agrees_with_general_on_a_grid() {
    let grid = UnitGrid::new(32);
    assert_modes_agree(LaplaceKernel::new(&grid), &grid.points(), "32^2 grid");
}

#[test]
fn symmetric_mode_agrees_with_general_on_scattered_points() {
    let n = 1024;
    let pts = scattered_points(n, 19);
    let kernel = LaplaceKernel::with_params(1.0 / n as f64, 1.0);
    assert_modes_agree(kernel, &pts, "1024 scattered points");
}

#[test]
fn symmetric_block_solve_matches_vector_solve() {
    let grid = UnitGrid::new(32);
    assert_block_solve_matches_vector_solve(&LaplaceKernel::new(&grid), &grid.points());
}

/// A symmetric kernel ships one block per pair in every halo update,
/// fold and top gather: at p = 4 the set-up words fall to under 0.65 of
/// the two-sided twin's, in the same messages. (The two modes sketch
/// different stacks, so ranks — and with them every block size — differ
/// by a few; the skeleton and active-set lists ride along in both.)
#[test]
fn symmetric_setup_ships_half_the_words_in_the_same_messages() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let f_sym = build(&kernel, &pts, Driver::distributed(4));
    let f_gen = build(&HideSymmetry(kernel), &pts, Driver::distributed(4));
    let (sym, gen) = (f_sym.comm_stats().unwrap(), f_gen.comm_stats().unwrap());
    let msgs = |w: &srsf_runtime::WorldStats| -> Vec<u64> {
        w.per_rank.iter().map(|r| r.msgs_sent).collect()
    };
    assert_eq!(msgs(sym), msgs(gen), "per-rank message counts");
    assert!(sym.total_msgs() > 0);
    let ratio = sym.total_words() as f64 / gen.total_words() as f64;
    assert!(
        ratio <= 0.65,
        "symmetric set-up ships {} words, two-sided {} ({ratio:.3})",
        sym.total_words(),
        gen.total_words()
    );
}

/// Complex symmetric: the `T^T` sparsification against the two-sided
/// `T^H` one. The wavenumbers put 2 and 6 wavelengths across the domain,
/// so `T` is far from real and a conjugate in the wrong place (or a
/// missing one on the general path) costs every digit of agreement.
#[test]
fn helmholtz_symmetric_mode_agrees_with_general() {
    let grid = UnitGrid::new(32);
    for kappa in [12.0, 40.0] {
        let kernel = HelmholtzKernel::new(&grid, kappa);
        assert_modes_agree(kernel, &grid.points(), &format!("Helmholtz kappa {kappa}"));
    }
}

#[test]
fn helmholtz_symmetric_block_solve_matches_vector_solve() {
    let grid = UnitGrid::new(32);
    assert_block_solve_matches_vector_solve(&HelmholtzKernel::new(&grid, 40.0), &grid.points());
}

/// A symmetric, well-conditioned kernel no block `L D Lᵀ` without
/// pivoting across blocks can factor: points interact only across the
/// line `x = 1/2`, so with the left half ordered first the matrix is
/// `[[0, B], [Bᵀ, 0]]` and the leading diagonal block is exactly zero.
#[derive(Clone)]
struct CrossOnly;

impl Kernel for CrossOnly {
    type Elem = f64;
    fn entry(&self, pts: &[Point], i: usize, j: usize) -> f64 {
        let (p, q) = (pts[i], pts[j]);
        if (p.x < 0.5) == (q.x < 0.5) {
            0.0
        } else if p.y == q.y {
            4.0
        } else {
            (-30.0 * (p.y - q.y).abs()).exp()
        }
    }
    fn diag(&self, _pts: &[Point], _i: usize) -> f64 {
        0.0
    }
    fn proxy_row(&self, _pts: &[Point], _y: Point, _j: usize) -> f64 {
        unreachable!("single-box problem: nothing is compressed")
    }
    fn proxy_col(&self, _pts: &[Point], _i: usize, _y: Point) -> f64 {
        unreachable!("single-box problem: nothing is compressed")
    }
    fn is_symmetric(&self) -> bool {
        true
    }
}

/// When the symmetric top breaks down, `factor_top` re-assembles the
/// square and factors it with the pivoted LU: the solver still builds,
/// reports the general form, and meets the residual contract. One box
/// holds every point, so the top block *is* the kernel matrix.
#[test]
fn top_breakdown_falls_back_to_lu() {
    let half = NB + 8;
    let column = |x: f64| (0..half).map(move |k| Point::new(x, (k as f64 + 0.5) / half as f64));
    let pts: Vec<Point> = column(0.25).chain(column(0.75)).collect();
    let solver = Solver::builder(&CrossOnly, &pts)
        .opts(FactorOpts::default().with_leaf_size(pts.len()))
        .build()
        .expect("the LU fallback factors what LDLᵀ cannot");
    let f = solver.factorization();
    assert_eq!((f.n_records(), f.top_size()), (0, pts.len()));
    assert!(matches!(f.top_factor(), TopFactor::General(_)));
    let b = random_vector::<f64>(pts.len(), 3);
    let x = solver.solve(&b);
    let a = DenseOp::new(srsf_kernels::assemble::assemble_dense(&CrossOnly, &pts));
    let relres = relative_residual(&a, &x, &b);
    assert!(relres < 1e-12, "fallback residual {relres:.3e}");
}
