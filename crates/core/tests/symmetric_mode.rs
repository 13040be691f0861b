//! The symmetric (one-sided) record form against the general path.
//!
//! A real symmetric kernel selects the symmetric mode on its own
//! (`BlockStore::symmetric`). Wrapping the same kernel in a newtype that
//! reports `is_symmetric() == false` forces the general two-sided path on
//! identical matrix entries, which makes it the reference: both must
//! solve the same system to the compression tolerance, under every
//! driver, while the symmetric factor is about a third smaller. A complex
//! kernel must be untouched by the selection.

use srsf_core::{Driver, FactorOpts, Solver};
use srsf_geometry::grid::{scattered_points, UnitGrid};
use srsf_geometry::point::Point;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::vecops::rel_diff;
use srsf_linalg::Scalar;

/// The wrapped kernel with its symmetry hidden: same entries, same proxy
/// rows, same sketch seeds — only the mode predicate changes.
struct HideSymmetry<K>(K);

impl<K: Kernel> Kernel for HideSymmetry<K> {
    type Elem = K::Elem;
    fn entry(&self, pts: &[Point], i: usize, j: usize) -> K::Elem {
        self.0.entry(pts, i, j)
    }
    fn diag(&self, pts: &[Point], i: usize) -> K::Elem {
        self.0.diag(pts, i)
    }
    fn proxy_row(&self, pts: &[Point], y: Point, j: usize) -> K::Elem {
        self.0.proxy_row(pts, y, j)
    }
    fn proxy_col(&self, pts: &[Point], i: usize, y: Point) -> K::Elem {
        self.0.proxy_col(pts, i, y)
    }
    fn kappa(&self) -> f64 {
        self.0.kappa()
    }
    fn is_translation_invariant(&self) -> bool {
        self.0.is_translation_invariant()
    }
    fn is_symmetric(&self) -> bool {
        false
    }
    fn point_scale(&self, i: usize) -> f64 {
        self.0.point_scale(i)
    }
    fn seed_id(&self) -> u64 {
        self.0.seed_id()
    }
}

const TOL: f64 = 1e-6;

/// Compression runs down to level 1 so the per-box records, not the
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

/// Factor `pts` both ways under every driver: the solutions must agree
/// to `10 * tol`, and the symmetric factor must be under 70 % of the
/// general one.
fn assert_modes_agree(kernel: LaplaceKernel, pts: &[Point], what: &str) {
    let general = HideSymmetry(kernel.clone());
    let b = random_vector::<f64>(pts.len(), 5);
    for driver in drivers() {
        let f_sym = build(&kernel, pts, driver);
        let f_gen = build(&general, pts, driver);
        let (x_sym, x_gen) = (f_sym.solve(&b), f_gen.solve(&b));
        let diff = rel_diff(&x_sym, &x_gen);
        assert!(
            diff < 10.0 * TOL,
            "{what}, {driver:?}: symmetric vs general solution differ by {diff:.3e}"
        );
        let ratio = f_sym.memory_bytes() as f64 / f_gen.memory_bytes() as f64;
        assert!(
            ratio < 0.70,
            "{what}, {driver:?}: symmetric factor is {ratio:.3} of the general one"
        );
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

/// The blocked multi-RHS sweep reads the one-sided records through its
/// own kernels (`upward_parts`/`downward_parts`): it must match the
/// vector sweep column for column.
#[test]
fn symmetric_block_solve_matches_vector_solve() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for driver in drivers() {
        let f = build(&kernel, &pts, driver);
        let mut b = srsf_linalg::Mat::zeros(pts.len(), 16);
        for j in 0..16 {
            b.col_mut(j)
                .copy_from_slice(&random_vector::<f64>(pts.len(), 40 + j as u64));
        }
        let x = f.solve_mat(&b);
        for j in 0..16 {
            let xj = f.solve(b.col(j));
            assert!(
                rel_diff(x.col(j), &xj) < 1e-10,
                "{driver:?}: block column {j} differs from the vector solve"
            );
        }
    }
}

/// Complex-symmetric Helmholtz stays on the general path: hiding its
/// symmetry changes nothing, bit for bit — same bytes, same solution.
#[test]
fn helmholtz_factor_is_untouched_by_the_selection() {
    let grid = UnitGrid::new(32);
    let kernel = HelmholtzKernel::new(&grid, 12.0);
    let pts = grid.points();
    let b = random_vector::<srsf_linalg::c64>(pts.len(), 9);
    for driver in drivers() {
        let f = build(&kernel, &pts, driver);
        let f_hidden = build(&HideSymmetry(kernel.clone()), &pts, driver);
        assert_eq!(
            f.memory_bytes(),
            f_hidden.memory_bytes(),
            "{driver:?}: a complex kernel must not select the symmetric mode"
        );
        let (x, x_hidden) = (f.solve(&b), f_hidden.solve(&b));
        assert!(
            x.iter().zip(&x_hidden).all(|(p, q)| (*p - *q).abs() == 0.0),
            "{driver:?}: Helmholtz solution changed with the symmetry flag"
        );
    }
}
