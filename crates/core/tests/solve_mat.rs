//! The one solve sweep at every width: `solve_mat` must agree
//! column-for-column, bit for bit, with repeated single `solve` calls
//! across scalar types and all three drivers, a column's solution must
//! not depend on the batch it is solved in, and the `Factorized` trait
//! object must answer with the solver's own bits.

use srsf_core::{Driver, FactorOpts, Factorized, Solver, SrsfError};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{c64, Mat, Scalar};

fn opts() -> FactorOpts {
    FactorOpts::default().with_tol(1e-8).with_leaf_size(16)
}

/// Deterministic random `n x nrhs` block, column seeds derived from `seed`.
fn rhs_mat<T: Scalar>(n: usize, nrhs: usize, seed: u64) -> Mat<T> {
    let mut m = Mat::zeros(n, nrhs);
    for j in 0..nrhs {
        m.col_mut(j)
            .copy_from_slice(&random_vector::<T>(n, seed + j as u64));
    }
    m
}

fn drivers() -> Vec<Driver> {
    vec![
        Driver::Sequential,
        Driver::colored(2),
        Driver::colored(3),
        Driver::distributed(4),
    ]
}

/// `solve_mat` column `j` must be `solve(col j)` bit for bit: the vector
/// solve is the same sweep at one right-hand side.
fn assert_solve_mat_matches<T: Scalar, K: Kernel<Elem = T>>(
    kernel: &K,
    pts: &[Point],
    driver: Driver,
    nrhs_cases: &[usize],
) {
    let f = Solver::builder(kernel, pts)
        .opts(opts())
        .driver(driver)
        .build()
        .unwrap();
    for &nrhs in nrhs_cases {
        let b = rhs_mat::<T>(pts.len(), nrhs, 17);
        let x = f.solve_mat(&b);
        assert_eq!(x.nrows(), pts.len());
        assert_eq!(x.ncols(), nrhs);
        for j in 0..nrhs {
            assert!(
                x.col(j) == f.solve(b.col(j)),
                "driver {driver:?} nrhs {nrhs} col {j}"
            );
        }
    }
}

#[test]
fn solve_mat_matches_repeated_solve_f64() {
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for driver in drivers() {
        assert_solve_mat_matches::<f64, _>(&kernel, &pts, driver, &[0, 1, 7, 64]);
    }
}

#[test]
fn solve_mat_matches_repeated_solve_c64() {
    let grid = UnitGrid::new(16);
    let kernel = HelmholtzKernel::new(&grid, 12.0);
    let pts = grid.points();
    for driver in drivers() {
        assert_solve_mat_matches::<c64, _>(&kernel, &pts, driver, &[0, 1, 7]);
    }
}

/// Batch invariance: column `j` of `solve_mat(B)` depends on column `j`
/// of `B` alone — bit for bit the same whether it is solved by itself or
/// in a block of any width, at any position, padded into a register tile
/// or spanning several — and the same as `solve` of it. Every lane of
/// the RHS-major sweep runs the same multiply-add sequence whatever tile
/// it sits in; a kernel that picked
/// its arithmetic by `nrhs` (as the GEMM's naive/blocked crossover did)
/// fails this. It is the property a batching front-end needs.
fn assert_batch_invariant<T: Scalar, K: Kernel<Elem = T>>(kernel: &K, pts: &[Point]) {
    let n = pts.len();
    let col = random_vector::<T>(n, 5);
    let builds = [
        Driver::Sequential,
        Driver::colored(2),
        Driver::distributed(4),
    ];
    for driver in builds {
        let f = Solver::builder(kernel, pts)
            .opts(opts())
            .driver(driver)
            .build()
            .unwrap();
        let what = format!("{driver:?}");
        let alone = f.solve_mat(&Mat::from_vec(n, 1, col.clone()));
        // The vector solve is the one-column block, under every driver.
        assert_eq!(f.solve(&col), alone.col(0), "{what}: solve(&b)");
        for nrhs in [3usize, 7, 16, 17, 64] {
            for at in [0, nrhs / 2, nrhs - 1] {
                let mut b = rhs_mat::<T>(n, nrhs, 1000 + (nrhs * 64 + at) as u64);
                b.col_mut(at).copy_from_slice(&col);
                let x = f.solve_mat(&b);
                assert!(
                    x.col(at) == alone.col(0),
                    "{what}: column {at} of {nrhs} differs from the same column solved alone"
                );
            }
        }
    }
}

#[test]
fn solve_mat_is_batch_invariant() {
    let grid = UnitGrid::new(32);
    assert_batch_invariant::<f64, _>(&LaplaceKernel::new(&grid), &grid.points());
    assert_batch_invariant::<c64, _>(&HelmholtzKernel::new(&grid, 12.0), &grid.points());
}

#[test]
fn trait_object_solves_match_solver_bitwise() {
    // `Factorized` is the surface the Krylov methods see: through the
    // trait object, `solve_mat` and the one-column default `solve` must be
    // the solver's own `try_solve_mat` / `try_solve` bit for bit, on the
    // local and the resident backend alike.
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = rhs_mat::<f64>(pts.len(), 5, 3);
    for driver in [
        Driver::Sequential,
        Driver::colored(2),
        Driver::distributed(4),
    ] {
        let f = Solver::builder(&kernel, &pts)
            .opts(opts())
            .driver(driver)
            .build()
            .unwrap();
        let d: &dyn Factorized<f64> = &f;
        assert!(
            d.solve_mat(&b) == f.try_solve_mat(&b).unwrap(),
            "{driver:?}: solve_mat"
        );
        for j in 0..b.ncols() {
            assert!(
                d.solve(b.col(j)) == f.try_solve(b.col(j)).unwrap(),
                "{driver:?}: solve of column {j}"
            );
        }
    }
}

/// A rank-one "kernel": every interaction is 1, so any top block larger
/// than 1 x 1 is exactly singular.
struct OnesKernel;

impl Kernel for OnesKernel {
    type Elem = f64;
    fn entry(&self, _pts: &[Point], _i: usize, _j: usize) -> f64 {
        1.0
    }
    fn diag(&self, _pts: &[Point], _i: usize) -> f64 {
        1.0
    }
    fn proxy_row(&self, _pts: &[Point], _y: Point, _j: usize) -> f64 {
        1.0
    }
    fn proxy_col(&self, _pts: &[Point], _i: usize, _y: Point) -> f64 {
        1.0
    }
}

#[test]
fn singular_top_is_reported_as_such() {
    // Four points in one leaf box with no compression levels: the whole
    // matrix becomes the dense top block, which is rank one. The error
    // must name the top system, not blame an innocent box.
    let pts = vec![
        Point { x: 0.1, y: 0.1 },
        Point { x: 0.9, y: 0.1 },
        Point { x: 0.1, y: 0.9 },
        Point { x: 0.9, y: 0.9 },
    ];
    let err = Solver::builder(&OnesKernel, &pts)
        .leaf_size(64)
        .build()
        .unwrap_err();
    match err {
        SrsfError::SingularTop { size, step } => {
            assert_eq!(size, 4);
            assert!(step >= 1, "rank-one system must survive step 0");
        }
        other => panic!("expected SingularTop, got {other:?}"),
    }
}
