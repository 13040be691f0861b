//! The accuracy contract, swept: one solve's relative residual is at most
//! `C · tol` at every compression tolerance, for both paper kernels on a
//! 64² grid, under the sequential driver and a four-rank world.
//!
//! The solve applies every small diagonal block as an explicit inverse,
//! which rounds differently from a triangular solve; this is the sweep
//! that would show a tolerance at which that costs digits. The residual
//! is taken against the FFT operator, so no dense matrix is formed.

use srsf_core::{Driver, FactorOpts, Solver};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::fast_op::FastKernelOp;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{relative_residual, LinOp};

/// The contract's constant: `relres <= C · tol`. Measured: at most 6.3
/// (Laplace) and 0.04 (Helmholtz) over the sweep.
const C: f64 = 20.0;

const TOLS: [f64; 3] = [1e-3, 1e-6, 1e-9];

/// `relres / tol` of one random right-hand side at each tolerance under
/// `driver`, checked against [`C`].
fn sweep<K: Kernel>(kernel: &K, grid: &UnitGrid, op: &dyn LinOp<K::Elem>, driver: Driver) {
    let pts = grid.points();
    let b = random_vector::<K::Elem>(pts.len(), 11);
    // Compressing down to level 2 keeps the dense top at 16 boxes'
    // skeletons, which an unoptimized test build factors in seconds.
    let opts = FactorOpts::default().with_min_compress_level(2);
    for tol in TOLS {
        let solver = Solver::builder(kernel, &pts)
            .opts(opts.clone().with_tol(tol))
            .driver(driver)
            .build()
            .unwrap_or_else(|e| panic!("{driver:?}, tol {tol:e}: {e}"));
        let x = solver.solve(&b);
        let ratio = relative_residual(op, &x, &b) / tol;
        println!("{driver:?}, tol {tol:e}: relres / tol = {ratio:.3}");
        assert!(
            ratio <= C,
            "{driver:?}, tol {tol:e}: relres / tol = {ratio:.3e} > {C}"
        );
    }
}

fn laplace(driver: Driver) {
    let grid = UnitGrid::new(64);
    let kernel = LaplaceKernel::new(&grid);
    let op = FastKernelOp::laplace(&kernel, &grid);
    sweep(&kernel, &grid, &op, driver);
}

fn helmholtz(driver: Driver) {
    let grid = UnitGrid::new(64);
    let kernel = HelmholtzKernel::new(&grid, 10.0);
    let op = FastKernelOp::helmholtz(&kernel, &grid);
    sweep(&kernel, &grid, &op, driver);
}

#[test]
fn laplace_sequential_relres_is_within_c_tol() {
    laplace(Driver::Sequential);
}

#[test]
fn laplace_distributed_relres_is_within_c_tol() {
    laplace(Driver::distributed(4));
}

#[test]
fn helmholtz_sequential_relres_is_within_c_tol() {
    helmholtz(Driver::Sequential);
}

#[test]
fn helmholtz_distributed_relres_is_within_c_tol() {
    helmholtz(Driver::distributed(4));
}
