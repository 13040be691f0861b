//! The accuracy contract, swept: one solve's relative residual is at most
//! `C · tol` at every compression tolerance, for both paper kernels on a
//! 64² grid, under the sequential driver and a four-rank world.
//!
//! The solve applies every small diagonal block as an explicit inverse,
//! which rounds differently from a triangular solve; this is the sweep
//! that would show a tolerance at which that costs digits. The residual
//! is taken against the FFT operator, so no dense matrix is formed.
//!
//! From `tol = 2^-21 ≈ 4.77e-7` up, the records hold their neighbor
//! couplings in `f32`; the sweep takes a tolerance on each side of that
//! switch and checks, through `memory_bytes()`, which width each
//! factorization chose.

use srsf_core::elimination::BoxElimination;
use srsf_core::sequential::Factorization;
use srsf_core::{Driver, FactorOpts, Solver};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::fast_op::FastKernelOp;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{relative_residual, LinOp, Scalar};
use srsf_runtime::codec::{ByteReader, Wire};

/// The contract's constant: `relres <= C · tol`. Measured: at most 6.8
/// (Laplace, sequential at `5e-7`) and 0.04 (Helmholtz) over the sweep.
const C: f64 = 20.0;

/// `5e-7` is the narrow side of the coupling switch, `4e-7` the wide one.
const TOLS: [f64; 5] = [1e-3, 1e-6, 5e-7, 4e-7, 1e-9];

/// The couplings a factorization at `tol` holds in `f32`.
fn narrow_at(tol: f64) -> bool {
    tol >= 2f64.powi(-21)
}

/// `memory_bytes()` counts every record's `EN` at the width `tol` chose:
/// the rest of the factor, plus `|N||R|` entries of `T` — at half their
/// bytes where the couplings are narrow.
fn assert_coupling_width<T: Scalar>(f: &Factorization<T>, tol: f64, what: &str) {
    let mut r = ByteReader::new(f.to_bytes());
    r.try_get_u64().expect("n");
    let records = Vec::<BoxElimination<T>>::decode(&mut r).expect("records");
    assert!(records
        .iter()
        .all(|rec| rec.en.is_narrow() == narrow_at(tol)));
    let rest: usize = records
        .iter()
        .map(|rec| rec.heap_bytes() - rec.en.heap_bytes())
        .sum::<usize>()
        + f.top_factor().heap_bytes()
        + 4 * f.top_size();
    let entries: usize = records
        .iter()
        .map(|rec| rec.nbr.len() * rec.redundant.len())
        .sum();
    let elem = std::mem::size_of::<T>();
    let en = entries * if narrow_at(tol) { elem / 2 } else { elem };
    assert!(entries > 0, "{what}");
    assert_eq!(f.memory_bytes(), rest + en, "{what}");
}

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
        let what = format!("{driver:?}, tol {tol:e}");
        match driver {
            Driver::Distributed { .. } => {
                let f = solver.gather().expect("gather");
                assert_eq!(solver.memory_bytes(), f.memory_bytes(), "{what}");
                assert_coupling_width(&f, tol, &what);
            }
            _ => assert_coupling_width(solver.factorization(), tol, &what),
        }
        let x = solver.solve(&b);
        let ratio = relative_residual(op, &x, &b) / tol;
        println!("{what}: relres / tol = {ratio:.3}");
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
