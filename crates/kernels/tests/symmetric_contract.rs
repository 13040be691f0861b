//! The exact-symmetry contract of [`Kernel::is_symmetric`], for both
//! paper kernels: `entry(i, j) == entry(j, i)` and
//! `proxy_row(y, j) == proxy_col(j, y)`, bit for bit. The factorization's
//! symmetric mode rests on both — it stores one coupling per box pair and,
//! for a complex kernel, never evaluates `proxy_col` at all.

use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_geometry::proxy::proxy_circle;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;

fn assert_exactly_symmetric<K: Kernel>(kernel: &K, grid: &UnitGrid) {
    assert!(kernel.is_symmetric());
    let pts = grid.points();
    let n = pts.len();
    // A stride coprime to the side visits every offset direction.
    for i in (0..n).step_by(7) {
        for j in (0..n).step_by(5).filter(|&j| j != i) {
            assert_eq!(
                kernel.entry(&pts, i, j),
                kernel.entry(&pts, j, i),
                "entry {i},{j}"
            );
        }
    }
    let circle = proxy_circle(Point::new(0.31, 0.62), 0.4, 48);
    for y in circle {
        for j in (0..n).step_by(3) {
            assert_eq!(
                kernel.proxy_row(&pts, y, j),
                kernel.proxy_col(&pts, j, y),
                "proxy {y:?},{j}"
            );
        }
    }
}

#[test]
fn laplace_is_exactly_symmetric() {
    let grid = UnitGrid::new(16);
    assert_exactly_symmetric(&LaplaceKernel::new(&grid), &grid);
}

#[test]
fn helmholtz_is_exactly_symmetric() {
    let grid = UnitGrid::new(16);
    // kappa = 40 puts entries on both sides of the Bessel branch switch.
    assert_exactly_symmetric(&HelmholtzKernel::new(&grid, 40.0), &grid);
}
