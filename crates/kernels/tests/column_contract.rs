//! The column contract of [`Kernel::column`] / [`Kernel::proxy_column`],
//! for both paper kernels: a column evaluation returns, bit for bit, what
//! `entry_or_diag` / `proxy_row` return entry by entry — whatever the
//! length of the row list, its order, and whether it contains the column
//! itself. The factorization's bit-identity across drivers, ranks and
//! thread counts rests on it, and so does the symbol table, whose entries
//! come from the scalar `entry`.

use srsf_geometry::grid::{scattered_points, UnitGrid};
use srsf_geometry::point::Point;
use srsf_geometry::proxy::proxy_circle;
use srsf_kernels::assemble::assemble_block;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_linalg::Scalar;

/// The wrapped kernel through its scalar methods only: `column`,
/// `proxy_column` and `block` run on the trait's default implementation.
struct ScalarOnly<'a, K>(&'a K);

impl<K: Kernel> Kernel for ScalarOnly<'_, K> {
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
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bits<T: Scalar>(v: T) -> (u64, u64) {
    (v.re().to_bits(), v.im().to_bits())
}

/// Lengths around every vector and group width the overrides use.
const LENS: [usize; 7] = [0, 1, 7, 8, 9, 63, 257];

fn assert_column_contract<K: Kernel>(kernel: &K, pts: &[Point]) {
    let n = pts.len();
    let mut st = 11u64;
    for (t, &len) in LENS.iter().enumerate() {
        let col = (splitmix(&mut st) % n as u64) as usize;
        let mut rows: Vec<u32> = (0..len)
            .map(|_| (splitmix(&mut st) % n as u64) as u32)
            .collect();
        // A row equal to the column, at a position that moves with `t`.
        if len > 0 {
            rows[(t * 5) % len] = col as u32;
        }
        let reversed: Vec<u32> = rows.iter().rev().copied().collect();
        for rows in [&rows, &reversed] {
            let mut out = vec![K::Elem::ZERO; len];
            kernel.column(pts, rows, col, &mut out);
            for (&r, &got) in rows.iter().zip(&out) {
                let want = kernel.entry_or_diag(pts, r as usize, col);
                assert_eq!(bits(got), bits(want), "A[{r}, {col}] in a list of {len}");
            }
        }

        let circle = match len {
            0 => Vec::new(),
            _ => proxy_circle(Point::new(0.31, 0.62), 0.4 + 0.1 * t as f64, len),
        };
        let mut out = vec![K::Elem::ZERO; len];
        kernel.proxy_column(pts, &circle, col, &mut out);
        for (&y, &got) in circle.iter().zip(&out) {
            let want = kernel.proxy_row(pts, y, col);
            assert_eq!(bits(got), bits(want), "K[{y:?}, {col}] on {len} proxies");
        }
    }

    // The override against the trait's default, as whole blocks.
    let rows: Vec<usize> = (0..n).step_by(3).collect();
    let cols: Vec<usize> = (0..n).step_by(7).collect();
    let fast = assemble_block(kernel, pts, &rows, &cols);
    let slow = assemble_block(&ScalarOnly(kernel), pts, &rows, &cols);
    assert_eq!((fast.nrows(), fast.ncols()), (rows.len(), cols.len()));
    for (f, s) in fast.as_slice().iter().zip(slow.as_slice()) {
        assert_eq!(bits(*f), bits(*s), "override vs default block");
    }
}

#[test]
fn laplace_columns_are_the_scalar_entries() {
    let grid = UnitGrid::new(16);
    assert_column_contract(&LaplaceKernel::new(&grid), &grid.points());
    let pts = scattered_points(300, 5);
    assert_column_contract(&LaplaceKernel::with_params(1.0 / 300.0, 1.0), &pts);
}

#[test]
fn helmholtz_columns_are_the_scalar_entries() {
    let grid = UnitGrid::new(16);
    // kappa = 40 puts entries on both sides of the Bessel branch switch,
    // so most groups of a column mix the two branches.
    assert_column_contract(&HelmholtzKernel::new(&grid, 40.0), &grid.points());
    assert_column_contract(&HelmholtzKernel::new(&grid, 3.0), &grid.points());
}

/// A duplicated point is not a `debug_assert` away from undefined
/// arithmetic: in a release build it reaches the matrix as the `+inf` the
/// scalar path always produced (`-w ln 0 / 4π`), in the column as in the
/// entry; a debug build stops at the assertion on either path.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "coincident points"))]
fn duplicated_point_gives_the_same_infinite_entry() {
    let mut pts = scattered_points(40, 2);
    pts[17] = pts[3];
    let k = LaplaceKernel::with_params(1.0 / 40.0, 1.0);
    let rows: Vec<u32> = (0..40).collect();
    let mut out = vec![0.0; 40];
    k.column(&pts, &rows, 3, &mut out);
    assert_eq!(out[17], f64::INFINITY);
    assert_eq!(out[17].to_bits(), k.entry(&pts, 17, 3).to_bits());
    assert_eq!(out[3], k.diag(&pts, 3));
}
