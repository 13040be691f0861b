//! Shared helpers for the core integration tests.
#![allow(dead_code)] // every test target uses its own subset

use srsf_core::{FactorOpts, Factorization, Solver, SrsfError};
use srsf_geometry::point::Point;
use srsf_kernels::kernel::Kernel;

/// The builder-based replacement for the old `factorize` free function.
pub fn factorize<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    opts: &FactorOpts,
) -> Result<Factorization<K::Elem>, SrsfError> {
    Solver::builder(kernel, pts)
        .opts(opts.clone())
        .build()
        .map(Solver::into_factorization)
}

/// The wrapped kernel with its symmetry hidden: same entries, same proxy
/// rows, same sketch seeds — only the mode predicate changes, so the
/// factorization takes the general two-sided path (`T^H`, both couplings
/// stored) on identical matrix entries.
#[derive(Clone)]
pub struct HideSymmetry<K>(pub K);

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
