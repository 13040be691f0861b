//! Algorithm 1: the sequential multi-level factorization.
//!
//! A bottom-up sweep over the quad-tree: every box at every level is
//! skeletonized and its redundant DOFs eliminated, levels are merged, and
//! the few DOFs surviving above `min_compress_level` are finished with a
//! dense factorization ([`crate::top`]: a packed block `L D Lᵀ` for
//! symmetric kernels, a pivoted LU otherwise). The result approximates
//! `A^{-1}` as the composition Eq. (12) of per-box operators plus the top
//! solve.

use crate::elimination::{apply_output, eliminate_box, BoxElimination, FactorError};
use crate::levels::merge_to_parent;
use crate::skeletonize::CompressionCtx;
use crate::solve;
use crate::stats::FactorStats;
use crate::store::{ActiveSets, BlockStore};
use crate::top::{factor_top, TopFactor};
use crate::FactorOpts;
use srsf_geometry::point::{BBox, Point};
use srsf_geometry::tree::QuadTree;
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{LinOp, Mat, Scalar};
use std::time::Instant;

/// The strong recursive skeletonization factorization of a kernel matrix.
///
/// Stores the per-box elimination records in elimination order plus the
/// dense factorization of the top block; [`Factorization::solve`] applies
/// the approximate inverse in O(N).
pub struct Factorization<T> {
    pub(crate) n: usize,
    pub(crate) records: Vec<BoxElimination<T>>,
    /// Global ids of the DOFs in the dense top block, in assembly order.
    pub(crate) top_idx: Vec<u32>,
    pub(crate) top: TopFactor<T>,
    pub(crate) stats: FactorStats,
}

impl<T: Scalar> Factorization<T> {
    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Apply the approximate inverse in place: `b := A^{-1} b`.
    pub fn apply_inverse(&self, b: &mut [T]) {
        solve::apply_inverse(self, b, 1);
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.apply_inverse(&mut x);
        x
    }

    /// Apply the approximate inverse to an `n x nrhs` block of right-hand
    /// sides in place: `B := A^{-1} B`; see [`Factorization::solve_mat`].
    pub fn apply_inverse_mat(&self, b: &mut Mat<T>) {
        *b = self.solve_mat(b);
    }

    /// Solve `A X = B` for every column of `b` at once: one sweep of
    /// level-3 panel kernels over the records instead of `nrhs` sweeps.
    /// Column `j` of the result has the same bits whatever the other
    /// columns are and wherever it sits among them, and they are the bits
    /// [`Factorization::solve`] gives for that column alone.
    pub fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        solve::solve_mat(self, b, 1)
    }

    /// Blocked apply scheduled over `n_threads` workers by the records'
    /// `(level, color)` stamps; bit-identical to
    /// [`Factorization::apply_inverse_mat`] for any thread count. Runs of
    /// same-color records (whole rounds for a colored-driver
    /// factorization) compute concurrently and merge in record order.
    pub fn apply_inverse_mat_threaded(&self, b: &mut Mat<T>, n_threads: usize) {
        *b = solve::solve_mat(self, b, n_threads);
    }

    /// Threaded apply of one right-hand side vector; see
    /// [`Factorization::apply_inverse_mat_threaded`].
    pub fn apply_inverse_threaded(&self, b: &mut [T], n_threads: usize) {
        solve::apply_inverse(self, b, n_threads);
    }

    /// Factorization statistics (ranks per level, timings, memory).
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Number of per-box elimination records.
    pub fn n_records(&self) -> usize {
        self.records.len()
    }

    /// Size of the dense top block.
    pub fn top_size(&self) -> usize {
        self.top_idx.len()
    }

    /// The factored dense top block; its variant tells which form the
    /// factorization took (`Symmetric` for symmetric kernels).
    pub fn top_factor(&self) -> &TopFactor<T> {
        &self.top
    }

    /// Approximate memory footprint of the factorization in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.records
            .iter()
            .map(BoxElimination::heap_bytes)
            .sum::<usize>()
            + self.top.heap_bytes()
            + self.top_idx.capacity() * 4
    }

    pub(crate) fn from_parts(
        n: usize,
        records: Vec<BoxElimination<T>>,
        top_idx: Vec<u32>,
        top: TopFactor<T>,
        mut stats: FactorStats,
    ) -> Self {
        stats.top_size = top_idx.len();
        stats.record_bytes = records
            .iter()
            .map(BoxElimination::heap_bytes)
            .sum::<usize>()
            + top.heap_bytes();
        Self {
            n,
            records,
            top_idx,
            top,
            stats,
        }
    }
}

impl<T: Scalar> LinOp<T> for Factorization<T> {
    fn dim(&self) -> usize {
        self.n
    }
    /// Applying the factorization as an operator means applying the
    /// approximate **inverse** — this is what makes it a preconditioner.
    fn apply(&self, x: &[T]) -> Vec<T> {
        self.solve(x)
    }
}

/// Pick the tree domain: the unit square when all points fit (the paper's
/// setting), otherwise the enclosing square.
pub fn domain_for(pts: &[Point]) -> BBox {
    if pts.iter().all(|p| BBox::UNIT.contains(p)) {
        BBox::UNIT
    } else {
        BBox::enclosing(pts)
    }
}

/// Factor against a caller-provided tree (shared by drivers and tests).
///
/// The sequential driver is the only one that hands the dense kernels a
/// thread budget (`FactorOpts::gemm_threads`): it owns the whole machine,
/// whereas the colored/distributed drivers already parallelize across
/// boxes and ranks. The budget is thread-local and restored on exit, so
/// it never leaks into callers or sibling drivers.
pub fn factorize_with_tree<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
) -> Result<Factorization<K::Elem>, FactorError> {
    let prev = srsf_linalg::set_gemm_threads(opts.gemm_threads);
    let result = factorize_with_tree_inner(kernel, pts, tree, opts);
    srsf_linalg::set_gemm_threads(prev);
    result
}

fn factorize_with_tree_inner<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
) -> Result<Factorization<K::Elem>, FactorError> {
    let t_total = Instant::now();
    let n = pts.len();
    let leaf = tree.leaf_level();
    let mut stats = FactorStats::new(n, leaf);
    let mut store = BlockStore::new(kernel, pts);
    let mut act = ActiveSets::new();
    for id in tree.boxes_at_level(leaf) {
        act.set(id, tree.leaf_points(&id).to_vec());
    }

    let lmin = (opts.min_compress_level as u8).min(leaf);
    let ctx = CompressionCtx::new(kernel, pts, tree, opts);
    let mut records = Vec::new();
    if leaf >= lmin && leaf >= 1 {
        let mut level = leaf;
        loop {
            let t0 = Instant::now();
            for b in tree.boxes_at_level(level) {
                let out = eliminate_box(&store, &act, tree, &b, opts, &ctx)?;
                if let Some(rec) = &out.record {
                    stats.add_rank(level, rec.skel.len());
                }
                stats.compression.absorb(&out.compression);
                apply_output(&mut store, &mut act, &b, &out, &ctx);
                if let Some(rec) = out.record {
                    records.push(rec);
                }
            }
            stats.eliminate_s += t0.elapsed().as_secs_f64();
            stats.peak_store_bytes = stats.peak_store_bytes.max(store.heap_bytes());
            if level == lmin {
                break;
            }
            let t1 = Instant::now();
            merge_to_parent(&mut store, &mut act, tree, level);
            stats.merge_s += t1.elapsed().as_secs_f64();
            level -= 1;
        }
    }

    // Dense top factorization over the remaining active DOFs.
    let t2 = Instant::now();
    let top_level = if leaf >= lmin { lmin } else { leaf };
    let (top_idx, top) = factor_top(&store, &act, tree, top_level, &ctx)?;
    stats.top_s = t2.elapsed().as_secs_f64();
    stats.total_s = t_total.elapsed().as_secs_f64();

    Ok(Factorization::from_parts(n, records, top_idx, top, stats))
}
