//! Algorithm 1: the sequential multi-level factorization.
//!
//! A bottom-up sweep over the quad-tree: every box at every level is
//! skeletonized and its redundant DOFs eliminated, levels are merged, and
//! the few DOFs surviving above `min_compress_level` are finished with a
//! dense factorization ([`crate::top`]: a packed block `L D Lᵀ` for
//! symmetric kernels, a pivoted LU otherwise). The result approximates
//! `A^{-1}` as the composition Eq. (12) of per-box operators plus the top
//! solve.
//!
//! The level loop here is also the threaded driver's (§V-C): both
//! eliminate a level in distance-3 waves ([`crate::colored::waves`]), on
//! one thread here and on `threads` there, to the same bits.

use crate::colored::{eliminate_wave, waves};
use crate::elimination::{apply_output, BoxElimination, FactorError};
use crate::levels::merge_to_parent;
use crate::skeletonize::CompressionCtx;
use crate::solve;
use crate::stats::FactorStats;
use crate::store::{ActiveSets, BlockStore};
use crate::top::{factor_top, TopFactor};
use crate::FactorOpts;
use srsf_geometry::point::{BBox, Point};
use srsf_geometry::tree::{BoxId, QuadTree};
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

    /// Solve `A x = b`: the one-column [`Factorization::solve_mat`].
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solve_mat(&Mat::from_vec(b.len(), 1, b.to_vec()))
            .as_slice()
            .to_vec()
    }

    /// Solve `A X = B` for every column of `b` at once: one sweep of
    /// level-3 panel kernels over the records instead of `nrhs` sweeps.
    /// Column `j` of the result has the same bits whatever the other
    /// columns are and wherever it sits among them, and they are the bits
    /// [`Factorization::solve`] gives for that column alone.
    pub fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        solve::solve_mat(self, b)
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

/// Algorithm 1 against a caller-provided tree: the level loop on one
/// thread.
pub fn factorize_with_tree<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
) -> Result<Factorization<K::Elem>, FactorError> {
    factorize_in_rounds(kernel, pts, tree, opts, 1)
}

/// The shared-memory level sweep. Each level is cut into [`waves`]; a
/// wave is eliminated on `threads` workers against one snapshot of the
/// store ([`eliminate_wave`]), then merged in row-major order, and its
/// records are stored in that order. Same-wave boxes are >= 3 apart, so
/// none reads what another writes, and the result is Algorithm 1's
/// row-major sweep bit for bit whatever `threads` is.
pub(crate) fn factorize_in_rounds<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
    threads: usize,
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
            let level_boxes: Vec<BoxId> = tree.boxes_at_level(level).collect();
            for (_, boxes) in waves(&level_boxes) {
                let outputs = eliminate_wave(&store, &act, tree, &boxes, opts, &ctx, threads)?;
                for (b, out) in boxes.iter().zip(outputs) {
                    if let Some(rec) = &out.record {
                        stats.add_rank(level, rec.skel.len());
                    }
                    stats.compression.absorb(&out.compression);
                    apply_output(&mut store, &mut act, b, &out, &ctx);
                    if let Some(rec) = out.record {
                        records.push(rec);
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::eliminate_box;
    use crate::store::tests::HideSymmetry;
    use srsf_geometry::grid::UnitGrid;
    use srsf_kernels::helmholtz::HelmholtzKernel;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_kernels::util::random_vector;
    use srsf_runtime::codec::Wire;
    use std::collections::HashMap;

    /// Algorithm 1 as the sequential driver spelled it before it shared
    /// the level loop: eliminate, then apply, box by box in row-major
    /// order.
    fn reference<K: Kernel>(
        kernel: &K,
        pts: &[Point],
        tree: &QuadTree,
        opts: &FactorOpts,
    ) -> Factorization<K::Elem> {
        let leaf = tree.leaf_level();
        let mut stats = FactorStats::new(pts.len(), leaf);
        let mut store = BlockStore::new(kernel, pts);
        let mut act = ActiveSets::new();
        for id in tree.boxes_at_level(leaf) {
            act.set(id, tree.leaf_points(&id).to_vec());
        }
        let lmin = (opts.min_compress_level as u8).min(leaf);
        let ctx = CompressionCtx::new(kernel, pts, tree, opts);
        let mut records = Vec::new();
        let mut level = leaf;
        loop {
            for b in tree.boxes_at_level(level) {
                let out = eliminate_box(&store, &act, tree, &b, opts, &ctx).expect("eliminate");
                if let Some(rec) = &out.record {
                    stats.add_rank(level, rec.skel.len());
                }
                stats.compression.absorb(&out.compression);
                apply_output(&mut store, &mut act, &b, &out, &ctx);
                if let Some(rec) = out.record {
                    records.push(rec);
                }
            }
            if level == lmin {
                break;
            }
            merge_to_parent(&mut store, &mut act, tree, level);
            level -= 1;
        }
        let (top_idx, top) = factor_top(&store, &act, tree, lmin, &ctx).expect("top");
        Factorization::from_parts(pts.len(), records, top_idx, top, stats)
    }

    fn check<K: Kernel>(kernel: &K, pts: &[Point], label: &str) {
        // Leaves at level 3, compressed down to level 2: one merge.
        let opts = FactorOpts::default()
            .with_leaf_size(16)
            .with_min_compress_level(2);
        let tree = QuadTree::build(pts, domain_for(pts), opts.leaf_size);
        let want = reference(kernel, pts, &tree, &opts);
        let got = factorize_with_tree(kernel, pts, &tree, &opts).expect("factorize");
        // Records are stored in wave order; each box's record is the
        // reference's, byte for byte.
        let by_box: HashMap<BoxId, Vec<u8>> = want
            .records
            .iter()
            .map(|r| (r.box_id, r.to_bytes()))
            .collect();
        assert_eq!(got.n_records(), want.n_records(), "{label}: records");
        assert_eq!(got.stats.ranks, want.stats.ranks, "{label}: ranks");
        for r in &got.records {
            assert!(
                by_box.get(&r.box_id) == Some(&r.to_bytes()),
                "{label}: record of {:?}",
                r.box_id
            );
        }
        let b = random_vector::<K::Elem>(pts.len(), 7);
        assert!(got.solve(&b) == want.solve(&b), "{label}: solution bits");
    }

    /// `Driver::Sequential` through the shared level loop is the literal
    /// Algorithm 1 loop, bit for bit, for a real symmetric, a complex
    /// symmetric and a general kernel.
    #[test]
    fn shared_loop_is_the_literal_algorithm_1() {
        let grid = UnitGrid::new(32);
        let pts = grid.points();
        let laplace = LaplaceKernel::new(&grid);
        check(&laplace, &pts, "Laplace");
        check(&HelmholtzKernel::new(&grid, 10.0), &pts, "Helmholtz");
        check(&HideSymmetry(laplace), &pts, "HideSymmetry(Laplace)");
    }
}
