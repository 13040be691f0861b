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
//! The level loop here (`sweep_levels`) is every driver's; what differs
//! sits behind its hooks (`LevelHooks`). The sequential and threaded
//! (§V-C) drivers take the defaults, on one thread or on `threads`, to the
//! same bits; a distributed rank (Algorithm 2) cuts each level into an
//! interior phase and four colour rounds and adds the messages.

use crate::colored::{eliminate_wave, waves};
use crate::distributed::order_key;
use crate::elimination::{apply_output, BoxElimination, EliminationOutput, FactorError};
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
use srsf_trace::{span, Cat};
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
    #[doc(hidden)]
    // ORACLE: one_schedule, resident_serve, symmetric_mode, wire_fuzz
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

/// What a driver adds to the level loop ([`sweep_levels`]). The
/// defaults are the shared-memory drivers': one phase of every box per
/// level, no messages, [`merge_to_parent`] between levels and
/// [`factor_top`] at the end.
pub(crate) trait LevelHooks<K: Kernel> {
    /// The box sets eliminated at `level`, one per phase in phase order:
    /// phase 0 is the interior, phase `1 + c` colour round `c`.
    fn phases(&mut self, tree: &QuadTree, level: u8) -> Vec<Vec<BoxId>> {
        vec![tree.boxes_at_level(level).collect()]
    }

    /// Run the loop's local work `f`.
    fn compute<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Phase `phase` of `level` is about to eliminate `boxes`.
    fn begin_phase(&mut self, _level: u8, _phase: u8, _boxes: &[BoxId]) {}

    /// Box `b`'s output was applied; its record moves out after this.
    fn output(&mut self, _act: &ActiveSets, _b: &BoxId, _out: &EliminationOutput<K::Elem>) {}

    /// Between two waves of a phase.
    fn pump(&mut self) {}

    /// Every box of the current phase was applied.
    fn end_phase(
        &mut self,
        _store: &mut BlockStore<'_, K>,
        _act: &mut ActiveSets,
    ) -> Result<(), FactorError> {
        Ok(())
    }

    /// Every phase of `level` is done (also at an uncompressed leaf level).
    fn end_level(&mut self, _tree: &QuadTree, _act: &ActiveSets, _level: u8) {}

    /// Move from `child_level` to its parent level.
    fn transition(
        &mut self,
        store: &mut BlockStore<'_, K>,
        act: &mut ActiveSets,
        tree: &QuadTree,
        child_level: u8,
    ) -> Result<(), FactorError> {
        merge_to_parent(store, act, tree, child_level);
        Ok(())
    }

    /// Factor the DOFs left active at `top_level` (`None` where the top
    /// is factored elsewhere).
    fn top(
        &mut self,
        store: &mut BlockStore<'_, K>,
        act: &mut ActiveSets,
        tree: &QuadTree,
        top_level: u8,
        ctx: &CompressionCtx,
    ) -> Result<Top<K::Elem>, FactorError> {
        factor_top(store, act, tree, top_level, ctx).map(Some)
    }
}

/// The shared-memory drivers' hooks: all of them the defaults.
struct Local;

impl<K: Kernel> LevelHooks<K> for Local {}

/// The top's ids in matrix order and its factor, where it is factored.
pub(crate) type Top<T> = Option<(Vec<u32>, TopFactor<T>)>;

/// What [`sweep_levels`] leaves: the records under their [`order_key`]s,
/// in elimination order, the stats and the top.
pub(crate) type Swept<T> = (Vec<(u64, BoxElimination<T>)>, FactorStats, Top<T>);

/// The shared-memory drivers' factorization: [`sweep_levels`] with the
/// default hooks on `threads` workers.
pub(crate) fn factorize_in_rounds<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
    threads: usize,
) -> Result<Factorization<K::Elem>, FactorError> {
    let (records, stats, top) = sweep_levels(kernel, pts, tree, opts, threads, &mut Local)?;
    // INVARIANT: the default top hook always factors the top
    let (top_idx, top) = top.expect("local top");
    let records = records.into_iter().map(|(_, rec)| rec).collect();
    Ok(Factorization::from_parts(
        pts.len(),
        records,
        top_idx,
        top,
        stats,
    ))
}

/// The level loop of every driver: it owns the store, the active sets,
/// the compression context, the records and every [`FactorStats`] write.
/// Each phase is cut into [`waves`]; a wave is eliminated on `threads`
/// workers against one snapshot of the store ([`eliminate_wave`]), then
/// merged in row-major order. Same-wave boxes are >= 3 apart, so none
/// reads what another writes, and a phase is Algorithm 1's row-major
/// sweep of its boxes bit for bit whatever `threads` is.
pub(crate) fn sweep_levels<K: Kernel, H: LevelHooks<K>>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
    threads: usize,
    hooks: &mut H,
) -> Result<Swept<K::Elem>, FactorError> {
    let t_total = Instant::now();
    let leaf = tree.leaf_level();
    let mut stats = FactorStats::new(pts.len(), leaf);
    let mut store = BlockStore::new(kernel, pts);
    let mut act = ActiveSets::new();
    // Leaf active sets derive from the replicated tree geometry.
    for id in tree.boxes_at_level(leaf) {
        act.set(id, tree.leaf_points(&id).to_vec());
    }
    // Every rank derives the identical context (seeded sketches are a
    // pure function of box coordinates), so skeletons need no agreement.
    let ctx = CompressionCtx::new(kernel, pts, tree, opts);
    let lmin = (opts.min_compress_level as u8).min(leaf);
    let mut records = Vec::new();
    let mut level = leaf;
    loop {
        let t0 = Instant::now();
        // A one-box tree goes straight to the top.
        let phases = (leaf >= 1).then(|| hooks.phases(tree, level));
        for (phase, boxes) in (0u8..).zip(phases.unwrap_or_default()) {
            let _sp = match phase.checked_sub(1) {
                None => span!(Cat::Phase, "level {level} interior"),
                Some(c) => span!(Cat::Phase, "level {level} color round {c}"),
            };
            hooks.begin_phase(level, phase, &boxes);
            for (wave, boxes) in waves(&boxes) {
                let outputs = {
                    let _sp = span!(
                        Cat::Compute,
                        "eliminate level {level} phase {phase} wave {wave}"
                    );
                    hooks.compute(|| {
                        eliminate_wave(&store, &act, tree, &boxes, opts, &ctx, threads)
                    })?
                };
                let merge_sp = span!(
                    Cat::Compute,
                    "merge level {level} phase {phase} wave {wave}"
                );
                for (b, out) in boxes.iter().zip(outputs) {
                    hooks.compute(|| apply_output(&mut store, &mut act, b, &out, &ctx));
                    stats.compression.absorb(&out.compression);
                    hooks.output(&act, b, &out);
                    if let Some(rec) = out.record {
                        stats.add_rank(level, rec.skel.len());
                        records.push((order_key(leaf, level, phase, wave, b), rec));
                    }
                }
                drop(merge_sp);
                hooks.pump();
            }
            hooks.end_phase(&mut store, &mut act)?;
        }
        hooks.end_level(tree, &act, level);
        stats.eliminate_s += t0.elapsed().as_secs_f64();
        stats.peak_store_bytes = stats.peak_store_bytes.max(store.heap_bytes());
        if level == lmin {
            break;
        }
        let _sp = span!(Cat::Phase, "level {level} transition");
        let t1 = Instant::now();
        hooks.transition(&mut store, &mut act, tree, level)?;
        stats.merge_s += t1.elapsed().as_secs_f64();
        level -= 1;
    }

    let t2 = Instant::now();
    let top = {
        let _sp = span!(Cat::Phase, "top gather+factor");
        hooks.top(&mut store, &mut act, tree, lmin, &ctx)?
    };
    stats.top_s = t2.elapsed().as_secs_f64();
    stats.total_s = t_total.elapsed().as_secs_f64();
    Ok((records, stats, top))
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
        let got = factorize_in_rounds(kernel, pts, &tree, &opts, 1).expect("factorize");
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
