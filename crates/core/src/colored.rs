//! The shared-memory box-colored parallel driver (Section V-C).
//!
//! This is the paper's C++/OpenMP *reference* solver, reimplemented: all
//! boxes of a level are graph-colored so that neighbors get different
//! colors, and boxes of one color are processed concurrently. Two schemes
//! are provided:
//!
//! * [`BoxColoring::Four`] — the paper's scheme. Same-color boxes can sit
//!   at box distance 2 and then share Schur-update *targets* (pairs between
//!   their common neighbors). The driver therefore runs each color as a
//!   snapshot-read compute phase followed by a deterministic sequential
//!   merge; because same-color boxes never read what another same-color
//!   box writes (distance-2 analysis of Section III) and the shared writes
//!   are additive, this reproduces a sequential elimination order exactly
//!   (up to floating-point commutation of the additions, which the merge
//!   keeps in fixed box order — so results are bit-deterministic for any
//!   thread count).
//! * [`BoxColoring::Nine`] — distance-3 coloring: all writes disjoint,
//!   lock-free by construction; used as an ablation.

use crate::elimination::{apply_output, eliminate_box, EliminationOutput, FactorError};
use crate::levels::merge_to_parent;
use crate::sequential::Factorization;
use crate::skeletonize::CompressionCtx;
use crate::stats::FactorStats;
use crate::store::{ActiveSets, BlockStore};
use crate::top::factor_top;
use crate::FactorOpts;
use srsf_geometry::point::Point;
pub use srsf_geometry::procgrid::BoxColoring as ColorScheme;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::atomic::{AtomicUsize, Ordering};
use srsf_verify::sync::OnceLock;
use std::time::Instant;

/// Factor with the box-colored parallel schedule, `n_threads` worker
/// threads per color round, against a caller-provided tree (the driver
/// entry point used by `Solver`).
pub(crate) fn colored_factorize_with_tree<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
    scheme: ColorScheme,
    n_threads: usize,
) -> Result<Factorization<K::Elem>, FactorError> {
    assert!(n_threads >= 1);
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
            for color in 0..scheme.count() {
                let boxes: Vec<BoxId> = tree
                    .boxes_at_level(level)
                    .filter(|b| scheme.color(b) == color)
                    .collect();
                let outputs =
                    eliminate_color_round(&store, &act, tree, &boxes, opts, &ctx, n_threads)?;
                // Deterministic merge in row-major box order.
                for (b, out) in boxes.iter().zip(outputs) {
                    if let Some(rec) = &out.record {
                        stats.add_rank(level, rec.skel.len());
                    }
                    stats.compression.absorb(&out.compression);
                    apply_output(&mut store, &mut act, b, &out, &ctx);
                    if let Some(mut rec) = out.record {
                        // Restamp with this driver's schedule color so the
                        // threaded solve apply sees whole color rounds.
                        rec.color = scheme.color(b);
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

    let t2 = Instant::now();
    let top_level = if leaf >= lmin { lmin } else { leaf };
    let (top_idx, top) = factor_top(&store, &act, tree, top_level, &ctx)?;
    stats.top_s = t2.elapsed().as_secs_f64();
    stats.total_s = t_total.elapsed().as_secs_f64();
    Ok(Factorization::from_parts(n, records, top_idx, top, stats))
}

/// Snapshot-compute the eliminations of one color round across threads,
/// preserving the input box order in the output.
///
/// Boxes are handed out through a shared atomic index (pull
/// work-stealing) rather than fixed chunks: per-box cost tracks the
/// skeleton rank, which varies widely across a level, and static chunking
/// left threads idle at the tail of every round.
///
/// Shared with the distributed driver, whose per-rank sub-color rounds
/// (`FactorOpts::rank_threads`) run the same snapshot/merge schedule over
/// a rank's phase boxes.
pub(crate) fn eliminate_color_round<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    boxes: &[BoxId],
    opts: &FactorOpts,
    ctx: &CompressionCtx,
    n_threads: usize,
) -> Result<Vec<EliminationOutput<K::Elem>>, FactorError> {
    if n_threads == 1 || boxes.len() <= 1 {
        return boxes
            .iter()
            .map(|b| eliminate_box(store, act, tree, b, opts, ctx))
            .collect();
    }
    let slots: Vec<OnceLock<Result<EliminationOutput<K::Elem>, FactorError>>> =
        (0..boxes.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..n_threads.min(boxes.len()) {
            scope.spawn(|| loop {
                // Relaxed is enough: the claim index carries no data — each worker
                // publishes its elimination through the slot's OnceLock, whose set/get
                // provides the release/acquire edge (verified schedule-independent by
                // work_stealing_claims_each_chunk_once in crates/verify/tests/models.rs).
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= boxes.len() {
                    break;
                }
                let _ = slots[i].set(eliminate_box(store, act, tree, &boxes[i], opts, ctx));
            });
        }
    });
    slots
        .into_iter()
        // INVARIANT: the per-color barrier guarantees every slot in a finished
        // color was written exactly once
        .map(|s| s.into_inner().expect("missing elimination output"))
        .collect()
}
