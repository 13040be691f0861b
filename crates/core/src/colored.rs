//! The shared-memory threaded driver (Section V-C) and the one
//! elimination schedule every driver runs.
//!
//! The paper's C++/OpenMP reference colours the boxes of a level and
//! processes same-colour boxes concurrently. Here the concurrent rounds
//! are distance-3 *waves* ([`waves`]): box `(ix, iy)` goes in wave
//! `3·iy + ix`. Boxes of one wave sit at box distance >= 3, so none reads
//! what another writes — its blocks, its Schur targets, and the distance-2
//! ring M(B) that `skeletonize` compresses against. Every pair within
//! distance 2 keeps its row-major order. A wave eliminated against one
//! snapshot of the store and merged in row-major order is therefore
//! Algorithm 1's row-major sweep bit for bit, at every thread count.
//!
//! The level loop (`crate::sequential::sweep_levels`) is every driver's
//! and the one caller of `eliminate_wave`; a distributed rank runs its
//! phases through it on one thread. This module holds the schedule and
//! the worker pool that eliminates a wave; `Driver::colored(threads)` is
//! the only build that gives the pool more than one worker.

use crate::elimination::{eliminate_box, EliminationOutput, FactorError};
use crate::skeletonize::CompressionCtx;
use crate::store::{ActiveSets, BlockStore};
use crate::FactorOpts;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::atomic::{AtomicUsize, Ordering};
use srsf_verify::sync::OnceLock;

/// The wave of box `(ix, iy)`: `3·iy + ix`.
pub(crate) fn wave_of(b: &BoxId) -> u32 {
    3 * b.iy + b.ix
}

/// The elimination schedule of a set of boxes of one level: box
/// `(ix, iy)` in wave `t = 3·iy + ix`, waves in increasing `t`, a wave's
/// boxes in row-major order.
///
/// Two boxes of one wave are a row apart only if they are three columns
/// apart, so same-wave boxes are at box distance >= 3 and a wave is a
/// valid snapshot round. For two boxes within distance 2, the one earlier
/// in row-major order has the smaller `t`, so every such pair keeps
/// Algorithm 1's order. A `w × h` rectangle with `w >= 3` takes
/// `3h + w - 3` waves of at most `⌈w/3⌉` boxes each.
pub(crate) fn waves(boxes: &[BoxId]) -> Vec<(u32, Vec<BoxId>)> {
    let mut sorted = boxes.to_vec();
    sorted.sort_unstable_by_key(|b| (wave_of(b), b.flat()));
    sorted
        .chunk_by(|a, b| wave_of(a) == wave_of(b))
        .map(|w| (wave_of(&w[0]), w.to_vec()))
        .collect()
}

/// Snapshot-compute the eliminations of one wave across threads,
/// preserving the input box order in the output.
///
/// Boxes are handed out through a shared atomic index (pull
/// work-stealing) rather than fixed chunks: per-box cost tracks the
/// skeleton rank, which varies widely across a level, and static chunking
/// left threads idle at the tail of every wave.
///
/// Called by the level loop ([`crate::sequential`]) only; a distributed
/// rank's phases run it on one thread.
pub(crate) fn eliminate_wave<K: Kernel>(
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
        // INVARIANT: the scope joins every worker, and the claim index hands
        // each slot to exactly one of them
        .map(|s| s.into_inner().expect("missing elimination output"))
        .collect()
}
