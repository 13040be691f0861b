//! The distributed factorization (Algorithm 2).
//!
//! Leaf boxes are block-partitioned over a `q x q` process grid (Figure 4).
//! Every level runs as:
//!
//! 1. **Interior phase** — each rank factors its interior boxes (whose
//!    1-rings stay on-rank), shipping skeleton lists, replaced blocks and
//!    Schur deltas for the boundary-adjacent region its neighbors track.
//! 2. **Four color rounds** (Figure 5) — ranks of one color factor their
//!    boundary boxes; same-color ranks are never within box distance 2 of
//!    each other (every rank holds at least 2x2 boxes), so rounds are
//!    conflict-free and updates go to the 8 adjacent ranks only.
//! 3. **Level transition** — ranks materialize the parent-level blocks
//!    they own and refresh the parent active-set halo; when the coarser
//!    level would leave a rank with fewer than 2x2 boxes, 2x2 rank groups
//!    *fold* onto their corner rank, which inherits the group's blocks and
//!    active sets (Section III-C).
//!
//! A rank runs this as Algorithm 1's level loop
//! ([`crate::sequential::sweep_levels`]) on its own thread — the
//! parallelism is the `p` ranks, as in the paper — with [`RankHooks`]
//! supplying the phases, the messages, the transition and the top. Each
//! phase of 1–2 is *overlapped* rather than bulk-synchronous:
//!
//! * The loop eliminates a phase's boxes in distance-3 waves
//!   (`crate::colored::waves`): box `(ix, iy)` in wave `3·iy + ix`, waves
//!   in increasing order, each merged in row-major box order. Same-wave
//!   boxes are >= 3 apart and every pair within distance 2 keeps its
//!   row-major order, so within a phase each box is eliminated exactly as
//!   in Algorithm 1's row-major sweep, and a one-rank world (one interior
//!   phase per level) *is* Algorithm 1, bit for bit. A rank holds one
//!   wave's outputs at a time (at most `⌈s/3⌉` of an `s × s` block).
//! * The per-output hook posts a neighbor's `KIND_PHASE_UPDATE` frame
//!   *eagerly*, the moment the last box that neighbor tracks retires from
//!   the merge (per-neighbor completion counters over the phase's box
//!   set) — not at phase end — and the pump hook moves incoming frames
//!   into the matching queue between waves while local boxes still
//!   eliminate; the end-of-phase hook receives and applies them.
//! * There is **no barrier** anywhere in the level sweep: the tag scheme
//!   (`tag = level*64 + phase*8 + kind`) makes every frame of the sweep
//!   unique per `(src, tag)`, and the matching queue buffers frames that
//!   arrive ahead of their receive, so tag matching alone orders the
//!   computation. (The solve keeps its barriers; they separate reused
//!   solve tags across passes.)
//!
//! All data moves through explicit byte messages with per-rank counters,
//! so the §IV communication bounds (messages = O(log N + log p), words =
//! O(sqrt(N/p) + log p)) are measured rather than assumed. The rank world
//! runs on either runtime backend — ranks as threads
//! ([`Transport::InProc`](srsf_runtime::Transport)) or as real OS
//! processes over TCP sockets
//! ([`Transport::Tcp`](srsf_runtime::Transport)), selected via
//! [`FactorOpts::transport`] — and this module is backend-agnostic: the
//! same code, solutions, and counters on both (see
//! `tests/transport_equiv.rs`).
//!
//! The sweep ends with the top factorization on rank 0 ([`factor_phase`])
//! and the dealing out of its block columns ([`scatter_top`]); every rank
//! then keeps what it produced and serves from it ([`super::serve`]).

use super::{
    box_near_region, owned_act_ids, recv_frame, region_of, ActEnd, Fold, RankState, RankTop,
    TopShare,
};
use crate::elimination::{EliminationOutput, FactorError};
use crate::levels::merge_parents;
use crate::sequential::{sweep_levels, LevelHooks, Top};
use crate::skeletonize::CompressionCtx;
use crate::store::{ActiveSets, BlockStore};
use crate::top::{factor_top, TopFactor};
use crate::wire::{put_box, put_ids, try_get_box, try_get_ids};
use crate::FactorOpts;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{Mat, Scalar};
use srsf_runtime::codec::{ByteReader, ByteWriter, CodecError, Wire};
// The tag scheme (`tag = level * 64 + phase * 8 + kind`) lives in the
// runtime next to the transports, so a receive timeout on either backend
// can decode the step it was waiting on; see `srsf_runtime::tags`.
use srsf_runtime::tags::{tag, KIND_ACT_REFRESH, KIND_FOLD, KIND_PHASE_UPDATE, KIND_TOP};
use srsf_runtime::world::RankCtx;
use std::collections::HashMap;

/// Serialize one box's elimination side effects for a tracking rank:
/// skeleton metadata always, block payloads filtered by the owner rule.
fn encode_update<T: Scalar>(
    w: &mut ByteWriter,
    b: &BoxId,
    out: &EliminationOutput<T>,
    skel_ids: &[u32],
    dst_rank: usize,
    grid: &ProcessGrid,
) {
    let positions: Vec<u32> = out.skel_positions.iter().map(|&p| p as u32).collect();
    put_box(w, b);
    put_ids(w, &positions);
    put_ids(w, skel_ids);
    let tracked = |(x, y, _): &&(BoxId, BoxId, Mat<T>)| {
        grid.owner(x) == dst_rank || grid.owner(y) == dst_rank
    };
    put_pairs(
        w,
        out.replaced
            .iter()
            .filter(tracked)
            .map(|(x, y, m)| (x, y, m)),
    );
    put_pairs(
        w,
        out.deltas.iter().filter(tracked).map(|(x, y, m)| (x, y, m)),
    );
}

/// Apply one received box update, mirroring `apply_output`'s order.
/// Decodes through the `try_*` readers: a frame that does not decode is
/// the `Err`, never a panic (what it had already applied stays applied;
/// the build fails with it).
fn decode_and_apply_update<K: Kernel>(
    r: &mut ByteReader,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<(), CodecError> {
    let b = try_get_box(r)?;
    let skel_positions: Vec<usize> = try_get_ids(r)?.into_iter().map(|v| v as usize).collect();
    let skel_ids = try_get_ids(r)?;
    let was_eliminated = skel_ids.len() != act.get(&b).len();
    let replaced = try_get_pairs(r)?;
    if was_eliminated {
        store.shrink_box(&b, &skel_positions, &replaced);
    }
    for (x, y, m) in replaced {
        store.insert(x, y, m);
    }
    act.set(b, skel_ids);
    for (x, y, m) in try_get_pairs(r)? {
        store.add_delta(x, y, &m, act);
    }
    Ok(())
}

/// Decode a neighbor's `KIND_PHASE_UPDATE` frame and apply its box
/// updates in order.
fn apply_phase_update<K: Kernel>(
    r: &mut ByteReader,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<(), CodecError> {
    let n_updates = r.try_get_u64()?;
    (0..n_updates).try_for_each(|_| decode_and_apply_update(r, store, act))
}

/// The active sets of `boxes`, count first.
fn put_acts(w: &mut ByteWriter, act: &ActiveSets, boxes: &[BoxId]) {
    w.put_u64(boxes.len() as u64);
    for b in boxes {
        put_box(w, b);
        put_ids(w, act.get(b));
    }
}

/// Decode [`put_acts`] into `act`.
fn apply_acts(r: &mut ByteReader, act: &mut ActiveSets) -> Result<(), CodecError> {
    for _ in 0..r.try_get_u64()? {
        let b = try_get_box(r)?;
        act.set(b, try_get_ids(r)?);
    }
    Ok(())
}

/// Box pairs with their blocks, count first.
fn put_pairs<'a, T: Scalar>(
    w: &mut ByteWriter,
    pairs: impl Iterator<Item = (&'a BoxId, &'a BoxId, &'a Mat<T>)>,
) {
    let pairs: Vec<_> = pairs.collect();
    w.put_u64(pairs.len() as u64);
    for (a, b, m) in pairs {
        put_box(w, a);
        put_box(w, b);
        w.put_mat(m);
    }
}

/// Decode [`put_pairs`].
fn try_get_pairs<T: Scalar>(r: &mut ByteReader) -> Result<Vec<(BoxId, BoxId, Mat<T>)>, CodecError> {
    (0..r.try_get_u64()?)
        .map(|_| Ok((try_get_box(r)?, try_get_box(r)?, r.try_get_mat()?)))
        .collect()
}

/// Rank `me`'s top-level frame for the top gather: its owned active
/// sets, then the stored pairs whose row box it owns (authoritative,
/// deduped; a symmetric store holds the lower block triangle, which is
/// all `factor_top` reads).
fn encode_top_gather<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    grid: &ProcessGrid,
    me: usize,
    top_level: u8,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let owned: Vec<BoxId> = tree
        .boxes_at_level(top_level)
        .filter(|b| grid.owner(b) == me)
        .collect();
    put_acts(&mut w, act, &owned);
    put_pairs(
        &mut w,
        store
            .stored_pairs()
            .filter(|((a, _), _)| a.level == top_level && grid.owner(a) == me)
            .map(|((a, b), m)| (a, b, m)),
    );
    w.finish()
}

/// Decode a rank's top-level frame for the top gather — its owned active
/// sets, then the stored pairs whose row box it owns — into `act` and
/// `store` (what decoded before a failure stays applied; the build fails
/// with it).
fn apply_top_gather<K: Kernel>(
    r: &mut ByteReader,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<(), CodecError> {
    apply_acts(r, act)?;
    for (a, b, m) in try_get_pairs(r)? {
        store.insert(a, b, m);
    }
    Ok(())
}

/// A rank's factorization-phase output: its records and routing state,
/// plus (rank 0 only) the dense top factorization, whole.
pub(crate) type FactorPhaseOutcome<T> = Result<(RankState<T>, RankTop<T>), FactorError>;

/// The factorization half of a rank's work: the level loop
/// ([`sweep_levels`]) with this rank's [`RankHooks`], leaving its
/// elimination records and solve-routing metadata in the returned
/// [`RankState`], where they stay for the serve loop ([`super::serve`]).
pub(crate) fn factor_phase<K: Kernel>(
    ctx: &mut RankCtx,
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    grid: &ProcessGrid,
    opts: &FactorOpts,
) -> FactorPhaseOutcome<K::Elem> {
    let mut hooks = RankHooks {
        ctx,
        grid,
        act_end: HashMap::new(),
        fold_ids: HashMap::new(),
        tag: 0,
        neighbors: Vec::new(),
        pending: Vec::new(),
    };
    let (records, stats, top) = sweep_levels(kernel, pts, tree, opts, 1, &mut hooks)?;
    let state = RankState {
        records,
        act_end: hooks.act_end,
        fold_ids: hooks.fold_ids,
        stats,
    };
    let top = top.map(|(idx, cols)| TopShare {
        idx,
        cols,
        prev: None,
        next: None,
    });
    Ok((state, top))
}

/// Snapshot what this rank will serve from into `dir/rank_{me}.ckpt`
/// (rank 0 additionally writes the run manifest) when
/// [`FactorOpts::checkpoint_dir`] is set — the persistence hook behind
/// [`crate::Solver::restore_resident`]. Runs the moment the rank holds
/// its final state — once the top's block columns were dealt out — on both
/// transports (on TCP every rank is its own process and writes its own
/// file).
pub(super) fn write_rank_checkpoint<T: Scalar>(
    me: usize,
    state: &RankState<T>,
    top: &RankTop<T>,
    pts: &[Point],
    grid: &ProcessGrid,
    opts: &FactorOpts,
) {
    let Some(dir) = &opts.checkpoint_dir else {
        return;
    };
    use crate::wire::{
        encode_rank_snapshot, geometry_hash, rank_ckpt_name, scalar_tag, write_container,
        write_manifest, CkptManifest,
    };
    // A checkpoint write failure is an environmental I/O fault (disk full,
    // bad path) a worker rank cannot return through the factor result.
    // INVARIANT: deliberate — dying loudly with the path beats serving
    // without the snapshot the caller asked for.
    let fail = |e: crate::SrsfError| -> ! { panic!("rank {me}: {e}") };
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(crate::SrsfError::Checkpoint {
            path: dir.display().to_string(),
            reason: e.to_string(),
        });
    }
    let payload = encode_rank_snapshot(state, top);
    if let Err(e) = write_container(&dir.join(rank_ckpt_name(me)), scalar_tag::<T>(), &payload) {
        fail(e);
    }
    if me == 0 {
        let manifest = CkptManifest {
            p: grid.p(),
            n: pts.len(),
            leaf_size: opts.leaf_size,
            min_compress_level: opts.min_compress_level,
            scalar: scalar_tag::<T>(),
            geom_hash: geometry_hash(pts),
        };
        if let Err(e) = write_manifest(dir, &manifest) {
            fail(e);
        }
    }
}

/// This rank's resident factor footprint: its records plus its share of
/// the dense top factorization.
pub(crate) fn resident_bytes<T: Scalar>(state: &RankState<T>, top: &RankTop<T>) -> u64 {
    let records: usize = state
        .records
        .iter()
        .map(|(_, r)| r.heap_bytes())
        .sum::<usize>();
    (records + top.as_ref().map_or(0, TopShare::heap_bytes)) as u64
}

/// Cut `col_bytes.len()` consecutive block columns into one contiguous
/// range per owner so that `loads[i]` plus the bytes of owner `i`'s
/// range comes out level: water-fill the column bytes onto the loads
/// (an owner already above the level gets nothing), then walk the
/// columns once, closing owner `i`'s range at the column boundary
/// nearest the running sum of the shares up to `i`. Returns the
/// `loads.len() + 1` range boundaries.
fn level_ranges(loads: &[usize], col_bytes: &[usize]) -> Vec<usize> {
    let total: usize = col_bytes.iter().sum();
    let mut sorted = loads.to_vec();
    sorted.sort_unstable();
    // The level over the `k` lightest owners, for the largest `k` whose
    // level reaches up to the next owner's load.
    let (mut level, mut below) = (0, 0);
    for (k, &load) in sorted.iter().enumerate() {
        if k > 0 && level <= load {
            break;
        }
        below += load;
        level = (total + below) / (k + 1);
    }
    let mut bounds = vec![0];
    let (mut k, mut filled, mut target) = (0, 0, 0);
    for &load in &loads[..loads.len() - 1] {
        target += level.saturating_sub(load);
        while k < col_bytes.len() && filled + col_bytes[k] / 2 <= target {
            filled += col_bytes[k];
            k += 1;
        }
        bounds.push(k);
    }
    bounds.push(col_bytes.len());
    bounds
}

/// The build's last step: deal the block columns of the packed
/// top, which the factor phase left whole on rank 0, out over the ranks
/// active at the top level, so that the bytes a rank keeps — records plus
/// top — are level ([`level_ranges`]). Every active rank reports its
/// record bytes to rank 0 and gets back its range with its place in the
/// owner chain, or word that it holds none; rank 0 keeps the first range
/// and the index map. Block columns move, one range at a time, out of
/// rank 0's factor into the frame, so no second copy of the top is ever
/// live. A general top has no block columns to deal and stays a chain of
/// one.
///
/// Rank 0 answers every report even when its own factor phase failed:
/// the other ranks finished theirs and must reach their serve loops to
/// be told.
pub(super) fn scatter_top<T: Scalar>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    top_level: u8,
    out: FactorPhaseOutcome<T>,
) -> FactorPhaseOutcome<T> {
    let me = ctx.rank();
    let t = tag(top_level, 7, KIND_TOP);
    let peers: Vec<usize> = grid
        .active_ranks(top_level)
        .into_iter()
        .filter(|&r| r != 0)
        .collect();
    if me != 0 {
        let Ok((state, _)) = &out else {
            return out;
        };
        if !peers.contains(&me) {
            return out;
        }
        let mut w = ByteWriter::new();
        w.put_u64(resident_bytes(state, &None));
        ctx.send(0, t, w.finish());
        let share = recv_frame(ctx, 0, t, Option::<TopShare<T>>::decode)?;
        return out.map(|(state, _)| (state, share));
    }
    // Every report is received, whatever the outcome, so that every peer
    // gets its answer below.
    let reports: Vec<Result<usize, FactorError>> = peers
        .iter()
        .map(|&src| recv_frame(ctx, src, t, |r| Ok(r.try_get_u64()? as usize)))
        .collect();
    let peer_loads: Result<Vec<usize>, _> = reports.into_iter().collect();
    let out = out.and_then(|ok| peer_loads.map(|loads| (ok, loads)));
    let Ok(((state, Some(mine)), peer_loads)) = out else {
        for &dst in &peers {
            ctx.send(dst, t, None::<TopShare<T>>.to_bytes());
        }
        return out.map(|(ok, _)| ok);
    };
    let TopShare { idx, mut cols, .. } = mine;
    let col_bytes: Vec<usize> = match &cols {
        TopFactor::General(_) => Vec::new(),
        TopFactor::Symmetric(ldlt) => ldlt
            .diag_inverses()
            .iter()
            .zip(ldlt.sub_panels())
            .map(|(d, s)| d.heap_bytes() + s.heap_bytes())
            .collect(),
    };
    let mut loads = vec![resident_bytes(&state, &None) as usize + idx.capacity() * 4];
    loads.extend(peer_loads);
    let bounds = level_ranges(&loads, &col_bytes);
    // The chain, as `(rank, first block column)`: rank 0 whatever it
    // holds, then every peer with a range; the others hold none.
    let mut chain = vec![(0, 0)];
    for (&dst, range) in peers.iter().zip(bounds[1..].windows(2)) {
        if range[0] < range[1] {
            chain.push((dst, range[0]));
        } else {
            ctx.send(dst, t, None::<TopShare<T>>.to_bytes());
        }
    }
    // Last range first, so each one splits off the tail of what is left.
    if let TopFactor::Symmetric(ldlt) = &mut cols {
        for j in (1..chain.len()).rev() {
            let share = TopShare {
                idx: Vec::new(),
                cols: TopFactor::Symmetric(ldlt.split_off(chain[j].1)),
                prev: Some(chain[j - 1].0),
                next: chain.get(j + 1).map(|&(rank, _)| rank),
            };
            ctx.send(chain[j].0, t, Some(share).to_bytes());
        }
    }
    let mine = TopShare {
        idx,
        cols,
        prev: None,
        next: chain.get(1).map(|&(rank, _)| rank),
    };
    Ok((state, Some(mine)))
}

/// A rank's side of the level loop. Every active rank runs all five
/// phases at every level, possibly with no boxes, so the message pattern
/// stays globally consistent.
struct RankHooks<'a> {
    ctx: &'a mut RankCtx,
    grid: &'a ProcessGrid,
    /// [`RankState::act_end`] and [`RankState::fold_ids`].
    act_end: ActEnd,
    fold_ids: HashMap<(u8, usize), Vec<u32>>,
    /// The current phase's update tag and the neighbors it exchanges frames with.
    tag: u32,
    neighbors: Vec<usize>,
    /// The current phase's frames still waiting on a box they track.
    pending: Vec<PendingFrame>,
}

/// A neighbor's update frame of the current phase, posted the moment the
/// last of the `left` boxes it tracks is merged.
struct PendingFrame {
    rank: usize,
    region: (i64, i64, i64, i64),
    left: usize,
    frame: ByteWriter,
}

impl<K: Kernel> LevelHooks<K> for RankHooks<'_> {
    fn phases(&mut self, _tree: &QuadTree, level: u8) -> Vec<Vec<BoxId>> {
        let me = self.ctx.rank();
        if !self.grid.is_active(me, level) {
            return Vec::new();
        }
        let (interior, boundary) = self.grid.classify_level(me, level);
        let mut phases = vec![interior, Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        phases[1 + self.grid.color(me, level) as usize] = boundary;
        phases
    }

    fn compute<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.ctx.compute(f)
    }

    /// Neighbors tracking none of `boxes` get their empty frame now,
    /// before any elimination starts.
    fn begin_phase(&mut self, level: u8, phase: u8, boxes: &[BoxId]) {
        self.tag = tag(level, phase, KIND_PHASE_UPDATE);
        self.neighbors = self.grid.neighbor_ranks(self.ctx.rank(), level);
        self.pending.clear();
        for &rank in &self.neighbors {
            let region = region_of(self.grid, rank, level);
            let left = boxes
                .iter()
                .filter(|b| box_near_region(b, region, 2))
                .count();
            let mut frame = ByteWriter::new();
            frame.put_u64(left as u64);
            if left == 0 {
                self.ctx.send(rank, self.tag, frame.finish());
            } else {
                self.pending.push(PendingFrame {
                    rank,
                    region,
                    left,
                    frame,
                });
            }
        }
    }

    fn output(&mut self, act: &ActiveSets, b: &BoxId, out: &EliminationOutput<K::Elem>) {
        let (ctx, grid, t) = (&mut *self.ctx, self.grid, self.tag);
        self.pending.retain_mut(|p| {
            if !box_near_region(b, p.region, 2) {
                return true;
            }
            // Post-apply skeleton ids: later merges never touch `act(b)`
            // (deltas land on the block store only), so encoding now is
            // byte-identical to encoding at phase end.
            encode_update(&mut p.frame, b, out, act.get(b), p.rank, grid);
            p.left -= 1;
            if p.left > 0 {
                return true;
            }
            ctx.send(p.rank, t, std::mem::take(&mut p.frame).finish());
            false
        });
    }

    fn pump(&mut self) {
        self.ctx.progress();
    }

    /// Apply the neighbors' updates, tag-matched: frames that arrived
    /// early wait in the matching queue, so no barrier is needed.
    fn end_phase(
        &mut self,
        store: &mut BlockStore<'_, K>,
        act: &mut ActiveSets,
    ) -> Result<(), FactorError> {
        for &src in &self.neighbors {
            recv_frame(self.ctx, src, self.tag, |r| {
                apply_phase_update(r, store, act)
            })?;
        }
        Ok(())
    }

    fn end_level(&mut self, tree: &QuadTree, act: &ActiveSets, level: u8) {
        let me = self.ctx.rank();
        if self.grid.is_active(me, level) {
            let owned = tree
                .boxes_at_level(level)
                .filter(|b| self.grid.owner(b) == me)
                .map(|b| (b, act.get(&b).to_vec()))
                .collect();
            self.act_end.insert(level, owned);
        }
    }

    /// Fold shipments, parent-block materialization, child cleanup, and
    /// the parent active-set halo refresh. A frame that is lost, late or
    /// does not decode is [`FactorError::RankFailed`].
    fn transition(
        &mut self,
        store: &mut BlockStore<'_, K>,
        act: &mut ActiveSets,
        tree: &QuadTree,
        child_level: u8,
    ) -> Result<(), FactorError> {
        let (ctx, grid) = (&mut *self.ctx, self.grid);
        let me = ctx.rank();
        let parent_level = child_level - 1;
        let t = tag(child_level, 5, KIND_FOLD);
        match Fold::of(grid, me, child_level) {
            // Ship what the corner needs of this rank's level (see
            // `encode_fold`), then retire.
            Some(Fold::Member { corner }) => {
                let owned_ids = owned_act_ids(&self.act_end, child_level);
                let frame = encode_fold(store, act, tree, grid, me, child_level, &owned_ids);
                ctx.send(corner, t, frame);
            }
            Some(Fold::Corner { members }) => {
                for member in members {
                    let fold_ids = recv_frame(ctx, member, t, |r| apply_fold(r, store, act))?;
                    self.fold_ids.insert((child_level, member), fold_ids);
                }
            }
            None => {}
        }

        if !grid.is_active(me, parent_level) {
            // A retired rank only drops its child-level data.
            merge_parents(store, act, child_level, &[], &[]);
            return Ok(());
        }
        // Materialize the parent pairs where I own one side; relabel every
        // parent whose children I know — conservatively, my parents and
        // those of adjacent regions.
        let mine: Vec<BoxId> = tree
            .boxes_at_level(parent_level)
            .filter(|p| grid.owner(p) == me)
            .collect();
        let my_region = region_of(grid, me, parent_level);
        let known: Vec<BoxId> = tree
            .boxes_at_level(parent_level)
            .filter(|p| box_near_region(p, my_region, 2))
            .collect();
        merge_parents(store, act, child_level, &mine, &known);
        // Halo refresh: authoritative parent active sets to adjacent ranks.
        let neighbors = grid.neighbor_ranks(me, parent_level);
        let t = tag(parent_level, 6, KIND_ACT_REFRESH);
        for &dst in &neighbors {
            let frame = encode_act_refresh(act, &mine, region_of(grid, dst, parent_level));
            ctx.send(dst, t, frame);
        }
        for &src in &neighbors {
            recv_frame(ctx, src, t, |r| apply_acts(r, act))?;
        }
        Ok(())
    }

    /// Gather the remaining active blocks on rank 0 and factor the top there.
    fn top(
        &mut self,
        store: &mut BlockStore<'_, K>,
        act: &mut ActiveSets,
        tree: &QuadTree,
        top_level: u8,
        cctx: &CompressionCtx,
    ) -> Result<Top<K::Elem>, FactorError> {
        let (ctx, grid) = (&mut *self.ctx, self.grid);
        let me = ctx.rank();
        let active = grid.active_ranks(top_level);
        let t = tag(top_level, 6, KIND_TOP);
        if me != 0 {
            if active.contains(&me) {
                let frame = encode_top_gather(store, act, tree, grid, me, top_level);
                // Rank 0 has the level now; nothing reads this copy again.
                store.drop_level(top_level);
                ctx.send(0, t, frame);
            }
            return Ok(None);
        }
        for &src in active.iter().filter(|&&r| r != 0) {
            recv_frame(ctx, src, t, |r| apply_top_gather(r, store, act))?;
        }
        factor_top(store, act, tree, top_level, cctx).map(Some)
    }
}

/// A retiring rank's `KIND_FOLD` frame for the corner of its group:
/// the stored child-level blocks it is an authority for (it owns one
/// side, so it received every update to them), the child active sets it
/// was kept current on, and the ids it still owns.
///
/// Pairs between two foreign boxes only carry this rank's own Schur
/// contributions; shipping them would overwrite the complete copy the
/// corner holds or gets from their owner. Likewise only the active sets
/// of boxes within distance 2 of its region go — the ones every
/// eliminating neighbor sends it updates for. At the leaf level `act`
/// also still holds the initial, full sets of every farther box; shipping
/// those would overwrite the shrunken sets the corner (or another member)
/// tracks. The owned ids feed the solve's fold value exchange.
fn encode_fold<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    grid: &ProcessGrid,
    me: usize,
    child_level: u8,
    owned_ids: &[u32],
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_pairs(
        &mut w,
        store
            .stored_pairs()
            .filter(|((a, b), _)| {
                a.level == child_level && (grid.owner(a) == me || grid.owner(b) == me)
            })
            .map(|((a, b), m)| (a, b, m)),
    );
    let my_region = region_of(grid, me, child_level);
    let acts: Vec<BoxId> = tree
        .boxes_at_level(child_level)
        .filter(|b| box_near_region(b, my_region, 2))
        .collect();
    put_acts(&mut w, act, &acts);
    put_ids(&mut w, owned_ids);
    w.finish()
}

/// Decode a retiring member's [`encode_fold`] frame into `store` and
/// `act` and return the ids it still owns (what decoded before a failure
/// stays applied; the build fails with it).
fn apply_fold<K: Kernel>(
    r: &mut ByteReader,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<Vec<u32>, CodecError> {
    for (a, b, m) in try_get_pairs(r)? {
        store.insert(a, b, m);
    }
    apply_acts(r, act)?;
    try_get_ids(r)
}

/// The `KIND_ACT_REFRESH` frame for a neighbor whose parent-level region
/// is `region`: the authoritative active sets of this rank's parents
/// within distance 2 of it.
fn encode_act_refresh(
    act: &ActiveSets,
    my_parents: &[BoxId],
    region: (i64, i64, i64, i64),
) -> Vec<u8> {
    let near: Vec<BoxId> = my_parents
        .iter()
        .filter(|p| box_near_region(p, region, 2))
        .copied()
        .collect();
    let mut w = ByteWriter::new();
    put_acts(&mut w, act, &near);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colored::waves;
    use crate::distributed::decode_frame;
    use crate::elimination::{apply_output, eliminate_box};
    use crate::sequential::{domain_for, factorize_in_rounds, Factorization};
    use crate::{Driver, Solver, SrsfError};
    use srsf_geometry::grid::UnitGrid;
    use srsf_kernels::helmholtz::HelmholtzKernel;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_kernels::util::random_vector;

    /// Check the wave schedule of one box set: the waves partition it in
    /// increasing wave order, row-major within a wave; same-wave boxes are
    /// pairwise at box distance >= 3; and of every pair within distance 2
    /// the row-major-earlier box sits in the earlier wave. Returns
    /// `(waves, widest wave)`.
    fn check_waves(set: &[BoxId], label: &str) -> (usize, usize) {
        let ws = waves(set);
        let row_major = |b: &BoxId| (b.iy, b.ix);
        let mut seen: HashMap<BoxId, u32> = HashMap::new();
        for (k, (t, w)) in ws.iter().enumerate() {
            assert!(k == 0 || ws[k - 1].0 < *t, "{label}: waves out of order");
            assert!(w.windows(2).all(|p| row_major(&p[0]) < row_major(&p[1])));
            for (i, a) in w.iter().enumerate() {
                assert_eq!(3 * a.iy + a.ix, *t, "{label}: {a:?} in wave {t}");
                for c in &w[i + 1..] {
                    let d = a.ix.abs_diff(c.ix).max(a.iy.abs_diff(c.iy));
                    assert!(d >= 3, "{label}: {a:?} and {c:?} share wave {t}");
                }
                assert!(seen.insert(*a, *t).is_none(), "{label}: {a:?} twice");
            }
        }
        assert_eq!(seen.len(), set.len(), "{label}: boxes lost");
        for a in set {
            for (dx, dy) in (-2..=2).flat_map(|dy| (-2..=2).map(move |dx| (dx, dy))) {
                let c = match (a.ix.checked_add_signed(dx), a.iy.checked_add_signed(dy)) {
                    (Some(ix), Some(iy)) => BoxId { ix, iy, ..*a },
                    _ => continue,
                };
                if let Some(tc) = seen.get(&c).filter(|_| c != *a) {
                    let earlier = row_major(a) < row_major(&c);
                    assert_eq!(seen[a] < *tc, earlier, "{label}: {a:?} vs {c:?}");
                }
            }
        }
        let widest = ws.iter().map(|(_, w)| w.len()).max().unwrap_or(0);
        (ws.len(), widest)
    }

    /// Every `w × h` rectangle up to 16 × 16, at a few offsets: same-wave
    /// boxes are >= 3 apart, pairs within distance 2 keep row-major order,
    /// and it takes `3h + w - 3` waves (`w >= 3`; narrower rectangles put
    /// every box in its own wave) of at most `⌈w/3⌉` boxes.
    #[test]
    fn waves_keep_algorithm_1_order_on_every_rectangle() {
        for (x0, y0) in [(0u32, 0u32), (1, 0), (2, 5)] {
            for w in 1..=16u32 {
                for h in 1..=16u32 {
                    let set: Vec<BoxId> = (y0..y0 + h)
                        .flat_map(|iy| (x0..x0 + w).map(move |ix| BoxId { level: 6, ix, iy }))
                        .collect();
                    let label = format!("{w} x {h} at ({x0}, {y0})");
                    let (n, widest) = check_waves(&set, &label);
                    let want = if w >= 3 { 3 * h + w - 3 } else { w * h };
                    assert_eq!(n as u32, want, "{label}: waves");
                    assert!(widest as u32 <= w.div_ceil(3), "{label}: wave of {widest}");
                }
            }
        }
    }

    /// The distributed phases' box sets: interior rectangles, boundary
    /// rings and whole rank blocks of p ∈ {1, 4, 16} at levels 2–6.
    #[test]
    fn wave_schedule_is_conflict_free_row_major_and_narrow() {
        for p in [1usize, 4, 16] {
            let grid = ProcessGrid::new(p);
            for level in 2..=6u8 {
                for rank in grid.active_ranks(level) {
                    let label = format!("p {p}, level {level}, rank {rank}");
                    let (interior, ring) = grid.classify_level(rank, level);
                    let block = [interior.as_slice(), &ring].concat();
                    check_waves(&ring, &format!("{label}, boundary"));
                    check_waves(&interior, &format!("{label}, interior"));
                    let (n, widest) = check_waves(&block, &format!("{label}, block"));
                    let s = (1u32 << level) / grid.effective_q(level);
                    assert_eq!(block.len() as u32, s * s, "{label}: block");
                    assert_eq!(n as u32, if s >= 3 { 4 * s - 3 } else { s * s });
                    assert!(widest as u32 <= s.div_ceil(3), "{label}: wave of {widest}");
                }
            }
        }
    }

    /// A one-rank world runs its whole level as one interior phase in
    /// waves, so it is the shared-memory level loop, bit for bit:
    /// records in order, top and solution.
    fn check_single_rank_world<K: Kernel>(kernel: &K, pts: &[Point], label: &str) {
        let opts = FactorOpts::default()
            .with_tol(1e-8)
            .with_leaf_size(16)
            .with_min_compress_level(2);
        let tree = QuadTree::build(pts, domain_for(pts), opts.leaf_size);
        let want = factorize_in_rounds(kernel, pts, &tree, &opts, 1).expect("level loop");
        let got = Solver::builder(kernel, pts)
            .opts(opts)
            .driver(Driver::distributed(1))
            .build()
            .expect("one-rank world")
            .gather()
            .expect("gather");
        let bytes = |f: &Factorization<K::Elem>| -> Vec<Vec<u8>> {
            f.records.iter().map(Wire::to_bytes).collect()
        };
        assert_eq!(bytes(&got), bytes(&want), "{label}: records");
        assert_eq!(got.top_idx, want.top_idx, "{label}: top rows");
        assert!(got.top.to_bytes() == want.top.to_bytes(), "{label}: top");
        let b = random_vector::<K::Elem>(pts.len(), 5);
        assert!(got.solve(&b) == want.solve(&b), "{label}: solution bits");
    }

    #[test]
    fn single_rank_world_is_the_level_loop_over_wave_rounds() {
        let grid = UnitGrid::new(32);
        let pts = grid.points();
        check_single_rank_world(&LaplaceKernel::new(&grid), &pts, "Laplace");
        check_single_rank_world(&HelmholtzKernel::new(&grid, 10.0), &pts, "Helmholtz");
    }

    #[test]
    fn truncated_phase_update_frame_is_a_typed_failure() {
        // One real update frame: box (1, 1) of a 4-rank level-2 grid,
        // eliminated and encoded for rank 1, which tracks it.
        let ugrid = UnitGrid::new(16);
        let kernel = LaplaceKernel::new(&ugrid);
        let pts = ugrid.points();
        let opts = FactorOpts::default().with_leaf_size(16);
        let tree = QuadTree::build(&pts, domain_for(&pts), opts.leaf_size);
        let grid = ProcessGrid::new(4);
        let cctx = CompressionCtx::new(&kernel, &pts, &tree, &opts);
        let fresh = || {
            let mut act = ActiveSets::new();
            for id in tree.boxes_at_level(2) {
                act.set(id, tree.leaf_points(&id).to_vec());
            }
            (BlockStore::new(&kernel, &pts), act)
        };
        let b = BoxId {
            level: 2,
            ix: 1,
            iy: 1,
        };
        let (mut store, mut act) = fresh();
        let out = eliminate_box(&store, &act, &tree, &b, &opts, &cctx).expect("eliminate");
        apply_output(&mut store, &mut act, &b, &out, &cctx);
        let mut w = ByteWriter::new();
        w.put_u64(1);
        encode_update(&mut w, &b, &out, act.get(&b), 1, &grid);
        let frame = w.finish();
        let skel = act.get(&b).to_vec();
        let t = tag(2, 0, KIND_PHASE_UPDATE);

        let (mut store, mut act) = fresh();
        decode_frame(frame.clone(), 0, t, |r| {
            apply_phase_update(r, &mut store, &mut act)
        })
        .expect("whole frame");
        assert_eq!(act.get(&b), skel, "the whole frame carries the skeleton");
        for len in 0..frame.len() {
            let (mut store, mut act) = fresh();
            let err = decode_frame(frame[..len].to_vec(), 0, t, |r| {
                apply_phase_update(r, &mut store, &mut act)
            })
            .expect_err("a truncated frame must not decode");
            let FactorError::RankFailed { rank: 0, ref step } = err else {
                panic!("{len} bytes: {err}");
            };
            assert!(step.contains("PHASE_UPDATE"), "{step}");
            assert!(matches!(
                SrsfError::from(err),
                SrsfError::RankFailed { rank: 0, .. }
            ));
        }
    }

    /// The level transition's two frames decode through the `try_*`
    /// readers: a retiring member's fold frame and a neighbor's
    /// active-set refresh, each cut at every length, are typed failures
    /// naming the sender.
    #[test]
    fn truncated_transition_frames_are_typed_failures() {
        let ugrid = UnitGrid::new(16);
        let kernel = LaplaceKernel::new(&ugrid);
        let pts = ugrid.points();
        let opts = FactorOpts::default().with_leaf_size(16);
        let tree = QuadTree::build(&pts, domain_for(&pts), opts.leaf_size);
        let grid = ProcessGrid::new(4);
        let cctx = CompressionCtx::new(&kernel, &pts, &tree, &opts);
        let fresh = || {
            let mut act = ActiveSets::new();
            for id in tree.boxes_at_level(2) {
                act.set(id, tree.leaf_points(&id).to_vec());
            }
            (BlockStore::new(&kernel, &pts), act)
        };
        let typed = |err: FactorError, kind: &str, len: usize| {
            let FactorError::RankFailed { rank: 1, ref step } = err else {
                panic!("{len} bytes: {err}");
            };
            assert!(step.contains(kind), "{len} bytes: {step}");
            assert!(matches!(
                SrsfError::from(err),
                SrsfError::RankFailed { rank: 1, .. }
            ));
        };

        // Rank 1 after eliminating one of its level-2 boxes: it folds
        // onto rank 0 at level 1.
        let b = BoxId {
            level: 2,
            ix: 2,
            iy: 1,
        };
        assert_eq!(grid.owner(&b), 1);
        let (mut store, mut act) = fresh();
        let out = eliminate_box(&store, &act, &tree, &b, &opts, &cctx).expect("eliminate");
        apply_output(&mut store, &mut act, &b, &out, &cctx);
        let owned = act.get(&b).to_vec();
        let frame = encode_fold(&store, &act, &tree, &grid, 1, 2, &owned);
        let t = tag(2, 5, KIND_FOLD);
        let (mut store0, mut act0) = fresh();
        let ids = decode_frame(frame.clone(), 1, t, |r| {
            apply_fold(r, &mut store0, &mut act0)
        })
        .expect("whole frame");
        assert_eq!(ids, owned, "the whole frame carries the owned ids");
        assert_eq!(
            act0.get(&b),
            act.get(&b),
            "the whole frame carries the skeleton"
        );
        assert!(
            store0.contains(&b, &b),
            "the whole frame carries the blocks"
        );
        for len in 0..frame.len() {
            let (mut store0, mut act0) = fresh();
            let err = decode_frame(frame[..len].to_vec(), 1, t, |r| {
                apply_fold(r, &mut store0, &mut act0)
            })
            .expect_err("a truncated frame must not decode");
            typed(err, "FOLD", len);
        }

        // Rank 1's refresh for rank 0: the active sets of its boxes.
        let mine: Vec<BoxId> = tree
            .boxes_at_level(2)
            .filter(|p| grid.owner(p) == 1)
            .collect();
        let frame = encode_act_refresh(&act, &mine, region_of(&grid, 0, 2));
        let t = tag(2, 6, KIND_ACT_REFRESH);
        let (_, mut act0) = fresh();
        decode_frame(frame.clone(), 1, t, |r| apply_acts(r, &mut act0)).expect("whole frame");
        assert_eq!(
            act0.get(&b),
            act.get(&b),
            "the whole frame carries the skeleton"
        );
        for len in 0..frame.len() {
            let (_, mut act0) = fresh();
            let err = decode_frame(frame[..len].to_vec(), 1, t, |r| apply_acts(r, &mut act0))
                .expect_err("a truncated frame must not decode");
            typed(err, "ACT_REFRESH", len);
        }
    }

    /// The top's two hand-over frames decode through the `try_*`
    /// readers: a rank's top-level gather frame and a rank's share of the
    /// factored top, each cut at every length, are typed failures naming
    /// the sender.
    #[test]
    fn truncated_top_frames_are_typed_failures() {
        let ugrid = UnitGrid::new(16);
        let kernel = LaplaceKernel::new(&ugrid);
        let pts = ugrid.points();
        let opts = FactorOpts::default()
            .with_leaf_size(16)
            .with_min_compress_level(2);
        let tree = QuadTree::build(&pts, domain_for(&pts), opts.leaf_size);
        let grid = ProcessGrid::new(4);
        let cctx = CompressionCtx::new(&kernel, &pts, &tree, &opts);
        let fresh = || {
            let mut act = ActiveSets::new();
            for id in tree.boxes_at_level(2) {
                act.set(id, tree.leaf_points(&id).to_vec());
            }
            (BlockStore::new(&kernel, &pts), act)
        };
        let typed = |err: FactorError, src: usize, len: usize| {
            let FactorError::RankFailed { rank, ref step } = err else {
                panic!("{len} bytes: {err}");
            };
            assert!(rank == src && step.contains("TOP"), "{len} bytes: {step}");
            assert!(matches!(
                SrsfError::from(err),
                SrsfError::RankFailed { rank, .. } if rank == src
            ));
        };

        // Rank 1's gather frame, after it eliminated one of its boxes.
        let b = BoxId {
            level: 2,
            ix: 2,
            iy: 1,
        };
        assert_eq!(grid.owner(&b), 1);
        let (mut store, mut act) = fresh();
        let out = eliminate_box(&store, &act, &tree, &b, &opts, &cctx).expect("eliminate");
        apply_output(&mut store, &mut act, &b, &out, &cctx);
        let frame = encode_top_gather(&store, &act, &tree, &grid, 1, 2);
        let t = tag(2, 6, KIND_TOP);
        let (mut store0, mut act0) = fresh();
        decode_frame(frame.clone(), 1, t, |r| {
            apply_top_gather(r, &mut store0, &mut act0)
        })
        .expect("whole frame");
        assert_eq!(
            act0.get(&b),
            act.get(&b),
            "the whole frame carries the skeleton"
        );
        assert!(
            store0.contains(&b, &b),
            "the whole frame carries the blocks"
        );
        for len in 0..frame.len() {
            let (mut store0, mut act0) = fresh();
            let err = decode_frame(frame[..len].to_vec(), 1, t, |r| {
                apply_top_gather(r, &mut store0, &mut act0)
            })
            .expect_err("a truncated frame must not decode");
            typed(err, 1, len);
        }

        // The share rank 0 deals out: the last block column of a factored
        // top.
        let f = factorize_in_rounds(&kernel, &pts, &tree, &opts, 1).expect("factor");
        let TopFactor::Symmetric(mut ldlt) = f.top else {
            panic!("a Laplace top is packed");
        };
        let last = ldlt.cols().end - 1;
        let share = TopShare {
            idx: Vec::new(),
            cols: TopFactor::Symmetric(ldlt.split_off(last)),
            prev: Some(0),
            next: None,
        };
        let frame = Some(share).to_bytes();
        let t = tag(2, 7, KIND_TOP);
        let back = decode_frame(frame.clone(), 0, t, Option::<TopShare<f64>>::decode);
        assert!(back.expect("whole frame").to_bytes() == frame);
        for len in 0..frame.len() {
            let Err(err) =
                decode_frame(frame[..len].to_vec(), 0, t, Option::<TopShare<f64>>::decode)
            else {
                panic!("{len} bytes: a truncated frame must not decode");
            };
            typed(err, 0, len);
        }
    }

    /// Per-owner totals after dealing `cols` out by `bounds`.
    fn totals(loads: &[usize], cols: &[usize], bounds: &[usize]) -> Vec<usize> {
        loads
            .iter()
            .zip(bounds.windows(2))
            .map(|(l, w)| l + cols[w[0]..w[1]].iter().sum::<usize>())
            .collect()
    }

    #[test]
    fn level_ranges_fill_the_light_owners_first() {
        // A top shaped like the real one: 27 block columns shrinking
        // linearly, four owners with the benchmark's record bytes.
        let cols: Vec<usize> = (0..27).map(|k| 33_000 + (26 - k) * 32_768).collect();
        let loads = [13_100_000, 12_600_000, 12_600_000, 12_000_000];
        let bounds = level_ranges(&loads, &cols);
        assert_eq!((bounds[0], bounds[4]), (0, 27));
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        let t = totals(&loads, &cols, &bounds);
        let (max, min) = (t.iter().max().unwrap(), t.iter().min().unwrap());
        assert!(*max as f64 / *min as f64 <= 1.05, "{t:?}");

        // An owner already above the level gets nothing; nor does anyone
        // when there is nothing to deal (a general top).
        let bounds = level_ranges(&[100, 5_000_000, 100], &[1000, 1000, 1000, 1000]);
        assert_eq!(bounds, [0, 2, 2, 4]);
        assert_eq!(level_ranges(&[7, 1, 3], &[]), [0, 0, 0, 0]);
        assert_eq!(level_ranges(&[9], &[5, 5]), [0, 2]);
    }
}
