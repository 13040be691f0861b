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
//! Each phase of 1–2 is *hybrid-parallel and overlapped* rather than
//! bulk-synchronous:
//!
//! * A rank's phase boxes eliminate in knight-move wavefronts
//!   ([`waves`]): box `(ix, iy)` in wave `2·iy + ix`, waves in increasing
//!   order, each on the work-stealing pool shared with the colored driver
//!   ([`FactorOpts::rank_threads`] workers) and merged in row-major box
//!   order — so records, update frames and counters are bit-identical for
//!   every thread count. Every box sees exactly the eliminated neighbors
//!   it has in Algorithm 1's row-major sweep, so it costs what it costs
//!   there, and a rank holds one wave's outputs at a time (at most
//!   `⌈s/2⌉` of an `s × s` block). Waves are narrow, so on small per-rank
//!   grids the pool has few boxes to share.
//! * A neighbor's `KIND_PHASE_UPDATE` frame is posted *eagerly*, the
//!   moment the last box that neighbor tracks retires from the merge
//!   (per-neighbor completion counters over the phase's box set) — not at
//!   phase end — and the fabric is pumped between waves so incoming
//!   frames land in the matching queue while local boxes still eliminate.
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
    box_near_region, get_box, get_ids, order_key, region_of, RankState, RankTop, TopShare,
};
use crate::colored::eliminate_color_round;
use crate::elimination::{apply_output, EliminationOutput, FactorError};
use crate::levels::assemble_parent_block;
use crate::skeletonize::CompressionCtx;
use crate::stats::FactorStats;
use crate::store::{ActiveSets, BlockStore};
use crate::top::{factor_top, TopFactor};
use crate::wire::{put_box, put_ids, try_get_box, try_get_ids};
use crate::FactorOpts;
use srsf_geometry::neighbors::near_field;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{Mat, Scalar};
use srsf_runtime::codec::{ByteReader, ByteWriter, CodecError, Wire};
// The tag scheme (`tag = level * 64 + phase * 8 + kind`) lives in the
// runtime next to the transports, so a receive timeout on either backend
// can decode the step it was waiting on; see `srsf_runtime::tags`.
use srsf_runtime::tags::{describe, tag, KIND_ACT_REFRESH, KIND_FOLD, KIND_PHASE_UPDATE, KIND_TOP};
use srsf_runtime::world::RankCtx;
use std::collections::{HashMap, HashSet};

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
    put_box(w, b);
    put_ids(
        w,
        &out.skel_positions
            .iter()
            .map(|&p| p as u32)
            .collect::<Vec<_>>(),
    );
    put_ids(w, skel_ids);
    let tracked: Vec<&(BoxId, BoxId, Mat<T>)> = out
        .replaced
        .iter()
        .filter(|(x, y, _)| grid.owner(x) == dst_rank || grid.owner(y) == dst_rank)
        .collect();
    w.put_u64(tracked.len() as u64);
    for (x, y, m) in tracked {
        put_box(w, x);
        put_box(w, y);
        w.put_mat(m);
    }
    let deltas: Vec<&(BoxId, BoxId, Mat<T>)> = out
        .deltas
        .iter()
        .filter(|(x, y, _)| grid.owner(x) == dst_rank || grid.owner(y) == dst_rank)
        .collect();
    w.put_u64(deltas.len() as u64);
    for (x, y, m) in deltas {
        put_box(w, x);
        put_box(w, y);
        w.put_mat(m);
    }
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
    let n_replaced = r.try_get_u64()?;
    let mut replaced = Vec::new();
    for _ in 0..n_replaced {
        let x = try_get_box(r)?;
        let y = try_get_box(r)?;
        replaced.push((x, y, r.try_get_mat::<K::Elem>()?));
    }
    if was_eliminated {
        store.shrink_box(&b, &skel_positions, &replaced);
    }
    for (x, y, m) in replaced {
        store.insert(x, y, m);
    }
    act.set(b, skel_ids);
    let n_deltas = r.try_get_u64()?;
    for _ in 0..n_deltas {
        let x = try_get_box(r)?;
        let y = try_get_box(r)?;
        let m: Mat<K::Elem> = r.try_get_mat()?;
        store.add_delta(x, y, &m, act);
    }
    Ok(())
}

/// Decode a neighbor's `KIND_PHASE_UPDATE` frame and apply its box
/// updates in order; a frame that does not decode is
/// [`FactorError::MalformedFrame`] naming the sender and the step.
fn apply_phase_update<K: Kernel>(
    payload: Vec<u8>,
    src: usize,
    t: u32,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<(), FactorError> {
    let mut r = ByteReader::new(payload);
    let decoded = r.try_get_u64().and_then(|n_updates| {
        (0..n_updates).try_for_each(|_| decode_and_apply_update(&mut r, store, act))
    });
    decoded.map_err(|e| FactorError::MalformedFrame {
        rank: src,
        step: format!("{}: malformed frame: {e}", describe(t)),
    })
}

/// The knight-move wavefronts of a phase's boxes, in elimination order:
/// box `(ix, iy)` sits in wave `t = 2·iy + ix` of its level, waves run in
/// increasing `t`, and a wave's boxes in row-major order.
///
/// Boxes of one wave are at box distance >= 2 (a row apart means two
/// columns apart), so a wave is a valid snapshot round (§V-C). A box's
/// row-major-earlier neighbors — left (`t - 1`), up-right (`t - 1`), up
/// (`t - 2`), up-left (`t - 3`) — all sit in earlier waves and its later
/// ones in later waves, so every box is eliminated against exactly the
/// neighbors Algorithm 1's row-major sweep has already eliminated. An
/// `s × s` block takes `3s - 2` waves of at most `⌈s/2⌉` boxes each.
pub(crate) fn waves(boxes: &[BoxId]) -> Vec<(u32, Vec<BoxId>)> {
    let wave = |b: &BoxId| 2 * b.iy + b.ix;
    let mut sorted = boxes.to_vec();
    sorted.sort_unstable_by_key(|b| (wave(b), b.flat()));
    sorted
        .chunk_by(|a, b| wave(a) == wave(b))
        .map(|w| (wave(&w[0]), w.to_vec()))
        .collect()
}

/// A rank's factorization-phase output: its records and routing state,
/// plus (rank 0 only) the dense top factorization, whole.
pub(crate) type FactorPhaseOutcome<T> = Result<(RankState<T>, RankTop<T>), FactorError>;

/// The factorization half of a rank's work: the level sweep (interior
/// phase, four color rounds, level transitions with folds) and the top
/// gather/factorization, leaving this rank's elimination records and
/// solve-routing metadata in the returned [`RankState`], where they stay
/// for the serve loop ([`super::serve`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn factor_phase<K: Kernel>(
    ctx: &mut RankCtx,
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    grid: &ProcessGrid,
    opts: &FactorOpts,
    leaf: u8,
    lmin: u8,
) -> FactorPhaseOutcome<K::Elem> {
    let me = ctx.rank();
    let t_total = std::time::Instant::now();
    let mut store = BlockStore::new(kernel, pts);
    let mut act = ActiveSets::new();
    // Leaf active sets derive from the replicated tree geometry: no
    // communication needed to initialize the halo.
    for id in tree.boxes_at_level(leaf) {
        act.set(id, tree.leaf_points(&id).to_vec());
    }
    let mut state = RankState::<K::Elem> {
        records: Vec::new(),
        act_end: HashMap::new(),
        fold_ids: HashMap::new(),
        stats: FactorStats::new(pts.len(), leaf),
    };
    // Deterministic construction: every rank derives the identical
    // compression context (seeded sketches are a pure function of box
    // coordinates), so no communication is needed to agree on skeletons.
    let cctx = CompressionCtx::new(kernel, pts, tree, opts);

    if leaf >= lmin && leaf >= 1 {
        let mut level = leaf;
        loop {
            if grid.is_active(me, level) {
                let (interior, boundary) = grid.classify_level(me, level);
                {
                    let _sp = srsf_trace::span!(srsf_trace::Cat::Phase, "level {level} interior");
                    run_phase(
                        ctx, grid, tree, &mut store, &mut act, &interior, level, 0, opts, &cctx,
                        &mut state,
                    )?;
                }
                let my_color = grid.color(me, level);
                for color in 0..4u8 {
                    let mine = if color == my_color {
                        boundary.clone()
                    } else {
                        Vec::new()
                    };
                    let _sp = srsf_trace::span!(
                        srsf_trace::Cat::Phase,
                        "level {level} color round {color}"
                    );
                    run_phase(
                        ctx,
                        grid,
                        tree,
                        &mut store,
                        &mut act,
                        &mine,
                        level,
                        1 + color,
                        opts,
                        &cctx,
                        &mut state,
                    )?;
                }
                let snapshot: Vec<(BoxId, Vec<u32>)> = tree
                    .boxes_at_level(level)
                    .filter(|b| grid.owner(b) == me)
                    .map(|b| (b, act.get(&b).to_vec()))
                    .collect();
                state.act_end.insert(level, snapshot);
            }
            // No barrier between phases or levels: every frame of the
            // sweep is unique per (src, tag) and the matching queue
            // buffers early arrivals, so tag matching alone orders the
            // computation (ranks that finished a level early simply park
            // in their next tag-matched receive).
            if level == lmin {
                break;
            }
            {
                let _sp = srsf_trace::span!(srsf_trace::Cat::Phase, "level {level} transition");
                level_transition(ctx, grid, tree, &mut store, &mut act, level, &mut state);
            }
            level -= 1;
        }
    } else {
        let snapshot: Vec<(BoxId, Vec<u32>)> = tree
            .boxes_at_level(leaf)
            .filter(|b| grid.owner(b) == me)
            .map(|b| (b, act.get(&b).to_vec()))
            .collect();
        state.act_end.insert(leaf, snapshot);
    }

    // Top gather and dense factorization on rank 0.
    let top_level = if leaf >= lmin { lmin } else { leaf };
    let top = {
        let _sp = srsf_trace::span!(srsf_trace::Cat::Phase, "top gather+factor");
        gather_top(ctx, grid, tree, &mut store, &mut act, top_level, &cctx)?
    };
    state.stats.total_s = t_total.elapsed().as_secs_f64();
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
        let mut r = ByteReader::new(ctx.recv(0, t));
        // INVARIANT: this frame was encoded by rank 0 under the matching tag and
        // the transport delivers whole messages, so decode cannot truncate
        let share = Option::<TopShare<T>>::decode(&mut r)
            .unwrap_or_else(|e| panic!("malformed top share frame: {e}"));
        return out.map(|(state, _)| (state, share));
    }
    let peer_loads: Vec<usize> = peers
        .iter()
        // INVARIANT: same trusted-frame argument, for the one-word report
        .map(|&src| ByteReader::new(ctx.recv(src, t)).get_u64() as usize)
        .collect();
    let Ok((state, Some(mine))) = out else {
        for &dst in &peers {
            ctx.send(dst, t, None::<TopShare<T>>.to_bytes());
        }
        return out;
    };
    let TopShare { idx, mut cols, .. } = mine;
    let col_bytes: Vec<usize> = match &cols {
        TopFactor::General(_) => Vec::new(),
        TopFactor::Symmetric(ldlt) => ldlt
            .diag_blocks()
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

/// Eliminate `boxes` (phase `phase` of `level`) in knight-move wave
/// rounds ([`waves`]) on the per-rank thread pool, posting each
/// neighbor's update frame the moment its last tracked box retires, then
/// apply the neighbors' updates. Every active rank calls this each phase
/// (possibly with no boxes) so the message pattern stays globally
/// consistent.
///
/// Determinism: same-wave boxes sit at box distance >= 2 and never read
/// each other's writes (the colored driver's §V-C argument), so each wave
/// snapshot-computes on [`eliminate_color_round`]'s work-stealing pool
/// and merges in row-major box order — records, frames and counters are
/// bit-identical for every `rank_threads` value and both transports.
/// Cost and memory: a box's row-major-earlier neighbors are all in
/// earlier waves, so it is eliminated at Algorithm 1's cost, and only one
/// wave's outputs are alive at a time. Overlap: a neighbor's frame goes
/// out as soon as the last box it tracks is merged (its per-box encodings
/// depend only on that box's own output and active set, which later
/// merges never touch), and the fabric is pumped between waves so early
/// frames are already in the matching queue when the blocking receives
/// run.
#[allow(clippy::too_many_arguments)]
fn run_phase<K: Kernel>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    tree: &QuadTree,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    boxes: &[BoxId],
    level: u8,
    phase: u8,
    opts: &FactorOpts,
    cctx: &CompressionCtx,
    state: &mut RankState<K::Elem>,
) -> Result<(), FactorError> {
    let me = ctx.rank();
    let neighbors = grid.neighbor_ranks(me, level);
    let regions: Vec<(usize, (i64, i64, i64, i64))> = neighbors
        .iter()
        .map(|&r| (r, region_of(grid, r, level)))
        .collect();

    // Per-neighbor eager-send state: how many of this phase's boxes the
    // neighbor tracks (within distance 2 of its region) and the frame
    // under construction. Neighbors tracking nothing get their empty
    // frame immediately, before any elimination starts.
    let mut remaining: HashMap<usize, usize> = HashMap::new();
    let mut frames: HashMap<usize, ByteWriter> = HashMap::new();
    for (r, region) in &regions {
        let n = boxes
            .iter()
            .filter(|b| box_near_region(b, *region, 2))
            .count();
        let mut w = ByteWriter::new();
        w.put_u64(n as u64);
        if n == 0 {
            ctx.send(*r, tag(level, phase, KIND_PHASE_UPDATE), w.finish());
        } else {
            remaining.insert(*r, n);
            frames.insert(*r, w);
        }
    }

    for (wave, wboxes) in waves(boxes) {
        let outputs = {
            let _sp = srsf_trace::span!(
                srsf_trace::Cat::Compute,
                "eliminate level {level} phase {phase} wave {wave}"
            );
            ctx.compute(|| {
                eliminate_color_round(store, act, tree, &wboxes, opts, cctx, opts.rank_threads)
            })?
        };
        // Deterministic merge in box order; eager sends fire from here.
        let merge_sp = srsf_trace::span!(
            srsf_trace::Cat::Compute,
            "merge level {level} phase {phase} wave {wave}"
        );
        for (b, out) in wboxes.iter().zip(outputs) {
            ctx.compute(|| apply_output(store, act, b, &out, cctx));
            state.stats.compression.absorb(&out.compression);
            // Post-apply skeleton ids: later merges never touch `act(b)`
            // (deltas land on the block store only), so encoding now is
            // byte-identical to encoding at phase end.
            let skel_ids: Vec<u32> = match &out.record {
                Some(rec) => rec.skel.clone(),
                None => act.get(b).to_vec(),
            };
            for (r, region) in &regions {
                if !box_near_region(b, *region, 2) {
                    continue;
                }
                // INVARIANT: `frames`/`remaining` were seeded with every
                // neighbor tracking at least one box, and an entry is only
                // removed when its counter hits zero
                let w = frames.get_mut(r).expect("pending frame");
                encode_update(w, b, &out, &skel_ids, *r, grid);
                // INVARIANT: `remaining` is kept in lockstep with `frames`
                let left = remaining.get_mut(r).expect("pending count");
                *left -= 1;
                if *left == 0 {
                    remaining.remove(r);
                    // INVARIANT: same seeding argument as `frames` above
                    let w = frames.remove(r).expect("pending frame");
                    ctx.send(*r, tag(level, phase, KIND_PHASE_UPDATE), w.finish());
                }
            }
            // The frames read the output's blocks; the record moves out last.
            if let Some(rec) = out.record {
                state.stats.add_rank(level, rec.skel.len());
                let key = order_key(state.stats.leaf_level, level, phase, wave, b);
                state.records.push((key, rec));
            }
        }
        drop(merge_sp);
        // Pump the fabric between waves: frames that already arrived
        // move into the matching queue while the next wave eliminates.
        ctx.progress();
    }

    // Apply the neighbors' updates (tag-matched; frames that arrived
    // early were buffered by the matching queue or the drains above).
    let t = tag(level, phase, KIND_PHASE_UPDATE);
    for &src in &neighbors {
        let payload = ctx.recv(src, t);
        apply_phase_update(payload, src, t, store, act)?;
    }
    Ok(())
}

/// Level transition: fold shipments, parent-block materialization, child
/// cleanup, and the parent active-set halo refresh.
fn level_transition<K: Kernel>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    tree: &QuadTree,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    child_level: u8,
    state: &mut RankState<K::Elem>,
) {
    let me = ctx.rank();
    let parent_level = child_level - 1;
    let child_active = grid.is_active(me, child_level);
    let parent_active_rank = grid.is_active(me, parent_level);
    let fold = grid.effective_q(parent_level) < grid.effective_q(child_level);

    if fold && child_active {
        // The corner rank of my 2x2 group at the parent level.
        let (x0, y0, x1, y1) = region_of(grid, me, child_level);
        let my_first_parent = BoxId {
            level: parent_level,
            ix: (x0 / 2) as u32,
            iy: (y0 / 2) as u32,
        };
        let corner = grid.owner(&my_first_parent);
        if corner != me {
            // Ship the stored child-level blocks this rank is an
            // authority for (it owns one side, so it received every
            // update to them) plus all known child active sets to the
            // corner, then retire. Pairs between two foreign boxes only
            // carry this rank's own Schur contributions; shipping them
            // would overwrite the complete copy the corner holds or gets
            // from their owner.
            let mut w = ByteWriter::new();
            let pairs: Vec<_> = store
                .stored_pairs()
                .filter(|((a, b), _)| {
                    a.level == child_level && (grid.owner(a) == me || grid.owner(b) == me)
                })
                .collect();
            w.put_u64(pairs.len() as u64);
            for ((a, b), m) in pairs {
                put_box(&mut w, a);
                put_box(&mut w, b);
                w.put_mat(m);
            }
            // Active sets go the same way: only those this rank was kept
            // current on — boxes within distance 2 of its region, the
            // ones every eliminating neighbor sends it updates for. At
            // the leaf level `act` also still holds the initial, full
            // sets of every farther box; shipping those would overwrite
            // the shrunken sets the corner (or another member) tracks.
            let my_region = (x0, y0, x1, y1);
            let acts: Vec<(BoxId, Vec<u32>)> = tree
                .boxes_at_level(child_level)
                .filter(|b| box_near_region(b, my_region, 2))
                .map(|b| (b, act.get(&b).to_vec()))
                .collect();
            w.put_u64(acts.len() as u64);
            for (b, ids) in &acts {
                put_box(&mut w, b);
                put_ids(&mut w, ids);
            }
            // Also ship the ids this rank still owns (for the solve's fold
            // value exchange).
            let owned_ids: Vec<u32> = state
                .act_end
                .get(&child_level)
                .map(|v| v.iter().flat_map(|(_, ids)| ids.iter().copied()).collect())
                .unwrap_or_default();
            put_ids(&mut w, &owned_ids);
            ctx.send(corner, tag(child_level, 5, KIND_FOLD), w.finish());
        } else {
            // Receive from the three retiring members of my group.
            let stride = grid.q() / grid.effective_q(child_level);
            let (cx, cy) = grid.coords_of(me);
            for (dx, dy) in [(1u32, 0u32), (0, 1), (1, 1)] {
                let member = grid.rank_of(cx + dx * stride, cy + dy * stride);
                let payload = ctx.recv(member, tag(child_level, 5, KIND_FOLD));
                let mut r = ByteReader::new(payload);
                // INVARIANT: this frame was encoded by a peer rank under the matching tag
                // and the transport delivers whole messages, so decode cannot truncate
                let n_pairs = r.get_u64();
                for _ in 0..n_pairs {
                    let a = get_box(&mut r);
                    let b = get_box(&mut r);
                    // INVARIANT: this frame was encoded by a peer rank under the matching tag
                    // and the transport delivers whole messages, so decode cannot truncate
                    let m: Mat<K::Elem> = r.get_mat();
                    store.insert(a, b, m);
                }
                // INVARIANT: this frame was encoded by a peer rank under the matching tag
                // and the transport delivers whole messages, so decode cannot truncate
                let n_acts = r.get_u64();
                for _ in 0..n_acts {
                    let b = get_box(&mut r);
                    let ids = get_ids(&mut r);
                    act.set(b, ids);
                }
                let fold_ids = get_ids(&mut r);
                state.fold_ids.insert((child_level, member), fold_ids);
            }
        }
    }

    if parent_active_rank {
        // Materialize parent pairs (P, Q) at distance <= 1 where I own one
        // side, assembling from child data — in the direction(s) the
        // store keeps.
        let mut done: HashSet<(BoxId, BoxId)> = HashSet::new();
        let mut to_insert = Vec::new();
        let my_parents: Vec<BoxId> = tree
            .boxes_at_level(parent_level)
            .filter(|p| grid.owner(p) == me)
            .collect();
        for p in &my_parents {
            let mut targets = vec![*p];
            targets.extend(near_field(p));
            for q in targets {
                for (a, b) in [(*p, q), (q, *p)] {
                    if !store.is_canonical(&a, &b) || !done.insert((a, b)) {
                        continue;
                    }
                    let (blk, any) = assemble_parent_block(store, act, &a, &b);
                    if any {
                        to_insert.push((a, b, blk));
                    }
                }
            }
        }
        // Parent active sets: every parent whose children I know —
        // conservatively, my parents and those of adjacent regions.
        let mut parent_acts = Vec::new();
        let my_region = region_of(grid, me, parent_level);
        for p in tree.boxes_at_level(parent_level) {
            if box_near_region(&p, my_region, 2) {
                parent_acts.push((p, crate::levels::parent_active(act, &p)));
            }
        }
        store.drop_level(child_level);
        act.drop_level(child_level);
        for (a, b, m) in to_insert {
            store.insert(a, b, m);
        }
        for (p, ids) in parent_acts {
            act.set(p, ids);
        }
        // Halo refresh: authoritative parent active sets to adjacent ranks.
        let neighbors = grid.neighbor_ranks(me, parent_level);
        for &dst in &neighbors {
            let region = region_of(grid, dst, parent_level);
            let entries: Vec<(BoxId, Vec<u32>)> = my_parents
                .iter()
                .filter(|p| box_near_region(p, region, 2))
                .map(|p| (*p, act.get(p).to_vec()))
                .collect();
            let mut w = ByteWriter::new();
            w.put_u64(entries.len() as u64);
            for (b, ids) in &entries {
                put_box(&mut w, b);
                put_ids(&mut w, ids);
            }
            ctx.send(dst, tag(parent_level, 6, KIND_ACT_REFRESH), w.finish());
        }
        for &src in &neighbors {
            let payload = ctx.recv(src, tag(parent_level, 6, KIND_ACT_REFRESH));
            let mut r = ByteReader::new(payload);
            // INVARIANT: this frame was encoded by a peer rank under the matching tag
            // and the transport delivers whole messages, so decode cannot truncate
            let n = r.get_u64();
            for _ in 0..n {
                let b = get_box(&mut r);
                let ids = get_ids(&mut r);
                act.set(b, ids);
            }
        }
    } else {
        // Retired ranks drop their child-level data.
        store.drop_level(child_level);
        act.drop_level(child_level);
    }
    // No trailing barrier: the fold and halo-refresh frames above carry
    // level-unique tags, so the parent level's receives match them
    // without a rendezvous.
}

/// Gather the remaining active blocks on rank 0 and factor the top.
fn gather_top<K: Kernel>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    tree: &QuadTree,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    top_level: u8,
    cctx: &CompressionCtx,
) -> Result<RankTop<K::Elem>, FactorError> {
    let me = ctx.rank();
    let active = grid.active_ranks(top_level);
    if me != 0 {
        if active.contains(&me) {
            let mut w = ByteWriter::new();
            // Owned active sets.
            let owned: Vec<(BoxId, Vec<u32>)> = tree
                .boxes_at_level(top_level)
                .filter(|b| grid.owner(b) == me)
                .map(|b| (b, act.get(&b).to_vec()))
                .collect();
            w.put_u64(owned.len() as u64);
            for (b, ids) in &owned {
                put_box(&mut w, b);
                put_ids(&mut w, ids);
            }
            // Stored pairs whose row box I own (authoritative, deduped;
            // a symmetric store holds the lower block triangle, which is
            // all `factor_top` reads).
            let pairs: Vec<_> = store
                .stored_pairs()
                .filter(|((a, _), _)| a.level == top_level && grid.owner(a) == me)
                .collect();
            w.put_u64(pairs.len() as u64);
            for ((a, b), m) in pairs {
                put_box(&mut w, a);
                put_box(&mut w, b);
                w.put_mat(m);
            }
            // Rank 0 has the level now; nothing reads this copy again.
            store.drop_level(top_level);
            ctx.send(0, tag(top_level, 6, KIND_TOP), w.finish());
        }
        return Ok(None);
    }
    for &src in active.iter().filter(|&&r| r != 0) {
        let payload = ctx.recv(src, tag(top_level, 6, KIND_TOP));
        let mut r = ByteReader::new(payload);
        // INVARIANT: this frame was encoded by a peer rank under the matching tag
        // and the transport delivers whole messages, so decode cannot truncate
        let n_acts = r.get_u64();
        for _ in 0..n_acts {
            let b = get_box(&mut r);
            let ids = get_ids(&mut r);
            act.set(b, ids);
        }
        // INVARIANT: this frame was encoded by a peer rank under the matching tag
        // and the transport delivers whole messages, so decode cannot truncate
        let n_pairs = r.get_u64();
        for _ in 0..n_pairs {
            let a = get_box(&mut r);
            let b = get_box(&mut r);
            // INVARIANT: this frame was encoded by a peer rank under the matching tag
            // and the transport delivers whole messages, so decode cannot truncate
            let m: Mat<K::Elem> = r.get_mat();
            store.insert(a, b, m);
        }
    }
    let (idx, cols) = factor_top(store, act, tree, top_level, cctx)?;
    Ok(Some(TopShare {
        idx,
        cols,
        prev: None,
        next: None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::eliminate_box;
    use crate::sequential::{domain_for, factorize_in_rounds, Factorization};
    use crate::{Driver, Solver, SrsfError};
    use srsf_geometry::grid::UnitGrid;
    use srsf_geometry::neighbors::near_field;
    use srsf_kernels::helmholtz::HelmholtzKernel;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_kernels::util::random_vector;

    /// Check the wave schedule of one box set: the waves partition it in
    /// increasing wave order, row-major within a wave; same-wave boxes are
    /// pairwise at box distance >= 2; and a box's neighbors in the set sit
    /// in earlier waves exactly when they come earlier in row-major order.
    /// Returns `(waves, widest wave)`.
    fn check_waves(set: &[BoxId], label: &str) -> (usize, usize) {
        let ws = waves(set);
        let row_major = |b: &BoxId| (b.iy, b.ix);
        let mut seen: HashMap<BoxId, u32> = HashMap::new();
        for (k, (t, w)) in ws.iter().enumerate() {
            assert!(k == 0 || ws[k - 1].0 < *t, "{label}: waves out of order");
            assert!(w.windows(2).all(|p| row_major(&p[0]) < row_major(&p[1])));
            for (i, a) in w.iter().enumerate() {
                assert_eq!(2 * a.iy + a.ix, *t, "{label}: {a:?} in wave {t}");
                for c in &w[i + 1..] {
                    let d = a.ix.abs_diff(c.ix).max(a.iy.abs_diff(c.iy));
                    assert!(d >= 2, "{label}: {a:?} and {c:?} share wave {t}");
                }
                assert!(seen.insert(*a, *t).is_none(), "{label}: {a:?} twice");
            }
        }
        assert_eq!(seen.len(), set.len(), "{label}: boxes lost");
        for b in set {
            for n in near_field(b).iter().filter(|n| seen.contains_key(n)) {
                let earlier = row_major(n) < row_major(b);
                assert_eq!(seen[n] < seen[b], earlier, "{label}: {n:?} vs {b:?}");
            }
        }
        let widest = ws.iter().map(|(_, w)| w.len()).max().unwrap_or(0);
        (ws.len(), widest)
    }

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
                    // The rank's whole block and its interior are
                    // rectangles; `w × h` takes `2h + w - 2` waves of at
                    // most `⌈w/2⌉` boxes (`3s - 2` and `⌈s/2⌉` for s × s).
                    for (set, what) in [(&block, "block"), (&interior, "interior")] {
                        if set.is_empty() {
                            continue;
                        }
                        let label = format!("{label}, {what}");
                        let w = 1 + set.iter().map(|b| b.ix).max().unwrap()
                            - set.iter().map(|b| b.ix).min().unwrap();
                        let h = 1 + set.iter().map(|b| b.iy).max().unwrap()
                            - set.iter().map(|b| b.iy).min().unwrap();
                        assert_eq!(set.len() as u32, w * h, "{label}: not a rectangle");
                        let (n, widest) = check_waves(set, &label);
                        assert_eq!(n as u32, 2 * h + w - 2, "{label}: waves");
                        assert!(widest as u32 <= w.div_ceil(2), "{label}: wave of {widest}");
                    }
                    let s = 1u32 << level;
                    let side = s / grid.effective_q(level);
                    assert_eq!(block.len() as u32, side * side);
                }
            }
        }
    }

    /// Records with the schedule's colour stamp cleared, as bytes.
    fn record_bytes<T: Scalar>(f: &Factorization<T>) -> Vec<Vec<u8>> {
        f.records
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.color = 0;
                r.to_bytes()
            })
            .collect()
    }

    /// A one-rank world runs its whole level as one interior phase in
    /// wave rounds, so it is the shared-memory level loop over the same
    /// rounds, bit for bit: records, top and solution.
    fn check_single_rank_world<K: Kernel>(kernel: &K, pts: &[Point], label: &str) {
        let opts = FactorOpts::default()
            .with_tol(1e-8)
            .with_leaf_size(16)
            .with_min_compress_level(2);
        let tree = QuadTree::build(pts, domain_for(pts), opts.leaf_size);
        let want = factorize_in_rounds(kernel, pts, &tree, &opts, 1, |level| {
            let boxes: Vec<BoxId> = tree.boxes_at_level(level).collect();
            waves(&boxes).into_iter().map(|(_, w)| (0, w)).collect()
        })
        .expect("wave rounds");
        let got = Solver::builder(kernel, pts)
            .opts(opts)
            .driver(Driver::distributed(1))
            .build()
            .expect("one-rank world")
            .gather()
            .expect("gather");
        assert_eq!(record_bytes(&got), record_bytes(&want), "{label}: records");
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
        apply_phase_update(frame.clone(), 0, t, &mut store, &mut act).expect("whole frame");
        assert_eq!(act.get(&b), skel, "the whole frame carries the skeleton");
        for len in 0..frame.len() {
            let (mut store, mut act) = fresh();
            let err = apply_phase_update(frame[..len].to_vec(), 0, t, &mut store, &mut act)
                .expect_err("a truncated frame must not decode");
            let FactorError::MalformedFrame { rank: 0, ref step } = err else {
                panic!("{len} bytes: {err}");
            };
            assert!(step.contains("PHASE_UPDATE"), "{step}");
            assert!(matches!(
                SrsfError::from(err),
                SrsfError::RankFailed { rank: 0, .. }
            ));
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
