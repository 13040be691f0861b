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
//! Each phase of 1–2 is *overlapped* rather than bulk-synchronous, and a
//! rank is one thread: the parallelism is the `p` ranks, as in the paper.
//!
//! * A rank's phase boxes eliminate in distance-3 waves
//!   ([`waves`]): box `(ix, iy)` in wave `3·iy + ix`, waves in increasing
//!   order, each merged in row-major box order. Same-wave boxes are >= 3
//!   apart and every pair within distance 2 keeps its row-major order, so
//!   within a phase each box is eliminated exactly as in Algorithm 1's
//!   row-major sweep, and a one-rank world (one interior phase per level)
//!   *is* Algorithm 1, bit for bit. A rank holds one wave's outputs at a
//!   time (at most `⌈s/3⌉` of an `s × s` block).
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

use super::{box_near_region, order_key, region_of, RankState, RankTop, TopShare};
use crate::colored::{eliminate_wave, waves};
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

/// Decode a whole frame from `src` received under tag `t` with `decode`;
/// a frame that does not decode is [`FactorError::MalformedFrame`]
/// naming the sender and the step.
pub(super) fn decode_frame<V>(
    payload: Vec<u8>,
    src: usize,
    t: u32,
    decode: impl FnOnce(&mut ByteReader) -> Result<V, CodecError>,
) -> Result<V, FactorError> {
    decode(&mut ByteReader::new(payload)).map_err(|e| FactorError::MalformedFrame {
        rank: src,
        step: format!("{}: malformed frame: {e}", describe(t)),
    })
}

/// Decode a neighbor's `KIND_PHASE_UPDATE` frame and apply its box
/// updates in order.
fn apply_phase_update<K: Kernel>(
    payload: Vec<u8>,
    src: usize,
    t: u32,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<(), FactorError> {
    decode_frame(payload, src, t, |r| {
        let n_updates = r.try_get_u64()?;
        (0..n_updates).try_for_each(|_| decode_and_apply_update(r, store, act))
    })
}

/// Rank `me`'s top-level frame for [`gather_top`]: its owned active
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
    w.put_u64(owned.len() as u64);
    for b in &owned {
        put_box(&mut w, b);
        put_ids(&mut w, act.get(b));
    }
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
    w.finish()
}

/// Decode a rank's top-level frame for [`gather_top`] — its owned active
/// sets, then the stored pairs whose row box it owns — into `act` and
/// `store` (what decoded before a failure stays applied; the build fails
/// with it).
fn apply_top_gather<K: Kernel>(
    payload: Vec<u8>,
    src: usize,
    t: u32,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<(), FactorError> {
    decode_frame(payload, src, t, |r| {
        for _ in 0..r.try_get_u64()? {
            let b = try_get_box(r)?;
            act.set(b, try_get_ids(r)?);
        }
        for _ in 0..r.try_get_u64()? {
            let (a, b) = (try_get_box(r)?, try_get_box(r)?);
            store.insert(a, b, r.try_get_mat()?);
        }
        Ok(())
    })
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
                let t_elim = std::time::Instant::now();
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
                state.stats.eliminate_s += t_elim.elapsed().as_secs_f64();
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
                let t_merge = std::time::Instant::now();
                level_transition(ctx, grid, tree, &mut store, &mut act, level, &mut state)?;
                state.stats.merge_s += t_merge.elapsed().as_secs_f64();
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
        let t_top = std::time::Instant::now();
        let top = gather_top(ctx, grid, tree, &mut store, &mut act, top_level, &cctx)?;
        state.stats.top_s = t_top.elapsed().as_secs_f64();
        top
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
        let share = decode_frame(ctx.recv(0, t), 0, t, Option::<TopShare<T>>::decode)?;
        return out.map(|(state, _)| (state, share));
    }
    // Every report is received, whatever the outcome, so that every peer
    // gets its answer below.
    let reports: Vec<Result<usize, FactorError>> = peers
        .iter()
        .map(|&src| decode_frame(ctx.recv(src, t), src, t, |r| Ok(r.try_get_u64()? as usize)))
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

/// Eliminate `boxes` (phase `phase` of `level`) in distance-3 waves
/// ([`waves`]) on the rank's own thread, posting each neighbor's update
/// frame the moment its last tracked box retires, then apply the
/// neighbors' updates. Every active rank calls this each phase (possibly
/// with no boxes) so the message pattern stays globally consistent.
///
/// Determinism: same-wave boxes sit at box distance >= 3 and never read
/// each other's writes, so each wave snapshot-computes and merges in
/// row-major box order — records, frames and counters are bit-identical
/// over both transports, and equal to the row-major sweep of the phase's
/// boxes. Only one wave's outputs are alive at a
/// time. Overlap: a neighbor's frame goes out as soon as the last box it
/// tracks is merged (its per-box encodings depend only on that box's own
/// output and active set, which later merges never touch), and the fabric
/// is pumped between waves so early frames are already in the matching
/// queue when the blocking receives run.
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
            ctx.compute(|| eliminate_wave(store, act, tree, &wboxes, opts, cctx, 1))?
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
/// cleanup, and the parent active-set halo refresh. A received frame that
/// does not decode is [`FactorError::MalformedFrame`].
fn level_transition<K: Kernel>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    tree: &QuadTree,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    child_level: u8,
    state: &mut RankState<K::Elem>,
) -> Result<(), FactorError> {
    let me = ctx.rank();
    let parent_level = child_level - 1;
    let child_active = grid.is_active(me, child_level);
    let parent_active_rank = grid.is_active(me, parent_level);
    let fold = grid.effective_q(parent_level) < grid.effective_q(child_level);

    if fold && child_active {
        // The corner rank of my 2x2 group at the parent level.
        let (x0, y0, _, _) = region_of(grid, me, child_level);
        let my_first_parent = BoxId {
            level: parent_level,
            ix: (x0 / 2) as u32,
            iy: (y0 / 2) as u32,
        };
        let corner = grid.owner(&my_first_parent);
        if corner != me {
            // Ship what the corner needs of this rank's level (see
            // `encode_fold`), then retire.
            let owned_ids: Vec<u32> = state
                .act_end
                .get(&child_level)
                .map(|v| v.iter().flat_map(|(_, ids)| ids.iter().copied()).collect())
                .unwrap_or_default();
            let frame = encode_fold(store, act, tree, grid, me, child_level, &owned_ids);
            ctx.send(corner, tag(child_level, 5, KIND_FOLD), frame);
        } else {
            // Receive from the three retiring members of my group.
            let stride = grid.q() / grid.effective_q(child_level);
            let (cx, cy) = grid.coords_of(me);
            for (dx, dy) in [(1u32, 0u32), (0, 1), (1, 1)] {
                let member = grid.rank_of(cx + dx * stride, cy + dy * stride);
                let t = tag(child_level, 5, KIND_FOLD);
                let fold_ids = apply_fold(ctx.recv(member, t), member, t, store, act)?;
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
            let frame = encode_act_refresh(act, &my_parents, region_of(grid, dst, parent_level));
            ctx.send(dst, tag(parent_level, 6, KIND_ACT_REFRESH), frame);
        }
        for &src in &neighbors {
            let t = tag(parent_level, 6, KIND_ACT_REFRESH);
            apply_act_refresh(ctx.recv(src, t), src, t, act)?;
        }
    } else {
        // Retired ranks drop their child-level data.
        store.drop_level(child_level);
        act.drop_level(child_level);
    }
    // No trailing barrier: the fold and halo-refresh frames above carry
    // level-unique tags, so the parent level's receives match them
    // without a rendezvous.
    Ok(())
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
    let my_region = region_of(grid, me, child_level);
    let acts: Vec<BoxId> = tree
        .boxes_at_level(child_level)
        .filter(|b| box_near_region(b, my_region, 2))
        .collect();
    w.put_u64(acts.len() as u64);
    for b in &acts {
        put_box(&mut w, b);
        put_ids(&mut w, act.get(b));
    }
    put_ids(&mut w, owned_ids);
    w.finish()
}

/// Decode a retiring member's [`encode_fold`] frame into `store` and
/// `act` and return the ids it still owns (what decoded before a failure
/// stays applied; the build fails with it).
fn apply_fold<K: Kernel>(
    payload: Vec<u8>,
    src: usize,
    t: u32,
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
) -> Result<Vec<u32>, FactorError> {
    decode_frame(payload, src, t, |r| {
        for _ in 0..r.try_get_u64()? {
            let (a, b) = (try_get_box(r)?, try_get_box(r)?);
            store.insert(a, b, r.try_get_mat()?);
        }
        for _ in 0..r.try_get_u64()? {
            let b = try_get_box(r)?;
            act.set(b, try_get_ids(r)?);
        }
        try_get_ids(r)
    })
}

/// The `KIND_ACT_REFRESH` frame for a neighbor whose parent-level region
/// is `region`: the authoritative active sets of this rank's parents
/// within distance 2 of it.
fn encode_act_refresh(
    act: &ActiveSets,
    my_parents: &[BoxId],
    region: (i64, i64, i64, i64),
) -> Vec<u8> {
    let near: Vec<&BoxId> = my_parents
        .iter()
        .filter(|p| box_near_region(p, region, 2))
        .collect();
    let mut w = ByteWriter::new();
    w.put_u64(near.len() as u64);
    for p in near {
        put_box(&mut w, p);
        put_ids(&mut w, act.get(p));
    }
    w.finish()
}

/// Decode a neighbor's [`encode_act_refresh`] frame into `act`.
fn apply_act_refresh(
    payload: Vec<u8>,
    src: usize,
    t: u32,
    act: &mut ActiveSets,
) -> Result<(), FactorError> {
    decode_frame(payload, src, t, |r| {
        for _ in 0..r.try_get_u64()? {
            let b = try_get_box(r)?;
            act.set(b, try_get_ids(r)?);
        }
        Ok(())
    })
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
        apply_top_gather(ctx.recv(src, t), src, t, store, act)?;
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
            let FactorError::MalformedFrame { rank: 1, ref step } = err else {
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
        let ids = apply_fold(frame.clone(), 1, t, &mut store0, &mut act0).expect("whole frame");
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
            let err = apply_fold(frame[..len].to_vec(), 1, t, &mut store0, &mut act0)
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
        apply_act_refresh(frame.clone(), 1, t, &mut act0).expect("whole frame");
        assert_eq!(
            act0.get(&b),
            act.get(&b),
            "the whole frame carries the skeleton"
        );
        for len in 0..frame.len() {
            let (_, mut act0) = fresh();
            let err = apply_act_refresh(frame[..len].to_vec(), 1, t, &mut act0)
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
            let FactorError::MalformedFrame { rank, ref step } = err else {
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
        apply_top_gather(frame.clone(), 1, t, &mut store0, &mut act0).expect("whole frame");
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
            let err = apply_top_gather(frame[..len].to_vec(), 1, t, &mut store0, &mut act0)
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
