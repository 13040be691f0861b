//! The distributed driver's serving: keep the rank world alive and serve
//! repeated solves in place.
//!
//! After [`factor_phase`](super::factorize::factor_phase) completes, each
//! rank's elimination records **stay where they were produced**, the
//! block columns of the dense top factorization are dealt out over the
//! ranks active at the top level (below), rank 0 keeps the routing
//! metadata (ownership maps, fold ids, per-level active sets), and ranks
//! `1..p` park in a request/response command loop ([`serve_rank`]) driven
//! by rank 0 through a live [`WorldHandle`]. Every
//! [`ResidentService::try_solve_mat`] then runs Algorithm 2's solve phase —
//! upward pass with neighbor delta exchange, dense top solve along the
//! owner chain, downward pass with request/reply value refresh — as one
//! SPMD function executed by all ranks over the existing `KIND_SOLVE_*`
//! tags, with the rank-local sweeps on the RHS-major panel kernels of
//! [`crate::solve`] (each rank's working block is `nrhs x n`, and every
//! frame cut from it `nrhs x |ids|`).
//!
//! **Who holds the top.** The factor phase leaves the packed `L D Lᵀ`
//! of the top on rank 0. The resident build then cuts its 64-wide block
//! columns into one contiguous range per rank active at the top level —
//! ranges sized from the exact bytes of every column so that a rank's
//! records plus its range come out level (`scatter_top` in
//! [`super::factorize`]) — and moves each range to its owner, rank 0
//! keeping the first one and the index map. Per-rank factor bytes are
//! then (records + top) / p rather than records / p + top on rank 0. A
//! rank whose records already weigh more than the level gets no columns
//! and is not part of the chain; a general (unsymmetric) top, whose LU
//! has no independent block columns, stays whole on rank 0: a chain of
//! one owner, run by the same code.
//!
//! **Hop order.** The top solve of `X A⁻ᵀ` is a forward and a backward
//! sweep over block columns, each step touching its own column's blocks
//! and the panel columns from there to the end. So the panel travels:
//! rank 0 gathers the top rows from the active ranks as before, applies
//! the forward steps of its range, and sends the panel columns past its
//! range to the next owner, which does the same with its range, …; the
//! last owner turns round, applies its backward steps, and the finished
//! columns come back down the chain, each owner completing its own range
//! on the way, until rank 0 holds the whole solved panel and sends the
//! replies the other ranks wait for. That is `2 (owners − 1)` counted
//! frames per solve, of at most `nrhs x top` entries, under
//! `(top level, phase 6 | 7, KIND_SOLVE_UP)` ([`top_chain_step`]); the
//! `srsf-verify` model `top_chain_token_makes_two_p_minus_one_hops`
//! explores its interleavings with the value gather and the replies.
//!
//! **Bit-exactness.** The resident solve reproduces the serial
//! [`Factorization::solve_mat`] sweep of the same factorization
//! gathered onto one rank *bit for bit* (asserted against
//! [`ResidentService::gather`] in `tests/resident_serve.rs`): per-rank
//! records are
//! applied in global elimination-order (the sorted order key), and the
//! neighbor delta shipped for a remote point is the very column of the
//! `X_R · ENᵀ` product the serial merge would subtract — not an
//! after-minus-before difference, which would pick up the sender's stale
//! copy of the remote value. Within any `(level, phase)` round the four-color schedule
//! guarantees no row receives deltas from two different ranks and no rank
//! both holds phase records and receives non-empty deltas, so the
//! receive-order of the exchange cannot reorder the serial summation.
//! The owner chain does not reorder anything either: it performs the
//! block-column steps of the one-owner sweep in that sweep's order, each
//! kernel call on the same operands — the same blocks, the same panel
//! columns, padded to the same tile height — only on different ranks.
//!
//! **Counters.** Solve traffic moves under the algorithmic
//! `KIND_SOLVE_*` tags and lands in the §IV data counters, so
//! `comm_counts --solve-reps` measures the paper's per-solve bound
//! O(sqrt(N/p)) words. The service *envelope* — command dispatch, the
//! RHS scatter and solution gather slabs (O(N·nrhs/p) words, the
//! residency analogue of the old record gather), and stats probes — moves
//! as uncounted service frames ([`RankCtx::send_service`]). The one-off
//! dealing out of the top's block columns is counted traffic, sent after
//! the factor-phase counters were snapshotted: those
//! ([`ResidentService::comm`]) are Algorithm 2's, and the scatter shows in
//! a traced build's spans.
//!
//! **Gather.** [`ResidentService::gather`] assembles the factorization as
//! one local object on demand — the bit-reference of the equivalence
//! tests and the way to [`Factorization::save`] one file. Every worker
//! replies with its snapshot (the checkpoint codec) on an uncounted
//! service frame; rank 0 sorts the records into elimination order and
//! re-joins the top's block columns in chain order. The ranks keep their
//! state and the service serves on.
//!
//! **Shutdown.** Tag-based and Drop-safe: [`ResidentService::shutdown`]
//! broadcasts a shutdown command and joins the workers through
//! [`WorldHandle::finish`]; dropping the service does the same, and a
//! handle dropped without the round still leaves no live workers (the
//! idle wait observes the teardown — see `run_resident`). A rank that
//! dies mid-solve surfaces as a typed
//! [`SrsfError::RankFailed`](crate::SrsfError) naming the dead rank and
//! the protocol step, on both transports, within the receive timeout —
//! never a hang: live workers abandon the solve and exit their loops
//! (which their peers see at once), rank 0 poisons the service so later
//! calls — solves, probes, trace drains, gathers — fail fast with the
//! same error, and Drop still reaps the session. Every command round is
//! one broadcast ([`broadcast`]) and one collect ([`collect`]) through
//! the shared typed receive ([`recv_frame`]).
//!
//! **Checkpoint/restore.** When the factorization ran with
//! [`FactorOpts::checkpoint_dir`](crate::FactorOpts) set, each rank
//! persisted its snapshot — records, routing, and its own block columns
//! of the top with its place in the chain — once it held them;
//! [`restore_resident_service`] rebuilds a fresh rank world from those
//! snapshots — no kernel evaluations, no re-factorization — and restored
//! solves are bit-identical to the original service's.

use super::factorize::{factor_phase, resident_bytes, scatter_top, write_rank_checkpoint};
use super::{
    decode_frame, key_level_phase, owned_act_ids, owned_leaf_ids, owner_of_point, recv_frame, Fold,
    RankState, RankTop, TopShare,
};
use crate::elimination::FactorError;
use crate::error::SrsfError;
use crate::sequential::{domain_for, Factorization};
use crate::solve::{
    downward_parts, frame_of, merge_downward, merge_upward, upward_parts, RecordPanels, RhsBlock,
};
use crate::stats::FactorStats;
use crate::top::TopFactor;
use crate::wire::{decode_rank_snapshot, encode_rank_snapshot, put_ids, try_get_ids};
use crate::FactorOpts;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_geometry::tree::QuadTree;
use srsf_kernels::kernel::Kernel;
use srsf_linalg::panel::panel_rows;
use srsf_linalg::{Mat, Scalar};
use srsf_runtime::codec::{ByteReader, ByteWriter, Bytes, CodecError, Wire};
use srsf_runtime::tags::{
    tag, KIND_SOLVE_REQ, KIND_SOLVE_UP, KIND_SOLVE_VAL, TAG_SERVE_CKPT, TAG_SERVE_CMD,
    TAG_SERVE_GATHER, TAG_SERVE_READY, TAG_SERVE_RHS, TAG_SERVE_SOL, TAG_SERVE_STATS,
    TAG_SERVE_TRACE,
};
use srsf_runtime::world::{RankCtx, World, WorldHandle};
use srsf_runtime::{CommStats, MetricsRegistry, TraceReport, Transport, WorldStats};
use std::collections::HashMap;
use std::path::Path;
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::{Arc, Mutex};

/// Serve-loop opcodes (first u64 of a `TAG_SERVE_CMD` payload).
const CMD_SHUTDOWN: u64 = 0;
/// `[CMD_SOLVE, nrhs]`, followed by a `TAG_SERVE_RHS` slab.
const CMD_SOLVE: u64 = 1;
/// Reply with a `TAG_SERVE_STATS` counter snapshot.
const CMD_PROBE: u64 = 2;
/// Reply with a `TAG_SERVE_TRACE` span-report drain (`srsf-trace` ring
/// buffers; empty when tracing is off).
const CMD_TRACE: u64 = 3;
/// Reply with a `TAG_SERVE_GATHER` rank snapshot.
const CMD_GATHER: u64 = 4;

/// What every rank needs at serve time beyond its [`ServeState`]. Owned
/// (not borrowed) so the in-process backend's serve threads can outlive
/// the build call. Deliberately tiny: all ownership/routing derived from
/// the tree and points is precomputed into the per-rank state at build,
/// so neither the geometry nor the kernel is retained.
pub(crate) struct ResidentGeo {
    /// Problem size `N`.
    pub(crate) n: usize,
    pub(crate) grid: ProcessGrid,
}

/// One record's upward remote-delta routing: `(destination rank, remote
/// row ids, their positions within `rec.nbr`)`, destinations in
/// first-appearance order within the nbr list.
type DeltaRoute = Vec<(usize, Vec<u32>, Vec<u32>)>;

/// Per-round id lists keyed by destination/owner rank.
type IdsByRank = Vec<(usize, Vec<u32>)>;

/// One rank's resident solve state: its own elimination records in global
/// elimination order, the solve-routing metadata, and its share of the
/// dense top factorization.
///
/// Records, geometry, and ownership are fixed at factorization time, so
/// everything a solve needs besides the actual row data is precomputed
/// here once — per-round record ranges, the per-record remote-delta
/// routing, the per-round downward refresh lists, rank 0's top reply
/// partition — and the per-solve hot path does no ownership math at all.
pub(crate) struct ServeState<T> {
    /// The factor-phase output, its `records` sorted by order key — the
    /// global elimination order restricted to this rank, which is what
    /// makes the resident sweeps bit-identical to the serial sweep of the
    /// gathered factorization. Its `act_end` and `fold_ids` route the fold
    /// exchanges.
    state: RankState<T>,
    /// Record index range of each `(level, phase)` round — contiguous
    /// because `records` is key-sorted.
    rounds: HashMap<(u8, u8), std::ops::Range<usize>>,
    /// Aligned with `records`: where each record's neighbor delta must be
    /// shipped (empty for records whose 1-ring stays on-rank).
    routing: Vec<DeltaRoute>,
    /// Per round: the sorted, deduplicated remote ids to refresh from
    /// each owner before the downward applications.
    need: HashMap<(u8, u8), IdsByRank>,
    /// Rank 0 only: the top-solve reply partition — which `top_idx`
    /// entries each active rank owns.
    top_reply: IdsByRank,
    /// This rank's block columns of the dense top factorization and its
    /// place in the owner chain (`None`: it holds none).
    top: RankTop<T>,
    leaf: u8,
    lmin: u8,
    top_level: u8,
    /// This rank's slab rows, in the canonical row-major leaf-box order.
    owned_leaf_ids: Vec<u32>,
    /// Resident footprint: records plus the share of the top.
    bytes: u64,
}

impl<T: Scalar> ServeState<T> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn from_rank_state(
        mut state: RankState<T>,
        top: RankTop<T>,
        tree: &QuadTree,
        pts: &[Point],
        grid: &ProcessGrid,
        leaf: u8,
        lmin: u8,
        me: usize,
    ) -> Self {
        let bytes = resident_bytes(&state, &top);
        state.records.sort_by_key(|(k, _)| *k);
        let records = &state.records;

        // Round ranges: key-sorted records make (level, phase) runs
        // contiguous.
        let mut rounds: HashMap<(u8, u8), std::ops::Range<usize>> = HashMap::new();
        let mut i = 0;
        while i < records.len() {
            let lp = key_level_phase(leaf, records[i].0);
            let start = i;
            while i < records.len() && key_level_phase(leaf, records[i].0) == lp {
                i += 1;
            }
            rounds.insert(lp, start..i);
        }

        // Upward delta routing: per record, the remote rows of its
        // neighbor delta grouped by owner, ids kept in nbr order (the
        // order the receiver applies — part of the bit-exactness
        // contract).
        let routing: Vec<DeltaRoute> = records
            .iter()
            .map(|(key, rec)| {
                let (level, _) = key_level_phase(leaf, *key);
                let mut route: DeltaRoute = Vec::new();
                for (j, &id) in rec.nbr.iter().enumerate() {
                    let owner = owner_of_point(grid, tree, pts, id, level);
                    if owner == me {
                        continue;
                    }
                    match route.iter_mut().find(|(d, _, _)| *d == owner) {
                        Some((_, ids, pos)) => {
                            ids.push(id);
                            pos.push(j as u32);
                        }
                        None => route.push((owner, vec![id], vec![j as u32])),
                    }
                }
                route
            })
            .collect();

        // Downward refresh lists: the union of each round's remote reads,
        // sorted and deduplicated per owner.
        let mut need: HashMap<(u8, u8), IdsByRank> = HashMap::new();
        for (&lp, range) in &rounds {
            let mut per_dst: IdsByRank = Vec::new();
            for route in &routing[range.clone()] {
                for (dst, ids, _) in route {
                    match per_dst.iter_mut().find(|(d, _)| d == dst) {
                        Some((_, acc)) => acc.extend_from_slice(ids),
                        None => per_dst.push((*dst, ids.clone())),
                    }
                }
            }
            for (_, ids) in &mut per_dst {
                ids.sort_unstable();
                ids.dedup();
            }
            need.insert(lp, per_dst);
        }

        // Rank 0's top reply partition.
        let top_level = lmin.min(leaf);
        let top_reply = match &top {
            Some(share) if me == 0 => grid
                .active_ranks(top_level)
                .into_iter()
                .filter(|&r| r != 0)
                .map(|dst| {
                    let ids: Vec<u32> = share
                        .idx
                        .iter()
                        .copied()
                        .filter(|&id| owner_of_point(grid, tree, pts, id, top_level) == dst)
                        .collect();
                    (dst, ids)
                })
                .collect(),
            _ => Vec::new(),
        };

        Self {
            state,
            rounds,
            routing,
            need,
            top_reply,
            top,
            leaf,
            lmin,
            top_level,
            owned_leaf_ids: owned_leaf_ids(tree, grid, me),
            bytes,
        }
    }

    /// Record index range of one `(level, phase)` round.
    fn round_range(&self, level: u8, phase: u8) -> std::ops::Range<usize> {
        self.rounds.get(&(level, phase)).cloned().unwrap_or(0..0)
    }
}

/// Per-record neighbor-delta batches bound for one rank: `(point ids,
/// matching columns of the `X_R ENᵀ` product)`.
type DeltaBatch<'a, T> = Vec<(&'a [u32], Mat<T>)>;

/// A `KIND_SOLVE_UP` frame: the count of a rank's delta batches, then
/// each batch's ids and columns.
fn encode_deltas<T: Scalar>(entries: &DeltaBatch<'_, T>) -> Bytes {
    let mut w = ByteWriter::new();
    w.put_u64(entries.len() as u64);
    for (ids, rows) in entries {
        put_ids(&mut w, ids);
        w.put_mat(rows);
    }
    w.finish()
}

/// Decode a frame's `nrhs x cols` block of values; any other shape is
/// malformed.
fn try_get_rows<T: Scalar>(
    r: &mut ByteReader,
    (nrhs, cols): (usize, usize),
) -> Result<Mat<T>, CodecError> {
    let at = r.position();
    let rows: Mat<T> = r.try_get_mat()?;
    if (rows.nrows(), rows.ncols()) != (nrhs, cols) {
        return Err(CodecError::Invalid {
            what: "solve frame value block shape",
            at,
        });
    }
    Ok(rows)
}

/// Decode the ids of points of an `n`-point working block; an id past
/// its end is malformed.
fn try_get_points(r: &mut ByteReader, n: usize) -> Result<Vec<u32>, CodecError> {
    let at = r.position();
    let ids = try_get_ids(r)?;
    if ids.iter().any(|&i| i as usize >= n) {
        return Err(CodecError::Invalid {
            what: "solve frame point id",
            at,
        });
    }
    Ok(ids)
}

/// Point ids and their values, as a solve frame carries them.
type Cols<T> = (Vec<u32>, Mat<T>);

/// Decode point ids and their values for the `nrhs x n` working block of
/// `dims`: points of the block, and `nrhs x ids.len()` values.
fn try_get_cols<T: Scalar>(
    r: &mut ByteReader,
    (nrhs, n): (usize, usize),
) -> Result<Cols<T>, CodecError> {
    let ids = try_get_points(r, n)?;
    let rows = try_get_rows(r, (nrhs, ids.len()))?;
    Ok((ids, rows))
}

/// Decode a `KIND_SOLVE_UP` frame ([`encode_deltas`]) for the working
/// block of `dims`.
fn try_get_deltas<T: Scalar>(
    r: &mut ByteReader,
    dims: (usize, usize),
) -> Result<Vec<Cols<T>>, CodecError> {
    (0..r.try_get_u64()?)
        .map(|_| try_get_cols(r, dims))
        .collect()
}

/// The SPMD distributed solve: every rank (rank 0 included) runs this over
/// its full-width working block `x` (`nrhs x n`; only owned and
/// protocol-refreshed points are ever read, so a rank may start from its
/// slab or from the whole right-hand side). On return, rank 0's `x` holds
/// the full solution; worker copies are discarded by the caller. The
/// service runs it once per request.
///
/// Note on working memory: residency keeps the *factor* (record) memory
/// at O(N/p) per rank — the paper's bound — but the per-solve working
/// block is allocated full-width for global point addressing, O(N·nrhs)
/// scratch per rank per solve (freed at solve end; the shape a serial
/// sweep uses). Shrinking it to owned+halo width needs a rank-local remap
/// of every record index — a follow-up, not a correctness issue.
///
/// `rank0_owned` is rank 0's cached per-rank slab row map (None on
/// workers).
///
/// Fallible by design: every receive and barrier is the bounded-timeout
/// variant and every frame decodes through the bounds-checked readers, so
/// a rank that dies (or a link that goes down) mid-solve, and a frame
/// that does not decode, surface here as a typed
/// [`SrsfError::RankFailed`] naming the sender — the caller (rank 0's
/// service, a worker's serve loop) abandons the solve instead of hanging
/// or panicking.
pub(super) fn solve_resident_mat<T: Scalar>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    st: &ServeState<T>,
    x: &mut RhsBlock<T>,
    rank0_owned: Option<&[Vec<u32>]>,
) -> Result<(), SrsfError> {
    let me = ctx.rank();
    let levels: Vec<u8> = (st.lmin..=st.leaf).rev().collect();
    let mut panels = RecordPanels::new();
    let dims = (x.nrhs(), x.n());

    // ---- Upward pass -----------------------------------------------------
    for &level in &levels {
        let _sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve upward level {level}");
        if grid.is_active(me, level) {
            let neighbors = grid.neighbor_ranks(me, level);
            for phase in 0..=4u8 {
                let mut outgoing: HashMap<usize, DeltaBatch<'_, T>> =
                    neighbors.iter().map(|&r| (r, Vec::new())).collect();
                for i in st.round_range(level, phase) {
                    let rec = &st.state.records[i].1;
                    upward_parts(rec, x, &mut panels);
                    // Remote points of the neighbor delta: the exact
                    // columns of the `X_R ENᵀ` product the serial merge
                    // subtracts, routed by the precomputed ownership tables.
                    for (dst, ids, pos) in &st.routing[i] {
                        let rows = frame_of(&panels.n, pos, x.nrhs());
                        outgoing
                            .get_mut(dst)
                            // INVARIANT: outgoing was pre-seeded with every
                            // neighbouring rank before the delta pass
                            .expect("delta for a non-adjacent rank")
                            .push((ids, rows));
                    }
                    merge_upward(rec, x, &panels);
                }
                let t = tag(level, phase, KIND_SOLVE_UP);
                for &dst in &neighbors {
                    let entries = outgoing.remove(&dst).unwrap_or_default();
                    ctx.send(dst, t, encode_deltas(&entries));
                }
                for &src in &neighbors {
                    for (ids, rows) in recv_frame(ctx, src, t, |r| try_get_deltas(r, dims))? {
                        x.scatter_sub(&ids, &rows);
                    }
                }
            }
        }
        ctx.try_barrier()?;
        // Fold value shipment when the next level retires this rank.
        if level > st.lmin {
            fold_up_mat(ctx, grid, st, level, x)?;
        }
    }

    // ---- Top solve: gathered on rank 0, swept along the owner chain -------
    let top_sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve top level {}", st.top_level);
    let active_top = grid.active_ranks(st.top_level);
    if me == 0 {
        for &src in active_top.iter().filter(|&&r| r != 0) {
            let t = tag(st.top_level, 6, KIND_SOLVE_VAL);
            let (ids, rows) = recv_frame(ctx, src, t, |r| try_get_cols(r, dims))?;
            x.scatter(&ids, &rows);
        }
    } else if active_top.contains(&me) {
        let ids = owned_act_ids(&st.state.act_end, st.top_level);
        ctx.send(0, tag(st.top_level, 6, KIND_SOLVE_VAL), cols_frame(x, &ids));
    }
    // An owner takes its turn in the chain before it waits for rank 0's
    // reply: the reply leaves rank 0 only once the panel is back there.
    if let Some(share) = &st.top {
        top_chain_step(ctx, st.top_level, share, x, &mut panels.r)?;
    }
    if me == 0 {
        for (dst, ids) in &st.top_reply {
            ctx.send(
                *dst,
                tag(st.top_level, 7, KIND_SOLVE_VAL),
                cols_frame(x, ids),
            );
        }
    } else if active_top.contains(&me) {
        let t = tag(st.top_level, 7, KIND_SOLVE_VAL);
        let (ids, rows) = recv_frame(ctx, 0, t, |r| try_get_cols(r, dims))?;
        x.scatter(&ids, &rows);
    }
    ctx.try_barrier()?;
    drop(top_sp);

    // ---- Downward pass ----------------------------------------------------
    for &level in levels.iter().rev() {
        let _sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve downward level {level}");
        if level > st.lmin {
            fold_down_mat(ctx, grid, st, level, x)?;
        }
        if grid.is_active(me, level) {
            let neighbors = grid.neighbor_ranks(me, level);
            for phase in (0..=4u8).rev() {
                // Refresh the remote values my phase records read (from
                // the precomputed per-round lists); within a round their
                // owners are write-quiescent, so the values are the
                // serial-sweep values.
                let empty: IdsByRank = Vec::new();
                let need = st.need.get(&(level, phase)).unwrap_or(&empty);
                for &dst in &neighbors {
                    let ids = need
                        .iter()
                        .find(|(d, _)| *d == dst)
                        .map(|(_, ids)| ids.as_slice())
                        .unwrap_or(&[]);
                    let mut w = ByteWriter::new();
                    put_ids(&mut w, ids);
                    ctx.send(dst, tag(level, phase, KIND_SOLVE_REQ), w.finish());
                }
                for &src in &neighbors {
                    let t = tag(level, phase, KIND_SOLVE_REQ);
                    let ids = recv_frame(ctx, src, t, |r| try_get_points(r, dims.1))?;
                    ctx.send(src, tag(level, phase, KIND_SOLVE_VAL), cols_frame(x, &ids));
                }
                for &src in &neighbors {
                    let t = tag(level, phase, KIND_SOLVE_VAL);
                    let (ids, rows) = recv_frame(ctx, src, t, |r| try_get_cols(r, dims))?;
                    x.scatter(&ids, &rows);
                }
                // Apply my records of this round in reverse global order.
                for i in st.round_range(level, phase).rev() {
                    let rec = &st.state.records[i].1;
                    downward_parts(rec, x, &mut panels);
                    merge_downward(rec, x, &panels);
                }
            }
        }
        ctx.try_barrier()?;
    }

    // ---- Solution slab gather on rank 0 (service envelope) ----------------
    let _sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve slab gather");
    if me == 0 {
        // INVARIANT: the driver passes rank 0 its slab row map on entry
        let owned = rank0_owned.expect("rank 0 passes its slab row map");
        for src in 1..grid.p() {
            let shape = (dims.0, owned[src].len());
            let rows = recv_frame(ctx, src, TAG_SERVE_SOL, |r| try_get_rows(r, shape))?;
            x.scatter(&owned[src], &rows);
        }
    } else {
        let mut w = ByteWriter::new();
        w.put_mat(&x.frame(&st.owned_leaf_ids));
        ctx.send_service(0, TAG_SERVE_SOL, w.finish());
    }
    Ok(())
}

/// One owner's turn in the top solve. The panel — right-hand sides in
/// rows, the top block's columns from this owner's first to the last —
/// arrives from the previous owner (on the head of the chain: is
/// gathered from the block), takes the forward sweep of the block columns
/// held, goes on to the next owner without the columns just finished and
/// comes back with everything after them final, takes the backward
/// sweep, and returns to the previous owner (on the head: to the block).
/// The last owner turns the panel round. Frames carry exactly `nrhs`
/// rows; each owner pads them back to the tile height the head gathered
/// at, so every kernel call sees the operands of the one-owner sweep.
fn top_chain_step<T: Scalar>(
    ctx: &mut RankCtx,
    top_level: u8,
    share: &TopShare<T>,
    x: &mut RhsBlock<T>,
    panel: &mut Mat<T>,
) -> Result<(), SrsfError> {
    let span = share.cols.col_span();
    let width = share.cols.dim() - span.start;
    let (fwd, bwd) = (
        tag(top_level, 6, KIND_SOLVE_UP),
        tag(top_level, 7, KIND_SOLVE_UP),
    );
    // Panel columns by position: all of them, and those past the range.
    let all: Vec<u32> = (0..width as u32).collect();
    let rest = &all[span.len()..];
    match share.prev {
        None => x.gather(&share.idx, panel),
        Some(prev) => {
            let rows = recv_frame(ctx, prev, fwd, |r| try_get_rows(r, (x.nrhs(), width)))?;
            rows.gather_cols_into(&all, panel_rows::<T>(x.nrhs()), panel);
        }
    }
    {
        let _sp = srsf_trace::span!(
            srsf_trace::Cat::Solve,
            "top forward cols {}..{}",
            span.start,
            span.end
        );
        share.cols.forward_cols(panel);
    }
    if let Some(next) = share.next {
        let mut w = ByteWriter::new();
        w.put_mat(&frame_of(panel, rest, x.nrhs()));
        ctx.send(next, fwd, w.finish());
        let shape = (x.nrhs(), rest.len());
        let rows = recv_frame(ctx, next, bwd, |r| try_get_rows(r, shape))?;
        for (&j, k) in rest.iter().zip(0..) {
            panel.col_mut(j as usize)[..rows.nrows()].copy_from_slice(rows.col(k));
        }
    }
    {
        let _sp = srsf_trace::span!(
            srsf_trace::Cat::Solve,
            "top backward cols {}..{}",
            span.start,
            span.end
        );
        share.cols.backward_cols(panel);
    }
    match share.prev {
        None => x.scatter(&share.idx, panel),
        Some(prev) => {
            let mut w = ByteWriter::new();
            w.put_mat(&frame_of(panel, &all, x.nrhs()));
            ctx.send(prev, bwd, w.finish());
        }
    }
    Ok(())
}

/// The ids `ids` of the block `x` with their values, as a solve frame
/// carries them.
fn cols_frame<T: Scalar>(x: &RhsBlock<T>, ids: &[u32]) -> Bytes {
    let mut w = ByteWriter::new();
    put_ids(&mut w, ids);
    w.put_mat(&x.frame(ids));
    w.finish()
}

/// Upward fold: retiring ranks ship their surviving rows to the corner.
fn fold_up_mat<T: Scalar>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    st: &ServeState<T>,
    child_level: u8,
    x: &mut RhsBlock<T>,
) -> Result<(), SrsfError> {
    let t = tag(child_level, 5, KIND_SOLVE_VAL);
    match Fold::of(grid, ctx.rank(), child_level) {
        Some(Fold::Member { corner }) => {
            let ids = owned_act_ids(&st.state.act_end, child_level);
            ctx.send(corner, t, cols_frame(x, &ids));
        }
        Some(Fold::Corner { members }) => {
            let dims = (x.nrhs(), x.n());
            for member in members {
                let (ids, rows) = recv_frame(ctx, member, t, |r| try_get_cols(r, dims))?;
                x.scatter(&ids, &rows);
            }
        }
        None => {}
    }
    Ok(())
}

/// Downward un-fold: corners return the surviving rows to the members
/// they absorbed.
fn fold_down_mat<T: Scalar>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    st: &ServeState<T>,
    child_level: u8,
    x: &mut RhsBlock<T>,
) -> Result<(), SrsfError> {
    let t = tag(child_level, 6, KIND_SOLVE_VAL);
    match Fold::of(grid, ctx.rank(), child_level) {
        Some(Fold::Member { corner }) => {
            let dims = (x.nrhs(), x.n());
            let (ids, rows) = recv_frame(ctx, corner, t, |r| try_get_cols(r, dims))?;
            debug_assert_eq!(ids, owned_act_ids(&st.state.act_end, child_level));
            x.scatter(&ids, &rows);
        }
        Some(Fold::Corner { members }) => {
            for member in members {
                let ids = st.state.fold_ids.get(&(child_level, member));
                ctx.send(member, t, cols_frame(x, ids.map_or(&[], Vec::as_slice)));
            }
        }
        None => {}
    }
    Ok(())
}

/// What a worker reports to rank 0 as it enters its serve loop: its
/// record count, its resident bytes, its factor statistics and the
/// counters of its factor phase. It travels as `Result<Ready, E>`, `E`
/// saying why the rank has nothing to serve: a [`FactorError`] after a
/// build (`TAG_SERVE_READY`), a message after a snapshot load
/// (`TAG_SERVE_CKPT`).
struct Ready {
    records: usize,
    bytes: usize,
    stats: FactorStats,
    comm: CommStats,
}

impl Wire for Ready {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.records as u64);
        w.put_u64(self.bytes as u64);
        self.stats.encode(w);
        self.comm.encode(w);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(Ready {
            records: r.try_get_u64()? as usize,
            bytes: r.try_get_u64()? as usize,
            stats: FactorStats::decode(r)?,
            comm: CommStats::decode(r)?,
        })
    }
}

/// A worker rank: report the outcome of its build or restore to rank 0
/// under `tag`, then — if it has something to serve — answer commands
/// until a shutdown command, or until the session is torn down around us
/// (rank 0's handle dropped), which the idle wait reports as `None` and
/// we treat as an implicit shutdown.
fn serve_rank<T: Scalar, E: Wire>(
    ctx: &mut RankCtx,
    geo: &ResidentGeo,
    tag: u32,
    outcome: Result<ServeState<T>, E>,
    comm: CommStats,
) {
    debug_assert_ne!(
        ctx.rank(),
        0,
        "rank 0 is the service side, not a serve loop"
    );
    let (ready, st) = match outcome {
        Ok(st) => {
            let ready = Ready {
                records: st.state.records.len(),
                bytes: st.bytes as usize,
                stats: st.state.stats.clone(),
                comm,
            };
            (Ok(ready), Some(st))
        }
        Err(e) => (Err(e), None),
    };
    ctx.send_service(0, tag, Result::<Ready, E>::to_bytes(&ready));
    if let Some(st) = st {
        serve_loop(ctx, geo, &st);
    }
}

/// The shared worker command loop, entered once a rank's serve state
/// exists (freshly factorized or restored from a snapshot). A typed
/// failure — a peer died or a link went down during a solve, or a frame
/// did not decode — makes the worker log it and leave the loop (graceful
/// degradation): the rank exits cleanly, rank 0 observes the same
/// failure on its side of the protocol, and nothing hangs.
fn serve_loop<T: Scalar>(ctx: &mut RankCtx, geo: &ResidentGeo, st: &ServeState<T>) {
    let me = ctx.rank();
    while let Some(cmd) = ctx.recv_service_idle(0, TAG_SERVE_CMD) {
        match serve_command(ctx, geo, st, cmd) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                eprintln!("srsf-core: rank {me} abandoning resident serve: {e}");
                break;
            }
        }
    }
}

/// Carry out one command of rank 0's; `false` on shutdown.
fn serve_command<T: Scalar>(
    ctx: &mut RankCtx,
    geo: &ResidentGeo,
    st: &ServeState<T>,
    cmd: Bytes,
) -> Result<bool, SrsfError> {
    let me = ctx.rank();
    let (op, nrhs) = decode_frame(cmd, 0, TAG_SERVE_CMD, |r| {
        let at = r.position();
        match r.try_get_u64()? {
            CMD_SOLVE => Ok((CMD_SOLVE, r.try_get_u64()? as usize)),
            op @ (CMD_SHUTDOWN | CMD_PROBE | CMD_TRACE | CMD_GATHER) => Ok((op, 0)),
            _ => Err(CodecError::Invalid {
                what: "serve opcode",
                at,
            }),
        }
    })?;
    match op {
        CMD_SHUTDOWN => return Ok(false),
        CMD_SOLVE => {
            let shape = (nrhs, st.owned_leaf_ids.len());
            let slab = recv_frame(ctx, 0, TAG_SERVE_RHS, |r| try_get_rows(r, shape))?;
            let mut x = RhsBlock::zeros(nrhs, geo.n);
            x.scatter(&st.owned_leaf_ids, &slab);
            solve_resident_mat(ctx, &geo.grid, st, &mut x, None)?;
        }
        CMD_PROBE => {
            let mut w = ByteWriter::new();
            ctx.stats().encode(&mut w);
            ctx.send_service(0, TAG_SERVE_STATS, w.finish());
        }
        CMD_TRACE => {
            let mut w = ByteWriter::new();
            srsf_trace::take_report(me).encode(&mut w);
            ctx.send_service(0, TAG_SERVE_TRACE, w.finish());
        }
        // `CMD_GATHER`, the one opcode the decode leaves.
        _ => {
            ctx.send_service(
                0,
                TAG_SERVE_GATHER,
                encode_rank_snapshot(&st.state, &st.top),
            );
        }
    }
    Ok(true)
}

/// Rank 0's end of the resident world: the live handle, until shutdown,
/// and the rank failure that poisoned it, if any.
struct Session {
    /// `None` once the session has been shut down.
    handle: Option<WorldHandle>,
    /// Set when a call observed a rank failure: the world is
    /// desynchronized, so every later call fails fast with the same
    /// error instead of timing out again. Shutdown/Drop still work.
    poisoned: Option<SrsfError>,
}

impl Session {
    /// The live world, or why there is none: the failure that poisoned
    /// the session, or its shutdown.
    fn live(&mut self) -> Result<&mut WorldHandle, SrsfError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        self.handle.as_mut().ok_or(SrsfError::ServiceShutDown)
    }

    /// Record a rank failure and hand it back.
    fn poison(&mut self, e: impl Into<SrsfError>) -> SrsfError {
        let e = e.into();
        self.poisoned = Some(e.clone());
        e
    }

    /// One command round: broadcast `cmd` and collect every worker's
    /// reply under `tag`, decoded with `decode`. A worker that is lost,
    /// late or replies with a frame that does not decode poisons the
    /// session.
    fn round<V>(
        &mut self,
        cmd: &[u64],
        tag: u32,
        decode: impl Fn(&mut ByteReader) -> Result<V, CodecError>,
    ) -> Result<Vec<V>, SrsfError> {
        let handle = self.live()?;
        broadcast(handle, cmd);
        collect(handle, tag, decode).map_err(|e| self.poison(e))
    }

    /// Shut the session down, taking its handle; `None` if it already
    /// was. A poisoned world goes through [`reap_session`]: the
    /// cooperative join would re-raise a crashed worker's panic out of
    /// [`WorldHandle::finish`], and the failure already surfaced to the
    /// caller as the typed error, so shutdown and Drop of a degraded
    /// world stay clean.
    fn shutdown(&mut self) -> Option<WorldStats> {
        let handle = self.handle.take()?;
        Some(match self.poisoned {
            Some(_) => reap_session(handle),
            None => shutdown_session(handle),
        })
    }
}

/// Send the command `cmd` (opcode first, then its arguments) to every
/// worker still running its serve loop.
fn broadcast(handle: &mut WorldHandle, cmd: &[u64]) {
    for dst in 1..handle.size() {
        if handle.worker_live(dst) {
            let mut w = ByteWriter::new();
            cmd.iter().for_each(|&word| w.put_u64(word));
            handle.ctx().send_service(dst, TAG_SERVE_CMD, w.finish());
        }
    }
}

/// Every worker's reply under `tag`, in rank order, each decoded with
/// `decode` (see [`recv_frame`]).
fn collect<V>(
    handle: &mut WorldHandle,
    tag: u32,
    decode: impl Fn(&mut ByteReader) -> Result<V, CodecError>,
) -> Result<Vec<V>, FactorError> {
    (1..handle.size())
        .map(|src| recv_frame(handle.ctx(), src, tag, &decode))
        .collect()
}

struct ServiceInner<T> {
    session: Session,
    st: ServeState<T>,
    geo: Arc<ResidentGeo>,
    /// Per-rank slab row maps, cached for the scatter/gather envelope.
    owned: Vec<Vec<u32>>,
}

/// A live resident solve service: the distributed factorization left in
/// place on its rank world, served through rank 0. What
/// [`crate::Solver`] holds for [`crate::Driver::Distributed`].
pub struct ResidentService<T> {
    inner: Mutex<ServiceInner<T>>,
    n: usize,
    p: usize,
    stats: FactorStats,
    comm: WorldStats,
    per_rank_records: Vec<usize>,
    per_rank_bytes: Vec<usize>,
    /// Whether the ranks record spans (the build's
    /// [`FactorOpts::trace`]); restored services never do.
    traced: bool,
    /// The session's serve-metrics registry, shared with its
    /// [`WorldHandle`] — kept here so snapshots outlive shutdown.
    metrics: Arc<MetricsRegistry>,
}

impl<T: Scalar> ResidentService<T> {
    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Size of the dense top block.
    pub fn top_size(&self) -> usize {
        self.stats.top_size
    }

    /// Merged factorization statistics (global rank table; rank-0
    /// timings).
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Per-rank communication counters of the factorization phase.
    pub fn comm(&self) -> &WorldStats {
        &self.comm
    }

    /// Elimination records resident on each rank. Rank 0's entry stays at
    /// its own share — the global record set is never assembled.
    pub fn records_per_rank(&self) -> &[usize] {
        &self.per_rank_records
    }

    /// Resident factor bytes held by each rank: its records plus its
    /// block columns of the top factorization.
    pub fn bytes_per_rank(&self) -> &[usize] {
        &self.per_rank_bytes
    }

    /// Snapshot the serve metrics: per-solve latency histogram,
    /// served/failed counters, per-rank resident-memory gauges. Works
    /// after shutdown too (the registry outlives the session).
    pub fn metrics(&self) -> srsf_runtime::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Drain every rank's span buffers (`srsf-trace` ring buffers) into
    /// per-rank reports, rank order. Broadcasts the trace command to the
    /// workers and collects their `TAG_SERVE_TRACE` replies — uncounted
    /// service frames, so the probe never perturbs the §IV counters.
    /// Empty, with no round trip, when the build was not traced; only
    /// rank 0's report when the service is poisoned or already shut down
    /// (the workers may be gone), or when a worker fails to reply, which
    /// poisons the service as a failed solve does.
    pub fn trace_reports(&self) -> Vec<TraceReport> {
        if !self.traced {
            return Vec::new();
        }
        // INVARIANT: lock poisoning requires a panicked driver call, which
        // already surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        let mut reports = vec![srsf_trace::take_report(0)];
        if let Ok(workers) = inner
            .session
            .round(&[CMD_TRACE], TAG_SERVE_TRACE, TraceReport::decode)
        {
            reports.extend(workers);
        }
        reports
    }

    /// Assemble the factorization as one local object on rank 0: every
    /// worker replies to a gather command with its snapshot (the
    /// checkpoint codec) on an uncounted `TAG_SERVE_GATHER` frame, so the
    /// §IV counters do not move; rank 0 sorts the records into
    /// elimination order and re-joins the top's block columns in chain
    /// order ([`srsf_linalg::Ldlt::append`]). Its solves are the
    /// service's, bit for bit; the ranks keep their state and the service
    /// serves on.
    ///
    /// A poisoned service returns its failure and a shut-down one
    /// [`SrsfError::ServiceShutDown`]; a rank that dies mid-gather
    /// poisons the service as a failed solve does.
    pub fn gather(&self) -> Result<Factorization<T>, SrsfError> {
        // INVARIANT: lock poisoning requires a panicked driver call, which
        // already surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        let workers =
            inner
                .session
                .round(&[CMD_GATHER], TAG_SERVE_GATHER, decode_rank_snapshot::<T>)?;
        let own = encode_rank_snapshot(&inner.st.state, &inner.st.top);
        let own = decode_frame(own, 0, TAG_SERVE_GATHER, decode_rank_snapshot::<T>)?;
        let (mut records, mut shares) = (Vec::new(), Vec::new());
        for (state, top) in std::iter::once(own).chain(workers) {
            records.extend(state.records);
            shares.extend(top);
        }
        records.sort_by_key(|(key, _)| *key);
        // Chain order is column order; rank 0, the head, sorts first.
        shares.sort_by_key(|share| share.cols.col_span().start);
        let broken = || SrsfError::RankFailed {
            rank: 0,
            step: "GATHER: the top's block columns do not join up".to_string(),
        };
        let mut shares = shares.into_iter();
        let Some(TopShare { idx, mut cols, .. }) = shares.next() else {
            return Err(broken());
        };
        for share in shares {
            match (&mut cols, share.cols) {
                (TopFactor::Symmetric(head), TopFactor::Symmetric(tail))
                    if head.cols().end == tail.cols().start =>
                {
                    head.append(tail)
                }
                _ => return Err(broken()),
            }
        }
        if !cols.is_whole() {
            return Err(broken());
        }
        let records = records.into_iter().map(|(_, rec)| rec).collect();
        Ok(Factorization::from_parts(
            self.n,
            records,
            idx,
            cols,
            self.stats.clone(),
        ))
    }

    /// Solve `A X = B` on the resident world: scatter B's rows by leaf
    /// ownership (as columns of the RHS-major block each rank sweeps), run
    /// the distributed blocked solve in place, gather the solution rows.
    /// Bit-identical to [`Factorization::solve_mat`] of
    /// [`ResidentService::gather`].
    ///
    /// A rank that dies (or a link that goes down) mid-solve surfaces as
    /// [`SrsfError::RankFailed`] within the receive timeout — no hang,
    /// no abort — and the service is poisoned: the world is
    /// desynchronized, so every later solve returns the same error
    /// immediately. Shutdown and Drop still reap the surviving workers.
    /// A shut-down service returns [`SrsfError::ServiceShutDown`].
    ///
    /// A block of the wrong height is [`SrsfError::RhsLength`]; nothing
    /// has been sent by then, so the service stays usable.
    pub fn try_solve_mat(&self, b: &Mat<T>) -> Result<Mat<T>, SrsfError> {
        if b.nrows() != self.n {
            return Err(SrsfError::RhsLength {
                expected: self.n,
                got: b.nrows(),
            });
        }
        // INVARIANT: lock poisoning requires a panicked driver call, which
        // already surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        let handle = inner.session.live()?;
        // Per-solve latency covers the whole round trip rank 0 sees: the
        // RHS scatter envelope, the SPMD sweep, the solution gather.
        let t_solve = std::time::Instant::now();
        let mut x = RhsBlock::from_cols(b);
        broadcast(handle, &[CMD_SOLVE, b.ncols() as u64]);
        for dst in 1..self.p {
            let mut w = ByteWriter::new();
            w.put_mat(&x.frame(&inner.owned[dst]));
            handle.ctx().send_service(dst, TAG_SERVE_RHS, w.finish());
        }
        if let Err(e) = solve_resident_mat(
            handle.ctx(),
            &inner.geo.grid,
            &inner.st,
            &mut x,
            Some(&inner.owned),
        ) {
            self.metrics
                .observe_solve(t_solve.elapsed().as_nanos() as u64, false);
            return Err(inner.session.poison(e));
        }
        self.metrics
            .observe_solve(t_solve.elapsed().as_nanos() as u64, true);
        Ok(x.into_cols())
    }

    /// Solve `A x = b` (single right-hand side) on the resident world:
    /// the one-column case of [`ResidentService::try_solve_mat`].
    pub fn try_solve(&self, b: &[T]) -> Result<Vec<T>, SrsfError> {
        let m = Mat::from_vec(b.len(), 1, b.to_vec());
        Ok(self.try_solve_mat(&m)?.as_slice().to_vec())
    }

    /// Snapshot every rank's cumulative communication counters (the
    /// probe itself moves as uncounted service frames). Two snapshots
    /// bracketing `k` solves yield exact per-solve counters:
    /// `comm_counts --solve-reps` uses this to measure the §IV solve
    /// bound. `None` when the service is poisoned or shut down, or when a
    /// worker fails to reply, which poisons it as a failed solve does.
    pub fn comm_probe(&self) -> Option<WorldStats> {
        // INVARIANT: poisoning requires a panicked driver call, which already
        // surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        let mine = inner.session.live().ok()?.ctx().stats();
        let workers = inner
            .session
            .round(&[CMD_PROBE], TAG_SERVE_STATS, CommStats::decode)
            .ok()?;
        Some(WorldStats {
            per_rank: std::iter::once(mine).chain(workers).collect(),
        })
    }

    /// Broadcast the shutdown command and join the workers; returns the
    /// session's final per-rank counters. Idempotent: `None` if the
    /// service was already shut down.
    pub fn shutdown(&self) -> Option<WorldStats> {
        // INVARIANT: poisoning requires a panicked driver call, which already
        // surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        inner.session.shutdown()
    }
}

/// The tag-based shutdown round: broadcast the shutdown command to every
/// still-live worker, then join them through the handle. Scalar-
/// independent — shared by the service's explicit shutdown, its Drop,
/// and the build-failure path.
fn shutdown_session(mut handle: WorldHandle) -> WorldStats {
    broadcast(&mut handle, &[CMD_SHUTDOWN]);
    handle.finish()
}

/// The shutdown round of a world known to have lost a rank: the quiet
/// [`WorldHandle::reap`] swallows the lost worker instead of re-raising
/// its end, which the caller already has as the typed error.
fn reap_session(mut handle: WorldHandle) -> WorldStats {
    broadcast(&mut handle, &[CMD_SHUTDOWN]);
    handle.reap()
}

impl<T> Drop for ResidentService<T> {
    fn drop(&mut self) {
        // During an unwind the workers may be desynchronized mid-protocol;
        // skip the cooperative round — the handle's own drop tears the
        // session down (flag/EOF) without blocking.
        if std::thread::panicking() {
            return;
        }
        if let Ok(inner) = self.inner.get_mut() {
            let _ = inner.session.shutdown();
        }
    }
}

/// Build the resident service: run the distributed factorization on a
/// persistent rank world, leave every rank's records in place, and hand
/// back the live service ([`start_service`]).
pub(crate) fn dist_factorize_resident<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    grid: &ProcessGrid,
    opts: &FactorOpts,
) -> Result<ResidentService<K::Elem>, SrsfError> {
    let leaf = tree.leaf_level();
    let lmin = (opts.min_compress_level as u8).min(leaf);
    let geo = Arc::new(ResidentGeo {
        n: pts.len(),
        grid: *grid,
    });
    let world = World::new(grid.p())
        .transport(opts.transport)
        .with_recv_timeout(opts.recv_timeout);

    type FactorOut<T> = (Result<ServeState<T>, FactorError>, CommStats);
    let factor = |ctx: &mut RankCtx| -> FactorOut<K::Elem> {
        // Every rank stores the flag (on the TCP backend each rank is its
        // own process); storing `false` keeps untraced runs self-cleaning.
        srsf_trace::set_enabled(opts.trace);
        let me = ctx.rank();
        let out = factor_phase(ctx, kernel, pts, tree, grid, opts);
        // The factor-phase counters are Algorithm 2's; dealing the top out
        // is the service's own one-off traffic and shows in the cumulative
        // counters (`comm_probe`).
        let factor_comm = ctx.stats();
        let out = scatter_top(ctx, grid, lmin.min(leaf), out).map(|(state, top)| {
            write_rank_checkpoint(me, &state, &top, pts, grid, opts);
            ServeState::from_rank_state(state, top, tree, pts, grid, leaf, lmin, me)
        });
        (out, factor_comm)
    };
    let serve_geo = geo.clone();
    let serve = move |ctx: &mut RankCtx, (out, comm): FactorOut<K::Elem>| {
        serve_rank(ctx, &serve_geo, TAG_SERVE_READY, out, comm);
    };
    let (mine, handle) = world.run_resident(factor, serve);
    start_service(
        handle,
        TAG_SERVE_READY,
        mine,
        |_, e: FactorError| e.into(),
        geo,
        tree,
        opts.trace,
    )
}

/// Rank 0's side of a world coming up, after a build or a restore:
/// collect every worker's [`Ready`] report under `tag`, merge the rank
/// table, store peak and compression counters into rank 0's stats
/// (timings stay rank 0's), and hand back the serving service. A rank
/// that failed its build or load is `fail(rank, why)` — a worker's
/// failure reported before rank 0's own; a worker that is lost or late
/// before reporting, or whose report does not decode, is
/// [`SrsfError::RankFailed`], and the world, which lost that worker, is
/// reaped rather than joined. Either way the ranks that did reach their
/// serve loops get their shutdown round first.
fn start_service<T: Scalar, E: Wire>(
    mut handle: WorldHandle,
    tag: u32,
    (mine, my_comm): (Result<ServeState<T>, E>, CommStats),
    fail: impl Fn(usize, E) -> SrsfError,
    geo: Arc<ResidentGeo>,
    tree: &QuadTree,
    traced: bool,
) -> Result<ResidentService<T>, SrsfError> {
    let p = geo.grid.p();
    let outcomes = match collect(&mut handle, tag, Result::<Ready, E>::decode) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            let _ = reap_session(handle);
            return Err(e.into());
        }
    };
    let mut reports = Vec::with_capacity(p - 1);
    let mut first_err = None;
    for (src, outcome) in (1..p).zip(outcomes) {
        match outcome {
            Ok(ready) => reports.push(ready),
            Err(e) => {
                first_err.get_or_insert(fail(src, e));
            }
        }
    }
    let st = match (first_err, mine.map_err(|e| fail(0, e))) {
        (None, Ok(st)) => st,
        (Some(e), _) | (None, Err(e)) => {
            let _ = shutdown_session(handle);
            return Err(e);
        }
    };

    let mut stats = st.state.stats.clone();
    let mut per_rank_records = vec![st.state.records.len()];
    let mut per_rank_bytes = vec![st.bytes as usize];
    let mut comm = WorldStats {
        per_rank: vec![my_comm],
    };
    for r in reports {
        per_rank_records.push(r.records);
        per_rank_bytes.push(r.bytes);
        comm.per_rank.push(r.comm);
        for (&level, &(count, sum)) in &r.stats.ranks {
            let e = stats.ranks.entry(level).or_insert((0, 0));
            e.0 += count;
            e.1 += sum;
        }
        stats.peak_store_bytes = stats.peak_store_bytes.max(r.stats.peak_store_bytes);
        stats.compression.absorb(&r.stats.compression);
    }
    stats.top_size = st.top.as_ref().map_or(0, |share| share.idx.len());
    stats.record_bytes = per_rank_bytes.iter().sum();

    let owned = (0..p).map(|r| owned_leaf_ids(tree, &geo.grid, r)).collect();
    let metrics = handle.metrics();
    metrics.set_resident_bytes(&per_rank_bytes);
    Ok(ResidentService {
        n: geo.n,
        p,
        stats,
        comm,
        per_rank_records,
        per_rank_bytes,
        traced,
        metrics,
        inner: Mutex::new(ServiceInner {
            session: Session {
                handle: Some(handle),
                poisoned: None,
            },
            st,
            geo,
            owned,
        }),
    })
}

/// Rebuild a resident service from the per-rank snapshots a prior
/// factorization wrote under [`FactorOpts::checkpoint_dir`](crate::FactorOpts):
/// validate the manifest against the caller's point set (scalar type,
/// size, geometry hash), spin up a fresh rank world on `transport`, have
/// every rank load + CRC-check + decode its own `rank_{r}.ckpt`, rebuild
/// the routing from the replicated geometry, and leave the world
/// serving. No kernel evaluations, no re-factorization; restored solves
/// are bit-identical to the original service's.
pub(crate) fn restore_resident_service<T: Scalar>(
    pts: &[Point],
    dir: &Path,
    transport: Transport,
) -> Result<(ResidentService<T>, ProcessGrid), SrsfError> {
    use crate::wire::{geometry_hash, rank_ckpt_name, read_container, read_manifest, scalar_tag};
    let manifest = read_manifest(dir)?;
    let reject = |reason: String| -> SrsfError {
        SrsfError::Checkpoint {
            path: dir.display().to_string(),
            reason,
        }
    };
    if manifest.scalar != scalar_tag::<T>() {
        return Err(reject(format!(
            "scalar type mismatch (snapshot tag {}, caller tag {})",
            manifest.scalar,
            scalar_tag::<T>()
        )));
    }
    if manifest.n != pts.len() {
        return Err(reject(format!(
            "point count mismatch (snapshot {}, caller {})",
            manifest.n,
            pts.len()
        )));
    }
    if manifest.geom_hash != geometry_hash(pts) {
        return Err(reject(
            "geometry hash mismatch: restore needs the exact point set that was factorized"
                .to_string(),
        ));
    }
    let grid = ProcessGrid::try_new(manifest.p)
        .ok_or_else(|| reject(format!("rank count {} is not a power of four", manifest.p)))?;
    let tree = QuadTree::build(pts, domain_for(pts), manifest.leaf_size);
    let leaf = tree.leaf_level();
    let lmin = (manifest.min_compress_level as u8).min(leaf);
    let geo = Arc::new(ResidentGeo { n: pts.len(), grid });
    let world = World::new(grid.p()).transport(transport);

    let factor = |ctx: &mut RankCtx| -> Result<ServeState<T>, String> {
        let me = ctx.rank();
        let path = dir.join(rank_ckpt_name(me));
        let payload = read_container(&path, scalar_tag::<T>()).map_err(|e| e.to_string())?;
        let (state, top) = decode_rank_snapshot::<T>(&mut ByteReader::new(payload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // A chain link is a rank of this world other than the holder.
        let links = top.iter().flat_map(|share| [share.prev, share.next]);
        if links.flatten().any(|r| r >= grid.p() || r == me) {
            return Err(format!(
                "{}: top share links outside the world",
                path.display()
            ));
        }
        Ok(ServeState::from_rank_state(
            state, top, &tree, pts, &grid, leaf, lmin, me,
        ))
    };
    // The restored session's counters start at zero: factorization
    // traffic happened in the original session, not this one.
    let serve_geo = geo.clone();
    let serve = move |ctx: &mut RankCtx, s: Result<ServeState<T>, String>| {
        serve_rank(ctx, &serve_geo, TAG_SERVE_CKPT, s, CommStats::default());
    };
    let (mine, handle) = world.run_resident(factor, serve);
    let svc = start_service(
        handle,
        TAG_SERVE_CKPT,
        (mine, CommStats::default()),
        |src, msg: String| reject(format!("rank {src}: {msg}")),
        geo,
        &tree,
        false,
    )?;
    Ok((svc, grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::factorize_in_rounds;
    use srsf_geometry::grid::UnitGrid;
    use srsf_kernels::helmholtz::HelmholtzKernel;
    use srsf_kernels::util::random_vector;
    use srsf_linalg::c64;
    use srsf_runtime::tags::KIND_SOLVE_UP;

    /// A `KIND_SOLVE_UP` frame — two records' neighbor deltas from the
    /// upward pass of a real factorization — decodes whole to what was
    /// sent and, cut at every length, is the sending rank's typed
    /// failure naming the step, never a panic.
    #[test]
    fn truncated_solve_up_frame_is_a_typed_failure() {
        let grid = UnitGrid::new(16);
        let kernel = HelmholtzKernel::new(&grid, 6.0);
        let pts = grid.points();
        let opts = FactorOpts::default().with_leaf_size(16);
        let tree = QuadTree::build(&pts, domain_for(&pts), opts.leaf_size);
        let f = factorize_in_rounds(&kernel, &pts, &tree, &opts, 1).expect("factor");
        let nrhs = 3;
        let b = Mat::from_fn(grid.n(), nrhs, |i, j| {
            random_vector::<c64>(grid.n(), 7 + j as u64)[i]
        });
        let x = RhsBlock::from_cols(&b);
        let mut panels = RecordPanels::new();
        let mut deltas = Vec::new();
        for rec in &f.records[..2] {
            upward_parts(rec, &x, &mut panels);
            let pos: Vec<u32> = (0..rec.nbr.len() as u32).step_by(2).collect();
            let ids: Vec<u32> = pos.iter().map(|&k| rec.nbr[k as usize]).collect();
            deltas.push((ids, frame_of(&panels.n, &pos, nrhs)));
        }
        assert!(
            deltas.iter().all(|(ids, _)| !ids.is_empty()),
            "records with neighbors"
        );
        let entries: DeltaBatch<'_, c64> = deltas
            .iter()
            .map(|(ids, rows)| (ids.as_slice(), rows.clone()))
            .collect();
        let frame = encode_deltas(&entries);
        let (t, dims) = (tag(2, 3, KIND_SOLVE_UP), (nrhs, grid.n()));
        let back = decode_frame(frame.clone(), 1, t, |r| try_get_deltas::<c64>(r, dims));
        assert!(back.expect("whole frame") == deltas);
        for len in 0..frame.len() {
            let Err(err) = decode_frame(frame[..len].to_vec(), 1, t, |r| {
                try_get_deltas::<c64>(r, dims)
            }) else {
                panic!("{len} bytes: a truncated frame must not decode");
            };
            match SrsfError::from(err) {
                SrsfError::RankFailed { rank: 1, step } => {
                    assert!(step.contains("SOLVE_UP"), "{len} bytes: {step}")
                }
                other => panic!("{len} bytes: expected RankFailed, got {other:?}"),
            }
        }
    }

    /// A READY frame cut short anywhere is the sending rank's typed
    /// failure, naming the frame — never a panic on rank 0.
    #[test]
    fn truncated_ready_frame_is_a_typed_failure() {
        let ready: Result<Ready, FactorError> = Ok(Ready {
            records: 12,
            bytes: 3456,
            stats: FactorStats::new(1024, 3),
            comm: CommStats::default(),
        });
        let frame = ready.to_bytes();
        let decode = Result::<Ready, FactorError>::decode;
        let back = decode_frame(frame.clone(), 2, TAG_SERVE_READY, decode).expect("whole frame");
        assert!(matches!(
            back,
            Ok(Ready {
                records: 12,
                bytes: 3456,
                ..
            })
        ));
        for cut in [0, 8, frame.len() / 2, frame.len() - 1] {
            match decode_frame(frame[..cut].to_vec(), 2, TAG_SERVE_READY, decode)
                .map_err(SrsfError::from)
            {
                Err(SrsfError::RankFailed { rank: 2, step }) => assert!(
                    step.starts_with(
                        "resident serve READY (factorization outcome): malformed frame: "
                    ),
                    "{step}"
                ),
                other => panic!("cut {cut}: expected RankFailed, got {:?}", other.err()),
            }
        }
    }
}
