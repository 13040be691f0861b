//! Algorithm 2: the distributed-memory parallel factorization and the
//! rank world that serves solves from it.
//!
//! Leaf boxes are block-partitioned over a `q x q` process grid (Figure
//! 4) and factored level by level with interior/boundary phases and four
//! process-color rounds — see [`factorize`] for the phase structure and
//! the communication pattern. The rank world then *stays alive*
//! ([`serve`]): records remain on the ranks that produced them, the dense
//! top factorization is spread by block columns over the ranks active at
//! the top level, rank 0 keeps the routing metadata, and repeated
//! `solve`/`solve_mat` calls run Algorithm 2's upward/downward passes in
//! place over a request/response command loop
//! (`srsf_runtime::world::WorldHandle`). This is the paper's deployment:
//! O(N/p) factor memory per rank and O(sqrt(N/p)) words moved per rank
//! per solve, amortized over many right-hand sides. A caller that wants
//! the factorization as one local object asks the world for it
//! ([`crate::Solver::gather`]); nothing else ever assembles it.
//!
//! The world runs on either runtime backend — ranks as threads
//! ([`Transport::InProc`](srsf_runtime::Transport)) or as real OS
//! processes over TCP sockets
//! ([`Transport::Tcp`](srsf_runtime::Transport)) — and is
//! backend-agnostic: the same code, solutions, and counters either way.
//!
//! This module holds the pieces the two halves share: the geometry of
//! rank regions, point ownership, the global elimination-order key, the
//! per-rank factorization state, and the one receive ([`recv_frame`])
//! every frame of the build and of the serve loop arrives through.

mod factorize;
mod serve;

pub use serve::ResidentService;
pub(crate) use serve::{dist_factorize_resident, restore_resident_service};

use crate::elimination::{BoxElimination, FactorError};
use crate::stats::FactorStats;
use crate::top::TopFactor;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_runtime::codec::{ByteReader, CodecError};
use srsf_runtime::tags::describe;
use srsf_runtime::world::RankCtx;
use std::collections::HashMap;

/// Receive the frame from `src` under tag `t` and decode it with
/// `decode`. A peer that is lost or late and a frame that does not
/// decode are all [`FactorError::RankFailed`], naming the sender and the
/// step.
pub(crate) fn recv_frame<V>(
    ctx: &mut RankCtx,
    src: usize,
    t: u32,
    decode: impl FnOnce(&mut ByteReader) -> Result<V, CodecError>,
) -> Result<V, FactorError> {
    decode_frame(ctx.try_recv(src, t)?, src, t, decode)
}

/// Decode a whole frame from `src` received under tag `t` with `decode`;
/// a frame that does not decode is [`FactorError::RankFailed`] naming the
/// sender and the step.
pub(crate) fn decode_frame<V>(
    payload: Vec<u8>,
    src: usize,
    t: u32,
    decode: impl FnOnce(&mut ByteReader) -> Result<V, CodecError>,
) -> Result<V, FactorError> {
    decode(&mut ByteReader::new(payload)).map_err(|e| FactorError::RankFailed {
        rank: src,
        step: format!("{}: malformed frame: {e}", describe(t)),
    })
}

/// A level transition's fold group, seen from one rank: when the coarser
/// level would leave the ranks of a 2x2 group with fewer than 2x2 boxes
/// each, the group folds onto its corner rank (Section III-C).
pub(crate) enum Fold {
    /// This rank retires into `corner`.
    Member { corner: usize },
    /// This rank is the corner and absorbs the three other `members`.
    Corner { members: [usize; 3] },
}

impl Fold {
    /// This rank's part in the fold from `child_level` to its parent, or
    /// `None` when that transition folds nothing or the rank is already
    /// retired.
    pub(crate) fn of(grid: &ProcessGrid, me: usize, child_level: u8) -> Option<Fold> {
        let parent_level = child_level - 1;
        if grid.effective_q(parent_level) >= grid.effective_q(child_level)
            || !grid.is_active(me, child_level)
        {
            return None;
        }
        let (x0, y0, _, _) = region_of(grid, me, child_level);
        let corner = grid.owner(&BoxId {
            level: parent_level,
            ix: (x0 / 2) as u32,
            iy: (y0 / 2) as u32,
        });
        if corner != me {
            return Some(Fold::Member { corner });
        }
        let stride = grid.q() / grid.effective_q(child_level);
        let (cx, cy) = grid.coords_of(me);
        let member = |dx: u32, dy: u32| grid.rank_of(cx + dx * stride, cy + dy * stride);
        Some(Fold::Corner {
            members: [member(1, 0), member(0, 1), member(1, 1)],
        })
    }
}

/// Inclusive box-coordinate bounds of a rank's block at a level.
pub(crate) fn region_of(grid: &ProcessGrid, rank: usize, level: u8) -> (i64, i64, i64, i64) {
    let qe = grid.effective_q(level);
    let s = 1u32 << level;
    let block = (s / qe) as i64;
    let (ex, ey) = grid.effective_coords(rank, level);
    let x0 = ex as i64 * block;
    let y0 = ey as i64 * block;
    (x0, y0, x0 + block - 1, y0 + block - 1)
}

/// `true` if `b` is within Chebyshev distance `d` of the rank's region.
pub(crate) fn box_near_region(b: &BoxId, region: (i64, i64, i64, i64), d: i64) -> bool {
    let (x0, y0, x1, y1) = region;
    let bx = b.ix as i64;
    let by = b.iy as i64;
    bx >= x0 - d && bx <= x1 + d && by >= y0 - d && by <= y1 + d
}

/// Owner rank of point `ptid` at `level` (via its ancestor box).
pub(crate) fn owner_of_point(
    grid: &ProcessGrid,
    tree: &QuadTree,
    pts: &[Point],
    ptid: u32,
    level: u8,
) -> usize {
    let p = pts[ptid as usize];
    let s = 1u64 << level;
    let dom = tree.domain();
    let inv = s as f64 / dom.side;
    let ix = (((p.x - dom.lo.x) * inv) as u64).min(s - 1) as u32;
    let iy = (((p.y - dom.lo.y) * inv) as u64).min(s - 1) as u32;
    grid.owner(&BoxId { level, ix, iy })
}

/// Deepest level an [`order_key`] can hold: the row-major box index
/// takes `2·level` bits.
const KEY_MAX_LEVEL: u8 = 13;
/// Bit offsets of the key's fields, low to high: box index, wave,
/// phase, level.
const KEY_WAVE_SHIFT: u32 = 2 * KEY_MAX_LEVEL as u32;
const KEY_PHASE_SHIFT: u32 = KEY_WAVE_SHIFT + 16;
const KEY_LEVEL_SHIFT: u32 = KEY_PHASE_SHIFT + 4;

/// Global elimination-order key: level sweep, then phase, then the
/// phase's wave, then row-major within the wave.
///
/// The wave field mirrors the order the level loop actually eliminates
/// a phase's boxes in (distance-3 waves `3·iy + ix`, merged in box order
/// within each wave; see [`crate::colored::waves`]), so sorting records
/// by key reproduces the elimination order bit-exactly — the contract
/// the serve state and a gathered factorization rely on. Cross-rank records sharing a `(level,
/// phase)` always sit at box distance >= 2 (interior boxes of different
/// ranks, or boundary boxes of same-colored ranks), so their relative
/// order only fixes the floating-point summation order of shared Schur
/// targets, which the key makes deterministic.
///
/// # Panics
///
/// If a field overflows its bits: `level` deeper than 13, `phase` above
/// 15 or `wave` above `u16::MAX` (a level-13 wave is at most
/// `4 · 8191 = 32 764`).
pub(crate) fn order_key(leaf: u8, level: u8, phase: u8, wave: u32, b: &BoxId) -> u64 {
    assert!(
        leaf <= KEY_MAX_LEVEL && level <= leaf && phase < 16 && wave <= u16::MAX as u32,
        "order key out of range: leaf {leaf}, level {level}, phase {phase}, wave {wave}"
    );
    (((leaf - level) as u64) << KEY_LEVEL_SHIFT)
        | ((phase as u64) << KEY_PHASE_SHIFT)
        | ((wave as u64) << KEY_WAVE_SHIFT)
        | b.flat() as u64
}

/// Recover the `(level, phase)` coordinates an [`order_key`] was built
/// from.
pub(crate) fn key_level_phase(leaf: u8, key: u64) -> (u8, u8) {
    (
        leaf - ((key >> KEY_LEVEL_SHIFT) as u8),
        ((key >> KEY_PHASE_SHIFT) & 0xF) as u8,
    )
}

/// All point ids inside the leaf boxes `rank` owns, concatenated in
/// row-major box order — the canonical row layout of the resident serve
/// protocol's RHS/solution slabs (both sides derive it from the
/// replicated geometry, so slabs carry no id lists).
pub(crate) fn owned_leaf_ids(tree: &QuadTree, grid: &ProcessGrid, rank: usize) -> Vec<u32> {
    let leaf = tree.leaf_level();
    let mut ids = Vec::new();
    for b in tree.boxes_at_level(leaf) {
        if grid.owner(&b) == rank {
            ids.extend_from_slice(tree.leaf_points(&b));
        }
    }
    ids
}

/// Post-elimination active sets of a rank's owned boxes, per level
/// ([`RankState::act_end`]).
pub(crate) type ActEnd = HashMap<u8, Vec<(BoxId, Vec<u32>)>>;

/// Ids of the entries a rank owned at `level` after elimination, in box
/// order.
pub(crate) fn owned_act_ids(act_end: &ActEnd, level: u8) -> Vec<u32> {
    act_end
        .get(&level)
        .map(|v| v.iter().flat_map(|(_, ids)| ids.iter().copied()).collect())
        .unwrap_or_default()
}

/// Per-rank state shared between the factorization and solve passes.
pub(crate) struct RankState<T> {
    pub(crate) records: Vec<(u64, BoxElimination<T>)>,
    /// Post-elimination active sets of *owned* boxes per level.
    pub(crate) act_end: ActEnd,
    /// Fold bookkeeping for the solve: ids received from each retiring
    /// member at each fold level.
    pub(crate) fold_ids: HashMap<(u8, usize), Vec<u32>>,
    pub(crate) stats: FactorStats,
}

/// One rank's share of the factored dense top block: the block columns
/// it applies in the top solve and its place in the chain of owners the
/// solve's panel travels along (see [`serve`]). The factor phase leaves
/// the whole top on rank 0 — a chain of one, which is also all a general
/// (unsymmetric) top ever is; the build then deals the block columns
/// out.
pub(crate) struct TopShare<T> {
    /// Point ids of the top block's rows, in matrix order: on the head
    /// of the chain (rank 0), which gathers the values into the panel and
    /// takes them back; empty elsewhere.
    pub(crate) idx: Vec<u32>,
    /// The block columns held (`col_span()` of the top's columns).
    pub(crate) cols: TopFactor<T>,
    /// Owner of the block columns just before this range (`None`: head).
    pub(crate) prev: Option<usize>,
    /// Owner of the block columns just after it (`None`: the panel
    /// turns round here).
    pub(crate) next: Option<usize>,
}

impl<T: srsf_linalg::Scalar> TopShare<T> {
    /// Resident bytes of the share.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.cols.heap_bytes() + self.idx.capacity() * 4
    }
}

/// A rank's share of the top, if it holds one.
pub(crate) type RankTop<T> = Option<TopShare<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colored::wave_of;

    #[test]
    fn order_key_round_trips_level_and_phase() {
        for leaf in [5u8, 13] {
            for level in leaf - 2..=leaf {
                let s = 1u32 << level;
                let corners = [(0, 0), (3, 1), (s - 1, 0), (0, s - 1), (s - 1, s - 1)];
                for phase in 0..=4u8 {
                    for (ix, iy) in corners {
                        let b = BoxId { level, ix, iy };
                        let key = order_key(leaf, level, phase, wave_of(&b), &b);
                        assert_eq!(key_level_phase(leaf, key), (level, phase));
                    }
                }
            }
        }
    }

    #[test]
    fn order_key_sorts_level_then_phase_then_wave_then_row_major() {
        let b = |level, ix, iy| BoxId { level, ix, iy };
        let key = |leaf, level, phase, x: &BoxId| order_key(leaf, level, phase, wave_of(x), x);
        // Finer level first, then phase, then wave, then row-major
        // within the wave — also at the deepest level, where the box
        // index and the wave fill their fields.
        for leaf in [5u8, 13] {
            let s = (1u32 << leaf) - 1;
            let seq = [
                key(leaf, leaf, 0, &b(leaf, 0, 0)),
                key(leaf, leaf, 0, &b(leaf, 2, 0)),
                key(leaf, leaf, 0, &b(leaf, 3, 0)),
                key(leaf, leaf, 0, &b(leaf, 0, 1)),
                key(leaf, leaf, 0, &b(leaf, 4, 0)),
                key(leaf, leaf, 0, &b(leaf, s, s - 1)),
                key(leaf, leaf, 0, &b(leaf, s - 3, s)),
                key(leaf, leaf, 0, &b(leaf, s, s)),
                key(leaf, leaf, 1, &b(leaf, 0, 0)),
                key(leaf, leaf, 4, &b(leaf, s, s)),
                key(leaf, leaf - 1, 0, &b(leaf - 1, 0, 0)),
            ];
            let mut sorted = seq;
            sorted.sort_unstable();
            assert_eq!(seq, sorted, "leaf {leaf}");
        }
        // `(s, s)` above is the largest wave there is: at level 13 it
        // is 32 764, which still sorts below the next phase.
        assert_eq!(wave_of(&b(13, 8191, 8191)), 32_764);
    }

    #[test]
    #[should_panic(expected = "order key out of range")]
    fn order_key_rejects_a_level_past_its_field() {
        order_key(
            14,
            14,
            0,
            0,
            &BoxId {
                level: 14,
                ix: 0,
                iy: 0,
            },
        );
    }
}
