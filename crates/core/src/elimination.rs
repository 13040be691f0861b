//! The strong skeletonization operator `Z(A; B)` (Section II-D).
//!
//! After the ID splits a box's active indices into skeletons `S` and
//! redundants `R`, the sparsification `S^* A S` decouples `R` from the far
//! field, and block Gaussian elimination of `X_RR` produces Schur updates
//! confined to `B` and its near field `N(B)` (Remark 2). This module
//! computes the elimination *record* (everything the solve phase needs)
//! and the set of block updates, without mutating the store — the three
//! drivers (sequential, threaded, distributed) share it and differ only
//! in how they schedule the updates.
//!
//! For a symmetric kernel the elimination is one-sided end to end: only
//! `A_{N,B}` is gathered, the record keeps the unsolved left couplings,
//! and every update block is produced once, for the direction the store
//! keeps ([`BlockStore::is_canonical`]: row box not before column box in
//! row-major order, the rule stated in `crate::store`) — `(B, B)`, one of
//! `(n, B)` / `(B, n)` per neighbor, and the neighbor pairs `(n_j, n_k)`
//! with `k <= j`.

use crate::skeletonize::{skeletonize, CompressionCtx};
use crate::store::{ActiveSets, BlockStore};
use crate::{CompressionTelemetry, FactorOpts};
use srsf_geometry::neighbors::near_field;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::gemm::{
    adjoint_matmul_acc, adjoint_matmul_sub, gemm_acc_block, gemm_acc_to_blocks, is_packed, matmul,
    matmul_sub, transpose_matmul, transpose_matmul_acc,
};
use srsf_linalg::{Coupling, Lu, Mat, Scalar, SymMat};

/// Per-box factorization record: the pieces of `V = L S^* P^T` and
/// `W = P S U` (Eq. 10) needed to apply the inverse.
///
/// The diagonal block is held as its explicit inverse, and every
/// coupling unsolved, so the solve sweep applies a record by panel
/// products alone (see `crate::solve`). A record comes in two forms,
/// chosen by [`BlockStore::symmetric`] at factorization time
/// ([`RecordForm`]). The *general* form keeps `X_RR^{-T}` and both sides
/// of every coupling (`es`/`en` on the left of `X_RR^{-1}`, `fs`/`fnb` on
/// the right). The *symmetric* form (symmetric kernels, real or complex)
/// keeps only the left ones — the right ones are their plain transposes,
/// because such a kernel is sparsified with `T^T` — and `X_RR^{-1}`,
/// which is then symmetric, as one packed triangle. With `T`, it holds
/// `2|S||R| + |N||R| + |R|(|R| + 1)/2` entries where the general form
/// holds `3|S||R| + 2|N||R| + |R|^2`. The neighbor couplings — `en`, and
/// `fnb` of a general record — are [`Coupling`]s: a factorization at a
/// tolerance of at least `2^-21` (`narrow_couplings`) rounds them to
/// `f32` once the Schur update has used them, so their `|N||R|` entries
/// (`2|N||R|` general) take half the bytes of the others.
#[derive(Clone, Debug)]
pub struct BoxElimination<T> {
    /// The eliminated box.
    pub box_id: BoxId,
    /// Global point ids of the redundant DOFs (eliminated here).
    pub redundant: Vec<u32>,
    /// Global point ids of the skeleton DOFs (stay active).
    pub skel: Vec<u32>,
    /// Global point ids of the neighbors' active DOFs at elimination time
    /// (concatenated over `N(B)` in row-major box order).
    pub nbr: Vec<u32>,
    /// Interpolation matrix `T` (`|S| x |R|`).
    pub t: Mat<T>,
    /// Skeleton coupling `X_SR` (`|S| x |R|`).
    pub es: Mat<T>,
    /// Neighbor coupling `X_NR` (`|N| x |R|`).
    pub en: Coupling<T>,
    /// The inverse of the sparsified diagonal block `X_RR`, formed from
    /// its pivoted LU, and what the form adds to the left couplings.
    pub form: RecordForm<T>,
}

/// The parts of a [`BoxElimination`] that differ between its two forms.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordForm<T> {
    /// One-sided record of a symmetric kernel: `X_RR^{-1}`, made
    /// symmetric bit for bit before its first use and held as one packed
    /// triangle. The right couplings are `es^T` and `en^T`.
    Symmetric {
        /// `X_RR^{-1}` (order `|R|`).
        inv: SymMat<T>,
    },
    /// Two-sided record of any other kernel.
    General {
        /// `X_RR^{-T}` (`|R| x |R|`).
        inv_t: Mat<T>,
        /// `X_RS` (`|R| x |S|`).
        fs: Mat<T>,
        /// `X_RN` (`|R| x |N|`).
        fnb: Coupling<T>,
    },
}

impl<T: Scalar> BoxElimination<T> {
    /// `true` for the one-sided record form of a symmetric kernel.
    pub fn is_symmetric(&self) -> bool {
        matches!(self.form, RecordForm::Symmetric { .. })
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        let form = match &self.form {
            RecordForm::Symmetric { inv } => inv.heap_bytes(),
            RecordForm::General { inv_t, fs, fnb } => {
                inv_t.heap_bytes() + fs.heap_bytes() + fnb.heap_bytes()
            }
        };
        self.t.heap_bytes()
            + self.es.heap_bytes()
            + self.en.heap_bytes()
            + form
            + (self.redundant.capacity() + self.skel.capacity() + self.nbr.capacity()) * 4
    }
}

/// Whether a factorization at tolerance `tol` holds its neighbor
/// couplings in `f32`: when the unit roundoff of `f32`, `2^-24`, is at
/// most `tol / 8` — `tol >= 2^-21 ≈ 4.77e-7`. The rounding then stays
/// eight times below the compression error the factorization already
/// accepts.
pub(crate) fn narrow_couplings(tol: f64) -> bool {
    f64::from(f32::EPSILON) / 2.0 <= tol / 8.0
}

/// Everything produced by eliminating one box.
pub struct EliminationOutput<T> {
    /// The solve-phase record (`None` when the box had no redundant DOFs —
    /// nothing was eliminated).
    pub record: Option<BoxElimination<T>>,
    /// Skeleton *positions* within the box's former active set.
    pub skel_positions: Vec<usize>,
    /// Replacement blocks for pairs involving `B` (restricted to `S`):
    /// `(row_box, col_box, new_block)`.
    pub replaced: Vec<(BoxId, BoxId, Mat<T>)>,
    /// Additive Schur deltas for neighbor pairs `(n_j, n_k)`. A general
    /// kernel lists both directions of every pair, here and in
    /// `replaced`; a symmetric one lists each unordered pair once, under
    /// the key the store holds it by (module docs) — on the owner and on
    /// every rank that receives these as a halo update.
    pub deltas: Vec<(BoxId, BoxId, Mat<T>)>,
    /// The compression path taken by this box's skeletonization (zeroed for
    /// boxes that skipped it — empty active set).
    pub compression: CompressionTelemetry,
}

/// Errors the factorization can raise.
#[derive(Debug)]
#[non_exhaustive]
pub enum FactorError {
    /// A sparsified diagonal block was singular — the compression
    /// tolerance is too loose for this kernel/geometry.
    SingularDiagonal {
        /// The box whose `X_RR` failed to factor.
        box_id: BoxId,
    },
    /// The dense top block was singular — the DOFs surviving above the
    /// compression levels form a rank-deficient system, independent of
    /// any particular box.
    SingularTop {
        /// Dimension of the dense top block.
        size: usize,
        /// Elimination step at which the pivoted LU broke down.
        step: usize,
    },
    /// A distributed rank waited on a frame from `rank` that never came:
    /// the peer was lost (its link closed or it exited), late (the
    /// receive timed out), or sent a frame that did not decode. The build
    /// is abandoned and surfaces as
    /// [`SrsfError::RankFailed`](crate::SrsfError::RankFailed).
    RankFailed {
        /// The rank the frame was expected from.
        rank: usize,
        /// The protocol step and what went wrong in it.
        step: String,
    },
}

impl core::fmt::Display for FactorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FactorError::SingularDiagonal { box_id } => {
                write!(f, "singular sparsified diagonal block at {box_id:?}")
            }
            FactorError::SingularTop { size, step } => {
                write!(
                    f,
                    "singular dense top block ({size} x {size}, pivot breakdown at step {step})"
                )
            }
            FactorError::RankFailed { rank, step } => write!(f, "rank {rank}: {step}"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Eliminate box `b`: skeletonize, sparsify, factor `X_RR`, and compute the
/// Schur updates. Pure (does not mutate `store`/`act`); apply the output
/// with [`apply_output`].
pub fn eliminate_box<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    opts: &FactorOpts,
    ctx: &CompressionCtx,
) -> Result<EliminationOutput<K::Elem>, FactorError> {
    type T<K> = <K as Kernel>::Elem;
    let a_b: Vec<u32> = act.get(b).to_vec();
    if a_b.is_empty() {
        return Ok(EliminationOutput {
            record: None,
            skel_positions: Vec::new(),
            replaced: Vec::new(),
            deltas: Vec::new(),
            compression: CompressionTelemetry::default(),
        });
    }

    let (id, compression) = skeletonize(store, act, tree, b, opts, ctx);
    let skel_positions = id.skel.clone();
    let red_positions = id.redundant.clone();
    if red_positions.is_empty() {
        // Nothing to eliminate; the box keeps its full active set.
        return Ok(EliminationOutput {
            record: None,
            skel_positions,
            replaced: Vec::new(),
            deltas: Vec::new(),
            compression,
        });
    }
    let t = id.t; // |S| x |R|
    let (n_r, n_s) = (red_positions.len(), skel_positions.len());
    // Symmetric kernel: `A[a, b] == A[b, a]^T`, so everything on the
    // `(B, N)` side is a transpose of the `(N, B)` side and only one
    // coupling per direction is kept.
    let sym = store.symmetric();
    let narrow = narrow_couplings(opts.tol);

    // Gather current blocks.
    let a_bb = store.get(b, b, act);
    let a_rr = a_bb.select(&red_positions, &red_positions);
    let a_rs = a_bb.select(&red_positions, &skel_positions);
    let a_sr = a_bb.select(&skel_positions, &red_positions);
    let a_ss = a_bb.select(&skel_positions, &skel_positions);

    // Neighbor boxes with nonempty active sets, fixed row-major order.
    let nbrs: Vec<BoxId> = near_field(b)
        .into_iter()
        .filter(|n| !act.get(n).is_empty())
        .collect();
    let nbr_sizes: Vec<usize> = nbrs.iter().map(|n| act.get(n).len()).collect();
    let n_total: usize = nbr_sizes.iter().sum();

    // Stacked A_{N,B}.
    let mut a_nb = Mat::<T<K>>::zeros(n_total, a_b.len());
    let mut r0 = 0;
    for n in &nbrs {
        let blk = ctx.get_block(store, act, n, b);
        a_nb.set_block(r0, 0, &blk);
        r0 += blk.nrows();
    }
    let a_nr = a_nb.select_cols(&red_positions);
    let a_ns = a_nb.select_cols(&skel_positions);

    // Sparsification: X_RR = A_RR - T' A_SR - A_RS T + T' A_SS T, etc.,
    // with T' = T^T for a symmetric kernel (the column ID of the forward
    // stack gives A_{R,F} ~ T^T A_{S,F} there) and T' = T^H otherwise.
    let flipped_acc = if sym {
        transpose_matmul_acc::<T<K>>
    } else {
        adjoint_matmul_acc::<T<K>>
    };
    let mut x_rr = a_rr;
    flipped_acc(&mut x_rr, -T::<K>::ONE, &t, &a_sr); // -= T' A_SR
    let a_ss_t = matmul(&a_ss, &t);
    // -= A_RS T  and  += T' (A_SS T), accumulated in place.
    matmul_sub(&mut x_rr, &a_rs, &t);
    flipped_acc(&mut x_rr, T::<K>::ONE, &t, &a_ss_t);

    let mut x_sr = a_sr;
    x_sr.axpy(-T::<K>::ONE, &a_ss_t); // X_SR = A_SR - A_SS T
    let mut x_nr = a_nr;
    matmul_sub(&mut x_nr, &a_ns, &t); // X_NR = A_NR - A_NS T

    // Invert the redundant diagonal block through its pivoted LU, which
    // is dropped: the record and the right factors below need only the
    // inverse.
    let inv_t = Lu::factor(x_rr)
        .map_err(|_| FactorError::SingularDiagonal { box_id: *b })?
        .into_inverse_t();

    // Left and right coupling factors: every Schur update below is a
    // product `E · F` with `E = [ES; EN] = [X_SR; X_NR]` and
    // `F = [FS, FN] = X_RR^{-1} [X_RS, X_RN]`, one GEMM each; only the
    // unsolved couplings go into the record.
    let (f_s, f_n, a_sn, form) = if sym {
        // X_RR^{-1} = X_RR^{-T} is symmetric: one triangle of the
        // computed inverse is mirrored onto the other, so the factors
        // here and the solve apply the same matrix. X_RS = X_SR^T and
        // X_RN = X_NR^T, so F = (X X_RR^{-1})^T.
        let mut inv = inv_t;
        inv.mirror_upper();
        let right_factor = |x: &Mat<T<K>>| matmul(x, &inv).transpose();
        let (f_s, f_n) = (right_factor(&x_sr), right_factor(&x_nr));
        let inv = SymMat::from_lower(&inv);
        (f_s, f_n, None, RecordForm::Symmetric { inv })
    } else {
        // Stacked A_{B,N}, gathered on its own.
        let mut a_bn = Mat::<T<K>>::zeros(a_b.len(), n_total);
        let mut c0 = 0;
        for n in &nbrs {
            let blk = ctx.get_block(store, act, b, n);
            a_bn.set_block(0, c0, &blk);
            c0 += blk.ncols();
        }
        let a_sn = a_bn.select_rows(&skel_positions);
        // X_RS = A_RS - T^H A_SS, X_RN = A_RN - T^H A_SN.
        let mut x_rs = a_rs;
        adjoint_matmul_sub(&mut x_rs, &t, &a_ss);
        let mut x_rn = a_bn.select_rows(&red_positions);
        adjoint_matmul_sub(&mut x_rn, &t, &a_sn);
        // F = (X_RR^{-T})^T X_R·.
        let (f_s, f_n) = (
            transpose_matmul(&inv_t, &x_rs),
            transpose_matmul(&inv_t, &x_rn),
        );
        let form = RecordForm::General {
            inv_t,
            fs: x_rs,
            fnb: Coupling::new(x_rn, narrow),
        };
        (f_s, f_n, Some(a_sn), form)
    };
    let (es, en) = (x_sr, x_nr);

    // Replacement blocks (post-Schur) for pairs involving B.
    let mut replaced = Vec::with_capacity(1 + nbrs.len() * if sym { 1 } else { 2 });
    let mut new_ss = a_ss;
    matmul_sub(&mut new_ss, &es, &f_s);
    if sym {
        new_ss.mirror_upper();
    }
    replaced.push((*b, *b, new_ss));
    // (n_j, B): A_NS_j - EN_j FS, and for a general kernel also
    // (B, n_j): A_SN_j - ES FN_j. A symmetric store holds one of the two:
    // the block is emitted under its stored key.
    let mut ns_minus = a_ns;
    matmul_sub(&mut ns_minus, &en, &f_s);
    let sn_minus = a_sn.map(|mut m| {
        matmul_sub(&mut m, &es, &f_n);
        m
    });
    let mut offs = Vec::with_capacity(nbrs.len());
    let mut off = 0;
    for (n, &w) in nbrs.iter().zip(&nbr_sizes) {
        let ns = ns_minus.block(off, 0, w, n_s);
        match &sn_minus {
            Some(sn) => {
                replaced.push((*b, *n, sn.block(0, off, n_s, w)));
                replaced.push((*n, *b, ns));
            }
            None if store.is_canonical(n, b) => replaced.push((*n, *b, ns)),
            None => replaced.push((*b, *n, ns.transpose())),
        }
        offs.push(off);
        off += w;
    }

    // Schur deltas for neighbor pairs: delta(n_j, n_k) = -EN_j FN_k, the
    // sign riding the GEMM's alpha. Each block row j (a strip) is written
    // straight into exact-size blocks; no `n_total²` scratch is zeroed,
    // filled and cut. Symmetric mode forms and emits only the block lower
    // triangle `k <= j`: `near_field` lists the neighbors in row-major
    // order, so these are the stored keys. A strip packs its rows of EN
    // once for all its blocks when the product its blocks replace is
    // packed — the strip `h_j x (offs_j + h_j)` in symmetric mode, the
    // whole `n_total x n_total` otherwise — and runs the jki kernel block
    // by block when it is not, so every entry keeps the bits of that one
    // product (the rule `srsf_linalg::gemm` states).
    let mut deltas = Vec::with_capacity(nbrs.len() * nbrs.len());
    for (j, nj) in nbrs.iter().enumerate() {
        let (r0, h) = (offs[j], nbr_sizes[j]);
        let n_cols = if sym { j + 1 } else { nbrs.len() };
        let mut blocks: Vec<Mat<T<K>>> = nbr_sizes[..n_cols]
            .iter()
            .map(|&w| Mat::zeros(h, w))
            .collect();
        let strip = (r0, 0, h, n_r);
        let packed = if sym {
            is_packed(h, r0 + h, n_r)
        } else {
            is_packed(n_total, n_total, n_r)
        };
        if packed {
            let mut dests: Vec<_> = blocks
                .iter_mut()
                .zip(&offs)
                .map(|(d, &c0)| (d, 0, c0))
                .collect();
            gemm_acc_to_blocks(-T::<K>::ONE, &en, strip, &f_n, &mut dests);
        } else {
            for (d, &c0) in blocks.iter_mut().zip(&offs) {
                let w = d.ncols();
                gemm_acc_block(
                    d,
                    (0, 0, h, w),
                    -T::<K>::ONE,
                    &en,
                    strip,
                    &f_n,
                    (0, c0, n_r, w),
                );
            }
        }
        for ((k, nk), mut d) in nbrs.iter().enumerate().zip(blocks) {
            debug_assert!(store.is_canonical(nj, nk));
            if sym && j == k {
                d.mirror_upper();
            }
            deltas.push((*nj, *nk, d));
        }
    }

    // Sized up front: a `flat_map().collect()` grows by doubling, and the
    // capacity-based `heap_bytes` of the record would then differ from
    // that of its decoded (exactly sized) copy on another rank.
    let mut nbr = Vec::with_capacity(n_total);
    for n in &nbrs {
        nbr.extend_from_slice(act.get(n));
    }
    let record = BoxElimination {
        box_id: *b,
        redundant: red_positions.iter().map(|&p| a_b[p]).collect(),
        skel: skel_positions.iter().map(|&p| a_b[p]).collect(),
        nbr,
        t,
        es,
        // The Schur updates above used `EN` at full width; only the record
        // is narrowed.
        en: Coupling::new(en, narrow),
        form,
    };

    Ok(EliminationOutput {
        record: Some(record),
        skel_positions,
        replaced,
        deltas,
        compression,
    })
}

/// Apply an elimination output to the store and active sets: shrink the
/// box's stored pairs, install the replacement blocks, accumulate the
/// Schur deltas, and shrink the active set.
pub fn apply_output<K: Kernel>(
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    b: &BoxId,
    out: &EliminationOutput<K::Elem>,
    ctx: &CompressionCtx,
) {
    if out.record.is_none() {
        // Either empty box or full-rank ID: nothing changes.
        return;
    }
    // 1. Restrict the stored pairs involving B that step 2 does not
    // overwrite — the distance-2 ring — to the skeleton rows/cols.
    store.shrink_box(b, &out.skel_positions, &out.replaced);
    // 2. Install replacement blocks (the (B,B), (B,n), (n,B) pairs).
    for (ra, rb, m) in &out.replaced {
        store.insert(*ra, *rb, m.clone());
    }
    // 3. Shrink the active set.
    let skel_ids = out
        .record
        .as_ref()
        .map(|r| r.skel.clone())
        .unwrap_or_default();
    act.set(*b, skel_ids);
    // 4. Accumulate Schur deltas on neighbor pairs. A delta's first touch
    // materializes the pair's base block; go through the compression
    // context so unmodified off-diagonal pairs fill from the symbol table
    // instead of per-entry kernel evaluations.
    for (na, nb, d) in &out.deltas {
        if na != nb && !store.contains(na, nb) {
            let base = ctx.get_block(store, act, na, nb);
            store.insert(*na, *nb, base);
        }
        store.add_delta(*na, *nb, d, act);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::merge_to_parent;
    use crate::store::tests::HideSymmetry;
    use srsf_geometry::grid::scattered_points;
    use srsf_geometry::grid::UnitGrid;
    use srsf_geometry::point::{BBox, Point};
    use srsf_kernels::helmholtz::HelmholtzKernel;
    use srsf_kernels::laplace::LaplaceKernel;

    /// Eliminate the two finest levels of the problem on `pts` (leaves of
    /// `leaf_size` points on average) at tolerance `tol` with a merge in
    /// between, handing every output to `per_output` with the active sets
    /// it was computed against and checking `per_level` on the store after
    /// each level's eliminations and after the merge. Returns the peak
    /// block count.
    fn sweep_two_levels<K: Kernel>(
        kernel: &K,
        (pts, leaf_size, tol): (&[Point], usize, f64),
        mut per_level: impl FnMut(&BlockStore<'_, K>, &ActiveSets),
        mut per_output: impl FnMut(&ActiveSets, &BoxId, &EliminationOutput<K::Elem>),
    ) -> usize {
        let tree = QuadTree::build(pts, BBox::UNIT, leaf_size);
        let opts = FactorOpts::default().with_tol(tol);
        let ctx = CompressionCtx::new(kernel, pts, &tree, &opts);
        let mut store = BlockStore::new(kernel, pts);
        let mut act = ActiveSets::new();
        let leaf = tree.leaf_level();
        for id in tree.boxes_at_level(leaf) {
            act.set(id, tree.leaf_points(&id).to_vec());
        }
        let (mut n_records, mut blocks_peak) = (0, 0);
        for level in [leaf, leaf - 1] {
            for b in tree.boxes_at_level(level) {
                let out = eliminate_box(&store, &act, &tree, &b, &opts, &ctx).unwrap();
                per_output(&act, &b, &out);
                n_records += out.record.is_some() as usize;
                apply_output(&mut store, &mut act, &b, &out, &ctx);
            }
            blocks_peak = blocks_peak.max(store.n_blocks());
            per_level(&store, &act);
            if level == leaf {
                merge_to_parent(&mut store, &mut act, &tree, level);
                per_level(&store, &act);
            }
        }
        assert!(n_records > 0 && blocks_peak > 0);
        blocks_peak
    }

    /// The invariant the symmetric mode rests on: after any number of
    /// eliminations and a level merge, a symmetric store holds no key but
    /// the canonical one of each pair, serves the other direction as the
    /// exact *transpose* (no conjugate; diagonal blocks are their own
    /// transposes bit for bit), every record is one-sided — and the store
    /// peaks at about half the blocks of the same kernel with its
    /// symmetry hidden.
    fn assert_symmetric_store_is_one_sided<K: Kernel + Clone>(kernel: &K, grid: &UnitGrid) {
        let pts = grid.points();
        let tol = FactorOpts::default().tol;
        let blocks_sym = sweep_two_levels(
            kernel,
            (&pts, 16, tol),
            |store, act| {
                assert!(store.symmetric());
                for ((a, b), m) in store.stored_pairs() {
                    assert!(a.flat() >= b.flat(), "non-canonical key {a:?},{b:?}");
                    assert_eq!(store.get(a, b, act), *m);
                    assert_eq!(store.get(b, a, act), m.transpose(), "pair {a:?},{b:?}");
                }
            },
            |_, _, out| {
                let rec = out.record.as_ref();
                assert!(rec.is_none_or(BoxElimination::is_symmetric));
            },
        );
        let blocks_gen = sweep_two_levels(
            &HideSymmetry(kernel.clone()),
            (&pts, 16, tol),
            |store, _| assert!(!store.symmetric()),
            |_, _, out| assert!(out.record.as_ref().is_none_or(|rec| !rec.is_symmetric())),
        );
        assert!(
            blocks_sym as f64 <= 0.55 * blocks_gen as f64,
            "{blocks_sym} blocks against {blocks_gen} two-sided"
        );
    }

    #[test]
    fn symmetric_store_stays_bitwise_symmetric() {
        let grid = UnitGrid::new(32);
        assert_symmetric_store_is_one_sided(&LaplaceKernel::new(&grid), &grid);
        // Complex symmetric: a conjugate slipped into the served
        // direction or into a diagonal block would show.
        assert_symmetric_store_is_one_sided(&HelmholtzKernel::new(&grid, 40.0), &grid);
    }

    /// The Schur deltas of a record as they were formed before they were
    /// written straight into their blocks: `-EN FN` into an `n_total²`
    /// scratch — the lower block strips one product each in symmetric
    /// mode, the whole square as one product otherwise — cut into blocks.
    /// `FN = X_RR^{-1} X_RN` is re-formed from the record's inverse as
    /// elimination forms it. The record must hold its couplings at full
    /// width, as the deltas used them.
    fn deltas_by_full_product<T: Scalar>(rec: &BoxElimination<T>, sizes: &[usize]) -> Vec<Mat<T>> {
        let sym = rec.is_symmetric();
        let wide = |m: &Coupling<T>| match m {
            Coupling::Wide(m) => m.clone(),
            Coupling::Narrow(_) => panic!("a narrow coupling has lost the bits the deltas used"),
        };
        let en = wide(&rec.en);
        let f_n = match &rec.form {
            RecordForm::General { inv_t, fnb, .. } => transpose_matmul(inv_t, &wide(fnb)),
            RecordForm::Symmetric { inv } => matmul(&en, &inv.to_mat()).transpose(),
        };
        let (rows, n_r) = (en.nrows(), en.ncols());
        let offs: Vec<usize> = (0..sizes.len()).map(|j| sizes[..j].iter().sum()).collect();
        let mut full = Mat::zeros(rows, rows);
        if sym {
            for (&r0, &h) in offs.iter().zip(sizes) {
                let (strip, w) = ((r0, 0, h, n_r), r0 + h);
                gemm_acc_block(
                    &mut full,
                    (r0, 0, h, w),
                    -T::ONE,
                    &en,
                    strip,
                    &f_n,
                    (0, 0, n_r, w),
                );
            }
        } else {
            srsf_linalg::gemm::matmul_acc(&mut full, -T::ONE, &en, &f_n);
        }
        let mut deltas = Vec::new();
        for j in 0..sizes.len() {
            for k in 0..if sym { j + 1 } else { sizes.len() } {
                let mut d = full.block(offs[j], offs[k], sizes[j], sizes[k]);
                if sym && j == k {
                    d.mirror_upper();
                }
                deltas.push(d);
            }
        }
        deltas
    }

    /// Sweeps `kernel` and its symmetry-hidden twin, checking every box's
    /// deltas bitwise against [`deltas_by_full_product`]. Returns, per
    /// mode, the strips that took the packed path and those of them with
    /// a block under 12 columns (one the packed path never takes alone).
    /// The sweep runs just below the tolerance at which records narrow
    /// their couplings, so that each keeps the bits its deltas used.
    fn assert_deltas_match_full_product<K: Kernel + Clone>(
        kernel: &K,
        pts: &[Point],
        leaf_size: usize,
    ) -> [(usize, usize); 2] {
        fn check<K: Kernel>(kernel: &K, pts: &[Point], leaf_size: usize) -> (usize, usize) {
            let (mut packed, mut thin) = (0, 0);
            sweep_two_levels(
                kernel,
                (pts, leaf_size, 4e-7),
                |_, _| {},
                |act, b, out| {
                    let Some(rec) = &out.record else { return };
                    let sizes: Vec<usize> = near_field(b)
                        .iter()
                        .map(|n| act.get(n).len())
                        .filter(|&w| w > 0)
                        .collect();
                    let want = deltas_by_full_product(rec, &sizes);
                    assert_eq!(out.deltas.len(), want.len());
                    for ((nj, nk, got), want) in out.deltas.iter().zip(&want) {
                        assert!(got == want, "delta ({nj:?}, {nk:?}) of {b:?}");
                    }
                    let (n_total, n_r) = (rec.en.nrows(), rec.en.ncols());
                    for (j, &h) in sizes.iter().enumerate() {
                        let (blocks, strip_packed) = if rec.is_symmetric() {
                            let w = sizes[..=j].iter().sum();
                            (&sizes[..=j], is_packed(h, w, n_r))
                        } else {
                            (&sizes[..], is_packed(n_total, n_total, n_r))
                        };
                        packed += strip_packed as usize;
                        thin += (strip_packed && blocks.iter().any(|&w| w < 12)) as usize;
                    }
                },
            );
            (packed, thin)
        }
        [
            check(kernel, pts, leaf_size),
            check(&HideSymmetry(kernel.clone()), pts, leaf_size),
        ]
    }

    #[test]
    fn schur_deltas_are_bitwise_the_full_product_on_a_grid() {
        let grid = UnitGrid::new(32);
        let counts =
            assert_deltas_match_full_product(&LaplaceKernel::new(&grid), &grid.points(), 64);
        assert!(counts.iter().all(|&(packed, _)| packed > 0), "{counts:?}");
    }

    /// Scattered points in a checkerboard of 90- and 6-point leaves, so
    /// every packed strip of a crowded box carries blocks of a few
    /// columns.
    #[test]
    fn schur_deltas_are_bitwise_the_full_product_on_uneven_leaves() {
        let mut pts = Vec::new();
        for cell in 0..16 {
            let (cx, cy) = ((cell % 4) as f64, (cell / 4) as f64);
            let count = if cell % 2 == (cell / 4) % 2 { 90 } else { 6 };
            let cell_pts = scattered_points(count, 29 + cell as u64).into_iter();
            pts.extend(cell_pts.map(|p| Point::new((cx + p.x) / 4.0, (cy + p.y) / 4.0)));
        }
        let kernel = LaplaceKernel::with_params(1.0 / pts.len() as f64, 1.0);
        let counts = assert_deltas_match_full_product(&kernel, &pts, 64);
        assert!(counts.iter().all(|&(_, thin)| thin > 0), "{counts:?}");
    }

    /// The couplings narrow from `tol = 2^-21` up, where the unit
    /// roundoff of `f32` is `tol / 8`, and not a step below it.
    #[test]
    fn couplings_narrow_from_two_to_the_minus_21() {
        let switch = 2f64.powi(-21);
        for tol in [switch, 5e-7, 1e-6, 1e-3] {
            assert!(narrow_couplings(tol), "tol {tol:e}");
        }
        for tol in [switch * (1.0 - f64::EPSILON), 4e-7, 1e-9, 0.0] {
            assert!(!narrow_couplings(tol), "tol {tol:e}");
        }
    }
}
