//! Proxy-compressed interpolative decomposition of a box (Section II-C).
//!
//! For a box `B` with active columns `a_B`, the compression target is the
//! concatenation `[A_{F,B}; A_{B,F}^*]` of Eq. (5). Forming it would cost
//! O(N); instead (Eq. 7) the far field is represented by
//!
//! * the explicit (possibly modified) interactions against the distance-2
//!   ring `M(B)`, read from the block store, and
//! * kernel evaluations against a proxy circle of radius `2.5 L` that
//!   accounts for everything beyond `M(B)`,
//!
//! which has O(1) rows. A single column ID of the stack yields the skeleton
//! set and interpolation matrix `T` valid for both row and column
//! interactions (Eq. 6).
//!
//! # Randomized compression
//!
//! Rather than assembling the full tall stack and running CPQR to
//! completion, [`skeletonize`] multiplies the stack by a seeded
//! Rademacher sketch `Ω` and pivots on the small product `Y = Ω·A`.
//! Because sketch entries are a pure function of `(seed, row, column)`
//! (`srsf_linalg::rid`), `Y` accumulates **block by block** — one
//! `Ω_blk · A_blk` GEMM per ring block and per proxy block — and the tall
//! matrix never exists in memory. The per-box seed mixes
//! `(kernel id, level, ix, iy)`, so skeletons are identical for every
//! driver, thread count, and transport.
//!
//! ## A-posteriori verification loop
//!
//! Each sketch attempt must certify the tolerance (see `srsf_linalg::rid`
//! module docs): the downdated-norm CPQR on the pivot rows of `Y` has to
//! stop early, and a held-out block of sketch rows has to be reproduced by
//! the candidate `(S, T)`. A failed attempt doubles the sketch and
//! reassembles; when the sketch stops being cheaper than the full stack
//! (`2 l ≥ m`) the box falls back to the deterministic
//! [`interp_decomp`] — accuracy is never worse than the CPQR baseline.
//!
//! ## Symbol-table leaf blocks
//!
//! At the leaf level the ring blocks of a translation-invariant kernel
//! ([`Kernel::is_translation_invariant`]) on the uniform unit grid are
//! untouched kernel evaluations with the structure
//! `A[i,j] = s_i · t(x_i − x_j) · s_j`. The symbol `t` is tabulated once
//! per factorization — one kernel evaluation per *offset* — and such
//! blocks assemble by table lookup, with no transcendentals. Schur
//! updates destroy the structure on modified pairs, which
//! `BlockStore::contains` detects; those blocks come from the store.
//! The sketch reads the table at the leaf level only;
//! [`CompressionCtx::get_block`] reads it at every level.
//!
//! These blocks used to have a second route: a `Toeplitz2D` circulant
//! embedding applied them to the sketch by FFT convolution without
//! forming them. A per-box cost model chose between the two, and at the
//! paper's 64-point leaves it never chose the convolution (0 FFT block
//! applies on every benchmark workload), while every context still paid
//! for the symbol's FFT (1 MiB and 2.2 ms at 128²). So the route went.
//! If large uniform leaves ever make it pay, the design to return to is
//! SNIPPETS.md #1: one FFT plan and scratch per thread, reused.
//!
//! ## Symmetric kernels: the forward half only
//!
//! A symmetric kernel ([`Kernel::is_symmetric`], `A = Aᵀ`) keeps the
//! whole modified matrix transpose-symmetric — the store holds one block
//! per pair and serves either direction
//! ([`BlockStore::symmetric`]) — so `A_{B,M}ᴴ` is `A_{M,B}` conjugated and
//! the column ID of the forward half `[A_{M,B}; K_{proxy,B}]` alone
//! already yields the row relation the elimination needs (transposed, not
//! conjugated — see the record-kernel comment in `crate::solve`). For a
//! real kernel the adjoint half is a duplicate: the sketch reads each
//! pair once and applies the summed forward+adjoint sketch columns in a
//! single GEMM (Rademacher sums are exactly representable, so this
//! changes rounding order only). For a complex kernel it is the
//! conjugate, which would only force `T` to interpolate `conj(A)` as
//! well, and is dropped: no `(B, M)` read, no `proxy_col` evaluation,
//! half the stack height. [`proxy_matrix`] stacks the forward half for
//! both.

use crate::store::{ActiveSets, BlockStore};
use crate::{CompressionTelemetry, FactorOpts};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::neighbors::dist2_ring;
use srsf_geometry::point::Point;
use srsf_geometry::proxy::{proxy_circle_from_unit, proxy_count, unit_circle};
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::gemm::matmul_acc;
use srsf_linalg::rid::{
    derive_seed, id_from_sketch, sketch_block, sketch_block_sum, RID_VERIFY_ROWS,
};
use srsf_linalg::{c64, interp_decomp, IdResult, Mat, Scalar};

/// Per-level proxy geometry, computed once per factorization: all boxes
/// of a level share the circle radius and point count, so the
/// trigonometry happens once and each box only translates the result.
struct LevelGeom {
    radius: f64,
    n_proxy: usize,
    unit: Vec<Point>,
}

/// The symbol of a translation-invariant kernel on the uniform grid,
/// plus its per-point scaling (module docs, "Symbol-table leaf blocks").
struct SymbolTable {
    side: usize,
    /// `s_i` per grid point; empty = identity (Laplace).
    scale: Vec<f64>,
    /// Raw symbol `t(dx, dy)`, row-major over `dy, dx ∈ [-(side-1),
    /// side-1]` — one kernel evaluation per *offset* instead of per
    /// entry, so unmodified blocks assemble by table lookup with no
    /// transcendentals.
    table: Vec<c64>,
}

impl SymbolTable {
    #[inline]
    fn scale_at(&self, i: usize) -> f64 {
        if self.scale.is_empty() {
            1.0
        } else {
            self.scale[i]
        }
    }

    /// Assemble an unmodified leaf block from the symbol table:
    /// `A[i,j] = s_i · t(x_i − x_j) · s_j` (`t` conjugated for the
    /// adjoint direction — the symbol is even, so only the conjugate
    /// distinguishes `A_{B,M}ᴴ` from `A_{M,B}` entries). Offsets between
    /// grid points are exact dyadics, so for an unscaled kernel the table
    /// entries are the very bits `Kernel::entry` would produce.
    fn table_block<T: Scalar>(&self, rows_act: &[u32], cols_act: &[u32], conj: bool) -> Mat<T> {
        let w = 2 * self.side - 1;
        let off = (self.side - 1) as i64;
        let coords = |g: &u32| {
            let g = *g as usize;
            (
                (g % self.side) as i64,
                (g / self.side) as i64,
                self.scale_at(g),
            )
        };
        let rc: Vec<_> = rows_act.iter().map(coords).collect();
        let mut out = Mat::zeros(rc.len(), cols_act.len());
        for (j, g) in cols_act.iter().enumerate() {
            // The column's share of the table index and of the scaling,
            // once per column.
            let (jx, jy, sj) = coords(g);
            let base = (off - jy) * w as i64 + (off - jx);
            for (o, &(ix, iy, si)) in out.col_mut(j).iter_mut().zip(&rc) {
                let t = self.table[(base + iy * w as i64 + ix) as usize];
                let t = if conj { t.conj() } else { t };
                *o = T::from_re_im(t.re, t.im).scale(si * sj);
            }
        }
        out
    }
}

/// Immutable per-factorization compression state, built once per driver
/// (per rank for the distributed driver — the construction is
/// deterministic, so every rank derives the identical context) and
/// shared by every `skeletonize` call.
pub struct CompressionCtx {
    /// Extra sketch rows beyond the rank guess.
    oversample: usize,
    /// Base sketch seed, mixed per box with `(kernel id, level, ix, iy)`.
    seed: u64,
    /// Kernel identity mixed into every per-box sketch seed.
    seed_id: u64,
    /// Indexed by tree level `0..=leaf`.
    geoms: Vec<LevelGeom>,
    leaf_level: u8,
    symbols: Option<SymbolTable>,
}

impl CompressionCtx {
    /// Build the context for one factorization of `kernel` over `pts`.
    pub fn new<K: Kernel>(kernel: &K, pts: &[Point], tree: &QuadTree, opts: &FactorOpts) -> Self {
        let leaf = tree.leaf_level();
        let geoms = (0..=leaf)
            .map(|level| {
                let side = tree
                    .bbox(&BoxId {
                        level,
                        ix: 0,
                        iy: 0,
                    })
                    .side;
                let radius = opts.proxy_radius_factor * side;
                let n_proxy = proxy_count(
                    opts.n_proxy_min,
                    opts.proxy_osc_factor,
                    kernel.kappa(),
                    radius,
                );
                LevelGeom {
                    radius,
                    n_proxy,
                    unit: unit_circle(n_proxy),
                }
            })
            .collect();
        let symbols = if kernel.is_translation_invariant() {
            detect_unit_grid(pts).map(|side| build_symbol_table(kernel, pts, side))
        } else {
            None
        };
        Self {
            oversample: 10,
            seed: 0x5253_5346_5249_4431, // ascii "RSSFRID1"
            seed_id: kernel.seed_id(),
            geoms,
            leaf_level: leaf,
            symbols,
        }
    }

    /// Whether the symbol table was built (translation-invariant kernel
    /// on a detected uniform grid). The name predates the removal of the
    /// FFT route; the benchmark reads it.
    pub fn has_leaf_fft(&self) -> bool {
        self.symbols.is_some()
    }

    fn geom(&self, level: u8) -> &LevelGeom {
        &self.geoms[level as usize]
    }

    /// Assemble the current block `A[act(m), act(b)]` like
    /// [`BlockStore::get`], but serve unmodified off-diagonal pairs from
    /// the symbol table when one was built. Active ids are grid points at
    /// every level, so this applies beyond the leaves: the Schur phase
    /// reads many still-untouched neighbor blocks and the dense top block
    /// is mostly fresh far-pair evaluations — the table skips their
    /// per-entry transcendentals. Only `m == b` is excluded (diagonal
    /// entries are singular self-interactions, not symbol values).
    pub(crate) fn get_block<K: Kernel>(
        &self,
        store: &BlockStore<'_, K>,
        act: &ActiveSets,
        m: &BoxId,
        b: &BoxId,
    ) -> Mat<K::Elem> {
        match &self.symbols {
            Some(t) if m != b && !store.contains(m, b) => {
                t.table_block(act.get(m), act.get(b), false)
            }
            _ => store.get(m, b, act),
        }
    }
}

/// Detect whether `pts` is exactly the row-major [`UnitGrid`] layout with
/// a power-of-two side (bitwise comparison — the symbol identity is exact
/// only for the true grid).
fn detect_unit_grid(pts: &[Point]) -> Option<usize> {
    let n = pts.len();
    let side = (n as f64).sqrt().round() as usize;
    if side < 2 || side * side != n || !side.is_power_of_two() {
        return None;
    }
    let grid = UnitGrid::new(side);
    for (i, p) in pts.iter().enumerate() {
        let q = grid.point(i);
        if p.x.to_bits() != q.x.to_bits() || p.y.to_bits() != q.y.to_bits() {
            return None;
        }
    }
    Some(side)
}

/// Tabulate the symbol `t(d) = entry / (s_i s_j)` at a representative
/// grid pair realizing each offset, `t(0,0) = 0` (off-diagonal blocks
/// never pair a point with itself). Requires the symmetric-kernel
/// contract of [`Kernel::is_translation_invariant`] (`t(−d) = t(d)`).
fn build_symbol_table<K: Kernel>(kernel: &K, pts: &[Point], side: usize) -> SymbolTable {
    let n = side * side;
    let scale_full: Vec<f64> = (0..n).map(|i| kernel.point_scale(i)).collect();
    let identity = scale_full.iter().all(|&s| s == 1.0);
    let w = 2 * side - 1;
    let off = side as i64 - 1;
    let mut table = vec![c64::ZERO; w * w];
    for dy in -off..=off {
        for dx in -off..=off {
            if dx == 0 && dy == 0 {
                continue; // off-diagonal blocks never pair a point with itself
            }
            let (i, j) = offset_pair(side, dx, dy);
            let e = kernel.entry(pts, i, j);
            let ss = scale_full[i] * scale_full[j];
            table[((dy + off) as usize) * w + (dx + off) as usize] =
                c64::new(e.re() / ss, e.im() / ss);
        }
    }
    SymbolTable {
        side,
        scale: if identity { Vec::new() } else { scale_full },
        table,
    }
}

/// Pick a representative grid-index pair realizing the offset `(dx, dy)`.
fn offset_pair(m: usize, dx: i64, dy: i64) -> (usize, usize) {
    let jx = if dx >= 0 { 0i64 } else { -dx };
    let jy = if dy >= 0 { 0i64 } else { -dy };
    let ix = jx + dx;
    let iy = jy + dy;
    (
        (iy as usize) * m + ix as usize,
        (jy as usize) * m + jx as usize,
    )
}

/// Assemble the proxy-compressed tall matrix whose column ID skeletonizes
/// box `b` (the sketch's fallback, and the deterministic oracle the tests
/// hold it to).
pub fn proxy_matrix<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    opts: &FactorOpts,
    ctx: &CompressionCtx,
) -> Mat<K::Elem> {
    let _ = opts;
    let a_b = act.get(b);
    let nb = a_b.len();
    let pts = store.points();
    let kernel = store.kernel();

    // The row count is known before any block is materialized — each
    // nonempty ring box contributes its active count and the proxy circle
    // `n_proxy`, once per stacked direction — so the tall matrix is
    // allocated once and every block written straight into it, instead of
    // staging a `Vec<Mat>` and copying each block a second time during
    // stacking.
    let ring: Vec<_> = dist2_ring(b)
        .into_iter()
        .filter(|m| !act.get(m).is_empty())
        .collect();
    let ring_rows: usize = ring.iter().map(|m| act.get(m).len()).sum();

    let geom = ctx.geom(b.level);
    let n_proxy = geom.n_proxy;
    let circle = proxy_circle_from_unit(tree.bbox(b).center(), geom.radius, &geom.unit);

    // A symmetric store stacks the forward half `[A_{M,B}; K_{proxy,B}]`
    // only: its column ID `A_{F,R} ~ A_{F,S} T` is, transposed, the row
    // relation `A_{R,F} ~ T^T A_{S,F}` the elimination uses.
    let two_sided = !store.symmetric();
    let dirs = 1 + usize::from(two_sided);
    let mut out = Mat::zeros(dirs * (ring_rows + n_proxy), nb);
    let mut r0 = 0;
    for m in &ring {
        let blk = store.get(m, b, act);
        out.set_block(r0, 0, &blk);
        r0 += blk.nrows();
        if two_sided {
            let blk_h = store.get(b, m, act).adjoint();
            out.set_block(r0, 0, &blk_h);
            r0 += blk_h.nrows();
        }
    }
    // Proxy rows for the far field beyond M(B), filled in place.
    for (j, &g) in a_b.iter().enumerate() {
        let (fwd, adj) = out.col_mut(j)[r0..].split_at_mut(n_proxy);
        kernel.proxy_column(pts, &circle, g as usize, fwd);
        if two_sided {
            proxy_col_adjoint(kernel, pts, g as usize, &circle, adj);
        }
    }
    out
}

/// Compute the skeleton/redundant split and interpolation matrix of a
/// box, plus telemetry describing the compression path taken.
pub fn skeletonize<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    opts: &FactorOpts,
    ctx: &CompressionCtx,
) -> (IdResult<K::Elem>, CompressionTelemetry) {
    let mut tel = CompressionTelemetry::default();
    let nb = act.get(b).len();
    let ring: Vec<BoxId> = dist2_ring(b)
        .into_iter()
        .filter(|m| !act.get(m).is_empty())
        .collect();
    let ring_rows: usize = ring.iter().map(|m| act.get(m).len()).sum();
    // The sketch pays only while it is smaller than the stack the fallback
    // would factor: `proxy_matrix` stacks both directions for a general
    // kernel and the forward half alone for a symmetric one (also for a
    // real symmetric kernel, whose sketch fuses two halves' columns).
    let m_rows = (1 + usize::from(!store.symmetric())) * (ring_rows + ctx.geom(b.level).n_proxy);

    // Driver-invariant rank guess. Non-leaf boxes carry the previous
    // level's realized information in `nb` itself — a parent's active set
    // is the union of its children's realized skeletons — so the guess
    // warm-starts from the measured ranks without introducing any
    // schedule-dependent state (a running average would differ between
    // drivers and break the bit-identity contract).
    let guess = if b.level == ctx.leaf_level {
        nb / 2 + 8
    } else {
        (5 * nb) / 8 + 8
    }
    .min(nb);
    let box_seed = derive_seed(
        ctx.seed ^ ctx.seed_id,
        b.level as u64,
        ((b.ix as u64) << 32) | b.iy as u64,
    );

    let mut l = (guess + ctx.oversample).max(4);
    // The proxy block does not depend on the sketch size: evaluated on
    // the first attempt, shared by every retry.
    let mut proxy = None;
    loop {
        if 2 * (l + RID_VERIFY_ROWS) >= m_rows {
            tel.sketch_fallbacks += 1;
            let m = proxy_matrix(store, act, tree, b, opts, ctx);
            return (interp_decomp(m, opts.tol, usize::MAX), tel);
        }
        let proxy = proxy.get_or_insert_with(|| proxy_blocks(store, act, tree, b, ctx));
        let y = sketch_proxy(
            store,
            act,
            b,
            ctx,
            &ring,
            proxy,
            l + RID_VERIFY_ROWS,
            box_seed,
            &mut tel,
        );
        if let Some(id) = id_from_sketch(&y, l, opts.tol, usize::MAX) {
            return (id, tel);
        }
        tel.sketch_retries += 1;
        l *= 2;
    }
}

/// Which halves of the virtual stack — `[A_{M,B}; A_{B,M}ᴴ]` per ring box,
/// then `[K_{proxy,B}; K_{B,proxy}ᴴ]` — the sketch applies, and how
/// (module docs, "Symmetric kernels").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Halves {
    /// General kernel: forward and adjoint blocks read and sketched apart.
    Both,
    /// Real symmetric kernel: the adjoint block *is* the forward block,
    /// sketched once with the sum of both halves' sketch columns.
    Fused,
    /// Complex symmetric kernel: the adjoint (conjugate) half is dropped
    /// and the stack has half the height.
    Forward,
}

impl Halves {
    fn of<K: Kernel>(store: &BlockStore<'_, K>) -> Self {
        match (store.symmetric(), K::Elem::IS_COMPLEX) {
            (false, _) => Halves::Both,
            (true, false) => Halves::Fused,
            (true, true) => Halves::Forward,
        }
    }

    /// Stack rows (= sketch columns) per active ring or proxy point.
    fn stride(self) -> usize {
        match self {
            Halves::Both | Halves::Fused => 2,
            Halves::Forward => 1,
        }
    }
}

/// The proxy blocks of box `b`: `K_{proxy,B}` and, for a general kernel
/// only, `K_{B,proxy}ᴴ` — a symmetric kernel's contract
/// `proxy_row(y, j) == proxy_col(j, y)` makes the second one the
/// duplicate or the conjugate of the first.
fn proxy_blocks<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    ctx: &CompressionCtx,
) -> (Mat<K::Elem>, Option<Mat<K::Elem>>) {
    let a_b = act.get(b);
    let pts = store.points();
    let kernel = store.kernel();
    let geom = ctx.geom(b.level);
    let circle = proxy_circle_from_unit(tree.bbox(b).center(), geom.radius, &geom.unit);
    let mut p_row = Mat::zeros(geom.n_proxy, a_b.len());
    for (j, &g) in a_b.iter().enumerate() {
        kernel.proxy_column(pts, &circle, g as usize, p_row.col_mut(j));
    }
    let p_col_h = (Halves::of(store) == Halves::Both).then(|| {
        let mut m = Mat::zeros(geom.n_proxy, a_b.len());
        for (j, &g) in a_b.iter().enumerate() {
            proxy_col_adjoint(kernel, pts, g as usize, &circle, m.col_mut(j));
        }
        m
    });
    (p_row, p_col_h)
}

/// One column of `K_{B,proxy}ᴴ`: `out[p] = conj(proxy_col(i, circle[p]))`
/// — the adjoint half only a general kernel stacks.
fn proxy_col_adjoint<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    i: usize,
    circle: &[Point],
    out: &mut [K::Elem],
) {
    for (o, &y) in out.iter_mut().zip(circle) {
        *o = kernel.proxy_col(pts, i, y).conj();
    }
}

/// Form `Y = Ω · [proxy stack]` block by block, without materializing the
/// stack: one `Ω_blk · A_blk` GEMM per ring block and direction (one per
/// pair for a real symmetric kernel) and per proxy block. At the leaf
/// level an unmodified ring block assembles from the symbol table.
#[allow(clippy::too_many_arguments)]
fn sketch_proxy<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    b: &BoxId,
    ctx: &CompressionCtx,
    ring: &[BoxId],
    (p_row, p_col_h): &(Mat<K::Elem>, Option<Mat<K::Elem>>),
    rows: usize,
    seed: u64,
    tel: &mut CompressionTelemetry,
) -> Mat<K::Elem> {
    let a_b = act.get(b);
    let n_proxy = p_row.nrows();
    let halves = Halves::of(store);
    let symbols = ctx.symbols.as_ref().filter(|_| b.level == ctx.leaf_level);

    let mut y = Mat::<K::Elem>::zeros(rows, a_b.len());

    // Walk the ring with running offsets into the virtual tall stack —
    // the offset keys the sketch columns of each block.
    let mut r0 = 0;
    for m in ring {
        let am = act.get(m).len();
        let (fwd_off, adj_off) = (r0, r0 + am);
        r0 += halves.stride() * am;
        let fwd_blk = match symbols {
            Some(t) if !store.contains(m, b) => t.table_block::<K::Elem>(act.get(m), a_b, false),
            _ => store.get(m, b, act),
        };
        if halves == Halves::Fused {
            let omega = sketch_block_sum::<K::Elem>(seed, rows, &[fwd_off, adj_off], am);
            matmul_acc(&mut y, K::Elem::ONE, &omega, &fwd_blk);
            tel.dense_block_applies += 2;
            continue;
        }
        let omega = sketch_block::<K::Elem>(seed, rows, fwd_off, am);
        matmul_acc(&mut y, K::Elem::ONE, &omega, &fwd_blk);
        tel.dense_block_applies += 1;
        if halves == Halves::Both {
            let blk = match symbols {
                Some(t) if !store.contains(b, m) => t.table_block::<K::Elem>(act.get(m), a_b, true),
                _ => store.get(b, m, act).adjoint(),
            };
            let omega = sketch_block::<K::Elem>(seed, rows, adj_off, am);
            matmul_acc(&mut y, K::Elem::ONE, &omega, &blk);
            tel.dense_block_applies += 1;
        }
    }

    // Proxy blocks (proxy points live off-grid, so never from the table),
    // same treatment of the adjoint half as the ring blocks.
    let proxy_off = r0;
    let halves_of_p_row: &[usize] = if halves == Halves::Fused {
        &[proxy_off, proxy_off + n_proxy]
    } else {
        &[proxy_off]
    };
    let omega = sketch_block_sum::<K::Elem>(seed, rows, halves_of_p_row, n_proxy);
    matmul_acc(&mut y, K::Elem::ONE, &omega, p_row);
    if let Some(p_col_h) = p_col_h {
        let omega = sketch_block::<K::Elem>(seed, rows, proxy_off + n_proxy, n_proxy);
        matmul_acc(&mut y, K::Elem::ONE, &omega, p_col_h);
    }
    tel.dense_block_applies += halves.stride() as u64;
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_geometry::point::BBox;
    use srsf_kernels::helmholtz::HelmholtzKernel;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_linalg::norms::fro_norm;

    fn setup(m: usize, leaf: usize) -> (UnitGrid, LaplaceKernel, QuadTree) {
        let grid = UnitGrid::new(m);
        let k = LaplaceKernel::new(&grid);
        let tree = QuadTree::build(&grid.points(), BBox::UNIT, leaf);
        (grid, k, tree)
    }

    fn leaf_actives(grid: &UnitGrid, tree: &QuadTree) -> ActiveSets {
        let _ = grid;
        let mut act = ActiveSets::new();
        for id in tree.boxes_at_level(tree.leaf_level()) {
            act.set(id, tree.leaf_points(&id).to_vec());
        }
        act
    }

    /// The deterministic oracle: a full CPQR column ID of the proxy stack
    /// (what the sketch falls back to).
    fn cpqr_id<K: Kernel>(
        store: &BlockStore<'_, K>,
        act: &ActiveSets,
        tree: &QuadTree,
        b: &BoxId,
        opts: &FactorOpts,
        ctx: &CompressionCtx,
    ) -> IdResult<K::Elem> {
        interp_decomp(
            proxy_matrix(store, act, tree, b, opts, ctx),
            opts.tol,
            usize::MAX,
        )
    }

    #[test]
    fn proxy_matrix_shape_and_content() {
        let (grid, k, tree) = setup(16, 16);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 2,
            iy: 2,
        };
        let opts = FactorOpts::default();
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let m = proxy_matrix(&store, &act, &tree, &b, &opts, &ctx);
        assert_eq!(m.ncols(), 16);
        // Symmetric kernel: one row per active point of every nonempty
        // M(B) block plus one proxy block — the forward half only.
        let m_pts: usize = srsf_geometry::neighbors::dist2_ring(&b)
            .iter()
            .map(|mb| act.get(mb).len())
            .sum();
        assert!(m_pts > 0);
        let n_proxy = m.nrows() - m_pts;
        assert!(n_proxy >= opts.n_proxy_min && n_proxy < 2 * opts.n_proxy_min);
        assert!(fro_norm(&m) > 0.0);

        // A kernel that does not report symmetry stacks both directions.
        let g = crate::store::tests::HideSymmetry(k.clone());
        let gstore = BlockStore::new(&g, &pts);
        let gctx = CompressionCtx::new(&g, &pts, &tree, &opts);
        let m2 = proxy_matrix(&gstore, &act, &tree, &b, &opts, &gctx);
        assert_eq!(m2.nrows(), 2 * m.nrows());
    }

    #[test]
    fn skeleton_rank_much_smaller_than_box() {
        let (grid, k, tree) = setup(32, 64); // leaves of 64 points
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let opts = FactorOpts::default().with_tol(1e-6);
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 1,
            iy: 1,
        };
        let id = cpqr_id(&store, &act, &tree, &b, &opts, &ctx);
        assert_eq!(id.rank() + id.redundant.len(), 64);
        assert!(id.rank() < 50, "rank {} should compress", id.rank());
        assert!(id.rank() > 5, "rank {} suspiciously small", id.rank());
    }

    #[test]
    fn tighter_tolerance_larger_skeleton() {
        let (grid, k, tree) = setup(32, 64);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 2,
            iy: 1,
        };
        let lo = FactorOpts::default().with_tol(1e-3);
        let hi = FactorOpts::default().with_tol(1e-9);
        let ctx = CompressionCtx::new(&k, &pts, &tree, &lo);
        let loose = cpqr_id(&store, &act, &tree, &b, &lo, &ctx);
        let tight = cpqr_id(&store, &act, &tree, &b, &hi, &ctx);
        assert!(tight.rank() > loose.rank());
    }

    /// Convenience: the defining ID error `||A[:,R] - A[:,S] T||_max` against a
    /// freshly assembled proxy matrix .
    fn id_error<T: Scalar>(a: &Mat<T>, id: &IdResult<T>) -> f64 {
        let rows: Vec<usize> = (0..a.nrows()).collect();
        let ar = a.select(&rows, &id.redundant);
        let as_ = a.select(&rows, &id.skel);
        let approx = srsf_linalg::gemm::matmul(&as_, &id.t);
        srsf_linalg::norms::max_abs_diff(&ar, &approx)
    }

    /// Exact far-field block `A_{F,B}` for the accuracy assertions below.
    fn true_far_field<K: Kernel>(
        store: &BlockStore<'_, K>,
        act: &ActiveSets,
        tree: &QuadTree,
        b: &BoxId,
    ) -> Mat<K::Elem> {
        let a_b = act.get(b);
        let mut far_rows: Vec<u32> = Vec::new();
        for other in tree.boxes_at_level(b.level) {
            if other.chebyshev(b) > 2 {
                far_rows.extend_from_slice(act.get(&other));
            }
        }
        store.eval_kernel(&far_rows, a_b)
    }

    /// The far-field contract: `‖A_FR − A_FS T‖_max ≤ C · tol · ‖A_FB‖_F`.
    const FAR_FIELD_C: f64 = 1e3;

    /// `‖A_FR − A_FS T‖_max / (tol · ‖A_FB‖_F)`: at most [`FAR_FIELD_C`]
    /// when the ID meets the contract.
    fn far_field_ratio<T: Scalar>(afb: &Mat<T>, id: &IdResult<T>, tol: f64) -> f64 {
        id_error(afb, id) / (tol * fro_norm(afb).max(1e-12))
    }

    fn assert_far_field_bound<T: Scalar>(afb: &Mat<T>, id: &IdResult<T>, tol: f64, label: &str) {
        let ratio = far_field_ratio(afb, id, tol);
        assert!(
            ratio <= FAR_FIELD_C,
            "{label} ID failed on true far field: error {ratio:.3e} x tol x |A_FB|"
        );
    }

    /// The heart of the proxy trick: the ID computed from the O(1)-row
    /// proxy matrix must compress the *true* far-field interaction too.
    #[test]
    fn proxy_id_compresses_true_far_field() {
        let (grid, k, tree) = setup(32, 64);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let opts = FactorOpts::default().with_tol(1e-8);
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let lvl = tree.leaf_level();
        let b = BoxId {
            level: lvl,
            ix: 1,
            iy: 2,
        };
        let id = cpqr_id(&store, &act, &tree, &b, &opts, &ctx);
        let afb = true_far_field(&store, &act, &tree, &b);
        assert_far_field_bound(&afb, &id, opts.tol, "CPQR");
    }

    /// The sketched path must satisfy the *same* true-far-field bound as
    /// the deterministic path at the same tolerance.
    #[test]
    fn sketched_id_compresses_true_far_field() {
        let (grid, k, tree) = setup(32, 64);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let opts = FactorOpts::default().with_tol(1e-8);
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 1,
            iy: 2,
        };
        let (id, tel) = skeletonize(&store, &act, &tree, &b, &opts, &ctx);
        assert!(tel.dense_block_applies > 0, "sketch should have run");
        assert_eq!(tel.sketch_fallbacks, 0);
        let afb = true_far_field(&store, &act, &tree, &b);
        assert_far_field_bound(&afb, &id, opts.tol, "sketched");

        // And the skeleton count agrees with the deterministic path to
        // within the oversampling slack.
        let full = cpqr_id(&store, &act, &tree, &b, &opts, &ctx);
        assert!(
            id.rank() <= full.rank() + 6 && id.rank() + 6 >= full.rank(),
            "sketched rank {} vs deterministic {}",
            id.rank(),
            full.rank()
        );
    }

    /// The sketch accuracy contract, measured (see the `srsf_linalg::rid`
    /// module docs for what is proven): over 1000 sketch seeds per case,
    /// one leaf box each, no ID may miss the true-far-field bound. Retry
    /// and fallback rates are reported and loosely bounded. Leaves of
    /// 6 x 6 points keep the skeleton well below the box (16-point ones
    /// keep all 16 at tol 1e-9) at a third of a 64-point box's cost; the
    /// cases run on threads of their own, about 20 s each in a debug build.
    #[test]
    fn sketch_seed_sweep_meets_far_field_bound() {
        const SEEDS: u64 = 1000;
        fn sweep<K: Kernel>(k: &K, grid: &UnitGrid, tree: &QuadTree, tol: f64, label: &str) {
            let pts = grid.points();
            let store = BlockStore::new(k, &pts);
            let act = leaf_actives(grid, tree);
            let b = BoxId {
                level: tree.leaf_level(),
                ix: 0,
                iy: 0,
            };
            let afb = true_far_field(&store, &act, tree, &b);
            assert!(afb.nrows() > 0, "{label}: empty far field");
            let opts = FactorOpts::default().with_tol(tol);
            let mut ctx = CompressionCtx::new(k, &pts, tree, &opts);
            let (mut worst, mut tel, mut ranks) = (0.0f64, CompressionTelemetry::default(), 0);
            for seed in 0..SEEDS {
                ctx.seed = seed;
                let (id, t) = skeletonize(&store, &act, tree, &b, &opts, &ctx);
                tel.absorb(&t);
                ranks += id.rank();
                let ratio = far_field_ratio(&afb, &id, tol);
                assert!(
                    ratio <= FAR_FIELD_C,
                    "{label}, seed {seed}: error {ratio:.3e} x tol x |A_FB|"
                );
                worst = worst.max(ratio);
            }
            println!(
                "{label}: {SEEDS} seeds, 0 violations, worst {worst:.2e} x tol x |A_FB|, \
                 mean rank {:.1} of {}, retry rate {:.3}, fallback rate {:.3}",
                ranks as f64 / SEEDS as f64,
                act.get(&b).len(),
                tel.sketch_retries as f64 / SEEDS as f64,
                tel.sketch_fallbacks as f64 / SEEDS as f64
            );
            assert!(tel.sketch_retries <= SEEDS / 4, "{label}: {tel:?}");
            assert!(tel.sketch_fallbacks <= SEEDS / 100, "{label}: {tel:?}");
        }
        let (grid, k, tree) = setup(24, 36);
        let hk = HelmholtzKernel::new(&grid, 25.0);
        std::thread::scope(|s| {
            s.spawn(|| sweep(&k, &grid, &tree, 1e-6, "Laplace tol 1e-6"));
            s.spawn(|| sweep(&k, &grid, &tree, 1e-9, "Laplace tol 1e-9"));
            s.spawn(|| sweep(&hk, &grid, &tree, 1e-6, "Helmholtz kappa 25 tol 1e-6"));
        });
    }

    /// A real symmetric kernel's fallback factors the forward half of the
    /// stack alone, so a first sketch already as costly as that falls back
    /// without being formed. A general kernel's fallback stacks both
    /// directions, and the same sketch size still pays there.
    #[test]
    fn real_symmetric_fallback_measures_the_forward_stack() {
        let (grid, k, tree) = setup(16, 16);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 1,
            iy: 1,
        };
        let opts = FactorOpts::default();
        let mut ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let stack = proxy_matrix(&store, &act, &tree, &b, &opts, &ctx).nrows();
        // First attempt `2 (guess + stack / 2 + RID_VERIFY_ROWS)`: past the
        // forward stack, short of twice it (guess = 16 here).
        (ctx.oversample, ctx.seed) = (stack / 2, 1);
        let (id, tel) = skeletonize(&store, &act, &tree, &b, &opts, &ctx);
        assert_eq!(
            tel,
            CompressionTelemetry {
                sketch_fallbacks: 1,
                ..CompressionTelemetry::default()
            }
        );
        let full = cpqr_id(&store, &act, &tree, &b, &opts, &ctx);
        assert_eq!((id.skel, id.redundant), (full.skel, full.redundant));

        let g = crate::store::tests::HideSymmetry(k.clone());
        let gstore = BlockStore::new(&g, &pts);
        let mut gctx = CompressionCtx::new(&g, &pts, &tree, &opts);
        (gctx.oversample, gctx.seed) = (stack / 2, 1);
        let (_, gtel) = skeletonize(&gstore, &act, &tree, &b, &opts, &gctx);
        assert!(gtel.dense_block_applies > 0, "general kernel: {gtel:?}");
    }

    /// The symbol table serves the blocks the kernel would, for unmodified
    /// pairs at the leaf level and one coarser: bit for bit for Laplace
    /// (unscaled, exact dyadic offsets), within 4 ε relative for
    /// Helmholtz (its `sqrt(b)` scaling rounds in another order).
    #[test]
    fn table_blocks_match_kernel_blocks() {
        fn check<K: Kernel>(k: &K, grid: &UnitGrid, tree: &QuadTree, rel: f64) {
            let pts = grid.points();
            let mut store = BlockStore::new(k, &pts);
            let mut act = leaf_actives(grid, tree);
            let ctx = CompressionCtx::new(k, &pts, tree, &FactorOpts::default());
            assert!(ctx.has_leaf_fft());
            let leaf = tree.leaf_level();
            for level in [leaf, leaf - 1] {
                if level < leaf {
                    crate::levels::merge_to_parent(&mut store, &mut act, tree, level + 1);
                }
                for m in tree.boxes_at_level(level) {
                    for b in tree.boxes_at_level(level).filter(|b| *b != m) {
                        assert!(!store.contains(&m, &b));
                        let got = ctx.get_block(&store, &act, &m, &b);
                        let want = store.get(&m, &b, &act);
                        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                            assert!(
                                (*g - *w).abs() <= rel * w.abs(),
                                "level {level}, {m:?} x {b:?}: {g:?} vs {w:?}"
                            );
                        }
                    }
                }
            }
        }
        let (grid, k, tree) = setup(16, 16);
        check(&k, &grid, &tree, 0.0);
        let hk = HelmholtzKernel::new(&grid, 25.0);
        check(&hk, &grid, &tree, 4.0 * f64::EPSILON);
    }

    /// Scattered (non-grid) points must not detect as a grid.
    #[test]
    fn no_symbol_table_off_grid() {
        let pts = srsf_geometry::grid::scattered_points(256, 7);
        let k = LaplaceKernel::with_params(1.0 / 256.0, 1.0);
        let tree = QuadTree::build(&pts, BBox::UNIT, 16);
        let ctx = CompressionCtx::new(&k, &pts, &tree, &FactorOpts::default());
        assert!(!ctx.has_leaf_fft());
    }
}
