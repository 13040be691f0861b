//! The dense top block: assembly and factorization of the DOFs that
//! survive above `min_compress_level`, shared by all three drivers.
//!
//! A symmetric store (`BlockStore::symmetric`) makes the top the last
//! elimination step of the symmetric factorization: only the block pairs
//! on or below the diagonal are read, straight into packed block-column
//! panels, and factored as `L D Lᵀ` ([`srsf_linalg::Ldlt`]) — half the
//! kernel reads, bytes and flops of the general path, and the
//! `top x top` square is never allocated. Every other kernel, and a
//! symmetric top whose `L D Lᵀ` breaks down, takes the general path: the
//! full square and a partially pivoted LU.
//!
//! The solve of either form is a forward and a backward sweep over
//! 64-wide block columns that touch nothing but the column being applied
//! and the panel columns from it to the end. The sequential and colored
//! drivers run both over the whole factor; the resident distributed
//! service deals the block columns of the packed form out over its ranks
//! and runs the same two sweeps range by range ([`TopFactor`]).

use crate::elimination::FactorError;
use crate::skeletonize::CompressionCtx;
use crate::store::{ActiveSets, BlockStore};
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{Ldlt, Lu, Mat, Scalar, SymPanels};

/// The factored dense top block — or, where the top is spread over a
/// rank world (`distributed::serve`), one rank's contiguous range of the
/// packed form's block columns. The solve is two sweeps that visit one
/// block column at a time ([`TopFactor::forward_cols`],
/// [`TopFactor::backward_cols`]), so it runs range by range wherever the
/// ranges live; [`TopFactor::solve_panel`] is the two sweeps over a
/// factor held whole. A general LU is never split: its one holder's
/// forward sweep is `L⁻¹P`, its backward sweep `U⁻¹`.
#[derive(Clone, Debug)]
pub enum TopFactor<T> {
    /// Partially pivoted LU of the full square.
    General(Lu<T>),
    /// Packed block `L D Lᵀ` of the lower block triangle (symmetric
    /// kernels).
    Symmetric(Ldlt<T>),
}

impl<T: Scalar> TopFactor<T> {
    /// Dimension of the top block.
    pub fn dim(&self) -> usize {
        match self {
            TopFactor::General(lu) => lu.dim(),
            TopFactor::Symmetric(ldlt) => ldlt.dim(),
        }
    }

    /// The columns of the top block this value's sweeps finish: all of
    /// them unless it is a range of a spread `L D Lᵀ`.
    pub fn col_span(&self) -> core::ops::Range<usize> {
        match self {
            TopFactor::General(lu) => 0..lu.dim(),
            TopFactor::Symmetric(ldlt) => ldlt.col_span(),
        }
    }

    /// `true` when no part of the factor lives elsewhere.
    pub fn is_whole(&self) -> bool {
        self.col_span() == (0..self.dim())
    }

    /// In-place multi-RHS solve on an RHS-major panel (`h x dim`, one
    /// right-hand side per row; see `srsf_linalg::panel`):
    /// `X := X A_top^{-T}`, the transpose of `B := A_top^{-1} B`.
    pub fn solve_panel(&self, x: &mut Mat<T>) {
        assert!(self.is_whole(), "solve_panel needs the whole top factor");
        self.forward_cols(x);
        self.backward_cols(x);
    }

    /// Forward sweep of the columns held, on the panel columns from
    /// `col_span().start` to the end (`h x (dim - col_span().start)`).
    pub fn forward_cols(&self, x: &mut Mat<T>) {
        match self {
            TopFactor::General(lu) => lu.forward_panel(x),
            TopFactor::Symmetric(ldlt) => ldlt.forward_cols(x),
        }
    }

    /// Backward sweep of the columns held, on the same panel columns,
    /// everything past `col_span().end` final.
    pub fn backward_cols(&self, x: &mut Mat<T>) {
        match self {
            TopFactor::General(lu) => lu.backward_panel(x),
            TopFactor::Symmetric(ldlt) => ldlt.backward_cols(x),
        }
    }

    /// Approximate heap footprint in bytes (of the columns held).
    pub fn heap_bytes(&self) -> usize {
        match self {
            TopFactor::General(lu) => lu.heap_bytes(),
            TopFactor::Symmetric(ldlt) => ldlt.heap_bytes(),
        }
    }
}

/// Assemble and factor the dense top block over all boxes at
/// `top_level`, in row-major box order. A pivot breakdown of the general
/// LU is reported as [`FactorError::SingularTop`] — the top system is a
/// property of the whole remaining active set, not of any one box.
pub(crate) fn factor_top<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    top_level: u8,
    ctx: &CompressionCtx,
) -> Result<(Vec<u32>, TopFactor<K::Elem>), FactorError> {
    let boxes: Vec<BoxId> = tree.boxes_at_level(top_level).collect();
    let sizes: Vec<usize> = boxes.iter().map(|b| act.get(b).len()).collect();
    let total: usize = sizes.iter().sum();
    let mut top_idx = Vec::with_capacity(total);
    for b in &boxes {
        top_idx.extend_from_slice(act.get(b));
    }
    if store.symmetric() {
        let panels = {
            let _sp = srsf_trace::span!(srsf_trace::Cat::Compute, "core.top.assemble");
            let mut a = SymPanels::zeros(total);
            for_each_block(&boxes, &sizes, true, |r0, c0, bi, bj| {
                a.set_block(r0, c0, &ctx.get_block(store, act, bi, bj));
            });
            a
        };
        let factored = {
            let _sp = srsf_trace::span!(srsf_trace::Cat::Compute, "core.top.factor");
            Ldlt::factor(panels)
        };
        if let Ok(ldlt) = factored {
            return Ok((top_idx, TopFactor::Symmetric(ldlt)));
        }
        // Breakdown (see `srsf_linalg::ldlt`): the matrix needs pivoting
        // across blocks, so it goes through the general path below.
    }
    let a = {
        let _sp = srsf_trace::span!(srsf_trace::Cat::Compute, "core.top.assemble");
        let mut a = Mat::zeros(total, total);
        for_each_block(&boxes, &sizes, false, |r0, c0, bi, bj| {
            a.set_block(r0, c0, &ctx.get_block(store, act, bi, bj));
        });
        a
    };
    let _sp = srsf_trace::span!(srsf_trace::Cat::Compute, "core.top.factor");
    let lu = Lu::factor(a).map_err(|e| FactorError::SingularTop {
        size: total,
        step: e.step,
    })?;
    Ok((top_idx, TopFactor::General(lu)))
}

/// Visit the non-empty box pairs of the top block — all of them, or only
/// those on and below the block diagonal — with the offset of each
/// pair's block.
fn for_each_block(
    boxes: &[BoxId],
    sizes: &[usize],
    lower_only: bool,
    mut f: impl FnMut(usize, usize, &BoxId, &BoxId),
) {
    let mut r0 = 0;
    for (i, bi) in boxes.iter().enumerate() {
        let n_cols = if lower_only { i + 1 } else { boxes.len() };
        let mut c0 = 0;
        for (j, bj) in boxes.iter().enumerate().take(n_cols) {
            if sizes[i] > 0 && sizes[j] > 0 {
                f(r0, c0, bi, bj);
            }
            c0 += sizes[j];
        }
        r0 += sizes[i];
    }
}
