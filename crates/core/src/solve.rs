//! The solution phase (Section II-F): applying the approximate inverse.
//!
//! `A^{-1} ~= W_1 … W_k · TOP^{-1} · V_k … V_1`: an upward pass applies the
//! `V` factors in elimination order, the dense top block is solved, and a
//! downward pass applies the `W` factors in reverse order. Each record
//! touches only its box's redundant/skeleton entries and its neighbors'
//! active entries — the locality that makes the distributed solve possible.
//!
//! There is one sweep. It holds its working block **RHS-major**
//! ([`RhsBlock`]: `nrhs x n`, one point's values for all right-hand
//! sides contiguous) and every entry is a view of it:
//!
//! * **A block of columns** ([`solve_mat`]) — the hot path of a served
//!   deployment, where the factorization is amortized over many incident
//!   right-hand sides at once; the caller's `n x nrhs` block is
//!   transposed on entry and on exit. One vector is the one-column block.
//! * **A rank's share of the block** (`distributed::serve`) — the resident
//!   service runs the same four record kernels and [`solve_top`] on each
//!   rank's block, with the exchange of remote points between them.
//!
//! A record gathers its `R`/`S`/`N` points — one `nrhs`-long copy per
//! index — into panels that a sweep allocates once
//! ([`RecordPanels`]), zero-padded to the register-tile height
//! (`srsf_linalg::panel::panel_rows`; exactly 1 for one right-hand
//! side). The padding lives in those panels only: the block itself, and
//! every wire frame the ranks cut from it, keeps exactly `nrhs` rows.
//! Every step is then a product `panel * M` or `panel * M^T` — `X_RR^{-1}`
//! too, which a record holds as an explicit inverse (a packed triangle in
//! a symmetric record) — with the right-hand sides in the register tile
//! and `T`/`ES`/`EN`/the inverse streamed in place, once
//! (`srsf_linalg::panel`); no triangular solve
//! is left in a record's application. No kernel combines two rows of a
//! panel and none chooses its arithmetic by `nrhs`, so the lanes are
//! independent: a right-hand side is solved to the same bits alone, in
//! any batch, and at any position in it.

use crate::elimination::{BoxElimination, RecordForm};
use crate::sequential::Factorization;
use crate::top::TopFactor;
use srsf_linalg::panel::{panel_mul_acc, panel_mul_sym_acc, panel_mul_t_acc, panel_rows};
use srsf_linalg::{Mat, Scalar};

// The four record kernels below are the only readers of a record's
// coupling fields. Both forms hold the couplings unsolved
// (`ES = X_SR`, `EN = X_NR`) and `X_RR^{-1}` as an explicit inverse —
// the transpose `X_RR^{-T}` in a general record, one packed triangle of
// the symmetric `X_RR^{-1}` in a symmetric one — and apply the whole of
// it in each sweep:
//
//   up:   b_R := X_RR^{-1} (b_R - T' b_S);  b_S -= ES b_R;  b_N -= EN b_R
//   down: b_R -= X_RR^{-1} (FS b_S + FN b_N);               b_S -= T b_R
//
// with `FS = X_RS`, `FN = X_RN`: held as such by a general record, and
// `ES^T`, `EN^T` in a symmetric one, which holds no `F`. `EN` and `FN`
// may be held in `f32` (`srsf_linalg::Coupling`); the panel products
// widen them exactly as they stream them, so a narrow record applies the
// widened matrix and the arithmetic is otherwise the same. `T' = T^T` for
// a symmetric record and `T^H` for a general one is the whole rule: a
// symmetric kernel (`A = A^T`, real or complex) is sparsified by the
// congruence `S^T A S`, because the column ID `A_{F,R} ~ A_{F,S} T` then
// gives `A_{R,F} ~ T^T A_{S,F}` with no conjugate and every Schur update
// stays transpose-symmetric; any other kernel needs the two-sided
// `S^H A S`. A symmetric record therefore never conjugates, a general one
// conjugates `T` only, and for real entries the two flavours are the
// same bits.
//
// The formulas are written for one right-hand side as a column `b`; the
// kernels hold the right-hand sides as the rows of `X` and apply the
// transposes — `X_R := (X_R - X_S conj(T)) X_RR^{-T}`, … — each one
// `panel_mul_acc` or `panel_mul_t_acc` against a block of the record.

/// The sweep's working block, RHS-major: `nrhs x n`, column `i`
/// holding point `i`'s value for every right-hand side. A type of its
/// own so that it cannot be taken for the caller's `n x nrhs` block.
pub(crate) struct RhsBlock<T>(Mat<T>);

impl<T: Scalar> RhsBlock<T> {
    /// All-zero block.
    pub(crate) fn zeros(nrhs: usize, n: usize) -> Self {
        Self(Mat::zeros(nrhs, n))
    }

    /// From the caller's `n x nrhs` block of columns.
    pub(crate) fn from_cols(b: &Mat<T>) -> Self {
        Self(b.transpose())
    }

    /// Back to `n x nrhs`.
    pub(crate) fn into_cols(self) -> Mat<T> {
        self.0.transpose()
    }

    /// Number of right-hand sides.
    pub(crate) fn nrhs(&self) -> usize {
        self.0.nrows()
    }

    /// Number of points.
    pub(crate) fn n(&self) -> usize {
        self.0.ncols()
    }

    /// Gather points `idx` into `panel`, zero-padded to the tile height.
    pub(crate) fn gather(&self, idx: &[u32], panel: &mut Mat<T>) {
        self.0
            .gather_cols_into(idx, panel_rows::<T>(self.nrhs()), panel);
    }

    /// The exact-height `nrhs x |idx|` copy of points `idx` that goes on
    /// the wire.
    pub(crate) fn frame(&self, idx: &[u32]) -> Mat<T> {
        frame_of(&self.0, idx, self.nrhs())
    }

    /// `self[.., idx[k]] = vals[.., k]` (`vals` a panel or a frame).
    pub(crate) fn scatter(&mut self, idx: &[u32], vals: &Mat<T>) {
        self.0.scatter_cols(idx, vals);
    }

    /// `self[.., idx[k]] -= vals[.., k]`.
    pub(crate) fn scatter_sub(&mut self, idx: &[u32], vals: &Mat<T>) {
        self.0.scatter_cols_sub(idx, vals);
    }
}

/// Columns `pos` of `panel` cut down to `nrhs` rows: a wire frame.
pub(crate) fn frame_of<T: Scalar>(panel: &Mat<T>, pos: &[u32], nrhs: usize) -> Mat<T> {
    let mut out = Mat::zeros(0, 0);
    panel.gather_cols_into(pos, nrhs, &mut out);
    out
}

/// The panels one record application works in: after
/// [`upward_parts`] the updated `X_R`, `X_S` and the additive neighbor
/// delta `X_R EN^T`; after [`downward_parts`] the updated `X_R`, `X_S`.
/// `v` holds the operand of the `X_RR^{-T}` product. The sweep keeps
/// one set for all its records.
pub(crate) struct RecordPanels<T> {
    pub(crate) r: Mat<T>,
    pub(crate) s: Mat<T>,
    pub(crate) n: Mat<T>,
    v: Mat<T>,
}

impl<T: Scalar> RecordPanels<T> {
    pub(crate) fn new() -> Self {
        let empty = || Mat::zeros(0, 0);
        Self {
            r: empty(),
            s: empty(),
            n: empty(),
            v: empty(),
        }
    }
}

/// The compute half of the upward record application:
/// leaves the updated `X_R` and `X_S` in `w.r`, `w.s` and the *additive*
/// neighbor delta `X_R EN^T` in `w.n`, unapplied so callers can merge it
/// in a fixed record order.
pub(crate) fn upward_parts<T: Scalar>(
    rec: &BoxElimination<T>,
    x: &RhsBlock<T>,
    w: &mut RecordPanels<T>,
) {
    x.gather(&rec.redundant, &mut w.v);
    x.gather(&rec.skel, &mut w.s);
    // X_R := (X_R - X_S T') X_RR^{-T}, T' = conj(T) in a general record.
    panel_mul_acc(&mut w.v, -T::ONE, &w.s, &rec.t, !rec.is_symmetric());
    w.r.reset_zeros(w.v.nrows(), w.v.ncols());
    mul_inverse_acc(rec, &mut w.r, T::ONE, &w.v);
    // X_S -= X_R ES^T ; the neighbor delta X_R EN^T is left for the merge.
    panel_mul_t_acc(&mut w.s, -T::ONE, &w.r, &rec.es);
    w.n.reset_zeros(w.r.nrows(), rec.nbr.len());
    panel_mul_t_acc(&mut w.n, T::ONE, &w.r, &rec.en);
}

/// Merge half of the upward application: overwrite the box's own points,
/// subtract the neighbor delta.
pub(crate) fn merge_upward<T: Scalar>(
    rec: &BoxElimination<T>,
    x: &mut RhsBlock<T>,
    w: &RecordPanels<T>,
) {
    x.scatter(&rec.redundant, &w.r);
    x.scatter(&rec.skel, &w.s);
    x.scatter_sub(&rec.nbr, &w.n);
}

/// The compute half of the downward record application:
/// leaves the updated `X_R`, `X_S` in `w.r`, `w.s`. Downward writes touch
/// only the box's own points, so no delta is needed.
pub(crate) fn downward_parts<T: Scalar>(
    rec: &BoxElimination<T>,
    x: &RhsBlock<T>,
    w: &mut RecordPanels<T>,
) {
    x.gather(&rec.redundant, &mut w.r);
    x.gather(&rec.skel, &mut w.s);
    x.gather(&rec.nbr, &mut w.n);
    // X_R -= (X_S FS^T + X_N FN^T) X_RR^{-T}, with FS^T = ES (FN^T = EN)
    // in a symmetric record.
    w.v.reset_zeros(w.r.nrows(), w.r.ncols());
    if let RecordForm::General { fs, fnb, .. } = &rec.form {
        panel_mul_t_acc(&mut w.v, T::ONE, &w.s, fs);
        panel_mul_t_acc(&mut w.v, T::ONE, &w.n, fnb);
    } else {
        panel_mul_acc(&mut w.v, T::ONE, &w.s, &rec.es, false);
        panel_mul_acc(&mut w.v, T::ONE, &w.n, &rec.en, false);
    }
    mul_inverse_acc(rec, &mut w.r, -T::ONE, &w.v);
    // X_S -= X_R T^T
    panel_mul_t_acc(&mut w.s, -T::ONE, &w.r, &rec.t);
}

/// `C += alpha * P * X_RR^{-T}` for the record's inverse in either form.
fn mul_inverse_acc<T: Scalar>(rec: &BoxElimination<T>, c: &mut Mat<T>, alpha: T, p: &Mat<T>) {
    match &rec.form {
        RecordForm::Symmetric { inv } => panel_mul_sym_acc(c, alpha, p, inv),
        RecordForm::General { inv_t, .. } => panel_mul_acc(c, alpha, p, inv_t, false),
    }
}

/// Merge half of the downward application.
pub(crate) fn merge_downward<T: Scalar>(
    rec: &BoxElimination<T>,
    x: &mut RhsBlock<T>,
    w: &RecordPanels<T>,
) {
    x.scatter(&rec.redundant, &w.r);
    x.scatter(&rec.skel, &w.s);
}

/// The dense top solve on the block's top points `top_idx`, through the
/// scratch `panel`.
pub(crate) fn solve_top<T: Scalar>(
    top_idx: &[u32],
    top: &TopFactor<T>,
    x: &mut RhsBlock<T>,
    panel: &mut Mat<T>,
) {
    x.gather(top_idx, panel);
    top.solve_panel(panel);
    x.scatter(top_idx, panel);
}

/// The sweep: upward pass, dense top solve, downward pass.
fn sweep<T: Scalar>(f: &Factorization<T>, x: &mut RhsBlock<T>) {
    record_pass(&f.records, x, false);
    solve_top(&f.top_idx, &f.top, x, &mut Mat::zeros(0, 0));
    record_pass(&f.records, x, true);
}

/// Solve an `n x nrhs` block of right-hand sides: [`sweep`] on its
/// RHS-major transpose.
pub(crate) fn solve_mat<T: Scalar>(f: &Factorization<T>, b: &Mat<T>) -> Mat<T> {
    assert_eq!(b.nrows(), f.n, "right-hand side row count mismatch");
    let mut x = RhsBlock::from_cols(b);
    sweep(f, &mut x);
    x.into_cols()
}

/// One substitution pass over all records with one set of panels,
/// upward in elimination order or downward in its reverse.
fn record_pass<T: Scalar>(records: &[BoxElimination<T>], x: &mut RhsBlock<T>, downward: bool) {
    let mut w = RecordPanels::new();
    if downward {
        for rec in records.iter().rev() {
            downward_parts(rec, x, &mut w);
            merge_downward(rec, x, &w);
        }
    } else {
        for rec in records {
            upward_parts(rec, x, &mut w);
            merge_upward(rec, x, &w);
        }
    }
}
