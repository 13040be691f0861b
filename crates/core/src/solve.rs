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
//! * **One vector** ([`apply_inverse`]) — a length-`n` slice *is* a
//!   `1 x n` RHS-major block, so it is swept as it stands.
//! * **A block of columns** ([`solve_mat`]) — the hot path of a served
//!   deployment, where the factorization is amortized over many incident
//!   right-hand sides at once; the caller's `n x nrhs` block is
//!   transposed on entry and on exit.
//! * **A rank's share of either** (`distributed::serve`) — the resident
//!   service runs the same four record kernels and [`solve_top`] on each
//!   rank's block, with the exchange of remote points between them.
//!
//! A record gathers its `R`/`S`/`N` points — one `nrhs`-long copy per
//! index — into panels that a serial sweep allocates once
//! ([`RecordPanels`]), zero-padded to the register-tile height
//! (`srsf_linalg::panel::panel_rows`; exactly 1 for one right-hand
//! side). The padding lives in those panels only: the block itself, and
//! every wire frame the ranks cut from it, keeps exactly `nrhs` rows.
//! Every step is then a product `panel * M` or `panel * M^T` — `X_RR^{-1}`
//! too, which a record holds as its explicit inverse transpose — with the
//! right-hand sides in the register tile and `T`/`ES`/`EN`/`X_RR^{-T}`
//! streamed in place, once (`srsf_linalg::panel`); no triangular solve
//! is left in a record's application. No kernel combines two rows of a
//! panel and none chooses its arithmetic by `nrhs`, so the lanes are
//! independent: a right-hand side is solved to the same bits alone, in
//! any batch, and at any position in it.
//!
//! **Color-scheduled over threads** (`n_threads > 1`) — records carry a
//! `(level, color)` stamp from factorization time; contiguous same-stamp
//! runs are applied concurrently under `std::thread::scope`. With the
//! distance-3 `Nine` coloring all record writes are disjoint by
//! construction; the distance-2 `Four` scheme additionally shares
//! additive neighbor updates. Both run the same snapshot-read compute
//! phase followed by a fixed-order merge (mirroring
//! `eliminate_color_round`), so the result is bit-identical to the
//! serial sweep for any thread count.

use crate::elimination::BoxElimination;
use crate::sequential::Factorization;
use crate::top::TopFactor;
use srsf_linalg::panel::{panel_mul_acc, panel_mul_t_acc, panel_rows};
use srsf_linalg::{Mat, Scalar};
use std::ops::Range;
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::atomic::{AtomicUsize, Ordering};
use srsf_verify::sync::{Barrier, Mutex, RwLock};

// The four record kernels below are the only readers of a record's
// coupling fields. Both forms hold the couplings unsolved
// (`ES = X_SR`, `EN = X_NR`) and `X_RR^{-1}` as an explicit inverse, and
// apply the whole of it in each sweep:
//
//   up:   b_R := X_RR^{-1} (b_R - T' b_S);  b_S -= ES b_R;  b_N -= EN b_R
//   down: b_R -= X_RR^{-1} (FS b_S + FN b_N);               b_S -= T b_R
//
// with `FS = X_RS`, `FN = X_RN`: held as such by a general record, and
// `ES^T`, `EN^T` in a symmetric one, which holds no `F`. `T' = T^T` for
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

    /// One right-hand side: the slice is the `1 x n` block.
    pub(crate) fn from_row(b: &[T]) -> Self {
        let mut x = Self::zeros(1, b.len());
        x.0.as_mut_slice().copy_from_slice(b);
        x
    }

    /// The block's values in storage order: the solution itself when
    /// there is one right-hand side.
    pub(crate) fn as_slice(&self) -> &[T] {
        self.0.as_slice()
    }

    /// Number of right-hand sides.
    pub(crate) fn nrhs(&self) -> usize {
        self.0.nrows()
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
/// `v` holds the operand of the `X_RR^{-T}` product. A serial sweep keeps
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

/// The snapshot-read compute half of the upward record application:
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
    panel_mul_acc(&mut w.r, T::ONE, &w.v, &rec.inv_t, false);
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

/// The snapshot-read compute half of the downward record application:
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
    if let (Some(fs), Some(fnb)) = (&rec.fs, &rec.fnb) {
        panel_mul_t_acc(&mut w.v, T::ONE, &w.s, fs);
        panel_mul_t_acc(&mut w.v, T::ONE, &w.n, fnb);
    } else {
        panel_mul_acc(&mut w.v, T::ONE, &w.s, &rec.es, false);
        panel_mul_acc(&mut w.v, T::ONE, &w.n, &rec.en, false);
    }
    panel_mul_acc(&mut w.r, -T::ONE, &w.v, &rec.inv_t, false);
    // X_S -= X_R T^T
    panel_mul_t_acc(&mut w.s, -T::ONE, &w.r, &rec.t);
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

/// The sweep: upward pass, dense top solve, downward pass. With
/// `n_threads > 1` the two record passes are color-scheduled
/// ([`threaded_pass`]); the result is bit-identical for any `n_threads`.
fn sweep<T: Scalar>(f: &Factorization<T>, x: &mut RhsBlock<T>, n_threads: usize) {
    assert!(n_threads >= 1, "need at least one worker thread");
    record_pass(&f.records, x, n_threads, false);
    solve_top(&f.top_idx, &f.top, x, &mut Mat::zeros(0, 0));
    record_pass(&f.records, x, n_threads, true);
}

/// Solve an `n x nrhs` block of right-hand sides: [`sweep`] on its
/// RHS-major transpose.
pub(crate) fn solve_mat<T: Scalar>(f: &Factorization<T>, b: &Mat<T>, n_threads: usize) -> Mat<T> {
    assert_eq!(b.nrows(), f.n, "right-hand side row count mismatch");
    let mut x = RhsBlock::from_cols(b);
    sweep(f, &mut x, n_threads);
    x.into_cols()
}

/// Solve one right-hand side in place, `b := A^{-1} b`: [`sweep`] at
/// `nrhs = 1`, the same bits as that column in any [`solve_mat`] block.
pub(crate) fn apply_inverse<T: Scalar>(f: &Factorization<T>, b: &mut [T], n_threads: usize) {
    assert_eq!(b.len(), f.n, "right-hand side length mismatch");
    let mut x = RhsBlock::from_row(b);
    sweep(f, &mut x, n_threads);
    b.copy_from_slice(x.as_slice());
}

/// One substitution pass over all records, upward in elimination order
/// or downward in its reverse: serial with one set of panels, or
/// color-scheduled over `n_threads` workers.
fn record_pass<T: Scalar>(
    records: &[BoxElimination<T>],
    x: &mut RhsBlock<T>,
    n_threads: usize,
    downward: bool,
) {
    if n_threads > 1 {
        return threaded_pass(records, &color_groups(records), x, n_threads, downward);
    }
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

// ---------------------------------------------------------------------------
// Color-scheduled threaded application
// ---------------------------------------------------------------------------

/// Maximal contiguous runs of records sharing a `(level, color)` stamp.
///
/// Only *contiguous* runs are grouped: reordering records across stamps
/// would change the elimination order the factorization was built for.
/// The colored driver emits whole color rounds back-to-back, so its runs
/// span entire rounds; sequential/distributed record streams degrade to
/// short runs and lose parallelism but never correctness.
fn color_groups<T>(records: &[BoxElimination<T>]) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=records.len() {
        let split = i == records.len()
            || (records[i - 1].level, records[i - 1].color) != (records[i].level, records[i].color);
        if split {
            groups.push(start..i);
            start = i;
        }
    }
    groups
}

/// One threaded substitution pass (upward or downward) over the color
/// groups.
///
/// The worker pool is spawned **once** per pass and synchronized with a
/// [`Barrier`] between groups — respawning `thread::scope` per group
/// costs more than a small group's compute. Per group, every worker
/// pulls record indices from a shared atomic counter (work-stealing:
/// per-box ranks vary widely), computes the record's panels against
/// a read-locked snapshot of `x`, and parks at the barrier; one
/// designated merger then write-locks `x` and applies the outputs in
/// serial record order (reverse order within a group on the downward
/// pass, mirroring the serial sweep), and a second barrier releases the
/// pool into the next group.
fn threaded_pass<T: Scalar>(
    records: &[BoxElimination<T>],
    groups: &[Range<usize>],
    x: &mut RhsBlock<T>,
    n_threads: usize,
    downward: bool,
) {
    let slots: Vec<Mutex<Option<RecordPanels<T>>>> =
        (0..records.len()).map(|_| Mutex::new(None)).collect();
    let counters: Vec<AtomicUsize> = groups.iter().map(|_| AtomicUsize::new(0)).collect();
    let barrier = Barrier::new(n_threads);
    let lock = RwLock::new(std::mem::replace(x, RhsBlock::zeros(0, 0)));
    let order: Vec<usize> = if downward {
        (0..groups.len()).rev().collect()
    } else {
        (0..groups.len()).collect()
    };

    let worker = |is_merger: bool| {
        for &gi in &order {
            let g = &groups[gi];
            {
                // INVARIANT: poisoning requires a panicked worker, and that panic
                // already propagates through the scope join
                let snapshot = lock.read().expect("rhs lock poisoned");
                loop {
                    // Relaxed is enough: the counter only partitions record indices — the
                    // per-record Mutex slots publish the data, and the group barrier orders
                    // every write before the merger reads (modeled by
                    // delta_merge_order_is_schedule_independent in crates/verify/tests/models.rs).
                    let k = counters[gi].fetch_add(1, Ordering::Relaxed);
                    if k >= g.len() {
                        break;
                    }
                    let i = g.start + k;
                    let mut out = RecordPanels::new();
                    if downward {
                        downward_parts(&records[i], &snapshot, &mut out);
                    } else {
                        upward_parts(&records[i], &snapshot, &mut out);
                    }
                    // INVARIANT: poisoning requires a panicked worker, whose panic
                    // already propagates through the scope join
                    *slots[i].lock().expect("slot poisoned") = Some(out);
                }
            }
            barrier.wait();
            if is_merger {
                // INVARIANT: poisoning requires a panicked worker, whose panic
                // already propagates through the scope join
                let mut bm = lock.write().expect("rhs lock poisoned");
                let idx: Vec<usize> = if downward {
                    g.clone().rev().collect()
                } else {
                    g.clone().collect()
                };
                for i in idx {
                    let out = slots[i]
                        .lock()
                        // INVARIANT: poisoning requires a panicked worker (propagated
                        // at scope join)
                        .expect("slot poisoned")
                        .take()
                        // INVARIANT: the barrier orders every record's slot write
                        // before the merger's take
                        .expect("missing record output");
                    if downward {
                        merge_downward(&records[i], &mut bm, &out);
                    } else {
                        merge_upward(&records[i], &mut bm, &out);
                    }
                }
            }
            barrier.wait();
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..n_threads {
            scope.spawn(|| worker(false));
        }
        worker(true);
    });
    // INVARIANT: all workers joined at scope end; poisoning would mean a panic
    // that already propagated
    *x = lock.into_inner().expect("rhs lock poisoned");
}
