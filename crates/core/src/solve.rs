//! The solution phase (Section II-F): applying the approximate inverse.
//!
//! `A^{-1} ~= W_1 … W_k · TOP^{-1} · V_k … V_1`: an upward pass applies the
//! `V` factors in elimination order, the dense top block is solved, and a
//! downward pass applies the `W` factors in reverse order. Each record
//! touches only its box's redundant/skeleton entries and its neighbors'
//! active entries — the locality that makes the distributed solve possible.
//!
//! Three application paths share the record data:
//!
//! * **Single vector** ([`apply_inverse`]) — level-2 matvecs per record;
//!   this is what the distributed driver's rank-local solve uses, where
//!   each rank holds one slice of one right-hand side.
//! * **Blocked multi-RHS** ([`apply_inverse_mat`]) — the same sweeps over
//!   an `n x nrhs` [`Mat`]: row-block gather/scatter plus `T^H B_S`,
//!   `L^{-1} P B_R`, and the Schur subtractions as GEMM/blocked-TRSM
//!   calls into `srsf-linalg`. This is the hot path of a served
//!   deployment, where the factorization is amortized over many incident
//!   right-hand sides at once.
//! * **Color-scheduled threaded apply** ([`apply_inverse_mat_threaded`])
//!   — records carry a `(level, color)` stamp from factorization time;
//!   contiguous same-stamp runs are applied concurrently under
//!   `std::thread::scope`. With the distance-3 `Nine` coloring all record
//!   writes are disjoint by construction; the distance-2 `Four` scheme
//!   additionally shares additive neighbor updates. Both run the same
//!   snapshot-read compute phase followed by a fixed-order merge
//!   (mirroring `eliminate_color_round`), so the result is bit-identical
//!   to the serial [`apply_inverse_mat`] for any thread count.

use crate::elimination::BoxElimination;
use crate::sequential::Factorization;
use srsf_linalg::gemm::{
    adjoint_matmul_sub, matmul, matmul_sub, transpose_matmul, transpose_matmul_acc,
    transpose_matmul_sub,
};
use srsf_linalg::{Mat, Scalar};
use std::ops::Range;
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::atomic::{AtomicUsize, Ordering};
use srsf_verify::sync::{Barrier, Mutex, RwLock};

#[inline]
pub(crate) fn gather<T: Scalar>(b: &[T], idx: &[u32]) -> Vec<T> {
    idx.iter().map(|&i| b[i as usize]).collect()
}

#[inline]
pub(crate) fn scatter<T: Scalar>(b: &mut [T], idx: &[u32], vals: &[T]) {
    for (&i, &v) in idx.iter().zip(vals.iter()) {
        b[i as usize] = v;
    }
}

// The four record kernels below are the only readers of a record's
// coupling fields, and the only place its two forms differ. A general
// record splits `X_RR^{-1} = U^{-1} · L^{-1} P` between the sweeps:
//
//   up:   b_R := L^{-1} P (b_R - T^H b_S);  b_S -= ES b_R;  b_N -= EN b_R
//   down: b_R := U^{-1} (b_R - FS b_S - FN b_N);            b_S -= T b_R
//
// with `ES = X_SR U^{-1}`, `FS = L^{-1} P X_RS` (same for `N`). A
// symmetric record stores `ES = X_SR`, `EN = X_NR` unsolved and no `F`
// (`X_RS = ES^T`, `X_RN = EN^T`), so each sweep applies the whole inverse:
//
//   up:   b_R := X_RR^{-1} (b_R - T^T b_S);  b_S -= ES b_R;  b_N -= EN b_R
//   down: b_R -= X_RR^{-1} (ES^T b_S + EN^T b_N);            b_S -= T b_R
//
// `T^T` against `T^H` is the whole rule: a symmetric kernel (`A = A^T`,
// real or complex) is sparsified by the congruence `S^T A S`, because the
// column ID `A_{F,R} ~ A_{F,S} T` then gives `A_{R,F} ~ T^T A_{S,F}` with
// no conjugate and every Schur update stays transpose-symmetric; any
// other kernel needs the two-sided `S^H A S`. A symmetric record
// therefore never conjugates, a general one conjugates `T` only, and for
// real entries the two flavours are the same bits.
//
// Between the sweeps `b_R` is private to its record (redundant rows are
// never read by another record or the top solve), so the two forms may
// park different intermediates there.

/// Upward (forward) application of one record: `b := V b` with
/// `V = L^{-1} P S^*` restricted to `[R, S, N]`.
pub(crate) fn apply_upward<T: Scalar>(rec: &BoxElimination<T>, b: &mut [T]) {
    let mut br = gather(b, &rec.redundant);
    let bs = gather(b, &rec.skel);
    // b_R := L^{-1} P (b_R - T^H b_S) (general)
    //     or X_RR^{-1} (b_R - T^T b_S) (symmetric)
    let sym = rec.is_symmetric();
    let mut tt_bs = vec![T::ZERO; br.len()];
    if sym {
        rec.t.transpose_matvec_acc_into(&bs, &mut tt_bs);
    } else {
        rec.t.adjoint_matvec_acc_into(&bs, &mut tt_bs);
    }
    for (r, v) in br.iter_mut().zip(tt_bs.iter()) {
        *r -= *v;
    }
    if sym {
        rec.lu.solve_vec(&mut br);
    } else {
        rec.lu.forward_vec(&mut br);
    }
    // b_S -= ES b_R ; b_N -= EN b_R
    let mut bs = bs;
    rec.es.matvec_sub_into(&br, &mut bs);
    let mut bn = gather(b, &rec.nbr);
    rec.en.matvec_sub_into(&br, &mut bn);
    scatter(b, &rec.redundant, &br);
    scatter(b, &rec.skel, &bs);
    scatter(b, &rec.nbr, &bn);
}

/// Downward (backward) application of one record: `b := W b` with
/// `W = P S U^{-1}`-style ordering (see Section II-D).
pub(crate) fn apply_downward<T: Scalar>(rec: &BoxElimination<T>, b: &mut [T]) {
    let mut br = gather(b, &rec.redundant);
    let bs = gather(b, &rec.skel);
    let bn = gather(b, &rec.nbr);
    if let (Some(fs), Some(fnb)) = (&rec.fs, &rec.fnb) {
        // b_R := U^{-1} (b_R - FS b_S - FN b_N)
        fs.matvec_sub_into(&bs, &mut br);
        fnb.matvec_sub_into(&bn, &mut br);
        rec.lu.backward_vec(&mut br);
    } else {
        // b_R -= X_RR^{-1} (ES^T b_S + EN^T b_N)
        let mut v = vec![T::ZERO; br.len()];
        rec.es.transpose_matvec_acc_into(&bs, &mut v);
        rec.en.transpose_matvec_acc_into(&bn, &mut v);
        rec.lu.solve_vec(&mut v);
        for (r, v) in br.iter_mut().zip(&v) {
            *r -= *v;
        }
    }
    // b_S -= T b_R
    let mut bs = bs;
    rec.t.matvec_sub_into(&br, &mut bs);
    scatter(b, &rec.redundant, &br);
    scatter(b, &rec.skel, &bs);
}

/// Full solve: upward pass, dense top solve, downward pass.
pub(crate) fn apply_inverse<T: Scalar>(f: &Factorization<T>, b: &mut [T]) {
    assert_eq!(b.len(), f.n, "right-hand side length mismatch");
    for rec in &f.records {
        apply_upward(rec, b);
    }
    let mut top = gather(b, &f.top_idx);
    f.top.solve_vec(&mut top);
    scatter(b, &f.top_idx, &top);
    for rec in f.records.iter().rev() {
        apply_downward(rec, b);
    }
}

// ---------------------------------------------------------------------------
// Blocked multi-RHS application
// ---------------------------------------------------------------------------

/// The snapshot-read compute half of the upward record application:
/// returns `(B_R, B_S, EN B_R)` where `B_R` and `B_S` are the updated
/// redundant/skeleton row blocks and `EN B_R` is the *additive* neighbor
/// delta, left unapplied so callers can merge it in a fixed record order.
pub(crate) fn upward_parts<T: Scalar>(
    rec: &BoxElimination<T>,
    b: &Mat<T>,
) -> (Mat<T>, Mat<T>, Mat<T>) {
    let mut br = b.gather_rows(&rec.redundant);
    let mut bs = b.gather_rows(&rec.skel);
    // B_R := L^{-1} P (B_R - T^H B_S) (general)
    //     or X_RR^{-1} (B_R - T^T B_S) (symmetric)
    if rec.is_symmetric() {
        transpose_matmul_sub(&mut br, &rec.t, &bs);
        rec.lu.solve_mat(&mut br);
    } else {
        adjoint_matmul_sub(&mut br, &rec.t, &bs);
        rec.lu.forward_mat(&mut br);
    }
    // B_S -= ES B_R ; neighbor delta EN B_R is handed back for the merge.
    matmul_sub(&mut bs, &rec.es, &br);
    let dn = matmul(&rec.en, &br);
    (br, bs, dn)
}

/// Merge half of the upward application: overwrite the box's own row
/// blocks, subtract the neighbor delta.
pub(crate) fn merge_upward<T: Scalar>(
    rec: &BoxElimination<T>,
    b: &mut Mat<T>,
    br: Mat<T>,
    bs: Mat<T>,
    dn: Mat<T>,
) {
    b.scatter_rows(&rec.redundant, &br);
    b.scatter_rows(&rec.skel, &bs);
    b.scatter_rows_sub(&rec.nbr, &dn);
}

/// Upward application of one record to an `n x nrhs` block: the level-3
/// counterpart of [`apply_upward`].
pub(crate) fn apply_upward_mat<T: Scalar>(rec: &BoxElimination<T>, b: &mut Mat<T>) {
    let (br, bs, dn) = upward_parts(rec, b);
    merge_upward(rec, b, br, bs, dn);
}

/// The snapshot-read compute half of the downward record application:
/// returns the updated `(B_R, B_S)` row blocks. Downward writes touch
/// only the box's own rows, so no delta is needed.
pub(crate) fn downward_parts<T: Scalar>(rec: &BoxElimination<T>, b: &Mat<T>) -> (Mat<T>, Mat<T>) {
    let mut br = b.gather_rows(&rec.redundant);
    let mut bs = b.gather_rows(&rec.skel);
    let bn = b.gather_rows(&rec.nbr);
    if let (Some(fs), Some(fnb)) = (&rec.fs, &rec.fnb) {
        // B_R := U^{-1} (B_R - FS B_S - FN B_N)
        matmul_sub(&mut br, fs, &bs);
        matmul_sub(&mut br, fnb, &bn);
        rec.lu.backward_mat(&mut br);
    } else {
        // B_R -= X_RR^{-1} (ES^T B_S + EN^T B_N)
        let mut v = transpose_matmul(&rec.es, &bs);
        transpose_matmul_acc(&mut v, T::ONE, &rec.en, &bn);
        rec.lu.solve_mat(&mut v);
        br.axpy(-T::ONE, &v);
    }
    // B_S -= T B_R
    matmul_sub(&mut bs, &rec.t, &br);
    (br, bs)
}

/// Downward application of one record to an `n x nrhs` block: the
/// level-3 counterpart of [`apply_downward`].
pub(crate) fn apply_downward_mat<T: Scalar>(rec: &BoxElimination<T>, b: &mut Mat<T>) {
    let (br, bs) = downward_parts(rec, b);
    b.scatter_rows(&rec.redundant, &br);
    b.scatter_rows(&rec.skel, &bs);
}

/// Full blocked solve: upward pass, dense top solve (one blocked
/// triangular pair over all columns), downward pass.
pub(crate) fn apply_inverse_mat<T: Scalar>(f: &Factorization<T>, b: &mut Mat<T>) {
    assert_eq!(b.nrows(), f.n, "right-hand side row count mismatch");
    for rec in &f.records {
        apply_upward_mat(rec, b);
    }
    let mut top = b.gather_rows(&f.top_idx);
    f.top.solve_mat(&mut top);
    b.scatter_rows(&f.top_idx, &top);
    for rec in f.records.iter().rev() {
        apply_downward_mat(rec, b);
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
/// per-box ranks vary widely), computes the record's row blocks against
/// a read-locked snapshot of `b`, and parks at the barrier; one
/// designated merger then write-locks `b` and applies the outputs in
/// serial record order (reverse order within a group on the downward
/// pass, mirroring the serial sweep), and a second barrier releases the
/// pool into the next group.
fn threaded_pass<T: Scalar>(
    records: &[BoxElimination<T>],
    groups: &[Range<usize>],
    b: &mut Mat<T>,
    n_threads: usize,
    downward: bool,
) {
    // (B_R, B_S, additive neighbor delta — upward only).
    type Parts<T> = (Mat<T>, Mat<T>, Option<Mat<T>>);
    let slots: Vec<Mutex<Option<Parts<T>>>> =
        (0..records.len()).map(|_| Mutex::new(None)).collect();
    let counters: Vec<AtomicUsize> = groups.iter().map(|_| AtomicUsize::new(0)).collect();
    let barrier = Barrier::new(n_threads);
    let lock = RwLock::new(std::mem::replace(b, Mat::zeros(0, 0)));
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
                    let rec = &records[i];
                    let out = if downward {
                        let (br, bs) = downward_parts(rec, &snapshot);
                        (br, bs, None)
                    } else {
                        let (br, bs, dn) = upward_parts(rec, &snapshot);
                        (br, bs, Some(dn))
                    };
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
                    let (br, bs, dn) = slots[i]
                        .lock()
                        // INVARIANT: poisoning requires a panicked worker (propagated
                        // at scope join)
                        .expect("slot poisoned")
                        .take()
                        // INVARIANT: the barrier orders every record's slot write
                        // before the merger's take
                        .expect("missing record output");
                    let rec = &records[i];
                    bm.scatter_rows(&rec.redundant, &br);
                    bm.scatter_rows(&rec.skel, &bs);
                    if let Some(dn) = dn {
                        bm.scatter_rows_sub(&rec.nbr, &dn);
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
    *b = lock.into_inner().expect("rhs lock poisoned");
}

/// Threaded blocked solve, scheduled by the records' `(level, color)`
/// stamps: same-color records of a level compute concurrently against a
/// snapshot of `b` and merge in record order, so the result is
/// bit-identical to [`apply_inverse_mat`] for any `n_threads`.
///
/// With the distance-3 `Nine` coloring the records of a group write
/// disjoint rows outright; with the paper's `Four` scheme same-color
/// boxes at distance 2 share additive neighbor updates, which the
/// fixed-order merge applies exactly as the serial sweep would.
pub(crate) fn apply_inverse_mat_threaded<T: Scalar>(
    f: &Factorization<T>,
    b: &mut Mat<T>,
    n_threads: usize,
) {
    assert!(n_threads >= 1, "need at least one worker thread");
    if n_threads == 1 {
        return apply_inverse_mat(f, b);
    }
    assert_eq!(b.nrows(), f.n, "right-hand side row count mismatch");
    let groups = color_groups(&f.records);
    threaded_pass(&f.records, &groups, b, n_threads, false);
    let mut top = b.gather_rows(&f.top_idx);
    f.top.solve_mat(&mut top);
    b.scatter_rows(&f.top_idx, &top);
    threaded_pass(&f.records, &groups, b, n_threads, true);
}
