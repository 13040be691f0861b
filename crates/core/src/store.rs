//! The modified-interaction block store.
//!
//! The factorization reads matrix blocks between pairs of boxes. Most of
//! them are untouched kernel entries (Theorem 1 of the paper guarantees
//! this for pairs at box distance > 2), so the store only materializes
//! blocks that have actually been *modified* by Schur-complement updates —
//! everything else is evaluated from the kernel on demand against the
//! current active index sets. This mirrors the paper's "explicitly store
//! the modified interactions for every box" (Section III-C) while keeping
//! the memory footprint at O(N).
//!
//! # One block per pair for a symmetric kernel
//!
//! A symmetric kernel (`A = Aᵀ`, real or complex) is sparsified with `Tᵀ`,
//! so every modified block satisfies `A[a, b] == A[b, a]ᵀ` and the store
//! keeps only one of the two. **The canonical-pair rule:** the block of
//! the unordered pair `{a, b}` lives under the key whose row box does not
//! come before its column box in row-major box order
//! (`a.flat() >= b.flat()`) — the lower block triangle, which is what
//! `factor_top` reads. Every method takes a pair in either direction and
//! serves or updates the other one by transposition, so callers need not
//! know the rule; the producers that emit many blocks (`eliminate_box`,
//! the level merges) ask [`BlockStore::is_canonical`] and emit the stored
//! direction, so that nothing is transposed on the way in. A general
//! kernel keeps directed pairs, both directions on their own.

use srsf_geometry::neighbors::within_dist2;
use srsf_geometry::point::Point;
use srsf_geometry::tree::BoxId;
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{Mat, Scalar};
use std::borrow::Cow;
use std::collections::HashMap;

/// Active (not-yet-eliminated) global point indices per box, in a fixed
/// deterministic order.
#[derive(Clone, Debug, Default)]
pub struct ActiveSets {
    map: HashMap<BoxId, Vec<u32>>,
}

impl ActiveSets {
    /// Empty set collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Active indices of a box (empty slice if unknown).
    pub fn get(&self, b: &BoxId) -> &[u32] {
        self.map.get(b).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Replace the active set of a box.
    pub fn set(&mut self, b: BoxId, ids: Vec<u32>) {
        self.map.insert(b, ids);
    }

    /// Remove all boxes at `level` (after a level transition).
    pub fn drop_level(&mut self, level: u8) {
        self.map.retain(|k, _| k.level != level);
    }

    /// Number of tracked boxes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no box is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of active indices across boxes at `level`.
    pub fn total_at_level(&self, level: u8) -> usize {
        self.map
            .iter()
            .filter(|(k, _)| k.level == level)
            .map(|(_, v)| v.len())
            .sum()
    }
}

/// Key of a stored pair block `A[row_box, col_box]`.
pub type PairKey = (BoxId, BoxId);

/// Block store: modified blocks plus kernel-on-miss evaluation.
pub struct BlockStore<'a, K: Kernel> {
    kernel: &'a K,
    pts: &'a [Point],
    /// [`Kernel::is_symmetric`], read once.
    sym: bool,
    blocks: HashMap<PairKey, Mat<K::Elem>>,
}

impl<'a, K: Kernel> BlockStore<'a, K> {
    /// New store over a kernel and its point set.
    pub fn new(kernel: &'a K, pts: &'a [Point]) -> Self {
        Self {
            kernel,
            pts,
            sym: kernel.is_symmetric(),
            blocks: HashMap::new(),
        }
    }

    /// The point set.
    pub fn points(&self) -> &'a [Point] {
        self.pts
    }

    /// The kernel.
    pub fn kernel(&self) -> &'a K {
        self.kernel
    }

    /// `true` when the kernel is symmetric ([`Kernel::is_symmetric`], real
    /// or complex), so that `A[a, b] == A[b, a]ᵀ` — plain transpose, no
    /// conjugate — and the store keeps one block per unordered pair
    /// (module docs). This one predicate selects the symmetric mode of
    /// `skeletonize`, `eliminate_box` and `factor_top`.
    pub fn symmetric(&self) -> bool {
        self.sym
    }

    /// `true` when `(a, b)` is a key this store holds as given: always
    /// for a general kernel, and for a symmetric one when `a` does not
    /// come before `b` in row-major box order (the canonical-pair rule of
    /// the module docs). A producer that emits only canonical pairs never
    /// makes the store transpose.
    pub fn is_canonical(&self, a: &BoxId, b: &BoxId) -> bool {
        !self.sym || a.flat() >= b.flat()
    }

    /// The key holding pair `(a, b)` and whether its block is stored
    /// transposed relative to the request.
    fn key(&self, a: &BoxId, b: &BoxId) -> (PairKey, bool) {
        if self.is_canonical(a, b) {
            ((*a, *b), false)
        } else {
            ((*b, *a), true)
        }
    }

    /// Evaluate raw kernel entries for explicit index lists.
    pub fn eval_kernel(&self, rows: &[u32], cols: &[u32]) -> Mat<K::Elem> {
        eval_kernel(self.kernel, self.pts, rows, cols)
    }

    /// `true` if the pair has a materialized (modified) block.
    pub fn contains(&self, a: &BoxId, b: &BoxId) -> bool {
        self.blocks.contains_key(&self.key(a, b).0)
    }

    /// Number of materialized blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Approximate heap bytes held by materialized blocks.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.values().map(Mat::heap_bytes).sum()
    }

    /// The block `A[active(a), active(b)]`: stored version if modified,
    /// kernel evaluation otherwise.
    pub fn get(&self, a: &BoxId, b: &BoxId, act: &ActiveSets) -> Mat<K::Elem> {
        match self.get_stored(a, b) {
            Some(m) => {
                debug_assert_eq!(m.nrows(), act.get(a).len(), "stale rows for {a:?},{b:?}");
                debug_assert_eq!(m.ncols(), act.get(b).len(), "stale cols for {a:?},{b:?}");
                m.into_owned()
            }
            None => self.eval_kernel(act.get(a), act.get(b)),
        }
    }

    /// The stored block of a pair if present: borrowed when `(a, b)` is
    /// the stored key, transposed into a fresh matrix otherwise.
    pub fn get_stored(&self, a: &BoxId, b: &BoxId) -> Option<Cow<'_, Mat<K::Elem>>> {
        let (key, flipped) = self.key(a, b);
        let m = self.blocks.get(&key)?;
        Some(if flipped {
            Cow::Owned(m.transpose())
        } else {
            Cow::Borrowed(m)
        })
    }

    /// Insert/replace the stored block of a pair.
    pub fn insert(&mut self, a: BoxId, b: BoxId, m: Mat<K::Elem>) {
        let (key, flipped) = self.key(&a, &b);
        self.blocks
            .insert(key, if flipped { m.transpose() } else { m });
    }

    /// Remove a stored block.
    pub fn remove(&mut self, a: &BoxId, b: &BoxId) -> Option<Mat<K::Elem>> {
        let (key, flipped) = self.key(a, b);
        let m = self.blocks.remove(&key)?;
        Some(if flipped { m.transpose() } else { m })
    }

    /// `block(a,b) += delta`, materializing from the kernel first if the
    /// pair was still implicit. `delta` must match the current active sets.
    pub fn add_delta(&mut self, a: BoxId, b: BoxId, delta: &Mat<K::Elem>, act: &ActiveSets) {
        let ((ka, kb), flipped) = self.key(&a, &b);
        let entry = self
            .blocks
            .entry((ka, kb))
            .or_insert_with(|| eval_kernel(self.kernel, self.pts, act.get(&ka), act.get(&kb)));
        if flipped {
            entry.axpy(K::Elem::ONE, &delta.transpose());
        } else {
            entry.axpy(K::Elem::ONE, delta);
        }
    }

    /// After box `b` was eliminated, restrict every stored block involving
    /// `b` to the surviving positions `keep` of its former active set —
    /// except `(b, b)` and the pairs listed in `replaced`, which the
    /// caller overwrites outright next (the elimination's post-Schur
    /// blocks: every near neighbour's pair on the eliminating rank, so
    /// that what is left to restrict there is the distance-2 ring).
    pub fn shrink_box(
        &mut self,
        b: &BoxId,
        keep: &[usize],
        replaced: &[(BoxId, BoxId, Mat<K::Elem>)],
    ) {
        let replaced: Vec<PairKey> = replaced.iter().map(|(x, y, _)| self.key(x, y).0).collect();
        for d in within_dist2(b) {
            if !replaced.contains(&(*b, d)) {
                if let Some(m) = self.blocks.get_mut(&(*b, d)) {
                    *m = m.select_rows(keep);
                }
            }
            if !replaced.contains(&(d, *b)) {
                if let Some(m) = self.blocks.get_mut(&(d, *b)) {
                    *m = m.select_cols(keep);
                }
            }
        }
    }

    /// Drop every stored block whose boxes live at `level` (after the
    /// factorization has moved past it).
    pub fn drop_level(&mut self, level: u8) {
        self.blocks.retain(|(a, _), _| a.level != level);
    }

    /// Iterate the stored blocks under their stored keys — one per
    /// unordered pair for a symmetric kernel (for fold and top transfers
    /// in the distributed driver).
    pub fn stored_pairs(&self) -> impl Iterator<Item = (&PairKey, &Mat<K::Elem>)> {
        self.blocks.iter()
    }
}

/// `A[rows, cols]` from the kernel, a column at a time
/// ([`Kernel::column`], diagonal folded in).
fn eval_kernel<K: Kernel>(kernel: &K, pts: &[Point], rows: &[u32], cols: &[u32]) -> Mat<K::Elem> {
    let mut m = Mat::zeros(rows.len(), cols.len());
    for (j, &c) in cols.iter().enumerate() {
        kernel.column(pts, rows, c as usize, m.col_mut(j));
    }
    m
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use srsf_geometry::grid::UnitGrid;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_linalg::norms::max_abs_diff;

    /// The wrapped kernel with its symmetry hidden: same entries, only
    /// the mode predicate changes, so the store keeps directed pairs and
    /// the factorization takes the general two-sided path (the unit-test
    /// twin of `tests/common::HideSymmetry`).
    pub(crate) struct HideSymmetry<K>(pub K);

    impl<K: Kernel> Kernel for HideSymmetry<K> {
        type Elem = K::Elem;
        fn entry(&self, pts: &[Point], i: usize, j: usize) -> K::Elem {
            self.0.entry(pts, i, j)
        }
        fn diag(&self, pts: &[Point], i: usize) -> K::Elem {
            self.0.diag(pts, i)
        }
        fn proxy_row(&self, pts: &[Point], y: Point, j: usize) -> K::Elem {
            self.0.proxy_row(pts, y, j)
        }
        fn proxy_col(&self, pts: &[Point], i: usize, y: Point) -> K::Elem {
            self.0.proxy_col(pts, i, y)
        }
        fn kappa(&self) -> f64 {
            self.0.kappa()
        }
        fn is_translation_invariant(&self) -> bool {
            self.0.is_translation_invariant()
        }
        fn point_scale(&self, i: usize) -> f64 {
            self.0.point_scale(i)
        }
        fn seed_id(&self) -> u64 {
            self.0.seed_id()
        }
    }

    fn setup() -> (UnitGrid, LaplaceKernel, Vec<Point>) {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        (grid, k, pts)
    }

    fn bid(level: u8, ix: u32, iy: u32) -> BoxId {
        BoxId { level, ix, iy }
    }

    #[test]
    fn kernel_on_miss_matches_direct_eval() {
        let (_, k, pts) = setup();
        let store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        let a = bid(2, 0, 0);
        let b = bid(2, 3, 3);
        act.set(a, vec![0, 1, 2]);
        act.set(b, vec![60, 61]);
        let m = store.get(&a, &b, &act);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m[(1, 0)], k.entry(&pts, 1, 60));
        // Diagonal folding on a self pair.
        let s = store.get(&a, &a, &act);
        assert_eq!(s[(2, 2)], k.diag(&pts, 2));
        // A wrapper with the scalar methods only evaluates through the
        // trait's default column; same bits as the kernel's own.
        let wrapped = HideSymmetry(k.clone());
        let plain = BlockStore::new(&wrapped, &pts);
        assert_eq!(plain.get(&a, &b, &act), m);
        assert_eq!(plain.get(&a, &a, &act), s);
    }

    #[test]
    fn stored_block_takes_priority() {
        let (_, k, pts) = setup();
        let general = HideSymmetry(k);
        let mut store = BlockStore::new(&general, &pts);
        let mut act = ActiveSets::new();
        let a = bid(2, 0, 0);
        let b = bid(2, 1, 0);
        act.set(a, vec![0]);
        act.set(b, vec![9]);
        let m = Mat::from_vec(1, 1, vec![123.0]);
        store.insert(a, b, m);
        assert!(store.contains(&a, &b));
        assert_eq!(store.get(&a, &b, &act)[(0, 0)], 123.0);
        // A general kernel keeps directed pairs.
        assert!(!store.symmetric() && !store.contains(&b, &a));
    }

    /// A symmetric store keeps one block per unordered pair, under the
    /// key whose row box comes last in row-major order, and serves,
    /// replaces and removes it through either direction.
    #[test]
    fn symmetric_store_keeps_one_block_per_pair() {
        let (_, k, pts) = setup();
        let mut store = BlockStore::new(&k, &pts);
        assert!(store.symmetric());
        let mut act = ActiveSets::new();
        let a = bid(2, 3, 0); // row-major: before b
        let b = bid(2, 0, 1);
        assert!(store.is_canonical(&b, &a) && !store.is_canonical(&a, &b));
        assert!(store.is_canonical(&a, &a));
        act.set(a, vec![0, 1, 2]);
        act.set(b, vec![9, 10]);
        let m = Mat::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        store.insert(a, b, m.clone());
        assert_eq!(store.n_blocks(), 1);
        assert!(store.contains(&a, &b) && store.contains(&b, &a));
        let keys: Vec<PairKey> = store.stored_pairs().map(|(k, _)| *k).collect();
        assert_eq!(keys, [(b, a)]);
        assert_eq!(store.get(&a, &b, &act), m);
        assert_eq!(store.get(&b, &a, &act), m.transpose());
        assert_eq!(*store.get_stored(&b, &a).unwrap(), m.transpose());
        // Replacing through the stored direction is seen by the other.
        let m2 = Mat::from_fn(2, 3, |i, j| (i + 7 * j) as f64);
        store.insert(b, a, m2.clone());
        assert_eq!(store.n_blocks(), 1);
        assert_eq!(store.get(&a, &b, &act), m2.transpose());
        assert_eq!(store.remove(&a, &b), Some(m2.transpose()));
        assert_eq!(store.n_blocks(), 0);
        assert!(!store.contains(&b, &a));
    }

    #[test]
    fn add_delta_materializes_then_accumulates() {
        let (_, k, pts) = setup();
        let mut store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        let a = bid(2, 1, 1);
        let b = bid(2, 2, 1);
        act.set(a, vec![3, 4]);
        act.set(b, vec![20, 21, 22]);
        let base = store.get(&a, &b, &act);
        let delta = Mat::from_fn(2, 3, |i, j| (i + j) as f64);
        store.add_delta(a, b, &delta, &act);
        store.add_delta(a, b, &delta, &act);
        let got = store.get(&a, &b, &act);
        let mut want = base;
        want.axpy(2.0, &delta);
        assert!(max_abs_diff(&got, &want) < 1e-15);
    }

    /// `add_delta` through the direction a symmetric store does not keep
    /// materializes and updates the one stored block.
    #[test]
    fn add_delta_through_the_unstored_direction() {
        let (_, k, pts) = setup();
        let mut store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        let a = bid(2, 1, 1);
        let b = bid(2, 2, 1);
        assert!(!store.is_canonical(&a, &b));
        act.set(a, vec![3, 4]);
        act.set(b, vec![20, 21, 22]);
        let base = store.get(&a, &b, &act);
        let delta = Mat::from_fn(2, 3, |i, j| (i + 2 * j) as f64);
        store.add_delta(a, b, &delta, &act);
        store.add_delta(b, a, &delta.transpose(), &act);
        assert_eq!(store.n_blocks(), 1);
        let mut want = base;
        want.axpy(2.0, &delta);
        assert!(max_abs_diff(&store.get(&a, &b, &act), &want) < 1e-15);
        assert_eq!(store.get(&b, &a, &act), store.get(&a, &b, &act).transpose());
    }

    #[test]
    fn shrink_box_restricts_stored_pairs() {
        let (_, k, pts) = setup();
        let general = HideSymmetry(k);
        let mut store = BlockStore::new(&general, &pts);
        let mut act = ActiveSets::new();
        let b = bid(3, 4, 4);
        let d = bid(3, 5, 4); // neighbor
        act.set(b, vec![10, 11, 12, 13]);
        act.set(d, vec![20, 21]);
        store.insert(b, d, Mat::from_fn(4, 2, |i, j| (10 * i + j) as f64));
        store.insert(d, b, Mat::from_fn(2, 4, |i, j| (100 * i + j) as f64));
        store.shrink_box(&b, &[1, 3], &[]);
        let bd = store.get_stored(&b, &d).unwrap();
        assert_eq!(bd.nrows(), 2);
        assert_eq!(bd[(0, 0)], 10.0);
        assert_eq!(bd[(1, 1)], 31.0);
        let db = store.get_stored(&d, &b).unwrap();
        assert_eq!(db.ncols(), 2);
        assert_eq!(db[(1, 0)], 101.0);
        assert_eq!(db[(0, 1)], 3.0);
    }

    /// Shrinking either box of a pair restricts the one stored block of a
    /// symmetric store, whichever side of the key the box sits on.
    #[test]
    fn shrink_box_on_either_side_of_the_stored_key() {
        let (_, k, pts) = setup();
        let mut store = BlockStore::new(&k, &pts);
        let b = bid(3, 4, 4);
        let d = bid(3, 5, 4); // stored as (d, b)
        let m = Mat::from_fn(4, 2, |i, j| (10 * i + j) as f64);
        store.insert(b, d, m.clone());
        store.shrink_box(&b, &[1, 3], &[]);
        assert_eq!(*store.get_stored(&b, &d).unwrap(), m.select_rows(&[1, 3]));
        store.shrink_box(&d, &[1], &[]);
        assert_eq!(*store.get_stored(&b, &d).unwrap(), m.select(&[1, 3], &[1]));
        assert_eq!(store.n_blocks(), 1);
        // A pair the caller is about to overwrite is left as it is,
        // whichever direction names it.
        let untouched = store.get_stored(&b, &d).unwrap().into_owned();
        store.shrink_box(&d, &[0], &[(b, d, Mat::zeros(0, 0))]);
        assert_eq!(*store.get_stored(&b, &d).unwrap(), untouched);
    }

    #[test]
    fn drop_level_clears_blocks_and_actives() {
        let (_, k, pts) = setup();
        let mut store = BlockStore::new(&k, &pts);
        store.insert(bid(3, 0, 0), bid(3, 1, 0), Mat::zeros(1, 1));
        store.insert(bid(2, 0, 0), bid(2, 1, 0), Mat::zeros(1, 1));
        assert_eq!(store.n_blocks(), 2);
        store.drop_level(3);
        assert_eq!(store.n_blocks(), 1);
        assert!(store.contains(&bid(2, 0, 0), &bid(2, 1, 0)));

        let mut act = ActiveSets::new();
        act.set(bid(3, 0, 0), vec![1]);
        act.set(bid(2, 0, 0), vec![2]);
        act.drop_level(3);
        assert!(act.get(&bid(3, 0, 0)).is_empty());
        assert_eq!(act.get(&bid(2, 0, 0)), &[2]);
        assert_eq!(act.total_at_level(2), 1);
    }
}
