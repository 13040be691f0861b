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

use srsf_geometry::neighbors::within_dist2;
use srsf_geometry::point::Point;
use srsf_geometry::tree::BoxId;
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{Mat, Scalar};
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

/// Key of a directed pair block `A[row_box, col_box]`.
pub type PairKey = (BoxId, BoxId);

/// Block store: modified blocks plus kernel-on-miss evaluation.
pub struct BlockStore<'a, K: Kernel> {
    kernel: &'a K,
    pts: &'a [Point],
    blocks: HashMap<PairKey, Mat<K::Elem>>,
}

impl<'a, K: Kernel> BlockStore<'a, K> {
    /// New store over a kernel and its point set.
    pub fn new(kernel: &'a K, pts: &'a [Point]) -> Self {
        Self {
            kernel,
            pts,
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

    /// `true` when every block of this store satisfies
    /// `A[a, b] == A[b, a]ᵀ` bit for bit — plain transpose, no conjugate:
    /// the kernel is symmetric ([`Kernel::is_symmetric`], real or
    /// complex), and the elimination keeps it so by sparsifying with `Tᵀ`
    /// and emitting every mirrored update as an exact transpose. This one
    /// predicate selects the symmetric mode of `skeletonize`,
    /// `eliminate_box` and `apply_output`.
    pub fn symmetric(&self) -> bool {
        self.kernel.is_symmetric()
    }

    /// Evaluate raw kernel entries for explicit index lists.
    pub fn eval_kernel(&self, rows: &[u32], cols: &[u32]) -> Mat<K::Elem> {
        Mat::from_fn(rows.len(), cols.len(), |i, j| {
            self.kernel
                .entry_or_diag(self.pts, rows[i] as usize, cols[j] as usize)
        })
    }

    /// `true` if the pair has a materialized (modified) block.
    pub fn contains(&self, a: &BoxId, b: &BoxId) -> bool {
        self.blocks.contains_key(&(*a, *b))
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
        if let Some(m) = self.blocks.get(&(*a, *b)) {
            debug_assert_eq!(m.nrows(), act.get(a).len(), "stale rows for {a:?},{b:?}");
            debug_assert_eq!(m.ncols(), act.get(b).len(), "stale cols for {a:?},{b:?}");
            m.clone()
        } else {
            self.eval_kernel(act.get(a), act.get(b))
        }
    }

    /// Borrow a stored block if present.
    pub fn get_stored(&self, a: &BoxId, b: &BoxId) -> Option<&Mat<K::Elem>> {
        self.blocks.get(&(*a, *b))
    }

    /// Insert/replace the stored block of a pair.
    pub fn insert(&mut self, a: BoxId, b: BoxId, m: Mat<K::Elem>) {
        self.blocks.insert((a, b), m);
    }

    /// Remove a stored block.
    pub fn remove(&mut self, a: &BoxId, b: &BoxId) -> Option<Mat<K::Elem>> {
        self.blocks.remove(&(*a, *b))
    }

    /// `block(a,b) += delta`, materializing from the kernel first if the
    /// pair was still implicit. `delta` must match the current active sets.
    pub fn add_delta(&mut self, a: BoxId, b: BoxId, delta: &Mat<K::Elem>, act: &ActiveSets) {
        let entry = self.blocks.entry((a, b)).or_insert_with(|| {
            // Hoist the active-set lookups out of the per-entry closure.
            let rows = act.get(&a);
            let cols = act.get(&b);
            Mat::from_fn(rows.len(), cols.len(), |i, j| {
                self.kernel
                    .entry_or_diag(self.pts, rows[i] as usize, cols[j] as usize)
            })
        });
        entry.axpy(K::Elem::ONE, delta);
    }

    /// After box `b` was eliminated, restrict every stored block involving
    /// `b` (excluding `(b, b)`, which the caller replaces outright) to the
    /// surviving positions `keep` of its former active set.
    pub fn shrink_box(&mut self, b: &BoxId, keep: &[usize]) {
        for d in within_dist2(b) {
            if let Some(m) = self.blocks.get_mut(&(*b, d)) {
                *m = m.select_rows(keep);
            }
            if let Some(m) = self.blocks.get_mut(&(d, *b)) {
                *m = m.select_cols(keep);
            }
        }
    }

    /// Drop every stored block whose boxes live at `level` (after the
    /// factorization has moved past it).
    pub fn drop_level(&mut self, level: u8) {
        self.blocks.retain(|(a, _), _| a.level != level);
    }

    /// Iterate stored pairs (for fold transfers in the distributed driver).
    pub fn stored_pairs(&self) -> impl Iterator<Item = (&PairKey, &Mat<K::Elem>)> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_geometry::grid::UnitGrid;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_linalg::norms::max_abs_diff;

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
    }

    #[test]
    fn stored_block_takes_priority() {
        let (_, k, pts) = setup();
        let mut store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        let a = bid(2, 0, 0);
        let b = bid(2, 1, 0);
        act.set(a, vec![0]);
        act.set(b, vec![9]);
        let m = Mat::from_vec(1, 1, vec![123.0]);
        store.insert(a, b, m);
        assert!(store.contains(&a, &b));
        assert_eq!(store.get(&a, &b, &act)[(0, 0)], 123.0);
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

    #[test]
    fn shrink_box_restricts_stored_pairs() {
        let (_, k, pts) = setup();
        let mut store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        let b = bid(3, 4, 4);
        let d = bid(3, 5, 4); // neighbor
        act.set(b, vec![10, 11, 12, 13]);
        act.set(d, vec![20, 21]);
        store.insert(b, d, Mat::from_fn(4, 2, |i, j| (10 * i + j) as f64));
        store.insert(d, b, Mat::from_fn(2, 4, |i, j| (100 * i + j) as f64));
        store.shrink_box(&b, &[1, 3]);
        let bd = store.get_stored(&b, &d).unwrap();
        assert_eq!(bd.nrows(), 2);
        assert_eq!(bd[(0, 0)], 10.0);
        assert_eq!(bd[(1, 1)], 31.0);
        let db = store.get_stored(&d, &b).unwrap();
        assert_eq!(db.ncols(), 2);
        assert_eq!(db[(1, 0)], 101.0);
        assert_eq!(db[(0, 1)], 3.0);
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
