//! Level transitions: merging skeletons to parents (Figure 3) and
//! regrouping the modified-interaction data structure (Section III-C).
//!
//! After every box of level `l` is skeletonized, each parent box at level
//! `l-1` takes ownership of its children's skeletons. Stored blocks are
//! regrouped: a parent pair at distance <= 1 may contain modified child
//! sub-blocks (children at distance <= 2), so those blocks are assembled
//! and stored; parent pairs at distance 2 consist entirely of children at
//! distance >= 3 whose interactions are untouched kernel entries
//! (Theorem 2), so they stay implicit.

use crate::store::{ActiveSets, BlockStore};
use srsf_geometry::neighbors::near_field;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::Mat;
use std::collections::HashSet;

/// Parent active set: children's surviving skeletons, concatenated in
/// `children()` order (deterministic across all drivers).
fn parent_active(act: &ActiveSets, parent: &BoxId) -> Vec<u32> {
    let mut out = Vec::new();
    for c in parent.children() {
        out.extend_from_slice(act.get(&c));
    }
    out
}

/// Assemble the block `A[parent_a, parent_b]` from child-level data.
/// Returns `(block, any_child_modified)`; when no child sub-block was
/// modified the block equals a pure kernel evaluation and need not be
/// stored.
fn assemble_parent_block<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    pa: &BoxId,
    pb: &BoxId,
) -> (Mat<K::Elem>, bool) {
    let rows: usize = pa.children().iter().map(|c| act.get(c).len()).sum();
    let cols: usize = pb.children().iter().map(|c| act.get(c).len()).sum();
    let mut out = Mat::zeros(rows, cols);
    let mut any_stored = false;
    let mut r0 = 0;
    for ca in pa.children() {
        let na = act.get(&ca).len();
        if na == 0 {
            continue;
        }
        let mut c0 = 0;
        for cb in pb.children() {
            let ncb = act.get(&cb).len();
            if ncb == 0 {
                continue;
            }
            let blk = if ca.chebyshev(&cb) <= 2 {
                if store.contains(&ca, &cb) {
                    any_stored = true;
                }
                store.get(&ca, &cb, act)
            } else {
                store.eval_kernel(act.get(&ca), act.get(&cb))
            };
            out.set_block(r0, c0, &blk);
            c0 += ncb;
        }
        r0 += na;
    }
    (out, any_stored)
}

/// Transition from `child_level` to its parent: set parent active sets,
/// materialize modified parent blocks at distance <= 1, and drop the
/// child-level data.
pub fn merge_to_parent<K: Kernel>(
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    tree: &QuadTree,
    child_level: u8,
) {
    assert!(child_level >= 1);
    let parents: Vec<BoxId> = tree.boxes_at_level(child_level - 1).collect();
    merge_parents(store, act, child_level, &parents, &parents);
}

/// The transition as one rank sees it: materialize the modified parent
/// pairs at distance <= 1 with a box of `materialize` on one side (in the
/// direction(s) the store keeps), set the active sets of `relabel` from
/// their children, and drop the child-level data.
pub(crate) fn merge_parents<K: Kernel>(
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    child_level: u8,
    materialize: &[BoxId],
    relabel: &[BoxId],
) {
    let mut done = HashSet::new();
    let mut to_insert = Vec::new();
    for p in materialize {
        for q in std::iter::once(*p).chain(near_field(p)) {
            for (a, b) in [(*p, q), (q, *p)] {
                if !store.is_canonical(&a, &b) || !done.insert((a, b)) {
                    continue;
                }
                let (blk, any) = assemble_parent_block(store, act, &a, &b);
                if any {
                    to_insert.push((a, b, blk));
                }
            }
        }
    }
    // Parent active sets, while the children are still present in `act`.
    let parent_acts: Vec<Vec<u32>> = relabel.iter().map(|p| parent_active(act, p)).collect();
    store.drop_level(child_level);
    act.drop_level(child_level);
    for (a, b, m) in to_insert {
        store.insert(a, b, m);
    }
    for (p, ids) in relabel.iter().zip(parent_acts) {
        act.set(*p, ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_geometry::grid::UnitGrid;
    use srsf_geometry::point::BBox;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_linalg::norms::max_abs_diff;

    #[test]
    fn parent_active_concatenates_children() {
        let mut act = ActiveSets::new();
        let p = BoxId {
            level: 1,
            ix: 0,
            iy: 0,
        };
        let cs = p.children();
        act.set(cs[0], vec![1, 2]);
        act.set(cs[1], vec![5]);
        act.set(cs[2], vec![]);
        act.set(cs[3], vec![9, 10]);
        assert_eq!(parent_active(&act, &p), vec![1, 2, 5, 9, 10]);
    }

    #[test]
    fn unmodified_parent_block_is_pure_kernel() {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let tree = QuadTree::build(&pts, BBox::UNIT, 1); // leaf level 3, 1 pt/leaf
        let store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        for id in tree.boxes_at_level(3) {
            act.set(id, tree.leaf_points(&id).to_vec());
        }
        let pa = BoxId {
            level: 2,
            ix: 0,
            iy: 0,
        };
        let pb = BoxId {
            level: 2,
            ix: 1,
            iy: 0,
        };
        let (blk, any) = assemble_parent_block(&store, &act, &pa, &pb);
        assert!(!any, "nothing was modified");
        let ra = parent_active(&act, &pa);
        let rb = parent_active(&act, &pb);
        let want = store.eval_kernel(&ra, &rb);
        assert!(max_abs_diff(&blk, &want) < 1e-15);
    }

    #[test]
    fn modified_child_block_propagates_to_parent() {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let tree = QuadTree::build(&pts, BBox::UNIT, 1);
        let mut store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        for id in tree.boxes_at_level(3) {
            act.set(id, tree.leaf_points(&id).to_vec());
        }
        // Modify one child pair inside (parent (0,0), parent (1,0)).
        let ca = BoxId {
            level: 3,
            ix: 1,
            iy: 0,
        };
        let cb = BoxId {
            level: 3,
            ix: 2,
            iy: 0,
        };
        let mut blk = store.get(&ca, &cb, &act);
        blk[(0, 0)] += 7.5;
        store.insert(ca, cb, blk);
        let pa = BoxId {
            level: 2,
            ix: 0,
            iy: 0,
        };
        let pb = BoxId {
            level: 2,
            ix: 1,
            iy: 0,
        };
        let (parent_blk, any) = assemble_parent_block(&store, &act, &pa, &pb);
        assert!(any);
        let ra = parent_active(&act, &pa);
        let rb = parent_active(&act, &pb);
        let pure = store.eval_kernel(&ra, &rb);
        let diff = max_abs_diff(&parent_blk, &pure);
        assert!(
            (diff - 7.5).abs() < 1e-12,
            "exactly the injected bump: {diff}"
        );
    }

    #[test]
    fn merge_drops_child_level_and_sets_parents() {
        let grid = UnitGrid::new(8);
        let k = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let tree = QuadTree::build(&pts, BBox::UNIT, 1);
        let mut store = BlockStore::new(&k, &pts);
        let mut act = ActiveSets::new();
        for id in tree.boxes_at_level(3) {
            act.set(id, tree.leaf_points(&id).to_vec());
        }
        // Store one modified pair so materialization has something to do.
        let ca = BoxId {
            level: 3,
            ix: 0,
            iy: 0,
        };
        let cb = BoxId {
            level: 3,
            ix: 1,
            iy: 0,
        };
        let mut blk = store.get(&ca, &cb, &act);
        blk[(0, 0)] += 1.0;
        store.insert(ca, cb, blk);

        merge_to_parent(&mut store, &mut act, &tree, 3);
        // Child data gone.
        assert!(act.get(&ca).is_empty());
        assert!(!store.contains(&ca, &cb));
        // Parents own the union of children's points.
        assert_eq!(act.total_at_level(2), 64);
        let p00 = BoxId {
            level: 2,
            ix: 0,
            iy: 0,
        };
        assert_eq!(act.get(&p00).len(), 4);
        // The modified pair was folded into the parent self-block.
        assert!(store.contains(&p00, &p00));
        let self_blk = store.get(&p00, &p00, &act);
        let pure = store.eval_kernel(act.get(&p00), act.get(&p00));
        assert!((max_abs_diff(&self_blk, &pure) - 1.0).abs() < 1e-12);
        // Kernel consistency of an untouched parent pair: implicit get.
        let far = BoxId {
            level: 2,
            ix: 3,
            iy: 3,
        };
        let g = store.get(&p00, &far, &act);
        assert_eq!(
            g[(0, 0)],
            k.entry(&pts, act.get(&p00)[0] as usize, act.get(&far)[0] as usize)
        );
    }
}
