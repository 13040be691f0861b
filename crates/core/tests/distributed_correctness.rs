//! The distributed driver must reproduce the sequential factorization's
//! accuracy, its served solve must be the gathered factorization's solve
//! bit for bit (they are one sweep), and its communication must be
//! neighbor-only with sane counters.

use srsf_core::{Driver, FactorOpts, Solver};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::assemble::assemble_dense;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{c64, DenseOp};

fn opts() -> FactorOpts {
    FactorOpts::default().with_tol(1e-8).with_leaf_size(16)
}

#[test]
fn dist_p4_matches_sequential_accuracy() {
    let grid = UnitGrid::new(32); // N = 1024, leaf level 3
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let f = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build()
        .expect("dist factorization");
    assert_eq!(f.n(), 1024);

    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let b = random_vector::<f64>(1024, 42);
    let x = f.solve(&b);
    let r = srsf_linalg::relative_residual(&a, &x, &b);
    assert!(r < 1e-5, "distributed relres {r:.3e}");

    // Sequential reference: same accuracy class.
    let fs = Solver::builder(&kernel, &pts).opts(opts()).build().unwrap();
    let xs = fs.solve(&b);
    let rs = srsf_linalg::relative_residual(&a, &xs, &b);
    assert!(r < rs * 50.0 + 1e-7, "dist {r:.3e} vs seq {rs:.3e}");

    // Communication happened, on every rank.
    let stats = f.comm_stats().expect("distributed comm stats");
    assert_eq!(stats.per_rank.len(), 4);
    for (rank, s) in stats.per_rank.iter().enumerate() {
        assert!(s.msgs_sent > 0, "rank {rank} sent nothing");
    }
    assert!(stats.total_words() > 0);
}

#[test]
fn dist_p16_with_fold_matches_accuracy() {
    let grid = UnitGrid::new(32); // leaf level 3: 8x8 boxes, 2x2 per rank
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    // Folding exercised: level 3 uses all 16 ranks, level 2 folds to 4...
    let f = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(16))
        .build()
        .expect("dist factorization");
    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let b = random_vector::<f64>(1024, 17);
    let x = f.solve(&b);
    let r = srsf_linalg::relative_residual(&a, &x, &b);
    assert!(r < 1e-5, "p=16 relres {r:.3e}");
    assert_eq!(f.comm_stats().unwrap().per_rank.len(), 16);
}

/// Compression continues below the level where ranks fold onto their
/// corner (`min_compress_level(1)`; the default stops above every fold):
/// the corner must inherit each child block from a rank that owns one
/// side of it — a member's copy of a pair between two foreign boxes holds
/// that member's Schur contributions only.
#[test]
fn dist_compression_below_the_fold_stays_accurate() {
    // p = 4 folds once (level 2 -> 1); p = 16 on the finer grid folds
    // twice (3 -> 2 -> 1) with whole regions between the corners.
    for (side, p) in [(32, 4), (64, 16)] {
        let grid = UnitGrid::new(side);
        let kernel = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let a = DenseOp::new(assemble_dense(&kernel, &pts));
        let b = random_vector::<f64>(pts.len(), 23);
        let (f, x) = Solver::builder(&kernel, &pts)
            .opts(opts().with_min_compress_level(1))
            .driver(Driver::distributed(p))
            .build_with_solution(&b)
            .expect("dist factorization");
        let r = srsf_linalg::relative_residual(&a, &x, &b);
        assert!(r < 1e-5, "p={p}: in-world relres {r:.3e}");
        let gathered = f.gather().expect("gather");
        assert_eq!(x, gathered.solve(&b), "p={p}: in-world vs gathered solve");
    }
}

/// p = 16 on 32² with 16-point leaves folds straight after the leaf
/// level, with 2x2 boxes per rank: the one level where a rank's `act`
/// still holds the initial full sets of boxes it never receives updates
/// for. Retiring members used to ship those to their corner, which then
/// sized parent blocks from them and panicked in `add_delta` on the first
/// correctly sized delta. Members ship only the sets they track.
#[test]
fn dist_fold_straight_after_the_leaf_level() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let b = random_vector::<f64>(pts.len(), 29);
    for lmin in [1, 2] {
        let (f, x) = Solver::builder(&kernel, &pts)
            .opts(opts().with_min_compress_level(lmin))
            .driver(Driver::distributed(16))
            .build_with_solution(&b)
            .expect("dist factorization");
        let r = srsf_linalg::relative_residual(&a, &x, &b);
        assert!(r < 1e-5, "lmin={lmin}: in-world relres {r:.3e}");
        let gathered = f.gather().expect("gather");
        assert_eq!(x, gathered.solve(&b), "lmin={lmin}: in-world vs gathered");
    }
}

#[test]
fn in_world_solve_matches_gathered_solve() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(1024, 5);
    let (f, x_dist) = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build_with_solution(&b)
        .expect("factorize+solve");
    let gathered = f.gather().expect("gather");
    assert_eq!(x_dist, gathered.solve(&b), "distributed solve diverges");
}

#[test]
fn dist_helmholtz_complex_path() {
    let grid = UnitGrid::new(32);
    let kernel = HelmholtzKernel::new(&grid, 10.0);
    let pts = grid.points();
    let b = random_vector::<c64>(1024, 3);
    let (f, x) = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build_with_solution(&b)
        .expect("helmholtz dist");
    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let r = srsf_linalg::relative_residual(&a, &x, &b);
    assert!(r < 1e-5, "helmholtz dist relres {r:.3e}");
    let gathered = f.gather().expect("gather");
    assert_eq!(x, gathered.solve(&b), "dist vs gathered");
}

#[test]
fn single_rank_world_matches_sequential_within_tolerance() {
    // A one-rank world eliminates each level as one interior phase in
    // distance-3 waves, which is the sequential row-major sweep bit for
    // bit (see `tests/one_schedule.rs` for records, top and counters).
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let tol = 1e-8;
    let o = FactorOpts::default()
        .with_tol(tol)
        .with_leaf_size(16)
        .with_min_compress_level(2);
    let f = Solver::builder(&kernel, &pts)
        .opts(o.clone())
        .driver(Driver::distributed(1))
        .build()
        .unwrap();
    let fs = Solver::builder(&kernel, &pts)
        .opts(o)
        .driver(Driver::Sequential)
        .build()
        .unwrap();
    let b = random_vector::<f64>(256, 9);
    assert!(
        f.solve(&b) == fs.solve(&b),
        "p=1 must match the sequential driver bit for bit"
    );
    // No point-to-point traffic on a single rank.
    assert_eq!(f.comm_stats().unwrap().total_msgs(), 0);
}
