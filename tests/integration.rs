//! Cross-crate integration tests: the unified `Solver` builder + FFT
//! operators + Krylov solvers + the simulated distributed runtime working
//! together, at the scale of the paper's small configurations.

use srsf::iterative::cg::cg;
use srsf::iterative::gmres::GmresOpts;
use srsf::prelude::*;

#[test]
fn laplace_end_to_end_direct_and_preconditioned() {
    let grid = UnitGrid::new(64); // N = 4096
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let fast = FastKernelOp::laplace(&kernel, &grid);
    let b = random_vector::<f64>(grid.n(), 1);

    let f = Solver::builder(&kernel, &pts).tol(1e-6).build().unwrap();
    // Direct solve accuracy against the FFT matvec.
    let x = f.solve(&b);
    let r = relative_residual(&fast, &x, &b);
    assert!(r < 1e-4, "direct relres {r:.2e}");
    // Preconditioned CG reaches 1e-12 in a near-constant iteration count.
    let res = pcg_factorized(&fast, &f, &b, 1e-12, 100);
    assert!(res.converged);
    assert!(res.iterations <= 15, "nit = {}", res.iterations);
}

#[test]
fn unpreconditioned_cg_is_painfully_slow_and_pcg_is_not() {
    // The paper's motivation: cond(A) ~ O(N) for the first-kind system.
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let fast = FastKernelOp::laplace(&kernel, &grid);
    let b = random_vector::<f64>(grid.n(), 2);
    let plain = cg(&fast, &b, 1e-10, 5000);
    let f = Solver::builder(&kernel, &pts).tol(1e-6).build().unwrap();
    let pre = pcg_factorized(&fast, &f, &b, 1e-10, 100);
    assert!(pre.converged);
    assert!(
        plain.iterations > 10 * pre.iterations,
        "CG {} vs PCG {}",
        plain.iterations,
        pre.iterations
    );
}

#[test]
fn helmholtz_gmres_preconditioning() {
    let grid = UnitGrid::new(64);
    let kappa = 20.0;
    let kernel = HelmholtzKernel::new(&grid, kappa);
    let pts = grid.points();
    let fast = FastKernelOp::helmholtz(&kernel, &grid);
    let b = random_vector::<c64>(grid.n(), 4);
    let f = Solver::builder(&kernel, &pts).tol(1e-6).build().unwrap();
    let pre = gmres_factorized(
        &fast,
        &f,
        &b,
        &GmresOpts {
            restart: 30,
            tol: 1e-12,
            max_iters: 100,
        },
    );
    assert!(pre.converged, "relres {:.2e}", pre.relres);
    assert!(pre.iterations <= 10, "nit = {}", pre.iterations);
}

/// The acceptance-criteria test: all three `Driver` variants produce a
/// solver consumed through the same `Factorized` interface, and their
/// solutions agree on the same Laplace problem.
#[test]
fn all_three_drivers_through_one_factorized_interface() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 6);

    let solvers: Vec<Solver<f64>> = [
        Driver::Sequential,
        Driver::colored(2),
        Driver::distributed(4),
    ]
    .into_iter()
    .map(|driver| {
        Solver::builder(&kernel, &pts)
            .tol(1e-8)
            .leaf_size(16)
            .driver(driver)
            .build()
            .unwrap_or_else(|e| panic!("{driver:?} failed: {e}"))
    })
    .collect();

    // Consume every solver through the trait object, not the concrete type.
    let facts: Vec<&dyn Factorized<f64>> = solvers.iter().map(|s| s as _).collect();
    let xs: Vec<Vec<f64>> = facts.iter().map(|f| f.solve(&b)).collect();
    for (f, x) in facts.iter().zip(&xs) {
        assert_eq!(f.n(), grid.n());
        assert!(f.memory_bytes() > 0);
        assert!(f.stats().leaf_level >= 1);
        let rel = srsf::linalg::vecops::rel_diff(x, &xs[0]);
        assert!(rel < 1e-4, "driver solutions differ by {rel:.2e}");
    }
    // Only the distributed driver reports communication counters.
    assert!(solvers[0].comm_stats().is_none());
    assert!(solvers[1].comm_stats().is_none());
    let stats = solvers[2].comm_stats().expect("distributed comm stats");
    for s in &stats.per_rank {
        assert!(s.msgs_sent > 0);
    }
}

#[test]
fn distributed_build_with_solution_matches_gathered_solve() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 6);

    let fs = Solver::builder(&kernel, &pts)
        .tol(1e-8)
        .leaf_size(16)
        .build()
        .unwrap();
    let (fd, xd) = Solver::builder(&kernel, &pts)
        .tol(1e-8)
        .leaf_size(16)
        .driver(Driver::distributed(4))
        .build_with_solution(&b)
        .unwrap();
    let xs = fs.solve(&b);
    // Same accuracy class; both within tolerance of each other's solution.
    let rel = srsf::linalg::vecops::rel_diff(&xd, &xs);
    assert!(rel < 1e-4, "dist vs seq solutions differ by {rel:.2e}");
    // The distributed served solve and the gathered factorization's
    // local solve are the same sweep: same bits.
    assert_eq!(xd, fd.gather().unwrap().solve(&b));
}

#[test]
fn rank_growth_matches_figure9_shape() {
    // Figure 9's two claims at the smallest sizes that still show them
    // (the N-ladder belongs to the bench harness, `srsf-bench --bin fig9`):
    // (a) Laplace skeleton ranks at a fixed box population are constant as
    // N grows (the O(N) basis); (b) Helmholtz ranks at fixed N grow with
    // the frequency.
    let mut laplace_leaf_ranks = Vec::new();
    for side in [16usize, 32] {
        let grid = UnitGrid::new(side);
        let pts = grid.points();
        let lk = LaplaceKernel::new(&grid);
        let lf = Solver::builder(&lk, &pts)
            .tol(1e-6)
            .leaf_size(16)
            .build()
            .unwrap();
        let leaf = lf.stats().leaf_level;
        laplace_leaf_ranks.push(lf.stats().avg_rank(leaf).unwrap());
    }
    let growth = laplace_leaf_ranks[1] / laplace_leaf_ranks[0];
    assert!(
        (0.8..1.25).contains(&growth),
        "Laplace leaf rank should be N-independent: {laplace_leaf_ranks:?}"
    );

    // One compression level of 64-point boxes on the 32^2 grid: a box is
    // a quarter of the domain wide, i.e. half a wavelength at kappa = 12.6
    // and two at kappa = 50.
    let grid = UnitGrid::new(32);
    let pts = grid.points();
    let mut helm_ranks = Vec::new();
    for kappa in [12.6f64, 50.0] {
        let hk = HelmholtzKernel::new(&grid, kappa);
        let hf = Solver::builder(&hk, &pts)
            .tol(1e-6)
            .leaf_size(64)
            .build()
            .unwrap();
        helm_ranks.push(hf.stats().avg_rank(2).unwrap());
    }
    assert!(
        helm_ranks[1] > 1.15 * helm_ranks[0],
        "higher frequency must need larger skeletons: {helm_ranks:?}"
    );
}

#[test]
fn solve_then_multiply_roundtrip_many_rhs() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let fast = FastKernelOp::laplace(&kernel, &grid);
    let f = Solver::builder(&kernel, &pts)
        .tol(1e-9)
        .leaf_size(32)
        .build()
        .unwrap();
    for seed in 0..8 {
        let b = random_vector::<f64>(grid.n(), seed);
        let x = f.solve(&b);
        assert!(relative_residual(&fast, &x, &b) < 1e-6, "seed {seed}");
    }
}
