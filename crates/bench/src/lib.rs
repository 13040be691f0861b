//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! Because the default in-process rank world runs `p` threads on
//! however many cores the host has, each parallel case reports **both** the
//! measured wall clock and the modeled critical path
//! `max_rank(compute) + alpha * msgs + beta * words`
//! (`WorldStats::critical_path_s` under a `NetworkModel`); the
//! *shape* comparisons the paper makes (who wins, scaling slopes,
//! crossovers) are made on the critical path, with wall time shown for
//! transparency.

#![forbid(unsafe_code)]

use srsf_core::{Driver, FactorOpts, Solver};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_iterative::gmres::{gmres, GmresOpts};
use srsf_iterative::precond::{gmres_factorized, pcg_factorized};
use srsf_kernels::fast_op::FastKernelOp;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{c64, LinOp, Scalar};
use srsf_runtime::{NetworkModel, WorldStats};
use std::time::Instant;

/// One (N, p) cell of a runtime table.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Grid side (`N = side^2`).
    pub side: usize,
    /// Simulated process count.
    pub p: usize,
    /// Measured factorization wall time (host-limited; see module docs).
    pub tfact_wall: f64,
    /// Slowest rank's computation time (the paper's `tcomp`).
    pub tcomp: f64,
    /// `tfact - tcomp`: communication + overhead (the paper's `tother`).
    pub tother: f64,
    /// Modeled critical path under the given network model.
    pub tfact_model: f64,
    /// Solve wall time for one right-hand side.
    pub tsolve: f64,
    /// Relative residual of the direct solve.
    pub relres: f64,
    /// Communication counters.
    pub stats: WorldStats,
}

/// Run one Laplace case: factor (sequential for `p = 1`, distributed
/// otherwise), solve one RHS, and measure the residual with the FFT
/// operator.
pub fn run_laplace_case(
    side: usize,
    p: usize,
    opts: &FactorOpts,
    model: &NetworkModel,
) -> CaseResult {
    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 1234);
    let fast = FastKernelOp::laplace(&kernel, &grid);
    let (f, x, stats, walls) = factor_and_solve(&kernel, &pts, p, opts, &b);
    finish_case(side, p, f, x, stats, walls, &fast, &b, model)
}

/// Run one Helmholtz case (fixed `kappa`).
pub fn run_helmholtz_case(
    side: usize,
    p: usize,
    kappa: f64,
    opts: &FactorOpts,
    model: &NetworkModel,
) -> CaseResult {
    let grid = UnitGrid::new(side);
    let kernel = HelmholtzKernel::new(&grid, kappa);
    let pts = grid.points();
    let b = random_vector::<c64>(grid.n(), 1234);
    let fast = FastKernelOp::helmholtz(&kernel, &grid);
    let (f, x, stats, walls) = factor_and_solve(&kernel, &pts, p, opts, &b);
    finish_case(side, p, f, x, stats, walls, &fast, &b, model)
}

type FactorOutcome<T> = (Solver<T>, Vec<T>, WorldStats, (f64, f64));

fn factor_and_solve<K: srsf_kernels::kernel::Kernel>(
    kernel: &K,
    pts: &[srsf_geometry::point::Point],
    p: usize,
    opts: &FactorOpts,
    b: &[K::Elem],
) -> FactorOutcome<K::Elem> {
    if p == 1 {
        let t0 = Instant::now();
        let f = Solver::builder(kernel, pts)
            .opts(opts.clone())
            .build()
            // INVARIANT: deliberate — the experiment harness aborts on setup failure
            .expect("factorization");
        let tfact = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let x = f.solve(b);
        let tsolve = t1.elapsed().as_secs_f64();
        let mut stats = WorldStats::default();
        stats.per_rank.push(srsf_runtime::stats::CommStats {
            msgs_sent: 0,
            words_sent: 0,
            compute_s: f.stats().eliminate_s + f.stats().top_s,
            wait_s: 0.0,
        });
        (f, x, stats, (tfact, tsolve))
    } else {
        let grid = ProcessGrid::new(p);
        let t0 = Instant::now();
        let f = Solver::builder(kernel, pts)
            .opts(opts.clone())
            .driver(Driver::Distributed { grid })
            .build()
            // INVARIANT: deliberate — the experiment harness aborts on setup failure
            .expect("distributed factorization");
        let tfact = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let x = f.solve(b);
        let tsolve = t1.elapsed().as_secs_f64();
        // INVARIANT: a Distributed-driver solver always carries comm stats
        let stats = f.comm_stats().expect("distributed comm stats").clone();
        (f, x, stats, (tfact, tsolve))
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_case<T: Scalar>(
    side: usize,
    p: usize,
    f: Solver<T>,
    x: Vec<T>,
    stats: WorldStats,
    (tfact_wall, tsolve): (f64, f64),
    fast: &dyn LinOp<T>,
    b: &[T],
    model: &NetworkModel,
) -> CaseResult {
    let relres = srsf_linalg::relative_residual(fast, &x, b);
    let tcomp = stats.max_compute_s().max(if p == 1 {
        f.stats().eliminate_s + f.stats().top_s
    } else {
        0.0
    });
    CaseResult {
        side,
        p,
        tfact_wall,
        tcomp,
        tother: (tfact_wall - tcomp).max(0.0),
        tfact_model: stats.critical_path_s(model),
        tsolve,
        relres,
        stats,
    }
}

/// Iteration counts: PCG for the (SPD) Laplace system preconditioned by the
/// factorization, as in Table III.
pub fn laplace_pcg_iters(side: usize, opts: &FactorOpts, tol: f64) -> (usize, f64) {
    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let f = Solver::builder(&kernel, &pts)
        .opts(opts.clone())
        .build()
        // INVARIANT: deliberate — the experiment harness aborts on setup failure
        .expect("factorization");
    let fast = FastKernelOp::laplace(&kernel, &grid);
    let b = random_vector::<f64>(grid.n(), 77);
    let res = pcg_factorized(&fast, &f, &b, tol, 200);
    (res.iterations, res.relres)
}

/// Iteration counts: preconditioned GMRES for Helmholtz (`nit`) and
/// unpreconditioned GMRES(20) capped at `cap` iterations (`~nit`), as in
/// Table V. Returns `(nit, ~nit, unpreconditioned_converged)`.
pub fn helmholtz_gmres_iters(
    side: usize,
    kappa: f64,
    opts: &FactorOpts,
    tol: f64,
    cap: usize,
) -> (usize, usize, bool) {
    let grid = UnitGrid::new(side);
    let kernel = HelmholtzKernel::new(&grid, kappa);
    let pts = grid.points();
    let f = Solver::builder(&kernel, &pts)
        .opts(opts.clone())
        .build()
        // INVARIANT: deliberate — the experiment harness aborts on setup failure
        .expect("factorization");
    let fast = FastKernelOp::helmholtz(&kernel, &grid);
    let b = random_vector::<c64>(grid.n(), 77);
    let pre = gmres_factorized(
        &fast,
        &f,
        &b,
        &GmresOpts {
            restart: 30,
            tol,
            max_iters: 500,
        },
    );
    let un = gmres(
        &fast,
        None,
        &b,
        &GmresOpts {
            restart: 20,
            tol,
            max_iters: cap,
        },
    );
    (pre.iterations, un.iterations, un.converged)
}

/// Default experiment grid sides; `--large` extends the sweep.
pub fn sweep_sides(large: bool) -> Vec<usize> {
    if large {
        vec![32, 64, 128, 256]
    } else {
        vec![32, 64, 128]
    }
}

/// Simulated process counts that fit a sweep entry (rank grids need at
/// least 2x2 leaf boxes per rank).
pub fn sweep_procs(side: usize) -> Vec<usize> {
    let mut ps = vec![1, 4];
    if side >= 128 {
        ps.push(16);
    }
    ps
}

/// `--large` flag helper.
pub fn is_large() -> bool {
    std::env::args().any(|a| a == "--large")
}

/// Print a horizontal rule sized for the tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_consistent() {
        assert!(sweep_sides(false).len() < sweep_sides(true).len());
        assert_eq!(sweep_procs(32), vec![1, 4]);
        assert!(sweep_procs(128).contains(&16));
    }

    #[test]
    fn small_laplace_case_runs() {
        let opts = FactorOpts::default().with_tol(1e-6).with_leaf_size(16);
        let c = run_laplace_case(32, 1, &opts, &NetworkModel::intra_node());
        assert!(c.relres < 1e-4, "relres {}", c.relres);
        assert!(c.tfact_wall > 0.0);
        let c4 = run_laplace_case(32, 4, &opts, &NetworkModel::intra_node());
        assert!(c4.relres < 1e-4);
        assert!(c4.stats.total_msgs() > 0);
    }
}
