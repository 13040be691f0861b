//! Figure 10 — factorization-time series of the shared-memory wave-scheduled
//! reference vs the distributed process-colored solver, across core counts
//! (the plot form of Table VI).

use srsf_bench::rule;
use srsf_core::{Driver, FactorOpts, Solver};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_kernels::helmholtz::HelmholtzKernel;
use std::time::Instant;

fn main() {
    let side = if srsf_bench::is_large() { 128 } else { 64 };
    let grid = UnitGrid::new(side);
    let kernel = HelmholtzKernel::new(&grid, 25.0);
    let pts = grid.points();
    println!("Figure 10 reproduction: tfact vs cores, shared (wave-scheduled) vs distributed");
    println!("Helmholtz kappa = 25, N = {side}^2");
    for eps in [1e-3, 1e-6] {
        let opts = FactorOpts::default().with_tol(eps).with_leaf_size(64);
        println!("\n  eps = {eps:.0e}");
        println!("{:>5} {:>14} {:>14}", "p", "shared[s]", "distributed[s]");
        rule(36);
        for p in [1usize, 4] {
            let t0 = Instant::now();
            let _ = Solver::builder(&kernel, &pts)
                .opts(opts.clone())
                .driver(Driver::colored(p))
                .build()
                .unwrap();
            let shared = t0.elapsed().as_secs_f64();
            let driver = if p == 1 {
                Driver::Sequential
            } else {
                Driver::Distributed {
                    grid: ProcessGrid::new(p),
                }
            };
            let t = Instant::now();
            let _ = Solver::builder(&kernel, &pts)
                .opts(opts.clone())
                .driver(driver)
                .build()
                .unwrap();
            let dist = t.elapsed().as_secs_f64();
            println!("{:>5} {:>14.3} {:>14.3}", p, shared, dist);
        }
    }
    println!("\n(paper: Fig. 10 — the two parallelization strategies track each other closely)");
}
