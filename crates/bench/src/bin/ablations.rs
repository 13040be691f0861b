//! Ablations over the solver's design choices: proxy radius,
//! proxy point count and leaf size.

use srsf_bench::rule;
use srsf_core::{FactorOpts, Solver};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::fast_op::FastKernelOp;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use std::time::Instant;

fn run(opts: &FactorOpts, side: usize) -> (f64, f64, f64) {
    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let fast = FastKernelOp::laplace(&kernel, &grid);
    let b = random_vector::<f64>(grid.n(), 5);
    let t = Instant::now();
    let f = Solver::builder(&kernel, &pts)
        .opts(opts.clone())
        .build()
        .unwrap();
    let tfact = t.elapsed().as_secs_f64();
    let rel = srsf_linalg::relative_residual(&fast, &f.solve(&b), &b);
    let leaf_rank = f.stats().avg_rank(f.stats().leaf_level).unwrap_or(0.0);
    (tfact, rel, leaf_rank)
}

fn main() {
    let side = if srsf_bench::is_large() { 128 } else { 64 };
    println!("Ablations (Laplace, N = {side}^2, eps = 1e-6)\n");

    println!("A. proxy radius factor (paper: 2.5 L; must stay inside M(B))");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "factor", "tfact[s]", "relres", "leaf rank"
    );
    rule(44);
    for factor in [1.75, 2.0, 2.25, 2.5] {
        let opts = FactorOpts::default()
            .with_tol(1e-6)
            .with_proxy_radius_factor(factor);
        let (t, r, k) = run(&opts, side);
        println!("{:>8.2} {:>10.3} {:>10.2e} {:>10.1}", factor, t, r, k);
    }

    println!("\nB. proxy point count");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "n_proxy", "tfact[s]", "relres", "leaf rank"
    );
    rule(44);
    for n in [16usize, 32, 64, 128] {
        let opts = FactorOpts::default().with_tol(1e-6).with_n_proxy_min(n);
        let (t, r, k) = run(&opts, side);
        println!("{:>8} {:>10.3} {:>10.2e} {:>10.1}", n, t, r, k);
    }

    println!("\nC. leaf size (points per leaf box)");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "leaf", "tfact[s]", "relres", "leaf rank"
    );
    rule(44);
    for leaf in [16usize, 32, 64, 128] {
        let opts = FactorOpts::default().with_tol(1e-6).with_leaf_size(leaf);
        let (t, r, k) = run(&opts, side);
        println!("{:>8} {:>10.3} {:>10.2e} {:>10.1}", leaf, t, r, k);
    }
}
