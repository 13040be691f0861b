//! Table II — Laplace kernel: factorization and solve runtimes vs (N, p).
//!
//! Columns mirror the paper: `tfact = tcomp + tother` and `tsolve`, with
//! the modeled critical path added (see the `srsf_bench` crate docs). Run
//! with `--large` for the extended sweep.

use srsf_bench::{is_large, rule, run_laplace_case, sweep_procs, sweep_sides};
use srsf_core::FactorOpts;
use srsf_runtime::NetworkModel;

fn main() {
    let opts = FactorOpts::default().with_tol(1e-6).with_leaf_size(64);
    let model = NetworkModel::intra_node();
    println!("Table II reproduction: 2-D Laplace kernel, eps = 1e-6");
    println!(
        "{:>8} {:>5} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "N", "p", "tfact[s]", "tcomp[s]", "tother[s]", "tmodel[s]", "tsolve[s]", "relres"
    );
    rule(84);
    for side in sweep_sides(is_large()) {
        for p in sweep_procs(side) {
            let c = run_laplace_case(side, p, &opts, &model);
            println!(
                "{:>8} {:>5} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>10.4} {:>10.2e}",
                side * side,
                p,
                c.tfact_wall,
                c.tcomp,
                c.tother,
                c.tfact_model,
                c.tsolve,
                c.relres
            );
        }
        rule(84);
    }
    println!("(paper: Table II, N up to 32768^2 and p up to 1024 on Perlmutter)");
}
