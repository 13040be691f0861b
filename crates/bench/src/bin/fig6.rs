//! Figure 6 — strong and weak scaling of the Laplace factorization time.
//!
//! Prints the two data series (time vs p at fixed N; time vs p at fixed
//! N/p) using the modeled critical path, which is what a multi-node run
//! would observe (see the `srsf_bench` crate docs). Wall time is shown
//! alongside.

use srsf_bench::{is_large, rule, run_laplace_case};
use srsf_core::FactorOpts;
use srsf_runtime::NetworkModel;

fn main() {
    let opts = FactorOpts::default().with_tol(1e-6).with_leaf_size(64);
    let model = NetworkModel::intra_node();
    let large = is_large();

    println!("Figure 6a reproduction: strong scaling (N fixed, p grows)");
    println!(
        "{:>8} {:>5} {:>12} {:>10}",
        "N", "p", "tmodel[s]", "twall[s]"
    );
    rule(40);
    let sides: &[usize] = if large { &[128, 256] } else { &[64, 128] };
    for &side in sides {
        for p in [1usize, 4, 16] {
            if side / ((p as f64).sqrt() as usize).max(1) < 16 {
                continue;
            }
            let c = run_laplace_case(side, p, &opts, &model);
            println!(
                "{:>8} {:>5} {:>12.3} {:>10.3}",
                side * side,
                p,
                c.tfact_model,
                c.tfact_wall
            );
        }
        rule(40);
    }

    println!();
    println!("Figure 6b reproduction: weak scaling (N/p fixed)");
    println!(
        "{:>8} {:>8} {:>5} {:>12} {:>10}",
        "N/p", "N", "p", "tmodel[s]", "twall[s]"
    );
    rule(48);
    let base: &[usize] = if large { &[64, 128] } else { &[32, 64] };
    for &per in base {
        for (p, mult) in [(1usize, 1usize), (4, 2), (16, 4)] {
            let side = per * mult;
            let c = run_laplace_case(side, p, &opts, &model);
            println!(
                "{:>8} {:>8} {:>5} {:>12.3} {:>10.3}",
                per * per,
                side * side,
                p,
                c.tfact_model,
                c.tfact_wall
            );
        }
        rule(48);
    }
    println!("(paper: Fig. 6 — strong scaling flattens as boundary work dominates; weak scaling grows slowly)");
}
