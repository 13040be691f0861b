//! §IV validation — measured communication volumes vs the paper's bounds:
//! per-process messages = O(log N + log p), words = O(sqrt(N/p) + log p)
//! for the factorization, and words = O(sqrt(N/p)) per solve.
//!
//! ```sh
//! cargo run --release -p srsf-bench --bin comm_counts               # ranks as threads
//! cargo run --release -p srsf-bench --bin comm_counts -- --transport tcp
//! cargo run --release -p srsf-bench --bin comm_counts -- --solve-reps 8
//! ```
//!
//! With `--transport tcp` every rank of every case is a real OS process
//! and the counters measure genuine inter-process traffic. The counters
//! are identical across backends (asserted by the transport-equivalence
//! tests), so the default stays in-process; the flag exists to *measure*
//! that claim. Each spawned worker re-executes this binary up to the
//! case it belongs to, recomputing earlier cases in-process — so prefer
//! the small sweep (`SRSF_BENCH_LARGE` unset) when using `tcp`.
//!
//! With `--solve-reps k` each case instead factors a solver (records stay
//! on their ranks), serves `k` repeated solves
//! against it, and reports the per-solve messages/words — measured
//! exactly, as the counter delta between two probe snapshots bracketing
//! the `k` solves, divided by `k` — separately from the factorization
//! traffic above. The solve-phase bound O(sqrt(N/p)) is thereby measured
//! rather than assumed. (The RHS scatter / solution gather slabs are the
//! serving API's envelope and move as uncounted service frames; their
//! volume is the analytic `N/p * nrhs` words per rank, printed for
//! reference.)

use srsf_bench::{is_large, rule, run_laplace_case, sweep_sides};
use srsf_core::{Driver, FactorOpts, Solver, Transport};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_runtime::NetworkModel;

/// Per-solve counters of a resident service: factor once, probe, serve
/// `reps` solves, probe again; the delta is exact solve traffic.
fn resident_solve_counters(side: usize, p: usize, opts: &FactorOpts, reps: usize) -> (u64, u64) {
    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let f = Solver::builder(&kernel, &pts)
        .opts(opts.clone())
        .driver(Driver::distributed(p))
        .build()
        .expect("resident factorization");
    let b = random_vector::<f64>(grid.n(), 1234);
    let before = f.resident_comm_probe().expect("probe");
    for _ in 0..reps {
        let _ = f.solve(&b);
    }
    let after = f.resident_comm_probe().expect("probe");
    let max_msgs = (0..p)
        .map(|r| (after.per_rank[r].msgs_sent - before.per_rank[r].msgs_sent) / reps as u64)
        .max()
        .unwrap_or(0);
    let max_words = (0..p)
        .map(|r| (after.per_rank[r].words_sent - before.per_rank[r].words_sent) / reps as u64)
        .max()
        .unwrap_or(0);
    (max_msgs, max_words)
}

fn solve_reps_mode(reps: usize, opts: &FactorOpts) {
    println!(
        "Solve-phase communication (resident service, {reps} solves/case, \
         transport = {}):",
        opts.transport
    );
    println!(
        "{:>8} {:>5} {:>10} {:>12} {:>12} {:>15} {:>14}",
        "N", "p", "msgs/solve", "words/solve", "sqrt(N/p)", "words/sqrt(N/p)", "slab words"
    );
    rule(82);
    for side in sweep_sides(is_large()) {
        for p in [4usize, 16] {
            if side * side / p < 1024 {
                continue;
            }
            let (msgs, words) = resident_solve_counters(side, p, opts, reps);
            let n = side * side;
            let sqrt_np = (n as f64 / p as f64).sqrt();
            println!(
                "{:>8} {:>5} {:>10} {:>12} {:>12.1} {:>15.1} {:>14}",
                n,
                p,
                msgs,
                words,
                sqrt_np,
                words as f64 / sqrt_np,
                n / p
            );
        }
    }
    rule(82);
    println!("expected: words/solve tracks sqrt(N/p) (Alg. 2 solve-phase halo + top traffic);");
    println!("slab words = N/p per rank per solve are the serving envelope, not counted above");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let transport: Transport = args
        .iter()
        .position(|a| a == "--transport")
        .map(|i| {
            args.get(i + 1)
                .expect("--transport expects a value")
                .parse()
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .unwrap_or_default();
    let solve_reps: Option<usize> = args.iter().position(|a| a == "--solve-reps").map(|i| {
        args.get(i + 1)
            .expect("--solve-reps expects a value")
            .parse()
            .expect("--solve-reps K")
    });
    let opts = FactorOpts::default()
        .with_tol(1e-6)
        .with_leaf_size(64)
        .with_transport(transport);
    let model = NetworkModel::intra_node();
    if let Some(reps) = solve_reps {
        return solve_reps_mode(reps.max(1), &opts);
    }
    println!(
        "Communication-bound validation (Eq. 13): Laplace, eps = 1e-6, transport = {transport}"
    );
    println!(
        "{:>8} {:>5} {:>10} {:>12} {:>12} {:>14}",
        "N", "p", "max msgs", "max words", "sqrt(N/p)", "words/sqrt(N/p)"
    );
    rule(68);
    let mut sides = sweep_sides(is_large());
    if !sides.contains(&256) && is_large() {
        sides.push(256);
    }
    for side in sides {
        for p in [4usize, 16] {
            if side * side / p < 1024 {
                continue;
            }
            let c = run_laplace_case(side, p, &opts, &model);
            let sqrt_np = ((side * side) as f64 / p as f64).sqrt();
            println!(
                "{:>8} {:>5} {:>10} {:>12} {:>12.1} {:>14.1}",
                side * side,
                p,
                c.stats.max_msgs(),
                c.stats.max_words(),
                sqrt_np,
                c.stats.max_words() as f64 / sqrt_np
            );
        }
    }
    rule(68);
    println!("expected: max msgs grows ~log N (constant per level), and");
    println!("words/sqrt(N/p) approaches a constant as N grows (boundary-dominated traffic)");
}
