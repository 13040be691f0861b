//! `factor_top` is instrumented once, below the drivers: a traced
//! distributed build shows the assemble / factor split of the dense top
//! block on rank 0, inside its `top gather+factor` phase.
//!
//! One `#[test]` in its own binary, like `trace_identity`: the trace
//! enable flag is process-global, so a concurrent untraced build in the
//! same process would switch recording off under this one.

use srsf_core::{Driver, FactorOpts, Solver};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::laplace::LaplaceKernel;

#[test]
fn traced_build_shows_the_top_split_on_rank_0() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let solver = Solver::builder(&kernel, &pts)
        .opts(FactorOpts::default().with_tol(1e-6).with_leaf_size(16))
        .driver(Driver::distributed(4))
        .trace(true)
        .build()
        .expect("traced factorization");
    let reports = solver.trace_reports();
    assert_eq!(reports.len(), 4);
    for report in &reports {
        let find = |name: &str| report.spans.iter().find(|s| s.name == name);
        let (assemble, factor) = (find("core.top.assemble"), find("core.top.factor"));
        if report.rank != 0 {
            assert!(
                assemble.is_none() && factor.is_none(),
                "rank {}",
                report.rank
            );
            continue;
        }
        let phase = find("top gather+factor").expect("top phase span");
        let (assemble, factor) = (assemble.expect("assemble"), factor.expect("factor"));
        assert!(phase.start_ns <= assemble.start_ns);
        assert!(assemble.start_ns + assemble.dur_ns <= factor.start_ns);
        assert!(factor.start_ns + factor.dur_ns <= phase.start_ns + phase.dur_ns);
    }
}
