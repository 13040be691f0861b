//! The unified `Solver` builder API: defaults, error paths, and
//! driver equivalence.

use srsf_core::{Driver, FactorOpts, Factorized, Solver, SrsfError};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::vecops::rel_diff;

#[test]
fn builder_defaults_match_factor_opts_default() {
    // Building with no setters must be identical to passing
    // `FactorOpts::default()` explicitly — bitwise, since the sequential
    // driver is deterministic.
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 4);

    let f_bare = Solver::builder(&kernel, &pts).build().unwrap();
    let f_opts = Solver::builder(&kernel, &pts)
        .opts(FactorOpts::default())
        .build()
        .unwrap();
    assert_eq!(f_bare.solve(&b), f_opts.solve(&b));
    assert_eq!(f_bare.n_records(), f_opts.n_records());
    assert_eq!(f_bare.top_size(), f_opts.top_size());

    // And the individual setters must agree with the equivalent opts.
    let d = FactorOpts::default();
    let f_setters = Solver::builder(&kernel, &pts)
        .tol(d.tol)
        .leaf_size(d.leaf_size)
        .proxy_radius_factor(d.proxy_radius_factor)
        .n_proxy_min(d.n_proxy_min)
        .proxy_osc_factor(d.proxy_osc_factor)
        .min_compress_level(d.min_compress_level)
        .build()
        .unwrap();
    assert_eq!(f_bare.solve(&b), f_setters.solve(&b));
}

#[test]
fn empty_point_set_is_an_error_not_a_panic() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let err = Solver::builder(&kernel, &[]).build().unwrap_err();
    assert_eq!(err, SrsfError::EmptyPointSet);
}

#[test]
fn invalid_points_are_typed_errors_not_panics() {
    let grid = UnitGrid::new(32);
    let laplace = LaplaceKernel::new(&grid);
    let helmholtz = HelmholtzKernel::new(&grid, 10.0);
    let mut dup = grid.points();
    dup[500] = dup[37];
    let mut nan = grid.points();
    nan[700].y = f64::NAN;
    let cases = [
        (
            &dup,
            SrsfError::DuplicatePoint {
                first: 37,
                second: 500,
            },
        ),
        (&nan, SrsfError::NonFinitePoint { index: 700 }),
    ];
    for driver in [Driver::Sequential, Driver::distributed(4)] {
        for (pts, want) in &cases {
            let build = |err: Result<(), SrsfError>, kernel: &str| {
                assert_eq!(err.unwrap_err(), *want, "{kernel}, {driver:?}");
            };
            let opts = FactorOpts::default().with_tol(1e-6).with_leaf_size(16);
            build(
                Solver::builder(&laplace, pts)
                    .opts(opts.clone())
                    .driver(driver)
                    .build()
                    .map(drop),
                "laplace",
            );
            build(
                Solver::builder(&helmholtz, pts)
                    .opts(opts)
                    .driver(driver)
                    .build()
                    .map(drop),
                "helmholtz",
            );
        }
    }
    // `+0.0` and `-0.0` are one coordinate; an infinity is not finite.
    let mut signed = grid.points();
    signed[3].x = 0.0;
    signed[9] = Point {
        x: -0.0,
        ..signed[3]
    };
    let err = Solver::builder(&laplace, &signed).build().unwrap_err();
    assert_eq!(
        err,
        SrsfError::DuplicatePoint {
            first: 3,
            second: 9
        }
    );
    let mut inf = grid.points();
    inf[0].x = f64::INFINITY;
    let err = Solver::builder(&laplace, &inf).build().unwrap_err();
    assert_eq!(err, SrsfError::NonFinitePoint { index: 0 });
}

#[test]
fn non_positive_tolerance_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for tol in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
        let err = Solver::builder(&kernel, &pts).tol(tol).build().unwrap_err();
        match err {
            SrsfError::InvalidTolerance { tol: t } => {
                assert!(t.is_nan() == tol.is_nan() && (t.is_nan() || t == tol))
            }
            other => panic!("expected InvalidTolerance, got {other:?}"),
        }
    }
}

#[test]
fn zero_leaf_size_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .leaf_size(0)
        .build()
        .unwrap_err();
    assert_eq!(err, SrsfError::InvalidLeafSize);
}

#[test]
fn zero_threads_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .driver(Driver::Colored { threads: 0 })
        .build()
        .unwrap_err();
    assert_eq!(err, SrsfError::InvalidThreadCount);
}

#[test]
fn non_power_of_four_process_count_is_an_error() {
    assert_eq!(
        Driver::try_distributed(8).unwrap_err(),
        SrsfError::InvalidProcessCount { p: 8 }
    );
    assert!(Driver::try_distributed(16).is_ok());
    assert_eq!(Driver::try_distributed(4).unwrap(), Driver::distributed(4));
}

#[test]
fn oversized_process_grid_is_an_error_not_a_panic() {
    // 16x16 points with leaf_size 16 -> leaf level 2 (4x4 = 16 leaf
    // boxes). A 16-rank grid would leave ranks without a 2x2 leaf block.
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .leaf_size(16)
        .driver(Driver::Distributed {
            grid: ProcessGrid::new(16),
        })
        .build()
        .unwrap_err();
    match err {
        SrsfError::GridTooLarge { p, leaf_boxes } => {
            assert_eq!(p, 16);
            assert_eq!(leaf_boxes, 16);
        }
        other => panic!("expected GridTooLarge, got {other:?}"),
    }
    // A 4-rank grid on the same tree is fine.
    assert!(Solver::builder(&kernel, &pts)
        .leaf_size(16)
        .driver(Driver::distributed(4))
        .build()
        .is_ok());
}

#[test]
fn mismatched_rhs_length_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .build_with_solution(&[1.0; 3])
        .unwrap_err();
    assert_eq!(
        err,
        SrsfError::RhsLength {
            expected: 64,
            got: 3
        }
    );
    // The fallible solve entry points return the same typed error
    // instead of hitting the infallible path's length assert.
    let s = Solver::builder(&kernel, &pts).build().unwrap();
    assert_eq!(
        s.try_solve(&[1.0; 3]).unwrap_err(),
        SrsfError::RhsLength {
            expected: 64,
            got: 3
        }
    );
    assert_eq!(
        s.try_solve_mat(&srsf_linalg::Mat::zeros(3, 2)).unwrap_err(),
        SrsfError::RhsLength {
            expected: 64,
            got: 3
        }
    );
}

#[test]
fn errors_display_and_propagate() {
    let e = SrsfError::GridTooLarge {
        p: 64,
        leaf_boxes: 16,
    };
    let msg = e.to_string();
    assert!(msg.contains("64") && msg.contains("16"), "{msg}");
    let boxed: Box<dyn std::error::Error> = Box::new(e);
    assert!(!boxed.to_string().is_empty());
}

/// The three drivers must agree to within the ID tolerance on the same
/// Laplace problem, consumed through the shared `Factorized` interface.
#[test]
fn driver_equivalence_on_one_laplace_problem() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 12);
    let tol = 1e-8;

    let build = |driver: Driver| {
        Solver::builder(&kernel, &pts)
            .tol(tol)
            .leaf_size(16)
            .driver(driver)
            .build()
            .unwrap_or_else(|e| panic!("{driver:?}: {e}"))
    };
    let seq = build(Driver::Sequential);
    let col = build(Driver::colored(2));
    let dist = build(Driver::distributed(4));

    let x_seq = Factorized::solve(&seq, &b);
    let x_col = Factorized::solve(&col, &b);
    let x_dist = Factorized::solve(&dist, &b);
    // Same factorization, different schedules: solutions agree to within
    // the compression tolerance (amplified by conditioning head-room).
    let dc = rel_diff(&x_col, &x_seq);
    let dd = rel_diff(&x_dist, &x_seq);
    assert!(dc < 1e3 * tol, "colored vs sequential: {dc:.3e}");
    assert!(dd < 1e3 * tol, "distributed vs sequential: {dd:.3e}");
}

/// Every driver reports where its build time went: the elimination
/// sweep, the level merges and the dense top each take time, and
/// together they fit inside the build's wall time.
#[test]
fn every_driver_reports_phase_times() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for driver in [
        Driver::Sequential,
        Driver::colored(2),
        Driver::distributed(4),
    ] {
        // Leaves at level 3, compressed down to level 2: one merge.
        let f = Solver::builder(&kernel, &pts)
            .leaf_size(16)
            .min_compress_level(2)
            .driver(driver)
            .build()
            .unwrap_or_else(|e| panic!("{driver:?}: {e}"));
        let s = f.stats();
        let phases = [s.eliminate_s, s.merge_s, s.top_s];
        assert!(phases.iter().all(|&t| t > 0.0), "{driver:?}: {phases:?}");
        assert!(
            phases.iter().sum::<f64>() <= s.total_s,
            "{driver:?}: {phases:?} vs total {}",
            s.total_s
        );
    }
}

/// The distributed driver has one mode: it serves from its rank world.
/// The retired gathered mode is a typed error naming `Solver::gather`,
/// and `gather` itself is the distributed driver's alone — the local
/// drivers' factorization already is one object.
#[test]
fn gathered_mode_is_retired_for_gather() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .driver(Driver::distributed(1))
        .resident(false)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        SrsfError::UnsupportedOption {
            option: "resident(false)",
            driver: "distributed",
            instead: "`Solver::gather()`",
        }
    );
    let served = Solver::builder(&kernel, &pts)
        .driver(Driver::distributed(1))
        .resident(true)
        .build()
        .unwrap();
    let gathered = served.gather().unwrap();
    assert_eq!(gathered.n(), 64);

    for (driver, name) in [
        (Driver::Sequential, "sequential"),
        (Driver::colored(2), "colored"),
    ] {
        let local = Solver::builder(&kernel, &pts)
            .driver(driver)
            .build()
            .unwrap();
        assert_eq!(
            local.gather().map(|_| ()),
            Err(SrsfError::UnsupportedOption {
                option: "gather",
                driver: name,
                instead: "`Solver::factorization()`",
            })
        );
    }
}
