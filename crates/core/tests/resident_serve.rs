//! Resident-vs-gathered equivalence: the distributed driver serves
//! repeated `solve`/`solve_mat` calls from the live rank world with
//! **bit-identical** results to the local blocked sweeps of its own
//! factorization gathered onto rank 0 (`Solver::gather`), while rank 0
//! never holds the global record set between gathers.
//!
//! Bit-reference note: the acceptance reference is the *serial blocked
//! sweep* (`Factorization::solve_mat`) of the same distributed
//! factorization — the path residency replaces. (The sequential *driver*
//! eliminates boxes in a different order, so its records differ in bits
//! from any distributed factorization by construction; equivalence to it
//! is asserted in the accuracy class, as the existing distributed tests
//! do.) The resident vector `solve` is the one-column case of the blocked
//! sweep and is compared against exactly that.

use srsf_core::{Driver, FactorOpts, Factorization, Solver, SrsfError, TopFactor};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{c64, Mat, Scalar};
use srsf_runtime::{set_tcp_child_args, Transport, WorldStats};

mod common;
use common::HideSymmetry;

fn opts() -> FactorOpts {
    FactorOpts::default().with_tol(1e-8).with_leaf_size(16)
}

fn random_mat<T: Scalar>(n: usize, nrhs: usize, seed: u64) -> Mat<T> {
    let mut m = Mat::zeros(n, nrhs);
    for j in 0..nrhs {
        m.col_mut(j)
            .copy_from_slice(&random_vector::<T>(n, seed + j as u64));
    }
    m
}

fn assert_mat_bits<T: Scalar>(a: &Mat<T>, b: &Mat<T>, what: &str) {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()), "{what}");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
        assert_eq!(x.re(), y.re(), "{what}: entry {i} differs");
        assert_eq!(x.im(), y.im(), "{what}: entry {i} differs");
    }
}

/// Factor once, gather the factorization onto rank 0, then serve repeated
/// solves from the resident world and compare against the gathered
/// object's local sweeps.
fn assert_resident_equivalent<K: Kernel>(
    kernel: &K,
    pts: &[srsf_geometry::point::Point],
    p: usize,
    transport: Transport,
) {
    let resident = Solver::builder(kernel, pts)
        .opts(opts())
        .driver(Driver::distributed(p))
        .transport(transport)
        .build()
        .expect("resident build");
    let counts = |w: WorldStats| -> Vec<(u64, u64)> {
        w.per_rank
            .iter()
            .map(|r| (r.msgs_sent, r.words_sent))
            .collect()
    };
    let before = counts(resident.resident_comm_probe().expect("probe"));
    let gathered: Factorization<K::Elem> = resident.gather().expect("gather");
    let after = counts(resident.resident_comm_probe().expect("probe"));
    assert_eq!(before, after, "p={p}: the gather moved the §IV counters");

    // The residency probe: rank 0 never holds the global record set.
    let per_rank = resident
        .records_per_rank()
        .expect("resident solver reports per-rank records")
        .to_vec();
    assert!(resident.is_resident());
    assert!(resident.try_factorization().is_none());
    assert_eq!(per_rank.len(), p);
    assert_eq!(
        per_rank.iter().sum::<usize>(),
        gathered.n_records(),
        "p={p}: the union of resident records is the gathered record set"
    );
    if p > 1 {
        assert!(
            per_rank[0] < gathered.n_records(),
            "p={p}: rank 0 must not hold the global record set \
             ({} of {} records)",
            per_rank[0],
            gathered.n_records()
        );
        // (Individual ranks may legitimately hold zero records — e.g. a
        // rank whose leaf boxes compress to nothing — so only the
        // distribution, not per-rank positivity, is asserted.)
        assert!(
            per_rank.iter().filter(|&&n| n > 0).count() > 1,
            "p={p}: records are not distributed"
        );
        // Per-rank peak memory stays a fraction of the gathered object.
        let max_rank = resident.memory_bytes_max_rank().expect("per-rank bytes");
        assert!(
            max_rank < gathered.memory_bytes(),
            "p={p}: max rank {} bytes vs gathered {}",
            max_rank,
            gathered.memory_bytes()
        );
    }
    // Gathering moves every byte the ranks hold and adds none.
    let spread = resident.memory_bytes_per_rank().expect("per-rank bytes");
    assert_eq!(
        spread.iter().sum::<usize>(),
        gathered.memory_bytes(),
        "p={p}: sum of per-rank bytes vs the gathered footprint"
    );
    assert_eq!(resident.memory_bytes(), gathered.memory_bytes());
    assert_eq!(resident.n_records(), gathered.n_records());
    assert_eq!(resident.top_size(), gathered.top_size());
    assert_eq!(
        resident.stats().rank_table(),
        gathered.stats().rank_table(),
        "p={p}: merged rank table"
    );
    assert_eq!(
        resident.stats().compression,
        gathered.stats().compression,
        "p={p}: compression counters"
    );

    // Factor once, serve repeatedly: blocked multi-RHS ...
    for nrhs in [1usize, 3, 7, 16, 64] {
        let b = random_mat::<K::Elem>(pts.len(), nrhs, 1000 + nrhs as u64);
        let want = gathered.solve_mat(&b);
        for rep in 0..2 {
            let got = resident.solve_mat(&b);
            assert_mat_bits(&got, &want, &format!("p={p} nrhs={nrhs} rep={rep}"));
        }
    }
    // ... and single vectors: the one-column case of the sweep, served
    // or gathered.
    let b = random_vector::<K::Elem>(pts.len(), 77);
    let want = gathered.solve_mat(&Mat::from_vec(b.len(), 1, b.clone()));
    assert_eq!(
        gathered.solve(&b),
        want.as_slice(),
        "p={p}: gathered vector"
    );
    for rep in 0..3 {
        let got = resident.solve(&b);
        assert_eq!(got.len(), b.len());
        for (i, (x, y)) in got.iter().zip(want.as_slice().iter()).enumerate() {
            assert_eq!(x.re(), y.re(), "p={p} rep={rep}: vector entry {i}");
            assert_eq!(x.im(), y.im(), "p={p} rep={rep}: vector entry {i}");
        }
    }

    // Explicit shutdown returns the session counters once; the ranks
    // are gone, so a gather after it is a typed error.
    let final_stats = resident.shutdown().expect("first shutdown");
    assert_eq!(final_stats.per_rank.len(), p);
    assert!(resident.shutdown().is_none(), "shutdown is idempotent");
    assert_eq!(
        resident.gather().map(|_| ()),
        Err(SrsfError::ServiceShutDown)
    );
}

#[test]
fn resident_matches_gathered_bitwise_p1() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    assert_resident_equivalent(&kernel, &grid.points(), 1, Transport::InProc);
}

#[test]
fn resident_matches_gathered_bitwise_p4() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    assert_resident_equivalent(&kernel, &grid.points(), 4, Transport::InProc);
}

#[test]
fn resident_matches_gathered_bitwise_p16_fold() {
    // Leaf level 3: 16 ranks at the leaf, folding 16 -> 4 -> 1.
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    assert_resident_equivalent(&kernel, &grid.points(), 16, Transport::InProc);
}

#[test]
fn resident_matches_gathered_bitwise_helmholtz_c64_p4() {
    let grid = UnitGrid::new(32);
    let kernel = HelmholtzKernel::new(&grid, 20.0);
    assert_resident_equivalent(&kernel, &grid.points(), 4, Transport::InProc);
    let _ = c64::ZERO;
}

/// A block or vector of the wrong height is a typed error from the
/// fallible entry points — the service's own check, not a panic on rank
/// 0 — and costs the service nothing: no frame has been sent, so the
/// next well-formed solve is answered (and answered right).
fn assert_wrong_height_is_an_error_not_a_poison(p: usize) {
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let resident = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(p))
        .build()
        .expect("resident build");
    let b = random_mat::<f64>(pts.len(), 3, 7);
    let want = resident.solve_mat(&b);
    let wrong = SrsfError::RhsLength {
        expected: pts.len(),
        got: pts.len() - 1,
    };
    let short = Mat::<f64>::zeros(pts.len() - 1, 3);
    assert_eq!(resident.try_solve_mat(&short).unwrap_err(), wrong, "p={p}");
    assert_eq!(
        resident.try_solve(&vec![1.0; pts.len() - 1]).unwrap_err(),
        wrong,
        "p={p}"
    );
    let again = resident.try_solve_mat(&b).expect("service still answers");
    assert_mat_bits(
        &again,
        &want,
        &format!("p={p}: solve after a rejected block"),
    );
    assert!(resident.shutdown().is_some(), "p={p}: clean shutdown");
}

#[test]
fn wrong_rhs_height_is_a_typed_error_p1() {
    assert_wrong_height_is_an_error_not_a_poison(1);
}

#[test]
fn wrong_rhs_height_is_a_typed_error_p4() {
    assert_wrong_height_is_an_error_not_a_poison(4);
}

/// The acceptance case: resident `solve_mat` over real OS processes,
/// nrhs = 16, p = 4, N = 1024 — bit-identical to the in-process resident
/// world and to the gathered blocked sweep.
#[test]
fn resident_tcp_matches_inproc_and_gathered_p4_nrhs16() {
    set_tcp_child_args(Some(vec![
        "resident_tcp_matches_inproc_and_gathered_p4_nrhs16".into(),
        "--exact".into(),
    ]));
    let grid = UnitGrid::new(32); // N = 1024
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    // TCP first: spawned workers must exit inside this session.
    let tcp = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .transport(Transport::Tcp)
        .build()
        .expect("tcp resident build");

    let b = random_mat::<f64>(pts.len(), 16, 42);
    let before = tcp.resident_comm_probe().expect("probe");
    let x_tcp_1 = tcp.solve_mat(&b);
    let mid = tcp.resident_comm_probe().expect("probe");
    let x_tcp_2 = tcp.solve_mat(&b);
    let x_tcp_3 = tcp.solve_mat(&b);
    let after = tcp.resident_comm_probe().expect("probe");
    assert_mat_bits(&x_tcp_2, &x_tcp_1, "tcp repeat 2");
    assert_mat_bits(&x_tcp_3, &x_tcp_1, "tcp repeat 3");

    // Per-solve counters are exact and repeatable: the two-solve window
    // moves exactly twice the one-solve window, on every rank.
    for rank in 0..4 {
        let one = (
            mid.per_rank[rank].msgs_sent - before.per_rank[rank].msgs_sent,
            mid.per_rank[rank].words_sent - before.per_rank[rank].words_sent,
        );
        let two = (
            after.per_rank[rank].msgs_sent - mid.per_rank[rank].msgs_sent,
            after.per_rank[rank].words_sent - mid.per_rank[rank].words_sent,
        );
        assert_eq!(two, (2 * one.0, 2 * one.1), "rank {rank} per-solve delta");
        if rank != 0 {
            assert!(one.0 > 0, "rank {rank} moved no solve messages");
        }
    }

    let inproc = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build()
        .expect("inproc resident build");
    let x_in = inproc.solve_mat(&b);
    let x_gat = inproc.gather().expect("gather").solve_mat(&b);
    assert_mat_bits(&x_tcp_1, &x_in, "tcp vs inproc resident");
    assert_mat_bits(&x_tcp_1, &x_gat, "tcp resident vs gathered sweep");

    // Per-solve counters are backend-invariant, like every other counter.
    let in_before = inproc.resident_comm_probe().expect("probe");
    let _ = inproc.solve_mat(&b);
    let in_after = inproc.resident_comm_probe().expect("probe");
    for rank in 0..4 {
        assert_eq!(
            in_after.per_rank[rank].msgs_sent - in_before.per_rank[rank].msgs_sent,
            mid.per_rank[rank].msgs_sent - before.per_rank[rank].msgs_sent,
            "rank {rank} per-solve msgs differ across transports"
        );
        assert_eq!(
            in_after.per_rank[rank].words_sent - in_before.per_rank[rank].words_sent,
            mid.per_rank[rank].words_sent - before.per_rank[rank].words_sent,
            "rank {rank} per-solve words differ across transports"
        );
    }

    // Tag-based shutdown: clean on both; drop (inproc) is exercised
    // implicitly at scope exit.
    let stats = tcp.shutdown().expect("tcp shutdown");
    assert_eq!(stats.per_rank.len(), 4);
}

/// Dropping a resident solver without an explicit shutdown must tear the
/// world down cleanly (no hang, no leaked workers) — the Drop path
/// broadcasts the shutdown command and joins the workers.
#[test]
fn dropping_a_resident_solver_shuts_the_world_down() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let solver = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build()
        .expect("resident build");
    let b = random_vector::<f64>(pts.len(), 5);
    let _ = solver.solve(&b);
    drop(solver);
    // Reaching here without hanging is the assertion; build another
    // resident world to show the slate is clean.
    let again = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build()
        .expect("second resident build");
    let _ = again.solve(&b);
}

/// `build_with_solution` in residency mode solves on the resident world.
#[test]
fn resident_build_with_solution_matches_serving() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(pts.len(), 9);
    let (solver, x) = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build_with_solution(&b)
        .expect("resident build+solve");
    let again = solver.solve(&b);
    assert_eq!(x, again, "served solve repeats the build-time solution");
}

fn helmholtz(grid: &UnitGrid) -> HelmholtzKernel {
    HelmholtzKernel::new(grid, 20.0)
}

/// The owner chain of the top solve at its longest here: sixteen ranks,
/// complex blocks.
#[test]
fn resident_matches_gathered_bitwise_helmholtz_c64_p16() {
    let grid = UnitGrid::new(32);
    assert_resident_equivalent(&helmholtz(&grid), &grid.points(), 16, Transport::InProc);
}

/// The same equivalence with every rank a process, so that the block
/// columns of the top and the hops of its solve cross real sockets. One
/// TCP session per test function (see `transport_equiv.rs`).
macro_rules! resident_tcp_case {
    ($name:ident, $kernel:expr, $p:expr) => {
        #[test]
        fn $name() {
            set_tcp_child_args(Some(vec![stringify!($name).into(), "--exact".into()]));
            let grid = UnitGrid::new(32);
            assert_resident_equivalent(&$kernel(&grid), &grid.points(), $p, Transport::Tcp);
        }
    };
}

resident_tcp_case!(
    resident_tcp_matches_gathered_laplace_p4,
    LaplaceKernel::new,
    4
);
resident_tcp_case!(
    resident_tcp_matches_gathered_laplace_p16,
    LaplaceKernel::new,
    16
);
resident_tcp_case!(resident_tcp_matches_gathered_helmholtz_p4, helmholtz, 4);
resident_tcp_case!(resident_tcp_matches_gathered_helmholtz_p16, helmholtz, 16);

/// Per-rank factor bytes at the paper's scale: with the top's block
/// columns dealt out the heaviest rank is within 1.25x of the lightest at
/// p = 4 and 1.6x at p = 16 (it was 2.06x and 5.73x with the top on
/// rank 0), and not a byte is added: the sum is the gathered
/// factorization's footprint.
#[test]
fn top_block_columns_level_the_per_rank_bytes() {
    let grid = UnitGrid::new(128);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for (p, bound) in [(4, 1.25), (16, 1.6)] {
        let solver = Solver::builder(&kernel, &pts)
            .tol(1e-6)
            .driver(Driver::distributed(p))
            .build()
            .expect("build");
        let spread = solver.memory_bytes_per_rank().expect("bytes");
        let ratio = *spread.iter().max().expect("ranks") as f64
            / *spread.iter().min().expect("ranks") as f64;
        assert!(
            ratio <= bound,
            "p={p}: max/min {ratio:.3} > {bound} ({spread:?})"
        );
        assert_eq!(
            spread.iter().sum::<usize>(),
            solver.gather().expect("gather").memory_bytes(),
            "p={p}: sum of per-rank bytes"
        );
    }
}

/// A general (unsymmetric-mode) top is never split: the chain has one
/// owner, rank 0, and the resident world still solves to contract and to
/// the gathered factorization's bits.
#[test]
fn general_top_stays_on_one_owner_and_solves_to_contract() {
    let grid = UnitGrid::new(32);
    let kernel = HideSymmetry(LaplaceKernel::new(&grid));
    let pts = grid.points();
    let resident = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .build()
        .expect("build");
    let gathered = resident.gather().expect("gather");
    let top = gathered.top_factor();
    assert!(matches!(top, TopFactor::General(_)));
    assert!(
        resident.memory_bytes_per_rank().expect("bytes")[0] > top.heap_bytes(),
        "a general top stays where it was factored"
    );
    let b = random_mat::<f64>(pts.len(), 3, 4000);
    let x = resident.solve_mat(&b);
    assert_mat_bits(
        &x,
        &gathered.solve_mat(&b),
        "general top, resident vs gathered",
    );
    let all: Vec<usize> = (0..pts.len()).collect();
    let a = srsf_linalg::DenseOp::new(kernel.block(&pts, &all, &all));
    for j in 0..b.ncols() {
        let r = srsf_linalg::relative_residual(&a, x.col(j), b.col(j));
        assert!(r < 1e-6, "column {j}: relres {r:.3e} at tol 1e-8");
    }
}
