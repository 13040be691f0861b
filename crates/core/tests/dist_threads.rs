//! Bit-identity of the hybrid-parallel distributed driver: the
//! `rank_threads` knob must change wall-clock time and nothing else.
//! Every rank eliminates its phase boxes in distance-3 wave rounds
//! with snapshot reads and a fixed merge order, so the factorization
//! records, the solutions, and the per-rank communication counters are
//! identical bits for every thread count — on both transports.
//!
//! Test layout: the `inproc_threads_*` tests run the p × rank_threads
//! matrix entirely in-process (they exercise the only new cross-thread
//! code path and are what the nightly TSan job runs); the `tcp_threads_*`
//! tests then pin a threaded TCP world against its in-process twin,
//! following transport_equiv.rs's re-exec discipline (TCP session first,
//! one session per test function).

use srsf_core::{Compression, Driver, FactorOpts, Solver, Transport};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::Scalar;
use srsf_runtime::set_tcp_child_args;

fn opts() -> FactorOpts {
    FactorOpts::default().with_tol(1e-8).with_leaf_size(16)
}

type Built<T> = (Solver<T>, Vec<T>);

fn build<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    p: usize,
    threads: usize,
    transport: Transport,
) -> Built<K::Elem> {
    let b = random_vector::<K::Elem>(pts.len(), 7);
    Solver::builder(kernel, pts)
        .opts(opts())
        .driver(Driver::distributed(p))
        .rank_threads(threads)
        .transport(transport)
        .build_with_solution(&b)
        .unwrap_or_else(|e| panic!("p={p}, {threads} threads, {transport}: {e}"))
}

/// Bitwise comparison of two builds: solution, factorization shape,
/// per-rank counters, and the gathered records (via local applies).
fn assert_identical<T: Scalar>(label: &str, (f_a, x_a): &Built<T>, (f_b, x_b): &Built<T>) {
    assert_eq!(x_a.len(), x_b.len());
    for (i, (a, b)) in x_a.iter().zip(x_b.iter()).enumerate() {
        assert_eq!(a.re(), b.re(), "{label}: solution differs at entry {i}");
        assert_eq!(a.im(), b.im(), "{label}: solution differs at entry {i}");
    }
    assert_eq!(f_a.n_records(), f_b.n_records(), "{label}: record count");
    assert_eq!(f_a.top_size(), f_b.top_size(), "{label}: top size");
    assert_eq!(
        f_a.stats().rank_table(),
        f_b.stats().rank_table(),
        "{label}: skeleton ranks"
    );
    // The sketched path's counters are part of the determinism contract:
    // every box takes the same retry/fallback/FFT-vs-dense route on every
    // schedule, so the global counters match exactly.
    assert_eq!(
        f_a.stats().compression,
        f_b.stats().compression,
        "{label}: compression telemetry"
    );
    let s_a = f_a.comm_stats().expect("comm stats");
    let s_b = f_b.comm_stats().expect("comm stats");
    assert_eq!(s_a.per_rank.len(), s_b.per_rank.len());
    for (rank, (a, b)) in s_a.per_rank.iter().zip(s_b.per_rank.iter()).enumerate() {
        assert_eq!(
            (a.msgs_sent, a.words_sent),
            (b.msgs_sent, b.words_sent),
            "{label}: rank {rank} counters differ"
        );
    }
    let rhs = random_vector::<T>(x_a.len(), 23);
    let (g_a, g_b) = (f_a.gather().expect("gather"), f_b.gather().expect("gather"));
    for (a, b) in g_a.solve(&rhs).iter().zip(g_b.solve(&rhs).iter()) {
        assert_eq!(a.re(), b.re(), "{label}: gathered records differ");
        assert_eq!(a.im(), b.im(), "{label}: gathered records differ");
    }
}

/// In-process p × rank_threads matrix: {1, 2, 4} threads against the
/// serial reference, for one `(kernel, p)` cell.
fn assert_thread_invariant<K: Kernel>(kernel: &K, pts: &[Point], p: usize) {
    let serial = build(kernel, pts, p, 1, Transport::InProc);
    for threads in [2usize, 4] {
        let threaded = build(kernel, pts, p, threads, Transport::InProc);
        assert_identical(&format!("p={p}, {threads}t vs 1t"), &threaded, &serial);
    }
}

macro_rules! inproc_case {
    ($name:ident, $kernel:expr, $p:expr) => {
        #[test]
        fn $name() {
            let grid = UnitGrid::new(32); // N = 1024, leaf level 3
            let kernel = $kernel(&grid);
            let pts = grid.points();
            assert_thread_invariant(&kernel, &pts, $p);
        }
    };
}

fn helmholtz(grid: &UnitGrid) -> HelmholtzKernel {
    HelmholtzKernel::new(grid, 20.0)
}

inproc_case!(inproc_threads_bitwise_laplace_f64_p1, LaplaceKernel::new, 1);
inproc_case!(inproc_threads_bitwise_laplace_f64_p4, LaplaceKernel::new, 4);
// 16 ranks x up to 4 workers each; leaf level 3 folds 16 -> 4 -> 1.
inproc_case!(
    inproc_threads_bitwise_laplace_f64_p16_fold,
    LaplaceKernel::new,
    16
);
inproc_case!(inproc_threads_bitwise_helmholtz_c64_p1, helmholtz, 1);
inproc_case!(inproc_threads_bitwise_helmholtz_c64_p4, helmholtz, 4);

/// One TCP session per test (workers exit inside it), at 4 rank threads;
/// transitively with the in-process matrix above this pins every
/// (transport, p, threads) cell to the same bits.
macro_rules! tcp_case {
    ($name:ident, $kernel:expr, $p:expr) => {
        #[test]
        fn $name() {
            set_tcp_child_args(Some(vec![stringify!($name).into(), "--exact".into()]));
            let grid = UnitGrid::new(32);
            let kernel = $kernel(&grid);
            let pts = grid.points();
            // TCP first: spawned workers must exit inside this session.
            let tcp = build(&kernel, &pts, $p, 4, Transport::Tcp);
            let inproc = build(&kernel, &pts, $p, 4, Transport::InProc);
            assert_identical(concat!(stringify!($name), " tcp vs inproc"), &tcp, &inproc);
        }
    };
}

/// Explicit non-default sketch parameters (the inproc matrix above pins
/// the *default* `Compression::sketched()`): a custom `(oversample,
/// seed)` must be just as schedule-invariant across ranks and thread
/// counts — the per-box seeds derive only from box coordinates.
#[test]
fn inproc_threads_bitwise_explicit_sketched() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let sketched = Compression::Sketched {
        oversample: 6,
        seed: 0xABCD_1234,
    };
    let build_s = |p: usize, threads: usize| {
        let b = random_vector::<f64>(pts.len(), 7);
        Solver::builder(&kernel, &pts)
            .opts(opts().with_compression(sketched))
            .driver(Driver::distributed(p))
            .rank_threads(threads)
            .build_with_solution(&b)
            .unwrap_or_else(|e| panic!("p={p}, {threads} threads: {e}"))
    };
    for p in [1usize, 4] {
        let serial = build_s(p, 1);
        let threaded = build_s(p, 4);
        assert_identical(&format!("sketched p={p}, 4t vs 1t"), &threaded, &serial);
    }
    // (Across *process counts* the phase partition — interior vs
    // boundary — reorders the floating-point Schur additions, so bits
    // differ with p under either compression path; the invariance
    // contract is per p, across threads and transports.)
}

tcp_case!(tcp_threads_bitwise_laplace_f64_p1, LaplaceKernel::new, 1);
tcp_case!(tcp_threads_bitwise_laplace_f64_p4, LaplaceKernel::new, 4);
tcp_case!(
    tcp_threads_bitwise_laplace_f64_p16_fold,
    LaplaceKernel::new,
    16
);
tcp_case!(tcp_threads_bitwise_helmholtz_c64_p4, helmholtz, 4);
