//! One elimination schedule: every driver is Algorithm 1, bit for bit.
//!
//! Each level (and each distributed phase) is eliminated in distance-3
//! waves: same-wave boxes never read what another writes, and every pair
//! within distance 2 keeps its row-major order. So `Driver::Sequential`,
//! `Driver::colored(k)` for any `k`, and a one-rank world over either
//! transport build the same records in the same order, the same top, the
//! same §IV counters and the same solution bits.
//!
//! Re-exec discipline (see `transport_equiv.rs`): a TCP test registers
//! itself via `set_tcp_child_args` and runs its TCP build first.

use srsf_core::elimination::BoxElimination;
use srsf_core::{CompressionTelemetry, Driver, FactorOpts, Factorization, Solver, Transport};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::Scalar;
use srsf_runtime::codec::{ByteReader, Wire};
use srsf_runtime::set_tcp_child_args;
use std::collections::BTreeMap;

fn opts() -> FactorOpts {
    FactorOpts::default().with_tol(1e-8).with_leaf_size(16)
}

/// What must be equal bit for bit across drivers.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Each record's bytes, in stored order.
    records: Vec<Vec<u8>>,
    top: Vec<u8>,
    /// `FactorStats::ranks` and the compression counters.
    stats: (BTreeMap<u8, (usize, usize)>, CompressionTelemetry),
    /// Per-rank `(msgs_sent, words_sent)`; empty for the local drivers.
    comm: Vec<(u64, u64)>,
    /// The solution's bits, `(re, im)` per entry.
    solution: Vec<(u64, u64)>,
}

/// The records of `f` in stored order, each as its wire bytes.
fn record_bytes<T: Scalar>(f: &Factorization<T>) -> Vec<Vec<u8>> {
    let mut r = ByteReader::new(f.to_bytes());
    r.try_get_u64().expect("n");
    let records = Vec::<BoxElimination<T>>::decode(&mut r).expect("records");
    records.iter().map(Wire::to_bytes).collect()
}

fn fingerprint<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    driver: Driver,
    transport: Transport,
) -> Fingerprint {
    let solver = Solver::builder(kernel, pts)
        .opts(opts())
        .driver(driver)
        .transport(transport)
        .build()
        .unwrap_or_else(|e| panic!("{driver:?}: {e}"));
    let b = random_vector::<K::Elem>(pts.len(), 7);
    let solution = solver
        .solve(&b)
        .iter()
        .map(|v| (v.re().to_bits(), v.im().to_bits()))
        .collect();
    let comm = solver.comm_stats().map_or_else(Vec::new, |s| {
        s.per_rank
            .iter()
            .map(|r| (r.msgs_sent, r.words_sent))
            .collect()
    });
    let local;
    let f = match driver {
        Driver::Distributed { .. } => {
            local = solver.gather().expect("gather");
            &local
        }
        _ => solver.factorization(),
    };
    Fingerprint {
        records: record_bytes(f),
        top: f.top_factor().to_bytes(),
        stats: (f.stats().ranks.clone(), f.stats().compression),
        comm,
        solution,
    }
}

/// Every shared-memory driver and the in-process one-rank world against
/// `Driver::Sequential`.
fn assert_every_driver_is_sequential<K: Kernel>(kernel: &K, pts: &[Point], label: &str) {
    let want = fingerprint(kernel, pts, Driver::Sequential, Transport::InProc);
    assert!(!want.records.is_empty(), "{label}: nothing was eliminated");
    let mut cases = [1, 2, 4].map(Driver::colored).to_vec();
    cases.push(Driver::distributed(1));
    for driver in cases {
        let mut got = fingerprint(kernel, pts, driver, Transport::InProc);
        if let Driver::Distributed { .. } = driver {
            // A one-rank world moves no §IV traffic, like the local drivers.
            assert_eq!(got.comm, [(0, 0)], "{label}: {driver:?} counters");
            got.comm.clear();
        }
        assert_same(&got, &want, &format!("{label}: {driver:?}"));
    }
}

fn assert_same(got: &Fingerprint, want: &Fingerprint, label: &str) {
    assert_eq!(got.records.len(), want.records.len(), "{label}: records");
    for (k, (g, w)) in got.records.iter().zip(&want.records).enumerate() {
        assert!(g == w, "{label}: record {k} differs");
    }
    assert!(got.top == want.top, "{label}: top");
    assert_eq!(
        got.stats, want.stats,
        "{label}: ranks and compression counters"
    );
    assert_eq!(got.comm, want.comm, "{label}: counters");
    assert!(got.solution == want.solution, "{label}: solution bits");
}

fn helmholtz(grid: &UnitGrid) -> HelmholtzKernel {
    HelmholtzKernel::new(grid, 10.0)
}

#[test]
fn every_driver_is_algorithm_1_bit_for_bit_laplace() {
    let grid = UnitGrid::new(32);
    assert_every_driver_is_sequential(&LaplaceKernel::new(&grid), &grid.points(), "Laplace");
}

#[test]
fn every_driver_is_algorithm_1_bit_for_bit_helmholtz() {
    let grid = UnitGrid::new(32);
    assert_every_driver_is_sequential(&helmholtz(&grid), &grid.points(), "Helmholtz");
}

/// A one-rank world over TCP against the sequential driver; one TCP
/// session per test function.
macro_rules! tcp_case {
    ($name:ident, $kernel:expr) => {
        #[test]
        fn $name() {
            set_tcp_child_args(Some(vec![stringify!($name).into(), "--exact".into()]));
            let grid = UnitGrid::new(32);
            let kernel = $kernel(&grid);
            let pts = grid.points();
            // TCP first: spawned workers must exit inside this session.
            let mut got = fingerprint(&kernel, &pts, Driver::distributed(1), Transport::Tcp);
            assert_eq!(got.comm, [(0, 0)], "one-rank world counters");
            got.comm.clear();
            let want = fingerprint(&kernel, &pts, Driver::Sequential, Transport::InProc);
            assert_same(&got, &want, stringify!($name));
        }
    };
}

tcp_case!(
    tcp_one_rank_world_is_algorithm_1_laplace,
    LaplaceKernel::new
);
tcp_case!(tcp_one_rank_world_is_algorithm_1_helmholtz, helmholtz);
