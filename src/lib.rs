//! # srsf — strong recursive skeletonization factorization
//!
//! A distributed-memory-parallel **O(N) direct solver** for the dense linear
//! systems arising from planar integral equations, reproducing
//! *"An O(N) distributed-memory parallel direct solver for planar integral
//! equations"* (Liang, Chen, Martinsson, Biros; IPDPS 2024,
//! arXiv:2310.15458) in Rust.
//!
//! This facade crate re-exports the workspace's subsystems:
//!
//! * [`linalg`] — dense kernels: `Mat`, LU, CPQR, interpolative decomposition.
//! * [`special`] — Bessel/Hankel functions, Gauss–Legendre and adaptive
//!   quadrature, singular self-interaction integrals.
//! * [`fft`] — radix-2 FFT and circulant-embedded fast kernel matvec.
//! * [`geometry`] — quad-trees, near-field/distance-2 neighborhoods, proxy
//!   circles, process grids.
//! * [`kernels`] — the 2-D Laplace and Helmholtz (Lippmann–Schwinger)
//!   kernels and matrix assembly.
//! * [`runtime`] — the distributed-memory runtime: pluggable transports
//!   (ranks as threads, or as real OS processes over localhost TCP),
//!   explicit messages, communication counters, α–β network model.
//! * [`core`] — the factorization itself, behind the unified
//!   [`Solver`](prelude::Solver) builder: sequential, shared-memory
//!   threaded, and distributed-memory process-colored drivers.
//! * [`iterative`] — CG / preconditioned CG / GMRES for the accuracy and
//!   iteration-count experiments; preconditioned by anything implementing
//!   [`Factorized`](prelude::Factorized).
//!
//! ## Quickstart
//!
//! One builder serves all three execution strategies of the paper — pick a
//! [`Driver`](prelude::Driver) and everything else stays the same:
//!
//! ```
//! use srsf::prelude::*;
//!
//! // 32x32 collocation grid for the 2-D Laplace volume integral equation.
//! let grid = UnitGrid::new(32);
//! let kernel = LaplaceKernel::new(&grid);
//! let f = Solver::builder(&kernel, &grid.points())
//!     .tol(1e-6)
//!     .driver(Driver::Sequential) // or Driver::colored(4), Driver::distributed(4)
//!     .build()
//!     .unwrap();
//!
//! // Solve against a random right-hand side and check the residual.
//! let b = random_vector::<f64>(grid.n(), 7);
//! let x = f.solve(&b);
//! let op = DenseKernelOp::new(&kernel, &grid.points());
//! assert!(relative_residual(&op, &x, &b) < 1e-4);
//! ```
//!
//! The built [`Solver`](prelude::Solver) implements
//! [`Factorized`](prelude::Factorized) and `LinOp`, so it drops into the
//! Krylov methods as a preconditioner regardless of the driver that built
//! it:
//!
//! ```no_run
//! # use srsf::prelude::*;
//! # let grid = UnitGrid::new(32);
//! # let kernel = LaplaceKernel::new(&grid);
//! # let f = Solver::builder(&kernel, &grid.points()).build().unwrap();
//! # let b = random_vector::<f64>(grid.n(), 7);
//! let fast = FastKernelOp::laplace(&kernel, &grid);
//! let res = pcg_factorized(&fast, &f, &b, 1e-12, 100);
//! assert!(res.converged);
//! ```

#![forbid(unsafe_code)]

pub use srsf_core as core;
pub use srsf_fft as fft;
pub use srsf_geometry as geometry;
pub use srsf_iterative as iterative;
pub use srsf_kernels as kernels;
pub use srsf_linalg as linalg;
pub use srsf_runtime as runtime;
pub use srsf_special as special;
pub use srsf_trace as trace;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use srsf_core::{
        sequential::Factorization, solver::SolverBuilder, stats::FactorStats, BaseTransport,
        Compression, CompressionTelemetry, Driver, FactorOpts, Factorized, FaultPlan, RankHealth,
        Solver, SrsfError, Transport,
    };
    pub use srsf_geometry::{grid::UnitGrid, point::Point, procgrid::ProcessGrid, tree::QuadTree};
    pub use srsf_iterative::{
        cg::{cg, pcg},
        gmres::{gmres, GmresOpts},
        op::{relative_residual, DenseOp, LinOp},
        precond::{gmres_factorized, pcg_factorized, FactorizedOp},
    };
    pub use srsf_kernels::{
        assemble::DenseKernelOp,
        fast_op::FastKernelOp,
        helmholtz::{gaussian_bump, HelmholtzKernel},
        kernel::Kernel,
        laplace::LaplaceKernel,
        util::random_vector,
    };
    pub use srsf_linalg::{c64, Mat, Scalar};
}
