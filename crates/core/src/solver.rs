//! The unified solver API: one builder, three execution drivers.
//!
//! The paper's point is that a single strong-recursive-skeletonization
//! factorization admits three execution strategies — sequential (Alg. 1),
//! shared-memory threaded (§V-C), and distributed process-colored
//! (Alg. 2). This module exposes them behind one entry point, and the
//! driver alone sets the parallelism: `threads` workers for
//! [`Driver::Colored`], one thread per rank for [`Driver::Distributed`]:
//!
//! ```
//! use srsf_core::{Driver, Solver};
//! use srsf_geometry::grid::UnitGrid;
//! use srsf_kernels::laplace::LaplaceKernel;
//!
//! let grid = UnitGrid::new(32);
//! let kernel = LaplaceKernel::new(&grid);
//! let pts = grid.points();
//! let solver = Solver::builder(&kernel, &pts)
//!     .tol(1e-6)
//!     .driver(Driver::Sequential)
//!     .build()
//!     .unwrap();
//! let b = vec![1.0; pts.len()];
//! let x = solver.solve(&b);
//! assert_eq!(x.len(), pts.len());
//! ```
//!
//! Whatever driver built it, the result is a [`Solver`] implementing the
//! shared [`Factorized`] trait (`solve`, `solve_mat`, `stats`,
//! `memory_bytes`) and `LinOp` — so it plugs into the Krylov methods of
//! `srsf-iterative` as a preconditioner unchanged.

use crate::distributed::{dist_factorize_resident, restore_resident_service, ResidentService};
use crate::error::SrsfError;
use crate::sequential::{domain_for, factorize_in_rounds, Factorization};
use crate::stats::FactorStats;
use crate::FactorOpts;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_geometry::tree::QuadTree;
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{LinOp, Mat, Scalar};
use srsf_runtime::{MetricsSnapshot, TraceReport, Transport, WorldStats};

/// Execution strategy for the factorization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    /// Algorithm 1: a level-by-level, box-by-box sequential sweep.
    Sequential,
    /// The shared-memory threaded schedule of Section V-C: Algorithm 1's
    /// level loop with each distance-3 wave of boxes eliminated on
    /// `threads` workers — the same bits as [`Driver::Sequential`].
    Colored {
        /// Worker threads per wave (must be at least 1).
        threads: usize,
    },
    /// Algorithm 2: leaf boxes block-partitioned over a process grid,
    /// factored with interior/boundary phases and four color rounds on a
    /// rank world — ranks as threads or as real OS processes, per
    /// [`SolverBuilder::transport`].
    Distributed {
        /// The `q x q` process grid (`p = q^2` ranks).
        grid: ProcessGrid,
    },
}

impl Driver {
    /// The shared-memory driver on `threads` workers.
    pub fn colored(threads: usize) -> Self {
        Driver::Colored { threads }
    }

    /// The distributed driver on a `p`-rank process grid.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a power of four (1, 4, 16, …); use
    /// [`Driver::try_distributed`] for fallible construction.
    pub fn distributed(p: usize) -> Self {
        Driver::Distributed {
            grid: ProcessGrid::new(p),
        }
    }

    /// The distributed driver on a `p`-rank process grid, or an
    /// [`SrsfError::InvalidProcessCount`] if `p` is not a power of four.
    pub fn try_distributed(p: usize) -> Result<Self, SrsfError> {
        let grid = ProcessGrid::try_new(p).ok_or(SrsfError::InvalidProcessCount { p })?;
        Ok(Driver::Distributed { grid })
    }
}

/// The capabilities every built factorization exposes, regardless of the
/// driver that produced it.
///
/// Object-safe on purpose: downstream code (preconditioned Krylov methods,
/// benchmark harnesses) takes `&dyn Factorized<T>` and never needs to know
/// how the factorization was scheduled.
pub trait Factorized<T: Scalar>: Sync {
    /// Problem size `N`.
    fn n(&self) -> usize;

    /// Solve `A X = B` for every column of an `n x nrhs` block at once.
    fn solve_mat(&self, b: &Mat<T>) -> Mat<T>;

    /// Solve `A x = b`: the one-column [`Factorized::solve_mat`].
    fn solve(&self, b: &[T]) -> Vec<T> {
        self.solve_mat(&Mat::from_vec(b.len(), 1, b.to_vec()))
            .as_slice()
            .to_vec()
    }

    /// Factorization statistics (ranks per level, timings, memory).
    fn stats(&self) -> &FactorStats;

    /// Approximate memory footprint of the factorization in bytes.
    fn memory_bytes(&self) -> usize;
}

impl<T: Scalar> Factorized<T> for Factorization<T> {
    fn n(&self) -> usize {
        Factorization::n(self)
    }
    fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        Factorization::solve_mat(self, b)
    }
    fn stats(&self) -> &FactorStats {
        Factorization::stats(self)
    }
    fn memory_bytes(&self) -> usize {
        Factorization::memory_bytes(self)
    }
}

/// How a built solver serves its solves.
enum SolverBackend<T> {
    /// A factorization object local to the calling thread: the sequential
    /// and colored drivers. Boxed so the enum stays pointer-sized either
    /// way.
    Local(Box<Factorization<T>>),
    /// A live resident rank world: the distributed driver. Records stay
    /// on their owning ranks and every solve runs Algorithm 2's solve
    /// phase in place. Boxed: the service (mutex + session handle + rank-0
    /// state) dwarfs the `Local` variant.
    Resident(Box<ResidentService<T>>),
}

/// A built factorization plus the metadata of the driver that produced it.
///
/// Construct with [`Solver::builder`]. Implements [`Factorized`] and
/// `LinOp` (as the approximate *inverse*, which is what makes it a
/// preconditioner).
pub struct Solver<T> {
    backend: SolverBackend<T>,
    driver: Driver,
}

/// `Ok` if a right-hand side of `got` rows fits a problem of size `n`.
fn check_rhs(n: usize, got: usize) -> Result<(), SrsfError> {
    if got == n {
        Ok(())
    } else {
        Err(SrsfError::RhsLength { expected: n, got })
    }
}

/// `Ok` if every point is finite and no two coincide: one sort of the
/// `N` point ids by coordinate. Adding `0.0` maps `-0.0` to `+0.0`, so
/// equal coordinates have equal bits.
fn check_points(pts: &[Point]) -> Result<(), SrsfError> {
    if let Some(index) = pts
        .iter()
        .position(|p| !(p.x.is_finite() && p.y.is_finite()))
    {
        return Err(SrsfError::NonFinitePoint { index });
    }
    let coords = |i: u32| {
        let p = pts[i as usize];
        ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits())
    };
    let mut ids: Vec<u32> = (0..pts.len() as u32).collect();
    ids.sort_unstable_by_key(|&i| (coords(i), i));
    match ids.windows(2).find(|w| coords(w[0]) == coords(w[1])) {
        Some(w) => Err(SrsfError::DuplicatePoint {
            first: w[0] as usize,
            second: w[1] as usize,
        }),
        None => Ok(()),
    }
}

impl<T: Scalar> Solver<T> {
    /// Start building a solver for the kernel matrix over `pts`.
    ///
    /// Defaults: [`FactorOpts::default`] options and the
    /// [`Driver::Sequential`] driver.
    pub fn builder<'a, K: Kernel<Elem = T>>(
        kernel: &'a K,
        pts: &'a [Point],
    ) -> SolverBuilder<'a, K> {
        SolverBuilder {
            kernel,
            pts,
            opts: FactorOpts::default(),
            driver: Driver::Sequential,
            resident: true,
        }
    }

    /// Problem size `N`.
    pub fn n(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.n(),
            SolverBackend::Resident(s) => s.n(),
        }
    }

    /// Solve `A x = b`. Under the distributed driver the solve runs on the
    /// live rank world (records applied where they live); otherwise on the
    /// local factorization object.
    ///
    /// Panics where [`Solver::try_solve`] returns an error: a
    /// right-hand side of the wrong length, or a resident rank that fails
    /// mid-solve.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        // INVARIANT: deliberate — the panicking convenience form of
        // try_solve, for callers with no degradation path
        self.try_solve(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Solver::solve`]. A right-hand side of the wrong
    /// length is [`SrsfError::RhsLength`] (where the infallible
    /// [`Solver::solve`] panics); beyond that, local backends cannot
    /// fail. Under the distributed driver a rank that dies (or a link
    /// that goes down) mid-solve surfaces as [`SrsfError::RankFailed`]
    /// within the receive timeout — no hang, no abort — and later solves
    /// fail fast with the same error. The degraded solver still shuts
    /// down (or drops) cleanly, and [`Solver::restore_resident`] can
    /// rebuild a fresh world from checkpoints.
    pub fn try_solve(&self, b: &[T]) -> Result<Vec<T>, SrsfError> {
        match &self.backend {
            SolverBackend::Local(f) => {
                check_rhs(f.n(), b.len())?;
                Ok(f.solve(b))
            }
            // (The service checks the length itself.)
            SolverBackend::Resident(s) => s.try_solve(b),
        }
    }

    /// Solve `A X = B` for every column of `b` at once (one sweep over
    /// the records instead of `nrhs`). Under the distributed driver the
    /// column block is scattered by row ownership and swept in place on
    /// the rank world. Panics where [`Solver::try_solve_mat`] returns an
    /// error.
    pub fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        // INVARIANT: deliberate — the panicking convenience form of
        // try_solve_mat, for callers with no degradation path
        self.try_solve_mat(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Solver::solve_mat`]; see [`Solver::try_solve`].
    pub fn try_solve_mat(&self, b: &Mat<T>) -> Result<Mat<T>, SrsfError> {
        match &self.backend {
            SolverBackend::Local(f) => {
                check_rhs(f.n(), b.nrows())?;
                Ok(f.solve_mat(b))
            }
            SolverBackend::Resident(s) => s.try_solve_mat(b),
        }
    }

    /// Rebuild a resident solver from the per-rank snapshots a prior
    /// distributed build persisted under
    /// [`FactorOpts::checkpoint_dir`](crate::FactorOpts) (see
    /// [`SolverBuilder::checkpoint_dir`]): validate the manifest against
    /// `pts` (scalar type, size, bit-exact geometry hash), spin up a
    /// fresh rank world on `transport`, and have every rank load its
    /// CRC-checked snapshot — no kernel evaluations, no
    /// re-factorization. Restored solves are bit-identical to the
    /// original solver's.
    pub fn restore_resident(
        pts: &[Point],
        dir: impl AsRef<std::path::Path>,
        transport: Transport,
    ) -> Result<Solver<T>, SrsfError> {
        let (svc, grid) = restore_resident_service::<T>(pts, dir.as_ref(), transport)?;
        Ok(Solver {
            backend: SolverBackend::Resident(Box::new(svc)),
            driver: Driver::Distributed { grid },
        })
    }

    /// Factorization statistics (ranks per level, timings, memory). Under
    /// the distributed driver the rank table is merged from every rank's
    /// records in place; timings are rank 0's.
    pub fn stats(&self) -> &FactorStats {
        match &self.backend {
            SolverBackend::Local(f) => f.stats(),
            SolverBackend::Resident(s) => s.stats(),
        }
    }

    /// Approximate memory footprint of the factorization in bytes.
    ///
    /// This is the *global* footprint: under the distributed driver the
    /// sum over ranks, which is the `memory_bytes` of [`Solver::gather`]'s
    /// factorization. There the serving-relevant number is usually
    /// [`Solver::memory_bytes_max_rank`] — the paper's O(N/p) per-rank
    /// bound is about the largest single rank.
    pub fn memory_bytes(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.memory_bytes(),
            SolverBackend::Resident(s) => s.bytes_per_rank().iter().sum(),
        }
    }

    /// Peak resident factor bytes over ranks ([`Driver::Distributed`]
    /// only): what the most loaded rank holds — its records plus its block
    /// columns of the top.
    pub fn memory_bytes_max_rank(&self) -> Option<usize> {
        self.memory_bytes_per_rank()
            .map(|v| v.iter().copied().max().unwrap_or(0))
    }

    /// Resident factor bytes per rank ([`Driver::Distributed`] only);
    /// see [`Solver::memory_bytes_max_rank`].
    pub fn memory_bytes_per_rank(&self) -> Option<&[usize]> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => Some(s.bytes_per_rank()),
        }
    }

    /// Number of per-box elimination records (global count; under the
    /// distributed driver the records themselves stay on their ranks).
    pub fn n_records(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.n_records(),
            SolverBackend::Resident(s) => s.records_per_rank().iter().sum(),
        }
    }

    /// Elimination records resident on each rank ([`Driver::Distributed`]
    /// only) — the probe asserting rank 0 never holds the global record
    /// set.
    pub fn records_per_rank(&self) -> Option<&[usize]> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => Some(s.records_per_rank()),
        }
    }

    /// Size of the dense top block.
    pub fn top_size(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.top_size(),
            SolverBackend::Resident(s) => s.top_size(),
        }
    }

    /// The driver that built this solver.
    pub fn driver(&self) -> Driver {
        self.driver
    }

    /// `true` when this solver serves from a live resident rank world.
    #[doc(hidden)]
    // ORACLE: resident_serve, fault_matrix
    pub fn is_resident(&self) -> bool {
        matches!(self.backend, SolverBackend::Resident(_))
    }

    /// Per-rank communication counters of the factorization phase
    /// ([`Driver::Distributed`] only).
    pub fn comm_stats(&self) -> Option<&WorldStats> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => Some(s.comm()),
        }
    }

    /// Snapshot every rank's *cumulative* communication counters
    /// ([`Driver::Distributed`] only). Two snapshots bracketing `k`
    /// solves give exact per-solve message/word counts — how
    /// `comm_counts --solve-reps` measures the §IV solve-phase bound.
    /// `None` for the sequential and colored drivers, and for a resident
    /// world that was shut down or poisoned by a rank failure — a worker
    /// that fails to answer the probe poisons it, as a failed solve does.
    pub fn resident_comm_probe(&self) -> Option<WorldStats> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => s.comm_probe(),
        }
    }

    /// Snapshot the serve metrics ([`Driver::Distributed`] only):
    /// per-solve latency histogram, served/failed counters, and per-rank
    /// resident-memory gauges — the registry behind
    /// `WorldHandle::metrics` in the runtime.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => Some(s.metrics()),
        }
    }

    /// Per-rank span reports of a traced run ([`SolverBuilder::trace`];
    /// empty when tracing was off). Each call *drains* every rank's live
    /// ring buffers (factorization spans the first time, spans of the
    /// solves since on later calls). Feed the reports to
    /// `srsf_trace::export::chrome_trace_json` / `profile_table` for
    /// Perfetto JSON or a plain-text profile.
    pub fn trace_reports(&self) -> Vec<TraceReport> {
        match &self.backend {
            SolverBackend::Local(_) => Vec::new(),
            SolverBackend::Resident(s) => s.trace_reports(),
        }
    }

    /// Shut the resident rank world down (broadcast the shutdown command,
    /// join the workers) and return the session's final per-rank
    /// counters. `None` for the sequential and colored drivers or if
    /// already shut down; dropping the solver shuts the world down
    /// implicitly.
    pub fn shutdown(&self) -> Option<WorldStats> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => s.shutdown(),
        }
    }

    /// Assemble the distributed driver's factorization as one local
    /// object: every rank sends its records and its block columns of the
    /// top to rank 0 over the serve loop (uncounted frames; the §IV
    /// counters do not move), and the world serves on. The result solves
    /// to the service's bits and [`Factorization::save`]s to one file.
    /// A poisoned or shut-down world returns its typed error; the
    /// sequential and colored drivers, whose factorization is already
    /// local, return [`SrsfError::UnsupportedOption`] pointing at
    /// [`Solver::factorization`].
    pub fn gather(&self) -> Result<Factorization<T>, SrsfError> {
        match &self.backend {
            SolverBackend::Resident(s) => s.gather(),
            SolverBackend::Local(_) => Err(SrsfError::UnsupportedOption {
                option: "gather",
                driver: match self.driver {
                    Driver::Colored { .. } => "colored",
                    _ => "sequential",
                },
                instead: "`Solver::factorization()`",
            }),
        }
    }

    /// Borrow the underlying factorization object, if one exists locally
    /// (`None` under the distributed driver — the records live on their
    /// ranks; [`Solver::gather`] assembles a copy).
    #[doc(hidden)]
    // ORACLE: resident_serve
    pub fn try_factorization(&self) -> Option<&Factorization<T>> {
        match &self.backend {
            SolverBackend::Local(f) => Some(f),
            SolverBackend::Resident(_) => None,
        }
    }

    /// Borrow the underlying factorization.
    ///
    /// # Panics
    ///
    /// Panics under the distributed driver, whose factorization stays on
    /// its ranks; use [`Solver::try_factorization`] to branch, or
    /// [`Solver::gather`] for a local copy.
    pub fn factorization(&self) -> &Factorization<T> {
        self.try_factorization()
            // INVARIANT: deliberate — documented panicking accessor;
            // try_factorization is the fallible path
            .expect("a distributed solver's factorization stays on its ranks; use gather()")
    }

    /// Consume the solver, yielding the underlying factorization.
    ///
    /// # Panics
    ///
    /// Panics under the distributed driver; see [`Solver::factorization`].
    #[doc(hidden)]
    // ORACLE: the core tests' `common::factorize` (sequential_correctness, wire_fuzz)
    pub fn into_factorization(self) -> Factorization<T> {
        match self.backend {
            SolverBackend::Local(f) => *f,
            SolverBackend::Resident(_) => {
                // INVARIANT: deliberate — documented panicking accessor;
                // try_factorization is the fallible path
                panic!("a distributed solver's factorization stays on its ranks; use gather()")
            }
        }
    }
}

impl<T: Scalar> core::fmt::Debug for Solver<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Solver")
            .field("n", &self.n())
            .field("driver", &self.driver)
            .field("n_records", &self.n_records())
            .field("top_size", &self.top_size())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> Factorized<T> for Solver<T> {
    fn n(&self) -> usize {
        Solver::n(self)
    }
    fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        Solver::solve_mat(self, b)
    }
    fn stats(&self) -> &FactorStats {
        Solver::stats(self)
    }
    fn memory_bytes(&self) -> usize {
        Solver::memory_bytes(self)
    }
}

impl<T: Scalar> LinOp<T> for Solver<T> {
    fn dim(&self) -> usize {
        self.n()
    }
    /// Applying the solver as an operator applies the approximate
    /// **inverse** — this is what makes it a preconditioner.
    fn apply(&self, x: &[T]) -> Vec<T> {
        self.solve(x)
    }
}

/// A built solver paired with the solution of the supplied right-hand
/// side (returned by [`SolverBuilder::build_with_solution`]).
pub type Solved<T> = (Solver<T>, Vec<T>);

/// Configures and builds a [`Solver`]; created by [`Solver::builder`].
#[derive(Clone, Debug)]
pub struct SolverBuilder<'a, K: Kernel> {
    kernel: &'a K,
    pts: &'a [Point],
    opts: FactorOpts,
    driver: Driver,
    /// `false` after [`SolverBuilder::resident`]`(false)`, which `build`
    /// refuses.
    resident: bool,
}

impl<'a, K: Kernel> SolverBuilder<'a, K> {
    /// Relative tolerance for the interpolative decomposition (paper: ε).
    pub fn tol(mut self, tol: f64) -> Self {
        self.opts = self.opts.with_tol(tol);
        self
    }

    /// Target number of points per leaf box.
    pub fn leaf_size(mut self, leaf_size: usize) -> Self {
        self.opts = self.opts.with_leaf_size(leaf_size);
        self
    }

    /// Proxy circle radius as a multiple of the box side (paper: 2.5).
    pub fn proxy_radius_factor(mut self, factor: f64) -> Self {
        self.opts = self.opts.with_proxy_radius_factor(factor);
        self
    }

    /// Minimum number of proxy points on the circle.
    pub fn n_proxy_min(mut self, n: usize) -> Self {
        self.opts = self.opts.with_n_proxy_min(n);
        self
    }

    /// Extra proxy points per wavelength for oscillatory kernels.
    pub fn proxy_osc_factor(mut self, factor: f64) -> Self {
        self.opts = self.opts.with_proxy_osc_factor(factor);
        self
    }

    /// Coarsest tree level at which compression is applied (paper: 3).
    pub fn min_compress_level(mut self, level: usize) -> Self {
        self.opts = self.opts.with_min_compress_level(level);
        self
    }

    /// Message transport for [`Driver::Distributed`]:
    /// [`Transport::InProc`] (default) runs ranks as threads of this
    /// process; [`Transport::Tcp`] runs every rank as a real OS process
    /// over localhost sockets — `World::run` re-executes the current
    /// binary for ranks `1..p`, so the program must be deterministic up
    /// to this `build` call (see `srsf_runtime::transport`). Either way
    /// the factorization, the solution, and the per-rank communication
    /// counters are identical. Ignored by the other drivers.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.opts = self.opts.with_transport(transport);
        self
    }

    /// Compatibility shim: the distributed driver is always resident.
    /// `true` changes nothing; `false` — the retired mode that gathered
    /// every record onto rank 0 — makes `build` return
    /// [`SrsfError::UnsupportedOption`] pointing at [`Solver::gather`].
    /// It retires with ROADMAP item 2's `[benchmark]` revision, whose
    /// harness is its last caller.
    #[doc(hidden)]
    pub fn resident(mut self, resident: bool) -> Self {
        self.resident = resident;
        self
    }

    /// Directory where each rank of [`Driver::Distributed`] persists its
    /// factor snapshot when the build completes (created if absent;
    /// rank 0 also writes the manifest). A later
    /// [`Solver::restore_resident`] rebuilds a serving resident world
    /// from these files without re-factorizing. Ignored by the other
    /// drivers.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.opts = self.opts.with_checkpoint_dir(dir);
        self
    }

    /// Span tracing for [`Driver::Distributed`] (default: off). When on,
    /// every rank records phase, compute, and comm-wait spans into
    /// per-thread fixed-capacity ring buffers (`srsf-trace`), gathered as
    /// per-rank reports — [`Solver::trace_reports`] — and exportable as
    /// Chrome trace-event / Perfetto JSON or a plain-text profile table.
    /// Tracing is observation-only: a traced run is bit-identical to an
    /// untraced one in solutions and §IV message/word counters (the
    /// recorder never sends anything during the algorithm; reports move
    /// as uncounted service frames). Ignored by the other drivers.
    pub fn trace(mut self, trace: bool) -> Self {
        self.opts = self.opts.with_trace(trace);
        self
    }

    /// Replace the whole option set at once.
    pub fn opts(mut self, opts: FactorOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Select the execution driver (default: [`Driver::Sequential`]).
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Validate the configuration and the points (finite, no two
    /// coincident), then run the selected driver.
    pub fn build(self) -> Result<Solver<K::Elem>, SrsfError> {
        let Self {
            kernel,
            pts,
            opts,
            driver,
            resident,
        } = self;
        if pts.is_empty() {
            return Err(SrsfError::EmptyPointSet);
        }
        check_points(pts)?;
        if !(opts.tol > 0.0 && opts.tol.is_finite()) {
            return Err(SrsfError::InvalidTolerance { tol: opts.tol });
        }
        if opts.leaf_size == 0 {
            return Err(SrsfError::InvalidLeafSize);
        }
        let tree = QuadTree::build(pts, domain_for(pts), opts.leaf_size);
        let backend = match driver {
            Driver::Sequential | Driver::Colored { .. } => {
                let threads = match driver {
                    Driver::Colored { threads } => threads,
                    _ => 1,
                };
                if threads == 0 {
                    return Err(SrsfError::InvalidThreadCount);
                }
                let fact = factorize_in_rounds(kernel, pts, &tree, &opts, threads)?;
                SolverBackend::Local(Box::new(fact))
            }
            Driver::Distributed { grid } => {
                if !resident {
                    return Err(SrsfError::UnsupportedOption {
                        option: "resident(false)",
                        driver: "distributed",
                        instead: "`Solver::gather()`",
                    });
                }
                let leaf = tree.leaf_level();
                // Every rank must own at least a 2x2 block of leaf boxes
                // (Section III-B); reject oversized grids instead of
                // leaving ranks idle or panicking deeper down.
                let fits = grid.q() == 1 || (leaf >= 1 && grid.q() <= 1u32 << (leaf - 1));
                if !fits {
                    return Err(SrsfError::GridTooLarge {
                        p: grid.p(),
                        leaf_boxes: 1usize << (2 * leaf),
                    });
                }
                let svc = dist_factorize_resident(kernel, pts, &tree, &grid, &opts)?;
                SolverBackend::Resident(Box::new(svc))
            }
        };
        Ok(Solver { backend, driver })
    }

    /// Build, then solve one right-hand side: [`SolverBuilder::build`]
    /// followed by [`Solver::try_solve`]. For [`Driver::Distributed`]
    /// that solve is one request to the live rank world; a rank failure
    /// during it is the typed error. [`Solver::comm_stats`] holds the
    /// factorization-phase counters only; per-solve traffic is what
    /// [`Solver::resident_comm_probe`] measures.
    pub fn build_with_solution(self, rhs: &[K::Elem]) -> Result<Solved<K::Elem>, SrsfError> {
        check_rhs(self.pts.len(), rhs.len())?;
        let solver = self.build()?;
        let x = solver.try_solve(rhs)?;
        Ok((solver, x))
    }
}
