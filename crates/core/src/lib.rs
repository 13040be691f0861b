//! `srsf-core`: the strong recursive skeletonization factorization (RS-S)
//! and its parallel variants — the paper's primary contribution.
//!
//! The factorization applies approximate block Gaussian elimination to the
//! dense kernel matrix in a multi-level sweep over a quad-tree (Section II
//! of the paper): for each box, the interaction with its far field is
//! compressed with a proxy-accelerated interpolative decomposition, the
//! redundant degrees of freedom are eliminated, and the Schur-complement
//! fill-in lands only on neighboring boxes. Three drivers share the same
//! per-box elimination kernel:
//!
//! * [`sequential`] — Algorithm 1: a level-by-level, box-by-box sweep.
//! * [`colored`] — the shared-memory reference of Section V-C (the paper's
//!   C++/OpenMP comparison) and the one elimination schedule: each level
//!   is cut into distance-3 waves whose boxes are processed concurrently
//!   against a snapshot and merged in row-major order, which is
//!   Algorithm 1 bit for bit. It runs the sequential driver's level loop
//!   on more threads; `Driver::colored(threads)` is the only thread count
//!   a build takes.
//! * [`distributed`] — Algorithm 2, the contribution: leaf boxes are block
//!   partitioned over a process grid; *interior* boxes factor with zero
//!   communication, *boundary* boxes in four process-color rounds with
//!   neighbor-only update messages; ranks fold by 4 as the tree coarsens.
//!   Each rank is one thread: the parallelism is the `p` ranks.
//!
//! Every driver skeletonizes with the same randomized sketch and its CPQR
//! fallback ([`skeletonize`]); the compression path is not an option.
//!
//! Supporting modules: [`store`] (modified-interaction block store with
//! kernel-on-miss), [`skeletonize`] (proxy ID), [`elimination`] (the strong
//! skeletonization operator `Z(A; B)` of Eq. 10), [`levels`] (merge /
//! level-transition logic), [`top`] (the dense top block: packed `L D Lᵀ` or
//! LU), [`solve`] (upward/downward substitution passes),
//! [`stats`] (ranks per level, memory, timing breakdowns).

#![forbid(unsafe_code)]

pub mod colored;
pub mod distributed;
pub mod elimination;
pub mod error;
pub mod levels;
pub mod sequential;
pub mod skeletonize;
pub mod solve;
pub mod solver;
pub mod stats;
pub mod store;
pub mod top;
pub mod wire;

pub use error::SrsfError;
pub use sequential::Factorization;
pub use skeletonize::CompressionCtx;
pub use solver::{Driver, Factorized, Solver, SolverBuilder};
pub use srsf_runtime::{BaseTransport, FaultPlan, RankHealth, Transport};
pub use stats::{CompressionTelemetry, FactorStats};
pub use top::TopFactor;

/// Options controlling the factorization.
///
/// Construct with [`FactorOpts::default`] (the paper's parameters) and
/// adjust with the `with_*` setters — the struct is `#[non_exhaustive]`
/// so new knobs can be added without breaking downstream crates:
///
/// ```
/// use srsf_core::FactorOpts;
/// let opts = FactorOpts::default().with_tol(1e-8).with_leaf_size(32);
/// assert_eq!(opts.leaf_size, 32);
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FactorOpts {
    /// Relative tolerance for the interpolative decomposition (paper: ε).
    pub tol: f64,
    /// Target number of points per leaf box.
    pub leaf_size: usize,
    /// Proxy circle radius as a multiple of the box side (paper: 2.5).
    pub proxy_radius_factor: f64,
    /// Minimum number of proxy points on the circle.
    pub n_proxy_min: usize,
    /// Extra proxy points per wavelength for oscillatory kernels: the
    /// effective count is `max(n_proxy_min, ceil(proxy_osc_factor * kappa *
    /// radius) + 32)` where `kappa` is the kernel's oscillation parameter.
    pub proxy_osc_factor: f64,
    /// Coarsest tree level at which compression is applied (paper: 3; the
    /// remaining active DOFs above it are finished with a dense
    /// factorization — see [`top`]).
    pub min_compress_level: usize,
    /// Message transport for the distributed driver:
    /// [`Transport::InProc`] runs ranks as threads of this process (the
    /// default); [`Transport::Tcp`] runs every rank as a spawned OS
    /// process over localhost sockets. The factorization, solution, and
    /// per-rank message/word counters are identical across backends; the
    /// other drivers ignore this knob.
    pub transport: Transport,
    /// Checkpoint directory for the distributed driver (default: none).
    /// When set, every rank writes a versioned, CRC-checked snapshot of
    /// its factorization state (`rank_{r}.ckpt`) the moment the factor
    /// sweep completes, and rank 0 writes a `manifest.ckpt` describing
    /// the run; [`crate::Solver::restore_resident`] rebuilds a resident
    /// world from that directory without re-factoring. The other drivers
    /// ignore this knob.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Bounded-receive timeout for the distributed driver's rank world
    /// (default: 120 s). Every receive and barrier waits at most this
    /// long before reporting the missing peer as a failure — the knob
    /// that bounds how long a crashed rank or a cut link can stall a
    /// build or a resident solve. The other drivers ignore this knob.
    pub recv_timeout: std::time::Duration,
    /// Span tracing for the distributed driver (default: off). When on,
    /// every rank records phase, compute, and comm-wait spans into
    /// per-thread ring buffers (`srsf-trace`); rank 0 gathers the
    /// reports and [`crate::Solver`] exposes them as Chrome trace-event
    /// JSON and a plain-text profile table. Tracing never touches the
    /// §IV counters — traced runs are bit-identical to untraced ones in
    /// solutions and message/word counts. The other drivers ignore this
    /// knob.
    pub trace: bool,
}

impl Default for FactorOpts {
    fn default() -> Self {
        Self {
            tol: 1e-6,
            leaf_size: 64,
            proxy_radius_factor: 2.5,
            n_proxy_min: 64,
            proxy_osc_factor: 2.0,
            min_compress_level: 3,
            transport: Transport::InProc,
            checkpoint_dir: None,
            recv_timeout: std::time::Duration::from_secs(120),
            trace: false,
        }
    }
}

impl FactorOpts {
    /// The paper's default parameters (same as [`FactorOpts::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the ID tolerance (paper: ε).
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Set the target number of points per leaf box.
    pub fn with_leaf_size(mut self, leaf_size: usize) -> Self {
        self.leaf_size = leaf_size;
        self
    }

    /// Set the proxy circle radius factor.
    pub fn with_proxy_radius_factor(mut self, factor: f64) -> Self {
        self.proxy_radius_factor = factor;
        self
    }

    /// Set the minimum number of proxy points.
    pub fn with_n_proxy_min(mut self, n: usize) -> Self {
        self.n_proxy_min = n;
        self
    }

    /// Set the oscillatory proxy point factor.
    pub fn with_proxy_osc_factor(mut self, factor: f64) -> Self {
        self.proxy_osc_factor = factor;
        self
    }

    /// Set the coarsest compressed tree level.
    pub fn with_min_compress_level(mut self, level: usize) -> Self {
        self.min_compress_level = level;
        self
    }

    /// Set the message transport for the distributed driver.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Set the checkpoint directory: every rank snapshots its
    /// factorization state there as soon as the factor sweep completes
    /// (see [`crate::Solver::restore_resident`]).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Set the distributed driver's bounded-receive timeout — how long a
    /// rank waits on a missing peer before reporting it failed.
    pub fn with_recv_timeout(mut self, t: std::time::Duration) -> Self {
        self.recv_timeout = t;
        self
    }

    /// Enable span tracing for the distributed driver (see
    /// [`solver::SolverBuilder::trace`]). Traced runs stay bit-identical
    /// to untraced ones in solutions and §IV counters.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}
