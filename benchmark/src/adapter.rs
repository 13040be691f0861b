//! The only file of the benchmark that calls into the `srsf_*` crates.
//! Everything else sees the program through [`Problem`] and [`Factor`],
//! which speak in plain numbers, so a change to the solver's API costs a
//! change to this file alone.
//!
//! API this file depends on:
//!
//! * `srsf_core::Solver::builder` and its setters `opts`, `driver`,
//!   `transport`, `resident`, `trace`; `SolverBuilder::build`;
//!   `Driver::{Sequential, colored, distributed}`; `Transport::InProc`.
//! * `Solver::{try_solve, try_solve_mat, stats, n_records, top_size,
//!   memory_bytes, memory_bytes_max_rank, memory_bytes_per_rank,
//!   comm_stats, resident_comm_probe, trace_reports}`;
//!   `FactorStats::{ranks, compression, top_s}`; `WorldStats::{per_rank,
//!   critical_path_s}`; `NetworkModel::intra_node`; `TraceReport`, `Span`,
//!   `srsf_trace::Cat::{from_u8, as_str}`.
//! * The sequential sweep's building blocks: `QuadTree::{build,
//!   leaf_level, boxes_at_level, leaf_points}`, `sequential::domain_for`,
//!   `BlockStore::{new, get, heap_bytes, n_blocks}`, `ActiveSets::{new,
//!   set, get}`, `CompressionCtx::{new, has_leaf_fft}`, `skeletonize::{skeletonize,
//!   proxy_matrix}`, `elimination::{eliminate_box, apply_output}`,
//!   `levels::merge_to_parent`, `FactorOpts::{default, with_tol,
//!   with_leaf_size}`.
//! * Lower layers, replayed alone: `kernels::assemble_block`,
//!   `FastKernelOp::{laplace, helmholtz}`, `LaplaceKernel::{new,
//!   with_params}`, `HelmholtzKernel::new`, `special::bessel::{j0, y0}`,
//!   `linalg::{Mat, Lu, matmul, interp_decomp, rand_interp_decomp,
//!   relative_residual}`, `fft::Toeplitz2D::{new, scratch, apply_into,
//!   apply_real_into}`, `geometry::{UnitGrid, Point}`.

use crate::spans::Recorder;
use srsf_core::elimination::{apply_output, eliminate_box};
use srsf_core::levels::merge_to_parent;
use srsf_core::sequential::domain_for;
use srsf_core::skeletonize::{proxy_matrix, skeletonize, CompressionCtx};
use srsf_core::store::{ActiveSets, BlockStore};
use srsf_core::{Driver, FactorOpts, FactorStats, Solver, Transport};
use srsf_fft::toeplitz::Toeplitz2D;
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::assemble::assemble_block;
use srsf_kernels::fast_op::FastKernelOp;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_linalg::gemm::matmul;
use srsf_linalg::{
    c64, interp_decomp, rand_interp_decomp, relative_residual, LinOp, Lu, Mat, Scalar,
};
use srsf_runtime::NetworkModel;
use std::hint::black_box;
use std::time::Instant;

/// Which kernel and point set a workload factors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelKind {
    /// `LaplaceKernel::new` on the uniform unit grid.
    LaplaceGrid,
    /// `HelmholtzKernel::new(kappa)` on the uniform unit grid.
    HelmholtzGrid { kappa: f64 },
    /// `LaplaceKernel::with_params(1/N, 1.0)` on generated off-grid points.
    LaplaceScattered,
}

/// One factorization problem: kernel, size, tolerance, rank count.
#[derive(Clone, Debug)]
pub struct Case {
    pub kernel: KernelKind,
    /// Number of points (a square for the grid kernels).
    pub n: usize,
    pub tol: f64,
    pub leaf_size: usize,
    /// 1 = `Driver::Sequential`; otherwise `Driver::distributed(ranks)`,
    /// in-process transport, resident.
    pub ranks: usize,
}

/// How [`Problem::build`] runs the factorization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BuildMode {
    /// The case's own driver, tracing off — every end-to-end number.
    Plain,
    /// The same with the program's span recorder on (distributed only).
    Traced,
    /// `Driver::colored(threads)` on the same inputs.
    Colored { threads: usize },
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressionCounts {
    pub sketch_retries: u64,
    pub sketch_fallbacks: u64,
    pub fft_block_applies: u64,
    pub dense_block_applies: u64,
}

/// The deterministic outcome of a factorization — what the benchmark's own
/// sweep must reproduce exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactorShape {
    /// `(level, boxes skeletonized, sum of skeleton ranks)`, coarse to fine.
    pub ranks: Vec<(u8, usize, usize)>,
    pub n_records: usize,
    pub top_size: usize,
    pub compression: CompressionCounts,
}

impl FactorShape {
    fn from_stats(stats: &FactorStats, n_records: usize, top_size: usize) -> Self {
        let c = &stats.compression;
        Self {
            ranks: stats.ranks.iter().map(|(l, (n, s))| (*l, *n, *s)).collect(),
            n_records,
            top_size,
            compression: CompressionCounts {
                sketch_retries: c.sketch_retries,
                sketch_fallbacks: c.sketch_fallbacks,
                fft_block_applies: c.fft_block_applies,
                dense_block_applies: c.dense_block_applies,
            },
        }
    }

    pub fn avg_rank(&self, level: u8) -> f64 {
        self.ranks
            .iter()
            .find(|(l, n, _)| *l == level && *n > 0)
            .map_or(0.0, |(_, n, s)| *s as f64 / *n as f64)
    }
}

/// One rank's counters (`CommStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankComm {
    pub msgs: u64,
    pub words: u64,
    pub compute_s: f64,
    pub wait_s: f64,
}

#[derive(Clone, Debug)]
pub struct FactorSummary {
    pub shape: FactorShape,
    /// Bytes the busiest rank holds (`memory_bytes` when `ranks == 1`).
    pub factor_bytes: usize,
    /// Empty when `ranks == 1`.
    pub bytes_per_rank: Vec<usize>,
    /// Set-up counters per rank; empty when `ranks == 1`.
    pub setup_comm: Vec<RankComm>,
    /// `critical_path_s(NetworkModel::intra_node())`; 0 when `ranks == 1`.
    pub tmodel_s: f64,
    /// The program's own timer around its dense top block
    /// (`FactorStats::top_s`: assembly plus LU).
    pub top_s: f64,
}

/// One span recorded *inside* the program (`Solver::trace_reports`).
#[derive(Clone, Debug)]
pub struct ProgSpan {
    pub rank: u32,
    /// `phase`, `compute`, `comm`, `solve` or `serve`.
    pub cat: &'static str,
    pub name: String,
    pub dur_s: f64,
    pub bytes: u64,
}

/// What the benchmark's own level sweep measured, besides its spans.
#[derive(Clone, Debug)]
pub struct SweepReport {
    pub shape: FactorShape,
    pub leaf_level: u8,
    pub min_level: u8,
    pub store_peak_bytes: usize,
    pub store_blocks_peak: usize,
    /// `CompressionCtx::has_leaf_fft`: the kernel-symbol table and the
    /// Toeplitz operator exist, i.e. the grid route is open.
    pub symbol_table: bool,
}

/// Lower layers replayed alone on the shapes a sweep saw. Times are
/// seconds; a layer the workload bypasses reports 0.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    pub proxy_assembly_s: f64,
    pub kernel_evals: f64,
    pub kernel_ns_per_eval: f64,
    pub hankel_ns_per_eval: f64,
    pub rid_s: f64,
    pub cpqr_s: f64,
    pub gemm_gflops_schur: f64,
    pub schur_shape: (usize, usize),
    pub lu_top_s: f64,
    pub lu_solve_top_s: f64,
    pub toeplitz_apply_s: f64,
}

pub trait Problem {
    fn n(&self) -> usize;
    /// `f64` values per matrix entry: 1 real, 2 complex.
    fn reals_per_entry(&self) -> usize;
    /// Set-up as a user pays it: kernel construction plus
    /// `Solver::builder(..).build()`.
    fn build(&self, mode: BuildMode) -> Result<Box<dyn Factor + '_>, String>;
    /// The benchmark's copy of the sequential level sweep, one span per
    /// call into a layer, recorded in `rec`.
    fn sweep(&self, rec: &mut Recorder) -> Result<SweepReport, String>;
    /// The two finest levels of the sweep once more, stopping to time the
    /// layers below it; `top_size` is the dense top block the sweep found.
    fn replay(&self, top_size: usize) -> Result<ReplayReport, String>;
}

pub trait Factor {
    /// Load an `n x ncols` right-hand side from `reals_per_entry * n *
    /// ncols` generated values, column by column.
    fn set_rhs(&mut self, values: &[f64], ncols: usize);
    /// `solve` for one column, `solve_mat` for more; the solution is kept
    /// for [`Factor::relres`].
    fn solve(&mut self) -> Result<(), String>;
    /// `max over columns of ||A x - b|| / ||b||` for the last solve.
    fn relres(&self) -> f64;
    fn summary(&self) -> FactorSummary;
    /// Cumulative `(msgs, words)` sent per rank; empty unless resident.
    fn comm_probe(&self) -> Vec<(u64, u64)>;
    /// Drain the program's spans recorded since the last call.
    fn drain_spans(&self) -> Vec<ProgSpan>;
}

/// Open a case. `scattered` holds the generated points of
/// [`KernelKind::LaplaceScattered`] and is ignored by the grid kernels,
/// whose points are the grid itself.
pub fn open(case: &Case, scattered: &[(f64, f64)]) -> Box<dyn Problem> {
    let side = (case.n as f64).sqrt().round() as usize;
    match case.kernel {
        KernelKind::LaplaceGrid => {
            assert_eq!(side * side, case.n, "grid workloads need a square N");
            let grid = UnitGrid::new(side);
            let residual = Residual::Fast(FastKernelOp::laplace(&LaplaceKernel::new(&grid), &grid));
            Box::new(Prob {
                case: case.clone(),
                pts: grid.points(),
                make_kernel: Box::new(move || LaplaceKernel::new(&UnitGrid::new(side))),
                residual,
                grid_side: Some(side),
            })
        }
        KernelKind::HelmholtzGrid { kappa } => {
            assert_eq!(side * side, case.n, "grid workloads need a square N");
            let grid = UnitGrid::new(side);
            let residual = Residual::Fast(FastKernelOp::helmholtz(
                &HelmholtzKernel::new(&grid, kappa),
                &grid,
            ));
            Box::new(Prob {
                case: case.clone(),
                pts: grid.points(),
                make_kernel: Box::new(move || HelmholtzKernel::new(&UnitGrid::new(side), kappa)),
                residual,
                grid_side: Some(side),
            })
        }
        KernelKind::LaplaceScattered => {
            assert_eq!(scattered.len(), case.n, "one generated point per N");
            let pts: Vec<Point> = scattered.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let n = case.n;
            let make = move || LaplaceKernel::with_params(1.0 / n as f64, 1.0);
            // 256 evenly spaced rows of A, assembled once, outside any timing.
            let rows: Vec<usize> = (0..256.min(n)).map(|i| i * n / 256.min(n)).collect();
            let cols: Vec<usize> = (0..n).collect();
            let block = assemble_block(&make(), &pts, &rows, &cols);
            Box::new(Prob {
                case: case.clone(),
                pts,
                make_kernel: Box::new(make),
                residual: Residual::Rows { rows, block },
                grid_side: None,
            })
        }
    }
}

/// 512^3 `matmul` rate in f64 GFLOP/s — a machine normaliser.
pub fn machine_gemm_gflops() -> f64 {
    gemm_gflops::<f64>(512, 512, 0.25)
}

enum Residual<T> {
    /// The FFT operator on a grid: the full residual.
    Fast(FastKernelOp<T>),
    /// Sampled rows of `A` on scattered points.
    Rows { rows: Vec<usize>, block: Mat<T> },
}

impl<T: Scalar> Residual<T> {
    fn relres(&self, x: &[T], b: &[T]) -> f64 {
        match self {
            Residual::Fast(op) => relative_residual(op as &dyn LinOp<T>, x, b),
            Residual::Rows { rows, block } => {
                let ax = block.matvec(x);
                let (mut num, mut den) = (0.0, 0.0);
                for (axi, &r) in ax.iter().zip(rows) {
                    num += (*axi - b[r]).abs_sq();
                    den += b[r].abs_sq();
                }
                (num / den.max(f64::MIN_POSITIVE)).sqrt()
            }
        }
    }
}

struct Prob<K: Kernel> {
    case: Case,
    pts: Vec<Point>,
    make_kernel: Box<dyn Fn() -> K>,
    residual: Residual<K::Elem>,
    grid_side: Option<usize>,
}

impl<K: Kernel> Prob<K> {
    fn opts(&self) -> FactorOpts {
        FactorOpts::default()
            .with_tol(self.case.tol)
            .with_leaf_size(self.case.leaf_size)
    }
}

impl<K: Kernel> Problem for Prob<K> {
    fn n(&self) -> usize {
        self.pts.len()
    }

    fn reals_per_entry(&self) -> usize {
        if K::Elem::IS_COMPLEX {
            2
        } else {
            1
        }
    }

    fn build(&self, mode: BuildMode) -> Result<Box<dyn Factor + '_>, String> {
        let kernel = (self.make_kernel)();
        // The same options the benchmark's own sweep runs with.
        let builder = Solver::builder(&kernel, &self.pts).opts(self.opts());
        let builder = match mode {
            BuildMode::Colored { threads } => builder.driver(Driver::colored(threads)),
            _ if self.case.ranks == 1 => builder.driver(Driver::Sequential),
            _ => builder
                .driver(Driver::distributed(self.case.ranks))
                .transport(Transport::InProc)
                .resident(true)
                .trace(mode == BuildMode::Traced),
        };
        let solver = builder.build().map_err(|e| e.to_string())?;
        Ok(Box::new(Fact {
            solver,
            residual: &self.residual,
            b: Mat::zeros(0, 0),
            x: Mat::zeros(0, 0),
        }))
    }

    fn sweep(&self, rec: &mut Recorder) -> Result<SweepReport, String> {
        run_sweep(self, rec, None)
    }

    fn replay(&self, top_size: usize) -> Result<ReplayReport, String> {
        let mut acc = ReplayAcc::default();
        run_sweep(self, &mut Recorder::new(), Some(&mut acc))?;
        let n = self.pts.len();
        let kernel = (self.make_kernel)();

        // Dense kernel evaluation: a near and a far 256 x 64 block.
        let rows: Vec<usize> = (0..256.min(n)).collect();
        let near: Vec<usize> = (0..64.min(n)).map(|j| (256 + j) % n).collect();
        let far: Vec<usize> = (0..64.min(n)).map(|j| n - 1 - j).collect();
        let evals = (rows.len() * (near.len() + far.len())) as f64;
        let eval_s = time_repeated(0.05, || {
            black_box(assemble_block(&kernel, &self.pts, &rows, &near));
            black_box(assemble_block(&kernel, &self.pts, &rows, &far));
        });

        // Hankel evaluation over the workload's kappa * r range.
        let hankel_ns_per_eval = match self.case.kernel {
            KernelKind::HelmholtzGrid { kappa } => {
                let (lo, hi) = (kappa / (n as f64).sqrt(), kappa * std::f64::consts::SQRT_2);
                let count = 20_000;
                let s = time_repeated(0.05, || {
                    let mut acc = 0.0;
                    for i in 0..count {
                        let x = lo + (hi - lo) * (i as f64 + 0.5) / count as f64;
                        acc += srsf_special::bessel::j0(x) + srsf_special::bessel::y0(x);
                    }
                    black_box(acc);
                });
                s * 1e9 / count as f64
            }
            _ => 0.0,
        };

        // The Schur GEMM at the median shape the sweep saw.
        acc.schur_shapes.sort_unstable_by_key(|&(m, k)| m * k);
        let schur_shape = acc
            .schur_shapes
            .get(acc.schur_shapes.len() / 2)
            .copied()
            .unwrap_or((0, 0));
        let gemm_gflops_schur = if schur_shape.0 * schur_shape.1 == 0 {
            0.0
        } else {
            gemm_gflops::<K::Elem>(schur_shape.0, schur_shape.1, 0.1)
        };

        // Dense LU and one triangular solve pair at the top size.
        let (lu_top_s, lu_solve_top_s) = if top_size == 0 {
            (0.0, 0.0)
        } else {
            let a = Mat::from_fn(top_size, top_size, |i, j| {
                let off = ((i * 31 + j * 17) % 13) as f64 - 6.0;
                K::Elem::from_f64(if i == j { 13.0 * top_size as f64 } else { off })
            });
            let t0 = Instant::now();
            let lu = Lu::factor(a).map_err(|e| format!("top LU replay: {e:?}"))?;
            let lu_s = t0.elapsed().as_secs_f64();
            let mut rhs = Mat::from_fn(top_size, 1, |i, _| K::Elem::from_f64(1.0 + (i % 7) as f64));
            let solve_s = time_repeated(0.02, || lu.solve_mat(black_box(&mut rhs)));
            (lu_s, solve_s)
        };

        // The Toeplitz apply of the FFT route (grids only).
        let toeplitz_apply_s = match self.grid_side {
            None => 0.0,
            Some(side) => {
                let op = Toeplitz2D::new(side, |dx, dy| {
                    c64::new(1.0 / (1.0 + (dx * dx + dy * dy) as f64), 0.0)
                });
                let mut scratch = op.scratch();
                if K::Elem::IS_COMPLEX {
                    let x = vec![c64::new(1.0, 0.5); side * side];
                    let mut y = vec![c64::ZERO; side * side];
                    time_repeated(0.05, || op.apply_into(black_box(&x), &mut y, &mut scratch))
                } else {
                    let x = vec![1.0; side * side];
                    let mut y = vec![0.0; side * side];
                    time_repeated(0.05, || {
                        op.apply_real_into(black_box(&x), &mut y, &mut scratch)
                    })
                }
            }
        };

        Ok(ReplayReport {
            proxy_assembly_s: acc.proxy_s,
            kernel_evals: evals,
            kernel_ns_per_eval: eval_s * 1e9 / evals,
            hankel_ns_per_eval,
            rid_s: acc.rid_s,
            cpqr_s: acc.cpqr_s,
            gemm_gflops_schur,
            schur_shape,
            lu_top_s,
            lu_solve_top_s,
            toeplitz_apply_s,
        })
    }
}

/// Mean seconds per call of `f`, repeated until `min_s` has passed.
fn time_repeated(min_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm
    let t0 = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let s = t0.elapsed().as_secs_f64();
        if s >= min_s {
            return s / calls as f64;
        }
    }
}

/// `(m x k) * (k x m)` `matmul` rate in real GFLOP/s.
fn gemm_gflops<T: Scalar>(m: usize, k: usize, min_s: f64) -> f64 {
    let a = Mat::from_fn(m, k, |i, j| {
        T::from_f64(((i * 31 + j * 17) % 13) as f64 - 6.0)
    });
    let b = Mat::from_fn(k, m, |i, j| {
        T::from_f64(((i * 7 + j * 29) % 11) as f64 - 5.0)
    });
    let s = time_repeated(min_s, || {
        black_box(matmul(black_box(&a), black_box(&b)));
    });
    let flops_per_madd = if T::IS_COMPLEX { 8.0 } else { 2.0 };
    flops_per_madd * (m * k * m) as f64 / s / 1e9
}

/// What the replay pass gathers while it walks the two finest levels.
#[derive(Default)]
struct ReplayAcc {
    proxy_s: f64,
    rid_s: f64,
    cpqr_s: f64,
    /// `(|N|, |R|)` of every eliminated box: the Schur product is
    /// `(|N| x |R|) * (|R| x |N|)`.
    schur_shapes: Vec<(usize, usize)>,
}

/// The sequential level sweep (Algorithm 1), rebuilt from the public
/// per-box functions so every call into a layer can sit in a span of the
/// benchmark's own. `skeletonize` runs inside `eliminate_box`; to split
/// the two it is first timed alone on the same pre-elimination state, and
/// the caller subtracts that span from the `eliminate_box` span.
///
/// With `replay` set the duplicate `skeletonize` is skipped, the lower
/// layers are timed instead, and the walk ends after the two finest
/// levels, before the top block.
fn run_sweep<K: Kernel>(
    p: &Prob<K>,
    rec: &mut Recorder,
    mut replay: Option<&mut ReplayAcc>,
) -> Result<SweepReport, String> {
    let opts = p.opts();
    let pts = &p.pts[..];
    rec.open("setup", 0);
    let kernel = rec.span("kernels.construct", 0, || (p.make_kernel)());
    let tree = rec.span("geometry.tree_build", 0, || {
        QuadTree::build(pts, domain_for(pts), opts.leaf_size)
    });
    let leaf = tree.leaf_level();
    let lmin = (opts.min_compress_level as u8).min(leaf);
    let ctx = rec.span("core.compression_ctx", leaf, || {
        CompressionCtx::new(&kernel, pts, &tree, &opts)
    });
    let mut store = BlockStore::new(&kernel, pts);
    let mut act = ActiveSets::new();
    for id in tree.boxes_at_level(leaf) {
        act.set(id, tree.leaf_points(&id).to_vec());
    }

    let mut stats = FactorStats::new(pts.len(), leaf);
    let mut n_records = 0;
    let (mut store_peak_bytes, mut store_blocks_peak) = (0, 0);
    if leaf >= 1 {
        let mut level = leaf;
        loop {
            rec.open("core.level", level);
            let boxes: Vec<BoxId> = tree.boxes_at_level(level).collect();
            let stride = (boxes.len() / 8).max(1);
            for (i, b) in boxes.iter().enumerate() {
                match replay.as_deref_mut() {
                    None => {
                        if !act.get(b).is_empty() {
                            rec.span("core.skeletonize", level, || {
                                black_box(skeletonize(&store, &act, &tree, b, &opts, &ctx));
                            });
                        }
                    }
                    Some(acc) if !act.get(b).is_empty() => {
                        let t0 = Instant::now();
                        let m = proxy_matrix(&store, &act, &tree, b, &opts, &ctx);
                        acc.proxy_s += t0.elapsed().as_secs_f64();
                        if i % stride == 0 {
                            let guess = (act.get(b).len() / 2 + 8).min(m.ncols());
                            let t0 = Instant::now();
                            black_box(rand_interp_decomp(
                                &m,
                                opts.tol,
                                usize::MAX,
                                guess,
                                10,
                                i as u64 + 1,
                            ));
                            acc.rid_s += t0.elapsed().as_secs_f64();
                            let t0 = Instant::now();
                            black_box(interp_decomp(m, opts.tol, usize::MAX));
                            acc.cpqr_s += t0.elapsed().as_secs_f64();
                        }
                    }
                    Some(_) => {}
                }
                let out = rec
                    .span("core.eliminate_box", level, || {
                        eliminate_box(&store, &act, &tree, b, &opts, &ctx)
                    })
                    .map_err(|e| e.to_string())?;
                if let Some(r) = &out.record {
                    stats.add_rank(level, r.skel.len());
                    n_records += 1;
                    if let Some(acc) = replay.as_deref_mut() {
                        acc.schur_shapes.push((r.en.nrows(), r.en.ncols()));
                    }
                }
                stats.compression.absorb(&out.compression);
                rec.span("core.apply_output", level, || {
                    apply_output(&mut store, &mut act, b, &out, &ctx)
                });
            }
            store_peak_bytes = store_peak_bytes.max(store.heap_bytes());
            store_blocks_peak = store_blocks_peak.max(store.n_blocks());
            let last = level == lmin || (replay.is_some() && level + 1 == leaf);
            if !last {
                rec.span("core.merge_to_parent", level, || {
                    merge_to_parent(&mut store, &mut act, &tree, level)
                });
            }
            rec.close();
            if last {
                break;
            }
            level -= 1;
        }
    }

    // The dense top block over the boxes still active at `lmin`.
    let mut top_size = 0;
    if replay.is_none() {
        let a = rec.span("core.top.assemble", lmin, || {
            let boxes: Vec<BoxId> = tree.boxes_at_level(lmin).collect();
            let sizes: Vec<usize> = boxes.iter().map(|b| act.get(b).len()).collect();
            let total: usize = sizes.iter().sum();
            let mut a = Mat::zeros(total, total);
            let mut r0 = 0;
            for (i, bi) in boxes.iter().enumerate() {
                let mut c0 = 0;
                for (j, bj) in boxes.iter().enumerate() {
                    if sizes[i] > 0 && sizes[j] > 0 {
                        a.set_block(r0, c0, &store.get(bi, bj, &act));
                    }
                    c0 += sizes[j];
                }
                r0 += sizes[i];
            }
            a
        });
        top_size = a.nrows();
        rec.span("core.top.lu", lmin, || Lu::factor(a).map(|_| ()))
            .map_err(|e| format!("singular top block: {e:?}"))?;
    }
    rec.close();

    Ok(SweepReport {
        shape: FactorShape::from_stats(&stats, n_records, top_size),
        leaf_level: leaf,
        min_level: lmin,
        store_peak_bytes,
        store_blocks_peak,
        symbol_table: ctx.has_leaf_fft(),
    })
}

struct Fact<'a, T: Scalar> {
    solver: Solver<T>,
    residual: &'a Residual<T>,
    b: Mat<T>,
    x: Mat<T>,
}

impl<T: Scalar> Factor for Fact<'_, T> {
    fn set_rhs(&mut self, values: &[f64], ncols: usize) {
        let n = self.solver.n();
        let w = if T::IS_COMPLEX { 2 } else { 1 };
        assert_eq!(values.len(), w * n * ncols, "right-hand side length");
        self.b = Mat::from_fn(n, ncols, |i, j| {
            let at = w * (j * n + i);
            T::from_re_im(values[at], if w == 2 { values[at + 1] } else { 0.0 })
        });
    }

    fn solve(&mut self) -> Result<(), String> {
        self.x = if self.b.ncols() == 1 {
            let x = self
                .solver
                .try_solve(self.b.col(0))
                .map_err(|e| e.to_string())?;
            Mat::from_vec(x.len(), 1, x)
        } else {
            self.solver
                .try_solve_mat(&self.b)
                .map_err(|e| e.to_string())?
        };
        Ok(())
    }

    fn relres(&self) -> f64 {
        (0..self.x.ncols())
            .map(|j| self.residual.relres(self.x.col(j), self.b.col(j)))
            .fold(0.0, f64::max)
    }

    fn summary(&self) -> FactorSummary {
        let s = &self.solver;
        let comm = s.comm_stats();
        FactorSummary {
            shape: FactorShape::from_stats(s.stats(), s.n_records(), s.top_size()),
            factor_bytes: s
                .memory_bytes_max_rank()
                .unwrap_or_else(|| s.memory_bytes()),
            bytes_per_rank: s.memory_bytes_per_rank().unwrap_or(&[]).to_vec(),
            setup_comm: comm.map_or_else(Vec::new, |w| {
                w.per_rank
                    .iter()
                    .map(|r| RankComm {
                        msgs: r.msgs_sent,
                        words: r.words_sent,
                        compute_s: r.compute_s,
                        wait_s: r.wait_s,
                    })
                    .collect()
            }),
            tmodel_s: comm.map_or(0.0, |w| w.critical_path_s(&NetworkModel::intra_node())),
            top_s: s.stats().top_s,
        }
    }

    fn comm_probe(&self) -> Vec<(u64, u64)> {
        self.solver
            .resident_comm_probe()
            .map_or_else(Vec::new, |w| {
                w.per_rank
                    .iter()
                    .map(|r| (r.msgs_sent, r.words_sent))
                    .collect()
            })
    }

    fn drain_spans(&self) -> Vec<ProgSpan> {
        self.solver
            .trace_reports()
            .into_iter()
            .flat_map(|rep| {
                let rank = rep.rank;
                rep.spans.into_iter().map(move |s| ProgSpan {
                    rank,
                    cat: srsf_trace::Cat::from_u8(s.cat).map_or("unknown", srsf_trace::Cat::as_str),
                    name: s.name,
                    dur_s: s.dur_ns as f64 * 1e-9,
                    bytes: s.bytes,
                })
            })
            .collect()
    }
}
