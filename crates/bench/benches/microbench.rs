//! Microbenchmarks: the solver's computational primitives plus end-to-end
//! factor/solve at small sizes.
//!
//! Self-contained harness (`harness = false`): each case is run in a
//! calibrated loop and reported as median / mean wall time per iteration.
//!
//! Usage: `cargo bench -p srsf-bench -- [FILTER] [--quick] [--json PATH]`
//!
//! * `FILTER` — run only cases whose name contains the substring.
//! * `--quick` — shrink the per-case time budget (CI mode) and skip the
//!   largest end-to-end cases.
//! * `--json PATH` — additionally write the results as a JSON report
//!   (schema documented in the README "Performance" section).

use srsf_core::{Driver, FactorOpts, Solver, Transport};
use srsf_fft::fft::Fft;
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::assemble::assemble_block;
use srsf_kernels::fast_op::FastKernelOp;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::gemm::matmul;
use srsf_linalg::panel::{panel_mul_acc, panel_mul_t_acc, panel_rows};
use srsf_linalg::rid::sketch_block;
use srsf_linalg::triangular::solve_upper_mat;
use srsf_linalg::{
    c64, cpqr, householder_qr, interp_decomp, rand_interp_decomp, Ldlt, LinOp, Lu, Mat, Scalar,
    SymPanels,
};
use srsf_special::bessel::{hankel0_1_slice, j0, y0};
use srsf_special::log::ln_slice;
use std::time::{Duration, Instant};

/// One measured case, accumulated for the optional JSON report.
struct CaseRecord {
    name: String,
    iters: usize,
    median_s: f64,
    mean_s: f64,
}

/// Harness state: filter, per-case budget, and collected results.
struct Harness {
    filter: Option<String>,
    budget: Duration,
    quick: bool,
    results: Vec<CaseRecord>,
}

impl Harness {
    /// Run `f` repeatedly for roughly the budget, after a warmup pass, and
    /// print + record per-iteration statistics.
    fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.bench_n(name, None, f);
    }

    /// One measured invocation, no warmup. For the transport cases:
    /// every call is one `World::run` session, and a spawned worker must
    /// re-reach *its* session by replaying all earlier ones in-process —
    /// so the only honest (and deterministic) measurement is a single
    /// cold launch with no sessions before it.
    fn bench_cold<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.bench_n(name, Some(1), f);
    }

    /// [`Harness::bench`] for a case of known operation count: prints the
    /// rate in real GFLOP/s (at the median) under the timing line.
    fn bench_gflops<R>(&mut self, name: &str, flops: f64, f: impl FnMut() -> R) {
        if let Some(median) = self.bench_n(name, None, f) {
            println!("{:<32} {:>12.1} GFLOP/s", "", flops / median * 1e-9);
        }
    }

    /// [`Harness::bench`] for a case that produces `elems` values: prints
    /// nanoseconds per value (at the median) under the timing line.
    fn bench_ns_per_elem<R>(&mut self, name: &str, elems: usize, f: impl FnMut() -> R) {
        if let Some(median) = self.bench_n(name, None, f) {
            println!(
                "{:<32} {:>12.2} ns/element",
                "",
                median * 1e9 / elems as f64
            );
        }
    }

    /// Returns the median, or `None` when the filter skipped the case.
    fn bench_n<R>(
        &mut self,
        name: &str,
        cold: Option<usize>,
        mut f: impl FnMut() -> R,
    ) -> Option<f64> {
        if let Some(pat) = &self.filter {
            if !name.contains(pat.as_str()) {
                return None;
            }
        }
        // Warmup + calibration (how many iterations fit in the budget?),
        // skipped for cold cases whose call count must be deterministic.
        let iters = match cold {
            Some(n) => n,
            None => {
                let t0 = Instant::now();
                std::hint::black_box(f());
                let once = t0.elapsed();
                (self.budget.as_secs_f64() / once.as_secs_f64().max(1e-9)).clamp(1.0, 10_000.0)
                    as usize
            }
        };
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(f());
            samples.push(t.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        println!(
            "{name:<32} {:>12} {:>14} {:>14}",
            iters,
            fmt_s(median),
            fmt_s(mean)
        );
        self.results.push(CaseRecord {
            name: name.to_string(),
            iters,
            median_s: median,
            mean_s: mean,
        });
        Some(median)
    }

    /// Serialize the collected results to the `srsf-microbench/1` schema.
    ///
    /// Relative paths are resolved against the *workspace* root (cargo
    /// runs benches with the package directory as cwd).
    fn write_json(&self, path: &str) {
        let path = if std::path::Path::new(path).is_absolute() {
            std::path::PathBuf::from(path)
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path)
        };
        let path = path.to_string_lossy().into_owned();
        let path = path.as_str();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"srsf-microbench/1\",\n");
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if self.quick { "quick" } else { "full" }
        ));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"median_s\": {:.6e}, \"mean_s\": {:.6e}}}{}\n",
                c.name,
                c.iters,
                c.median_s,
                c.mean_s,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out).expect("write json report");
        println!("wrote {path}");
    }
}

fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

/// Deterministic pseudo-random matrix (xorshift entries in [-1, 1)).
fn random_mat(m: usize, n: usize, seed: u64) -> Mat<f64> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    Mat::from_fn(m, n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2_000_000) as f64 / 1_000_000.0 - 1.0
    })
}

/// A random `m x k` matrix of either scalar type (imaginary parts from
/// the next seed).
fn scalar_mat<T: Scalar>(m: usize, k: usize, seed: u64) -> Mat<T> {
    let (re, im) = (random_mat(m, k, seed), random_mat(m, k, seed + 1));
    Mat::from_fn(m, k, |i, j| T::from_re_im(re[(i, j)], im[(i, j)]))
}

/// `gemm/{scalar}_{m}x{k}x{n}` with its rate in real GFLOP/s (a complex
/// multiply-add is four real ones).
fn gemm_cases<T: Scalar>(h: &mut Harness, scalar: &str) {
    for (m, k, n) in [
        (64, 64, 64),
        (128, 128, 128),
        (512, 512, 512),
        (340, 44, 340),
        (62, 635, 70),
        (800, 64, 800),
    ] {
        let (a, b) = (scalar_mat::<T>(m, k, 11), scalar_mat::<T>(k, n, 23));
        let flops = (2 * m * k * n) as f64 * if T::IS_COMPLEX { 4.0 } else { 1.0 };
        h.bench_gflops(&format!("gemm/{scalar}_{m}x{k}x{n}"), flops, || {
            matmul(&a, &b)
        });
    }
}

/// `lu/ldlt` factor and `nrhs = 16` solve cases on one symmetric,
/// diagonally dominant `n x n` matrix (complex symmetric for `c64`);
/// hands the packed factor back for the panel twins.
fn top_factor_cases<T: Scalar>(h: &mut Harness, tag: &str, n: usize) -> Ldlt<T> {
    let (re, im) = (random_mat(n, n, 43), random_mat(n, n, 44));
    let a = Mat::from_fn(n, n, |i, j| {
        let d = if i == j { 2.0 * n as f64 } else { 0.0 };
        T::from_re_im(re[(i, j)] + re[(j, i)] + d, im[(i, j)] + im[(j, i)])
    });
    let rhs = Mat::from_fn(n, 16, |i, j| T::from_f64(re[(i, j)]));
    h.bench(&format!("lu/{tag}"), || Lu::factor(a.clone()).unwrap());
    h.bench(&format!("ldlt/{tag}"), || {
        Ldlt::factor(SymPanels::from_lower(&a)).unwrap()
    });
    let lu = Lu::factor(a.clone()).unwrap();
    h.bench(&format!("lu_solve/{tag}_nrhs16"), || {
        let mut b = rhs.clone();
        lu.solve_mat(&mut b);
        b
    });
    let ldlt = Ldlt::factor(SymPanels::from_lower(&a)).unwrap();
    h.bench(&format!("ldlt_solve/{tag}_nrhs16"), || {
        let mut b = rhs.clone();
        ldlt.solve_mat(&mut b);
        b
    });
    ldlt
}

/// The RHS-major panel kernels of the blocked solve sweep at one record
/// shape (`n` neighbor rows, `r` redundants) and one top, each next to
/// the column-major call it replaced at the same `nrhs`: `EN^T B_N` and
/// `EN B_R` against `gemm/`, `X_RR^{-1}` against `lu_solve/`, the packed
/// top against `ldlt_solve/` (which `top_factor_cases` has already
/// recorded for `nrhs = 16`).
fn panel_cases<T: Scalar>(
    h: &mut Harness,
    scalar: &str,
    nrhs: usize,
    (n, r): (usize, usize),
    top: &Ldlt<T>,
) {
    let hp = panel_rows::<T>(nrhs);
    let mat = scalar_mat::<T>;
    let en = mat(n, r, 61);
    let (xn, xr) = (mat(hp, n, 63), mat(hp, r, 65));
    let mut v = Mat::zeros(hp, r);
    h.bench(&format!("panel_mul/{scalar}_{nrhs}x{n}x{r}"), || {
        panel_mul_acc(&mut v, T::ONE, &xn, &en, false)
    });
    let mut d = Mat::zeros(hp, n);
    h.bench(&format!("panel_mul_t/{scalar}_{nrhs}x{n}x{r}"), || {
        panel_mul_t_acc(&mut d, T::ONE, &xr, &en)
    });
    let br = mat(r, nrhs, 67);
    h.bench(&format!("gemm/{scalar}_{n}x{r}x{nrhs}"), || {
        matmul(&en, &br)
    });

    lu_solve_pair::<T>(h, scalar, nrhs, r);

    let t = top.dim();
    let xt = mat(hp, t, 71);
    h.bench(&format!("panel_ldlt/{scalar}_{nrhs}x{t}"), || {
        let mut x = xt.clone();
        top.solve_panel(&mut x);
        x
    });
    if nrhs != 16 {
        let bt = mat(t, nrhs, 73);
        h.bench(&format!("ldlt_solve/{scalar}_{t}_nrhs{nrhs}"), || {
            let mut b = bt.clone();
            top.solve_mat(&mut b);
            b
        });
    }
}

/// `X_RR^{-1}` on `rows` right-hand sides both ways: `panel_lu/` solves
/// them as the rows of a `rows x r` panel (`X A^{-T}`), `lu_solve/` as
/// the columns of an `r x rows` matrix. One register tile of rows is the
/// solve sweep's record; hundreds are the factorization's `|N| x |R|`
/// coupling.
fn lu_solve_pair<T: Scalar>(h: &mut Harness, scalar: &str, rows: usize, r: usize) {
    let mat = scalar_mat::<T>;
    let mut a = mat(r, r, 69);
    for i in 0..r {
        a[(i, i)] += T::from_f64(r as f64);
    }
    let lu = Lu::factor(a).unwrap();
    let xr = mat(panel_rows::<T>(rows), r, 65);
    h.bench(&format!("panel_lu/{scalar}_{rows}x{r}"), || {
        let mut x = xr.clone();
        lu.solve_panel(&mut x);
        x
    });
    let br = mat(r, rows, 67);
    h.bench(&format!("lu_solve/{scalar}_{r}_nrhs{rows}"), || {
        let mut b = br.clone();
        lu.solve_mat(&mut b);
        b
    });
}

/// Smooth kernel-type matrix with separated clusters — the shape CPQR sees
/// during skeletonization (fast-decaying singular values, modest rank).
fn kernel_mat(m: usize, n: usize, sep: f64) -> Mat<f64> {
    let src: Vec<f64> = (0..n).map(|j| j as f64 / n as f64).collect();
    let trg: Vec<f64> = (0..m).map(|i| sep + 1.3 * i as f64 / m as f64).collect();
    Mat::from_fn(m, n, |i, j| 1.0 / (trg[i] - src[j]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let filter = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with('-')
                && args
                    .get(i.wrapping_sub(1))
                    .map(|p| p != "--json")
                    .unwrap_or(true)
        })
        .map(|(_, a)| a.clone())
        .next();

    let mut h = Harness {
        filter,
        budget: Duration::from_millis(if quick { 120 } else { 500 }),
        quick,
        results: Vec::new(),
    };
    println!(
        "{:<32} {:>12} {:>14} {:>14}",
        "benchmark", "iters", "median", "mean"
    );

    // Transport overhead: the same 4-rank distributed factorization with
    // ranks as threads vs ranks as real OS processes over TCP (spawn +
    // handshake + socket framing), each measured as ONE cold launch. The
    // TCP case must be the *first* session in the run: its 3 spawned
    // workers re-execute this binary up to their own session, so any
    // earlier TCP session would be replayed in-process by every worker
    // and inflate the sample.
    {
        let grid = UnitGrid::new(32);
        let kernel = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let opts_for = |t: Transport| {
            FactorOpts::default()
                .with_tol(1e-6)
                .with_leaf_size(64)
                .with_transport(t)
        };
        for (name, transport) in [
            ("dist_transport/tcp_1024_p4", Transport::Tcp),
            ("dist_transport/inproc_1024_p4", Transport::InProc),
        ] {
            let opts = opts_for(transport);
            h.bench_cold(name, || {
                Solver::builder(&kernel, &pts)
                    .opts(opts.clone())
                    .driver(Driver::distributed(4))
                    .build()
                    .expect("distributed factorization")
            });
        }

        // Resident solve latency: factor once on a persistent in-process
        // rank world, then serve repeated blocked solves in place
        // (records stay on their ranks; each iteration is one full
        // scatter -> distributed sweep -> gather round trip). The
        // gathered case serves the same factorization from its local copy
        // on rank 0 (`Solver::gather`) — the serial path residency
        // replaces.
        let bm16 = {
            let mut m = Mat::zeros(grid.n(), 16);
            for j in 0..16 {
                m.col_mut(j)
                    .copy_from_slice(&random_vector::<f64>(grid.n(), 300 + j as u64));
            }
            m
        };
        let resident = Solver::builder(&kernel, &pts)
            .opts(opts_for(Transport::InProc))
            .driver(Driver::distributed(4))
            .build()
            .expect("resident factorization");
        h.bench("dist_solve/resident_1024_p4_nrhs16", || {
            resident.solve_mat(&bm16)
        });
        let gathered = resident.gather().expect("gathered factorization");
        h.bench("dist_solve/gathered_1024_p4_nrhs16", || {
            gathered.solve_mat(&bm16)
        });
    }

    // Tracing overhead: the same 4-rank factorization with span recording
    // off vs on. Disabled, every span site is one branch on a relaxed
    // atomic; enabled, it is a clock pair plus a fixed-slot ring-buffer
    // write (and the per-rank reports stay in the ring buffers until
    // drained). A fixed iteration count keeps the two medians comparable;
    // `bench-diff` prints the on/off ratio.
    {
        let grid = UnitGrid::new(64); // N = 4096
        let kernel = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let trace_iters = if quick { 3 } else { 7 };
        for (name, trace) in [
            ("trace_overhead/laplace_4096_off", false),
            ("trace_overhead/laplace_4096_on", true),
        ] {
            h.bench_n(name, Some(trace_iters), || {
                Solver::builder(&kernel, &pts)
                    .tol(1e-6)
                    .leaf_size(64)
                    .driver(Driver::distributed(4))
                    .trace(trace)
                    .build()
                    .expect("traced distributed factorization")
            });
        }
    }

    h.bench("bessel/hankel0_sweep", || {
        let mut acc = 0.0;
        let mut x = 0.05;
        while x < 60.0 {
            acc += j0(x) + y0(x);
            x += 0.37;
        }
        acc
    });

    // The slice routines under the kernels' column evaluation: squared
    // distances as the Laplace kernel sees them, and `kappa r` on either
    // side of the Hankel series/asymptotic switch at 11.
    {
        let ramp = |lo: f64, hi: f64| -> Vec<f64> {
            (0..4096)
                .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / 4096.0)
                .collect()
        };
        let r2 = ramp(1e-5, 2.0);
        let mut out = vec![0.0; 4096];
        h.bench_ns_per_elem("special/ln_slice_4096", 4096, || {
            out.copy_from_slice(&r2);
            ln_slice(&mut out);
            out[7]
        });
        let (mut re, mut im) = (vec![0.0; 4096], vec![0.0; 4096]);
        for (tag, x) in [("small", ramp(0.2, 10.9)), ("large", ramp(11.0, 36.0))] {
            let name = format!("special/hankel0_slice_4096_{tag}");
            h.bench_ns_per_elem(&name, 4096, || {
                hankel0_1_slice(&x, &mut re, &mut im);
                re[7] + im[7]
            });
        }
    }

    for n in [256usize, 4096] {
        let plan = Fft::new(n);
        let x: Vec<c64> = (0..n).map(|i| c64::new(i as f64, -(i as f64))).collect();
        h.bench(&format!("fft/forward_{n}"), || {
            let mut y = x.clone();
            plan.forward(&mut y);
            y
        });
    }

    // --- Level-3 dense kernels at solver-representative shapes ------------

    // GEMM against the machine: the crossover sizes, a cache-blocked
    // cube, and the three shapes the set-up spends its time in — a Schur
    // strip, a sketch product and the dense top's trailing update.
    gemm_cases::<f64>(&mut h, "f64");
    gemm_cases::<c64>(&mut h, "c64");
    {
        // Retained level-2 reference kernels under identical codegen, so
        // the report separates the algorithmic gain of blocking from
        // compiler-flag effects.
        let a = random_mat(256, 256, 11);
        let b = random_mat(256, 256, 23);
        h.bench("gemm/naive_f64_256x256x256", || {
            let mut c = Mat::zeros(256, 256);
            srsf_linalg::gemm::matmul_acc_naive(&mut c, 1.0, &a, &b);
            c
        });
    }

    // CPQR at skeletonization shapes: tolerance-truncated on a smooth
    // kernel matrix (modest rank) and full-rank on a random matrix.
    {
        let a = kernel_mat(400, 1024, 1.05);
        h.bench("cpqr/f64_400x1024_tol", || {
            cpqr(a.clone(), 1e-9, usize::MAX)
        });
        h.bench("cpqr/naive_400x1024_tol", || {
            srsf_linalg::qr::cpqr_naive(a.clone(), 1e-9, usize::MAX)
        });
        // The randomized twin: sketch-then-ID on the same matrix at the
        // same tolerance. The point of the whole exercise — this must
        // beat the full CPQR above by a wide margin at proxy shapes.
        h.bench("rid/f64_400x1024_tol", || {
            rand_interp_decomp(&a, 1e-9, usize::MAX, 16, 10, 17)
        });
        let b = random_mat(400, 256, 7);
        h.bench("cpqr/f64_400x256_full", || cpqr(b.clone(), 0.0, usize::MAX));
    }

    // Unpivoted QR (the other half of the ID pipeline).
    {
        let a = random_mat(400, 256, 31);
        h.bench("qr/f64_400x256", || householder_qr(a.clone()));
    }

    // LU + triangular solve at dense-top-block shapes.
    {
        let a = random_mat(384, 384, 41);
        let a = {
            // Diagonal dominance so the pivoted LU never fails.
            let mut m = a;
            for i in 0..384 {
                m[(i, i)] += 400.0;
            }
            m
        };
        h.bench("lu/f64_384", || Lu::factor(a.clone()).unwrap());
        let mut u = Mat::zeros(256, 256);
        for j in 0..256 {
            for i in 0..=j {
                u[(i, j)] =
                    1.0 + ((i * 31 + j * 17) % 11) as f64 * 0.1 + if i == j { 8.0 } else { 0.0 };
            }
        }
        let rhs = random_mat(256, 256, 51);
        h.bench("trsm/f64_256x256", || {
            let mut b = rhs.clone();
            solve_upper_mat(&u, false, &mut b);
            b
        });
    }

    // The benchmark's two dense top blocks (laplace_grid 1651^2 f64,
    // helmholtz_grid 1251^2 c64): general LU against the packed LDL^T of
    // the same symmetric matrix, factor and 16-column solve.
    let top_f64 = top_factor_cases::<f64>(&mut h, "f64_1651", 1651);
    let top_c64 = top_factor_cases::<c64>(&mut h, "c64_1251", 1251);
    // The median record of the same two factorizations, one register
    // tile of right-hand sides each, and the benchmark's 16-column block
    // for `c64` (two of its tiles).
    panel_cases::<f64>(&mut h, "f64", 16, (349, 41), &top_f64);
    panel_cases::<c64>(&mut h, "c64", 8, (332, 45), &top_c64);
    panel_cases::<c64>(&mut h, "c64", 16, (332, 45), &top_c64);
    // The set-up side of the same kernel: a box's neighbor coupling
    // `X_NR X_RR^{-T}` (laplace_grid, upper levels), and the sketch block
    // that multiplies one ring block of a leaf box.
    lu_solve_pair::<f64>(&mut h, "f64", 512, 41);
    h.bench("sketch_block/f64_58x1088", || {
        sketch_block::<f64>(17, 58, 3 * 1088, 1088)
    });

    {
        // Proxy-shaped compression: tall smooth-kernel matrix.
        let src: Vec<f64> = (0..64).map(|i| i as f64 / 64.0).collect();
        let trg: Vec<f64> = (0..400).map(|i| 3.0 + i as f64 / 400.0).collect();
        let a = Mat::from_fn(400, 64, |i, j| 1.0 / (trg[i] - src[j]));
        h.bench("id/proxy_shaped_400x64", || {
            interp_decomp(a.clone(), 1e-6, usize::MAX)
        });
        h.bench("rid/proxy_shaped_400x64", || {
            rand_interp_decomp(&a, 1e-6, usize::MAX, 14, 10, 17)
        });
    }

    {
        let grid = UnitGrid::new(64);
        let laplace = LaplaceKernel::new(&grid);
        let helmholtz = HelmholtzKernel::new(&grid, 25.0);
        let pts = grid.points();
        let rows: Vec<usize> = (0..256).collect();
        let cols: Vec<usize> = (1000..1064).collect();
        h.bench("assembly/laplace_256x64", || {
            assemble_block(&laplace, &pts, &rows, &cols)
        });
        h.bench("assembly/helmholtz_256x64", || {
            assemble_block(&helmholtz, &pts, &rows, &cols)
        });
    }

    // End-to-end sequential-driver factorization.
    let sides: &[usize] = if quick { &[32, 64] } else { &[32, 64, 96] };
    for &side in sides {
        let grid = UnitGrid::new(side);
        let kernel = LaplaceKernel::new(&grid);
        let pts = grid.points();
        h.bench(&format!("factorize/laplace_{}", side * side), || {
            Solver::builder(&kernel, &pts)
                .tol(1e-6)
                .leaf_size(64)
                .driver(Driver::Sequential)
                .build()
                .unwrap()
        });
    }

    {
        let grid = UnitGrid::new(64);
        let kernel = LaplaceKernel::new(&grid);
        let pts = grid.points();
        let f = Solver::builder(&kernel, &pts)
            .tol(1e-6)
            .leaf_size(64)
            .build()
            .unwrap();
        let b = random_vector::<f64>(grid.n(), 3);
        h.bench("solve/laplace_4096", || f.solve(&b));

        // --- Solve phase: blocked multi-RHS vs repeated single-RHS -------
        // `solve_mat/..._nrhsK` amortizes the per-record gather + factor
        // traffic over K columns with GEMM/blocked-TRSM; the per-RHS win
        // is (K * median(solve/laplace_4096)) / median(nrhsK).
        for nrhs in [1usize, 16, 64] {
            let mut bm = Mat::zeros(grid.n(), nrhs);
            for j in 0..nrhs {
                bm.col_mut(j)
                    .copy_from_slice(&random_vector::<f64>(grid.n(), 100 + j as u64));
            }
            h.bench(&format!("solve_mat/laplace_4096_nrhs{nrhs}"), || {
                f.solve_mat(&bm)
            });
        }
        // The same 64 right-hand sides as 64 sequential vector solves —
        // the baseline the acceptance ratio is measured against.
        let cols: Vec<Vec<f64>> = (0..64)
            .map(|j| random_vector::<f64>(grid.n(), 100 + j as u64))
            .collect();
        h.bench("solve_mat/laplace_4096_seq64", || {
            let mut last = Vec::new();
            for c in &cols {
                last = f.solve(c);
            }
            last
        });
    }

    // The complex block solve of helmholtz_grid's case: the sweep the
    // `c64` panel kernels carry.
    {
        let grid = UnitGrid::new(64);
        let kernel = HelmholtzKernel::new(&grid, 25.0);
        let pts = grid.points();
        let f = Solver::builder(&kernel, &pts)
            .tol(1e-6)
            .leaf_size(64)
            .build()
            .unwrap();
        let mut bm = Mat::zeros(grid.n(), 16);
        for j in 0..16 {
            bm.col_mut(j)
                .copy_from_slice(&random_vector::<c64>(grid.n(), 300 + j as u64));
        }
        h.bench("solve_mat/helmholtz_4096_nrhs16", || f.solve_mat(&bm));
    }

    {
        let grid = UnitGrid::new(64);
        let kernel = LaplaceKernel::new(&grid);
        let fast = FastKernelOp::laplace(&kernel, &grid);
        let x = random_vector::<f64>(grid.n(), 4);
        h.bench("fast_matvec/laplace_4096", || fast.apply(&x));
    }

    if let Some(path) = json_path {
        h.write_json(&path);
    }
}
