//! The four workloads and the two passes over them: the end-to-end pass
//! (tracing off, a closed loop with one client: the next build or solve is
//! issued when the previous one returns) and the per-layer pass (a
//! separate run that wraps every call into a layer in a span).
//!
//! The program under test receives only generated inputs: the points and
//! every right-hand side come from [`Rng`], seeded by `--seed`.

use crate::adapter::{self, BuildMode, Case, Factor, FactorSummary, KernelKind, Problem, ProgSpan};
use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::{median, tail_percentile};
use std::time::Instant;

/// One round of the end-to-end pass: a build at each size, then this many
/// single and 16-column solves. Five rounds at least, however short the
/// run, so the medians stand on 5 builds, 200 solves (a p95 with ten
/// samples beyond it) and 30 block solves.
const MIN_ROUNDS: usize = 5;
const ROUND_SOLVES: usize = 40;
const ROUND_BLOCK_SOLVES: usize = 6;
const BLOCK_COLS: usize = 16;
/// Right-hand sides the timed solves rotate through.
const RHS_POOL: usize = 8;
/// `relres / tol` above this is a failed operation.
const RELRES_LIMIT: f64 = 100.0;

pub struct Workload {
    pub name: &'static str,
    pub case: Case,
    /// Size of the smaller rung `setup_growth` compares with (`N / 4`).
    pub rung_n: usize,
    /// Also time one `Driver::colored(nproc)` build on the rung.
    pub colored_probe: bool,
}

/// The workload table. `smoke` shrinks every workload to 32^2 / 16^2 with
/// 16-point leaves (so the 4-rank grid still has 2x2 leaves per rank).
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let (side, rung_side, leaf_size) = if smoke { (32, 16, 16) } else { (128, 64, 64) };
    let (h_side, h_rung) = if smoke { (32, 16) } else { (64, 32) };
    let case = |kernel, n, tol, ranks| Case {
        kernel,
        n,
        tol,
        leaf_size,
        ranks,
    };
    vec![
        Workload {
            name: "laplace_grid",
            case: case(KernelKind::LaplaceGrid, side * side, 1e-6, 1),
            rung_n: rung_side * rung_side,
            colored_probe: true,
        },
        Workload {
            name: "helmholtz_grid",
            case: case(
                KernelKind::HelmholtzGrid { kappa: 25.0 },
                h_side * h_side,
                1e-6,
                1,
            ),
            rung_n: h_rung * h_rung,
            colored_probe: false,
        },
        Workload {
            name: "laplace_scattered",
            case: case(KernelKind::LaplaceScattered, side * side, 1e-9, 1),
            rung_n: rung_side * rung_side,
            colored_probe: false,
        },
        Workload {
            name: "laplace_dist4",
            case: case(KernelKind::LaplaceGrid, side * side, 1e-6, 4),
            rung_n: rung_side * rung_side,
            colored_probe: false,
        },
    ]
}

/// splitmix64: the benchmark's own generator, so inputs do not depend on
/// any helper of the program under test.
pub struct Rng(u64);

impl Rng {
    /// Independent streams of one `--seed`: points, single right-hand
    /// sides, the block right-hand side.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next_f64()).collect()
    }
}

fn open(case: &Case, n: usize, seed: u64) -> Box<dyn Problem> {
    let case = Case { n, ..case.clone() };
    let points: Vec<(f64, f64)> = match case.kernel {
        KernelKind::LaplaceScattered => {
            // The rung draws from its own stream: a different point set of
            // the same distribution, as a user with a smaller problem has.
            let mut rng = Rng::new(seed, n as u64);
            (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect()
        }
        _ => Vec::new(),
    };
    adapter::open(&case, &points)
}

/// One child run's outcome, in the order it is printed and stored.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub metrics: Vec<(String, f64)>,
    /// Raw samples behind the medians, so any statistic can be recomputed.
    pub samples: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub notes: Vec<String>,
    /// Chrome trace-event JSON of the benchmark-side spans (per-layer pass).
    pub trace: Option<Json>,
}

impl Record {
    fn new(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            workload: w.name.to_string(),
            seed,
            seconds,
            traced,
            metrics: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            notes: Vec::new(),
            trace: None,
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    /// Everything but the trace, which goes to its own file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("wall_s", Json::Num(self.wall_s)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
            (
                "sample_counts",
                Json::obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(v.len() as f64))),
                ),
            ),
            (
                "samples",
                Json::obj(self.samples.iter().map(|(k, v)| (k.clone(), Json::nums(v)))),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Time one build; an `Err` is a failed operation.
fn timed_build<'p>(
    problem: &'p dyn Problem,
    mode: BuildMode,
    rec: &mut Record,
) -> Option<(f64, Box<dyn Factor + 'p>)> {
    rec.attempted += 1;
    let t0 = Instant::now();
    let built = problem.build(mode);
    let s = t0.elapsed().as_secs_f64();
    match built {
        Ok(f) => Some((s, f)),
        Err(e) => {
            rec.fail(format!("build failed: {e}"));
            None
        }
    }
}

/// `count` timed solves of `ncols`-column right-hand sides, the `i`-th
/// taking `pool[i % len]`, with `i` counted on from `*next`. Every
/// `check_every`-th is an operation: its residual is checked outside the
/// timed region and its `relres / tol` returned.
#[allow(clippy::too_many_arguments)]
fn timed_solves(
    factor: &mut dyn Factor,
    pool: &[Vec<f64>],
    ncols: usize,
    count: usize,
    next: &mut usize,
    check_every: usize,
    tol: f64,
    rec: &mut Record,
) -> (Vec<f64>, Vec<f64>) {
    let (mut samples, mut ratios) = (Vec::new(), Vec::new());
    for i in *next..*next + count {
        factor.set_rhs(&pool[i % pool.len()], ncols);
        let checked = i % check_every == 0;
        rec.attempted += checked as u64;
        let t0 = Instant::now();
        let solved = factor.solve();
        let s = t0.elapsed().as_secs_f64();
        match solved {
            Ok(()) => {
                samples.push(s);
                if checked {
                    let ratio = factor.relres() / tol;
                    ratios.push(ratio);
                    if ratio.is_nan() || ratio > RELRES_LIMIT {
                        rec.fail(format!("solve {i}: relres/tol = {ratio:.3e}"));
                    }
                }
            }
            Err(e) => {
                // An unchecked solve that errs is still a failed operation.
                rec.attempted += !checked as u64;
                rec.fail(format!("solve {i} failed: {e}"));
            }
        }
    }
    *next += count;
    (samples, ratios)
}

fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0)
}

fn rhs_pools(problem: &dyn Problem, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let len = problem.reals_per_entry() * problem.n();
    let mut single = Rng::new(seed, 1);
    let mut block = Rng::new(seed, 2);
    (
        (0..RHS_POOL).map(|_| single.vec(len)).collect(),
        (0..2).map(|_| block.vec(len * BLOCK_COLS)).collect(),
    )
}

/// Max over ranks of `(msgs, words)` sent between two probes, per solve.
fn comm_per_solve(before: &[(u64, u64)], after: &[(u64, u64)], solves: usize) -> (f64, f64) {
    let per = |pick: fn(&(u64, u64)) -> u64| {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| pick(a) - pick(b))
            .max()
            .unwrap_or(0) as f64
            / solves.max(1) as f64
    };
    (per(|c| c.0), per(|c| c.1))
}

/// What one round of the end-to-end pass measured.
struct Round {
    main_s: f64,
    rung_s: Option<f64>,
    factor_bytes: f64,
    solves: Vec<f64>,
    /// `relres / tol` of the checked single solves.
    ratios: Vec<f64>,
    block_solves: Vec<f64>,
}

/// The end-to-end pass: tracing off, one thread per rank, one client.
///
/// The run is a sequence of rounds — build at the main size, build the
/// rung, a batch of single solves, a batch of block solves on the factor
/// just built — so that every metric samples the whole run and the solves
/// see several allocations of the factor. A burst of noise from the
/// machine then moves all of a round's numbers together, which is what
/// keeps `setup_growth` steady. One shortened round is discarded first.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Record {
    let wall = Instant::now();
    let mut rec = Record::new(w, seed, seconds, false);
    let main = open(&w.case, w.case.n, seed);
    let rung = open(&w.case, w.rung_n, seed);
    let (singles, blocks) = rhs_pools(main.as_ref(), seed);
    let tol = w.case.tol;

    // `next` counts the solves issued so far, so the right-hand sides
    // rotate and the checks fall the same way in every run.
    let round = |n_single, n_block, next: &mut (usize, usize), rec: &mut Record| {
        let (main_s, mut factor) = timed_build(main.as_ref(), BuildMode::Plain, rec)?;
        // The rung is built while the main factor is resident, so
        // `peak_rss_bytes` covers a process that serves one factorization
        // and builds another.
        let rung_s = timed_build(rung.as_ref(), BuildMode::Plain, rec).map(|(s, _)| s);
        let f = factor.as_mut();
        let (solves, ratios) = timed_solves(f, &singles, 1, n_single, &mut next.0, 10, tol, rec);
        // One block solve per round is checked: sixteen residuals cost
        // more than the solve they check.
        let every = ROUND_BLOCK_SOLVES;
        let (block_solves, _) = timed_solves(
            f,
            &blocks,
            BLOCK_COLS,
            n_block,
            &mut next.1,
            every,
            tol,
            rec,
        );
        Some(Round {
            main_s,
            rung_s,
            factor_bytes: factor.summary().factor_bytes as f64,
            solves,
            ratios,
            block_solves,
        })
    };

    // Warm-up: not operations, so counted on a record that is dropped.
    round(3, 1, &mut (0, 0), &mut Record::new(w, seed, seconds, false));
    // The high-water mark of a process that has set up once at each size
    // and solved. Read at the end it would count the rounds: every rebuild
    // adds to it (+30 % over five rounds of `laplace_dist4`, whose rank
    // threads take new malloc arenas), by an amount that differs from run
    // to run (10 % between the quartiles of ten runs, 0.8 % here).
    let peak_rss = peak_rss_bytes();
    let (mut builds, mut rung_builds, mut growth) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solves, mut block_solves, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut factor_bytes = f64::NAN;
    let mut next = (0, 0);
    let start = Instant::now();
    while (builds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds) && rec.failed < 3 {
        let Some(r) = round(ROUND_SOLVES, ROUND_BLOCK_SOLVES, &mut next, &mut rec) else {
            continue;
        };
        factor_bytes = r.factor_bytes;
        builds.push(r.main_s);
        if let Some(rung_s) = r.rung_s {
            rung_builds.push(rung_s);
            growth.push((r.main_s / w.case.n as f64) / (rung_s / w.rung_n as f64));
        }
        if ratios.is_empty() {
            ratios = r.ratios;
        }
        solves.extend(r.solves);
        block_solves.extend(r.block_solves.iter().map(|s| s / BLOCK_COLS as f64));
    }

    // Root mean square over the first round's checked solves: the same
    // right-hand sides whatever the run's length.
    let relres_over_tol = (ratios.iter().map(|r| r * r).sum::<f64>() / ratios.len() as f64).sqrt();
    rec.put("setup_s", median(&builds));
    rec.put("setup_growth", median(&growth));
    rec.put("solve_block_s_per_rhs", median(&block_solves));
    rec.put("factor_bytes", factor_bytes);
    rec.put("peak_rss_bytes", peak_rss);
    rec.put("residual_digits", -(relres_over_tol * tol).log10());
    // Single-solve latency is reported, not gated: one solve streams the
    // whole factor once, so on a machine whose last-level cache is shared
    // with other tenants it measures their traffic (2x between two sets of
    // runs of one binary here). The block solve gates the same layer.
    rec.notes.push(format!(
        "solve_s = {:.6} s median{} over {} single solves (not gated); relres/tol = {relres_over_tol:.4}",
        median(&solves),
        tail_percentile(&solves).map_or(String::new(), |(p, v)| format!(", p{p} = {v:.6} s")),
        solves.len()
    ));
    if w.case.ranks > 1 {
        rec.notes.push(format!(
            "{} rank threads on {} cores: setup_s is oversubscribed",
            w.case.ranks,
            nproc()
        ));
    }
    rec.samples = vec![
        ("setup_s".into(), builds),
        ("setup_rung_s".into(), rung_builds),
        ("setup_growth".into(), growth),
        ("solve_s".into(), solves),
        ("solve_block_s_per_rhs".into(), block_solves),
    ];
    rec.wall_s = wall.elapsed().as_secs_f64();
    rec
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sum of durations per rank over the spans `pick` selects, max over ranks.
fn max_rank_sum(spans: &[ProgSpan], pick: impl Fn(&ProgSpan) -> bool, bytes: bool) -> f64 {
    let mut per_rank = std::collections::BTreeMap::<u32, f64>::new();
    for s in spans.iter().filter(|s| pick(s)) {
        *per_rank.entry(s.rank).or_default() += if bytes { s.bytes as f64 } else { s.dur_s };
    }
    per_rank.values().copied().fold(0.0, f64::max)
}

/// Size of the largest cache `cpu0` sees, from sysfs; `None` off Linux.
fn last_level_cache_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|entry| {
        let size = std::fs::read_to_string(entry.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (digits, unit) = size.split_at(size.find(|c: char| !c.is_ascii_digit())?);
        let unit = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => return None,
        };
        Some(digits.parse::<usize>().ok()? * unit)
    })
    .max()
}

/// Copy rate of a buffer four times the last-level cache (256 MiB at
/// least; 512 MiB at most, which keeps source plus destination at 1 GiB
/// and still streams well past any cache), as `(GB/s, buffer bytes,
/// cache bytes)`.
fn copy_gbps() -> (f64, usize, usize) {
    let cache = last_level_cache_bytes().unwrap_or(0);
    let bytes = (4 * cache).clamp(256 << 20, 512 << 20);
    let src = vec![1.0f64; bytes / 8];
    let mut dst = vec![0.0f64; bytes / 8];
    dst.copy_from_slice(&src); // first touch
    let t0 = Instant::now();
    dst.copy_from_slice(std::hint::black_box(&src));
    let s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&dst);
    // Read plus write.
    (2.0 * bytes as f64 / s / 1e9, bytes, cache)
}

/// Levels the per-level metrics name: the leaf and compression levels of
/// every workload size lie in `2..=4`.
const LEVELS: std::ops::RangeInclusive<u8> = 2..=4;
/// Traced solves behind the serve split.
const TRACED_SOLVES: usize = 20;
/// Single solves between the two probes of the per-solve traffic.
const COMM_BATCH: usize = 8;

fn build_once(
    problem: &dyn Problem,
    mode: BuildMode,
) -> Result<(f64, Box<dyn Factor + '_>), String> {
    let t0 = Instant::now();
    let f = problem.build(mode)?;
    Ok((t0.elapsed().as_secs_f64(), f))
}

/// The per-layer pass. Never the source of an end-to-end number: its
/// builds are reference points for the sweep and the tracing overhead.
pub fn run_layers(w: &Workload, seed: u64, seconds: f64) -> Record {
    let wall = Instant::now();
    let mut rec = Record::new(w, seed, seconds, true);
    let problem = open(&w.case, w.case.n, seed);
    let distributed = w.case.ranks > 1;

    // Reference: untraced builds of the workload as the end-to-end pass
    // runs it, each followed by one benchmark-side sweep (the distributed
    // workload has no sequential sweep to copy). The faster of two stands
    // for the noise-free time of either; taking them in turn gives both
    // the same share of the process's cold start.
    let mut reference: Option<(f64, Box<dyn Factor + '_>)> = None;
    let mut best: Option<(f64, Recorder, adapter::SweepReport)> = None;
    for _ in 0..2 {
        rec.attempted += 1;
        match build_once(problem.as_ref(), BuildMode::Plain) {
            Ok(built) if reference.as_ref().is_none_or(|r| built.0 < r.0) => {
                reference = Some(built)
            }
            Ok(_) => {}
            Err(e) => rec.fail(format!("reference build failed: {e}")),
        }
        if distributed {
            continue;
        }
        let mut spans = Recorder::new();
        rec.attempted += 1;
        match problem.sweep(&mut spans) {
            Err(e) => rec.fail(format!("sweep failed: {e}")),
            Ok(sweep) => {
                let total = spans.spans()[0].dur_s();
                if best.as_ref().is_none_or(|b| total < b.0) {
                    best = Some((total, spans, sweep));
                }
            }
        }
    }
    let Some((setup_ref_s, mut factor)) = reference else {
        rec.wall_s = wall.elapsed().as_secs_f64();
        return rec;
    };
    let summary = factor.summary();
    let mut overhead_ratio = 0.0;
    let mut replay = None;
    if let Some((_, spans, sweep)) = &best {
        if sweep.shape != summary.shape {
            rec.fail(format!(
                "the benchmark's sweep diverged from the untraced build: {:?} vs {:?}",
                sweep.shape, summary.shape
            ));
        }
        print_level_table(spans, sweep);
        rec.trace = Some(spans.chrome_trace(w.name));
        match problem.replay(sweep.shape.top_size) {
            Ok(r) => replay = Some(r),
            Err(e) => rec.fail(format!("replay failed: {e}")),
        }
    }
    let below_top = sweep_metrics(
        &mut rec,
        best.as_ref().map(|(_, spans, sweep)| (spans, sweep)),
    );
    replay_metrics(&mut rec, replay.as_ref());
    if best.is_some() {
        // The copy is faithful below the top block. The top block itself
        // is not: the program fills it from its symbol table on grids
        // (`CompressionCtx::get_block`, private), the benchmark through
        // `BlockStore::get`, which evaluates the kernel. So the two are
        // compared without it, the program's share read from its own
        // `top_s`.
        let reference = setup_ref_s - summary.top_s;
        overhead_ratio = below_top / reference;
        // A relation between two times is a measurement, not an output:
        // on a shared machine it leaves 10 % with nothing wrong (0.89 seen
        // here), so it is reported as `trace.overhead_ratio` and flagged,
        // and only the shape check above can fail the run. Below a tenth
        // of a second (the smoke sizes) timer resolution and first-touch
        // cost are the tenth.
        if reference >= 0.1 && (overhead_ratio - 1.0).abs() > 0.10 {
            rec.notes.push(format!(
                "warning: sweep layers below the top sum to {below_top:.4} s, \
                 the untraced set-up spends {reference:.4} s there \
                 (more than 10 % apart: the layer shares are less certain)"
            ));
        }
    }
    rec.put("core.top.program_s", summary.top_s);
    let c = summary.shape.compression;
    rec.put(
        "core.compress.fft_block_applies",
        c.fft_block_applies as f64,
    );
    rec.put(
        "core.compress.dense_block_applies",
        c.dense_block_applies as f64,
    );
    rec.put("core.compress.sketch_retries", c.sketch_retries as f64);
    rec.put("core.compress.sketch_fallbacks", c.sketch_fallbacks as f64);

    // Solve sweep at three block widths, on the reference factor.
    let len = problem.reals_per_entry() * problem.n();
    let mut rng = Rng::new(seed, 3);
    let pool = |cols: usize, rng: &mut Rng| vec![rng.vec(len * cols), rng.vec(len * cols)];
    let tol = w.case.tol;
    let before = factor.comm_probe();
    factor.set_rhs(&rng.vec(len), 1);
    let batch = Instant::now();
    for _ in 0..COMM_BATCH {
        if let Err(e) = factor.solve() {
            rec.fail(format!("solve failed: {e}"));
        }
    }
    let per_solve_s = batch.elapsed().as_secs_f64() / COMM_BATCH as f64;
    let (msgs, words) = comm_per_solve(&before, &factor.comm_probe(), COMM_BATCH);
    // A tenth of `--seconds` of single solves, 200 at least for the p95.
    let singles = ((0.1 * seconds / per_solve_s) as usize).clamp(200, 2000);
    let [s1, s16, s64] = [(1, singles, 50), (16, 10, usize::MAX), (64, 4, usize::MAX)].map(
        |(cols, count, check_every)| {
            let rhs = pool(cols, &mut rng);
            timed_solves(
                factor.as_mut(),
                &rhs,
                cols,
                count,
                &mut 0,
                check_every,
                tol,
                &mut rec,
            )
            .0
        },
    );
    rec.put("core.solve.s_nrhs1", median(&s1));
    rec.put("core.solve.s_nrhs16", median(&s16));
    rec.put("core.solve.s_nrhs64", median(&s64));
    rec.put(
        "core.solve.p95_s",
        tail_percentile(&s1).map_or(0.0, |(_, v)| v),
    );
    rec.put(
        "core.solve.block_amortisation",
        16.0 * median(&s1) / median(&s16),
    );
    rec.samples.push(("core.solve.s_nrhs1".into(), s1));
    drop(factor);

    // One colored build beside a sequential one, on the rung.
    let (mut colored_s, mut colored_ratio) = (0.0, 0.0);
    if w.colored_probe {
        let rung = open(&w.case, w.rung_n, seed);
        let threads = nproc();
        let seq = build_once(rung.as_ref(), BuildMode::Plain).map(|(s, _)| s);
        let col = build_once(rung.as_ref(), BuildMode::Colored { threads }).map(|(s, _)| s);
        match (seq, col) {
            (Ok(seq), Ok(col)) => {
                colored_s = col;
                colored_ratio = col / seq;
                rec.notes
                    .push(format!("core.colored.* measured with {threads} threads"));
            }
            (a, b) => rec.fail(format!("colored probe failed: {:?} {:?}", a.err(), b.err())),
        }
    }
    rec.put("core.colored.setup_s", colored_s);
    rec.put("core.colored.over_sequential", colored_ratio);

    // The rank world: counters of the untraced build, then the program's
    // own spans from one traced build and a batch of traced solves.
    rec.put("runtime.comm_words_per_solve", words);
    rec.put("runtime.comm_msgs_per_solve", msgs);
    distributed_metrics(&mut rec, &summary);
    let mut prog = (Vec::new(), Vec::new());
    if distributed {
        rec.attempted += 1;
        match build_once(problem.as_ref(), BuildMode::Traced) {
            Err(e) => rec.fail(format!("traced build failed: {e}")),
            Ok((traced_s, mut traced)) => {
                overhead_ratio = traced_s / setup_ref_s;
                prog.0 = traced.drain_spans();
                let rhs = Rng::new(seed, 4).vec(len);
                traced.set_rhs(&rhs, 1);
                for _ in 0..TRACED_SOLVES {
                    if let Err(e) = traced.solve() {
                        rec.fail(format!("traced solve failed: {e}"));
                        break;
                    }
                }
                prog.1 = traced.drain_spans();
            }
        }
    }
    program_span_metrics(&mut rec, &prog.0, &prog.1);
    rec.put("trace.overhead_ratio", overhead_ratio);

    rec.put("machine.gemm_gflops_f64", adapter::machine_gemm_gflops());
    let (gbps, buffer, cache) = copy_gbps();
    rec.put("machine.copy_gbps", gbps);
    rec.put("machine.nproc", nproc() as f64);
    rec.notes.push(format!(
        "machine.copy_gbps copies {} MiB; the last-level cache is {} MiB",
        buffer >> 20,
        cache >> 20
    ));
    rec.wall_s = wall.elapsed().as_secs_f64();
    rec
}

/// Metrics of the benchmark's sweep (zeros when the workload has none).
/// Returns the sum of the layers' times below the top block: every span
/// once, the duplicated `skeletonize` not at all.
fn sweep_metrics(rec: &mut Record, sweep: Option<(&Recorder, &adapter::SweepReport)>) -> f64 {
    let sum = |name: &str, level: Option<u8>| {
        sweep.map_or(0.0, |(r, _)| {
            r.spans()
                .iter()
                .filter(|s| s.name == name && level.is_none_or(|l| s.level == l))
                .map(|s| s.dur_s())
                .sum::<f64>()
                + 0.0 // an empty sum is -0.0
        })
    };
    let leaf = sweep.map(|(_, s)| s.leaf_level);
    let skel = sum("core.skeletonize", None);
    rec.put("geometry.tree_build_s", sum("geometry.tree_build", None));
    rec.put("core.skeletonize.s", skel);
    rec.put("core.skeletonize.leaf_s", sum("core.skeletonize", leaf));
    rec.put(
        "core.elimination.schur_lu_s",
        sum("core.eliminate_box", None) - skel,
    );
    rec.put(
        "core.elimination.apply_output_s",
        sum("core.apply_output", None),
    );
    rec.put(
        "core.store.peak_bytes",
        sweep.map_or(0.0, |(_, s)| s.store_peak_bytes as f64),
    );
    rec.put(
        "core.store.blocks_peak",
        sweep.map_or(0.0, |(_, s)| s.store_blocks_peak as f64),
    );
    rec.put("core.levels.merge_s", sum("core.merge_to_parent", None));
    rec.put("core.top.assemble_s", sum("core.top.assemble", None));
    rec.put("core.top.lu_s", sum("core.top.lu", None));
    rec.put(
        "core.top.size",
        sweep.map_or(0.0, |(_, s)| s.shape.top_size as f64),
    );
    for l in LEVELS {
        rec.put(
            &format!("core.level.L{l}.s"),
            sum("core.level", Some(l)) - sum("core.skeletonize", Some(l)),
        );
        rec.put(
            &format!("core.level.L{l}.avg_rank"),
            sweep.map_or(0.0, |(_, s)| s.shape.avg_rank(l)),
        );
    }
    rec.put(
        "core.compress.symbol_table",
        sweep.map_or(0.0, |(_, s)| f64::from(s.symbol_table)),
    );
    sum("setup", None) - skel - sum("core.top.assemble", None) - sum("core.top.lu", None)
}

fn replay_metrics(rec: &mut Record, replay: Option<&adapter::ReplayReport>) {
    let r = replay.cloned().unwrap_or_default();
    rec.put("kernels.proxy_assembly_s", r.proxy_assembly_s);
    rec.put("kernels.evals", r.kernel_evals);
    rec.put("kernels.ns_per_eval", r.kernel_ns_per_eval);
    rec.put("special.hankel_ns_per_eval", r.hankel_ns_per_eval);
    rec.put("linalg.rid_s", r.rid_s);
    rec.put("linalg.cpqr_s", r.cpqr_s);
    rec.put(
        "linalg.rid_over_cpqr",
        if r.cpqr_s > 0.0 {
            r.rid_s / r.cpqr_s
        } else {
            0.0
        },
    );
    rec.put("linalg.gemm_gflops_schur", r.gemm_gflops_schur);
    rec.put("linalg.lu_top_s", r.lu_top_s);
    rec.put("linalg.lu_solve_top_s", r.lu_solve_top_s);
    rec.put("fft.toeplitz_apply_s", r.toeplitz_apply_s);
    if replay.is_some() {
        rec.notes.push(format!(
            "linalg.gemm_gflops_schur at the median Schur shape ({0} x {1}) * ({1} x {0})",
            r.schur_shape.0, r.schur_shape.1
        ));
    }
}

fn distributed_metrics(rec: &mut Record, summary: &FactorSummary) {
    let comm = &summary.setup_comm;
    let max = |pick: fn(&adapter::RankComm) -> f64| comm.iter().map(pick).fold(0.0, f64::max);
    rec.put("runtime.comm_words_setup", max(|r| r.words as f64));
    rec.put("runtime.msgs_max_rank_setup", max(|r| r.msgs as f64));
    rec.put("runtime.compute_s_max_rank", max(|r| r.compute_s));
    rec.put("runtime.wait_s_max_rank", max(|r| r.wait_s));
    rec.put("core.distributed.tmodel_s", summary.tmodel_s);
    let bytes = &summary.bytes_per_rank;
    rec.put(
        "core.distributed.bytes_rank_min",
        bytes.iter().copied().min().unwrap_or(0) as f64,
    );
    rec.put(
        "core.distributed.bytes_rank_max",
        bytes.iter().copied().max().unwrap_or(0) as f64,
    );
}

/// Aggregate the program's own spans by name prefix, max over ranks:
/// `setup` from the traced build, `serve` from the traced solves.
fn program_span_metrics(rec: &mut Record, setup: &[ProgSpan], serve: &[ProgSpan]) {
    let phase = |what: &'static str| {
        max_rank_sum(setup, |s| s.cat == "phase" && s.name.contains(what), false)
    };
    rec.put("core.distributed.phase.interior_s", phase(" interior"));
    rec.put("core.distributed.phase.boundary_s", phase(" color round "));
    rec.put("core.distributed.phase.transition_s", phase(" transition"));
    rec.put("core.distributed.phase.top_s", phase("top gather+factor"));
    let comm = |prefix: &'static str| {
        max_rank_sum(
            setup,
            |s| s.cat == "comm" && s.name.starts_with(prefix),
            false,
        )
    };
    rec.put("runtime.comm.recv_wait_s", comm("recv "));
    rec.put("runtime.comm.send_s", comm("send "));
    rec.put("runtime.comm.barrier_s", comm("barrier"));
    rec.put(
        "runtime.comm.bytes",
        max_rank_sum(setup, |s| s.cat == "comm", true),
    );
    let solve = |prefix: &'static str| {
        max_rank_sum(
            serve,
            |s| s.cat == "solve" && s.name.starts_with(prefix),
            false,
        ) / TRACED_SOLVES as f64
    };
    rec.put("core.distributed.serve.upward_s", solve("solve upward"));
    rec.put("core.distributed.serve.top_s", solve("solve top"));
    rec.put("core.distributed.serve.downward_s", solve("solve downward"));
    rec.put(
        "core.distributed.serve.slab_gather_s",
        solve("solve slab gather"),
    );
}

/// The per-level table (Corona–Martinsson–Zorin's shape) and the per-name
/// self-time table of the sweep, for the reader of the run's output.
fn print_level_table(spans: &Recorder, sweep: &adapter::SweepReport) {
    println!("  level  boxes  avg_rank      time_s  (skeletonize counted once)");
    for &(level, boxes, rank_sum) in sweep.shape.ranks.iter().rev() {
        let t: f64 = spans
            .spans()
            .iter()
            .filter(|s| s.level == level)
            .map(|s| match s.name {
                "core.level" => s.dur_s(),
                "core.skeletonize" => -s.dur_s(),
                _ => 0.0,
            })
            .sum();
        println!(
            "  {level:>5}  {boxes:>5}  {:>8.2}  {t:>10.4}",
            rank_sum as f64 / boxes.max(1) as f64
        );
    }
    let own = spans.self_times_s();
    let mut rows: Vec<(&str, usize, f64, f64)> = Vec::new();
    for (s, own) in spans.spans().iter().zip(own) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_s();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur_s(), own)),
        }
    }
    println!(
        "  {:<24} {:>6} {:>10} {:>10}",
        "span", "count", "total_s", "self_s"
    );
    for (name, count, total, own) in rows {
        println!("  {name:<24} {count:>6} {total:>10.4} {own:>10.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform() {
        let a: Vec<f64> = Rng::new(7, 1).vec(1000);
        assert_eq!(a, Rng::new(7, 1).vec(1000));
        assert_ne!(a, Rng::new(8, 1).vec(1000));
        assert_ne!(a, Rng::new(7, 2).vec(1000));
        assert!(a.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 0.5).abs() < 0.05);
    }

    #[test]
    fn comm_per_solve_takes_the_busiest_rank() {
        let before = [(10, 100), (20, 200)];
        let after = [(30, 500), (28, 1000)];
        assert_eq!(comm_per_solve(&before, &after, 4), (5.0, 200.0));
        assert_eq!(comm_per_solve(&[], &[], 4), (0.0, 0.0));
    }

    #[test]
    fn program_spans_aggregate_per_rank_then_max() {
        let span = |rank, cat, name: &str, dur_s, bytes| ProgSpan {
            rank,
            cat,
            name: name.to_string(),
            dur_s,
            bytes,
        };
        let spans = [
            span(0, "comm", "recv level 4", 1.0, 10),
            span(0, "comm", "recv level 3", 2.0, 10),
            span(1, "comm", "recv level 4", 2.5, 50),
            span(1, "comm", "send level 4", 9.0, 1),
            span(1, "phase", "recv in name only", 9.0, 0),
        ];
        let recv = |s: &ProgSpan| s.cat == "comm" && s.name.starts_with("recv ");
        assert_eq!(max_rank_sum(&spans, recv, false), 3.0);
        assert_eq!(max_rank_sum(&spans, |s| s.cat == "comm", true), 51.0);
        assert_eq!(max_rank_sum(&spans, |s| s.cat == "serve", false), 0.0);
    }
}
