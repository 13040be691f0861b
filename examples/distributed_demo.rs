//! The distributed-memory factorization on a process grid: interior/
//! boundary phases, 4-color rounds, neighbor-only messages — with the
//! measured communication counters checked against the paper's §IV
//! bounds, over either transport backend. The rank world then stays
//! alive and serves k solves in place: records never leave their ranks,
//! and the per-solve communication is measured separately from the
//! factorization's.
//!
//! ```sh
//! # Default: 4 ranks as threads (in-process transport), 64x64 grid,
//! # 5 served solves.
//! cargo run --release --example distributed_demo -- --solve-reps 5
//!
//! # 4 ranks as real OS processes over localhost TCP; also re-runs the
//! # factorization in-process and checks the two backends produced
//! # bit-identical solutions and identical counters.
//! cargo run --release --example distributed_demo -- --transport tcp
//!
//! # Vary the grid and the process count (p must be a power of four).
//! cargo run --release --example distributed_demo -- --p 16 --side 128
//!
//! # The complex-symmetric Helmholtz kernel (default kappa 25) in place of
//! # Laplace: one-sided c64 records through the same phases, sockets and
//! # resident sweep.
//! cargo run --release --example distributed_demo -- --kernel helmholtz --kappa 40
//!
//! # Tracing and metrics: write a Chrome/Perfetto trace of the traced
//! # run, print the per-phase profile table, and the serve-metrics
//! # snapshot: latency histogram + per-rank gauges.
//! cargo run --release --example distributed_demo -- --trace-out trace.json
//! cargo run --release --example distributed_demo -- --metrics
//!
//! # Chaos: checkpoint the factorization, kill a worker mid-serve with a
//! # seeded fault plan, watch the typed failure, then restore the world
//! # from the snapshots and verify a bit-identical re-solve.
//! cargo run --release --example distributed_demo -- --transport tcp --chaos
//! ```

use srsf::prelude::*;
use srsf::runtime::NetworkModel;
use std::time::Instant;

/// `--kernel`: which paper kernel to factor.
#[derive(Clone, Copy)]
enum KernelChoice {
    Laplace,
    Helmholtz,
}

struct Args {
    kernel: KernelChoice,
    kappa: f64,
    side: usize,
    p: usize,
    transport: Transport,
    solve_reps: usize,
    chaos: bool,
    trace_out: Option<String>,
    metrics: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        kernel: KernelChoice::Laplace,
        kappa: 25.0,
        side: 64,
        p: 4,
        transport: Transport::InProc,
        solve_reps: 5,
        chaos: false,
        trace_out: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} expects a value; see --help"))
        };
        match flag.as_str() {
            "--kernel" => {
                args.kernel = match value("--kernel").as_str() {
                    "laplace" => KernelChoice::Laplace,
                    "helmholtz" => KernelChoice::Helmholtz,
                    other => panic!("--kernel laplace|helmholtz, got {other:?}"),
                }
            }
            "--kappa" => args.kappa = value("--kappa").parse().expect("--kappa K"),
            "--side" => args.side = value("--side").parse().expect("--side N"),
            "--p" => {
                args.p = value("--p").parse().expect("--p N");
                // Name a bad rank count here, not in the first build.
                Driver::try_distributed(args.p).unwrap_or_else(|e| panic!("--p: {e}"));
            }
            "--transport" => {
                args.transport = value("--transport")
                    .parse()
                    .unwrap_or_else(|e| panic!("{e}"))
            }
            "--chaos" => args.chaos = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics" => args.metrics = true,
            "--solve-reps" => {
                // At least one solve: the per-solve counter math divides
                // by the rep count.
                args.solve_reps = value("--solve-reps")
                    .parse::<usize>()
                    .expect("--solve-reps K")
                    .max(1)
            }
            "--help" | "-h" => {
                println!(
                    "usage: distributed_demo [--kernel laplace|helmholtz [--kappa K]]\n\
                     \x20                       [--side N] [--p N] [--transport inproc|tcp]\n\
                     \x20                       [--solve-reps K] [--chaos]\n\
                     \x20                       [--trace-out trace.json] [--metrics]\n\
                     defaults: --kernel laplace --kappa 25 --side 64 --p 4\n\
                     \x20         --transport inproc --solve-reps 5"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?}; see --help"),
        }
    }
    args
}

/// Chaos demo: factor with per-rank checkpoints under a seeded fault
/// plan that kills a worker rank at its first solve barrier, show the
/// typed `RankFailed` failure (bounded by the receive timeout, no hang),
/// drop the degraded world cleanly, then restore a fresh resident world
/// from the snapshots and verify the re-solve is bit-identical to a
/// fault-free reference.
fn run_chaos<K: Kernel>(kernel: &K, grid: &UnitGrid, p: usize, transport: Transport) {
    assert!(
        p >= 4,
        "--chaos needs --p >= 4: a worker rank dies while the rest survive"
    );
    let victim = p - 1; // a worker rank; rank 0 must survive to report
                        // Fixed location: on the TCP transport the worker processes
                        // re-execute this binary and must resolve the same directory.
    let dir = std::env::temp_dir().join("srsf_demo_chaos_ckpt");
    let plan = FaultPlan::seeded(29).with_crash(victim as u32, 1);

    let pts = grid.points();
    let b = random_vector::<K::Elem>(grid.n(), 11);

    println!(
        "chaos: N = {}, p = {p} ranks, transport = {transport}",
        grid.n()
    );
    println!("chaos: checkpointing every rank into {}", dir.display());
    println!("chaos: seeded plan crashes rank {victim} at its first solve barrier");
    // The factor sweep is barrier-free, so the build completes (and the
    // snapshots are written) before the injected crash can fire.
    let doomed = Solver::builder(kernel, &pts)
        .opts(
            FactorOpts::default()
                .with_tol(1e-6)
                .with_recv_timeout(std::time::Duration::from_secs(5)),
        )
        .driver(Driver::distributed(p))
        .transport(transport.with_faults(plan))
        .checkpoint_dir(&dir)
        .build()
        .expect("chaos factorization (the crash fires mid-serve, not mid-factor)");

    println!("chaos: solving — rank {victim}'s crash report follows on stderr");
    let t0 = Instant::now();
    match doomed.try_solve(&b) {
        Ok(_) => panic!("the injected crash should have failed this solve"),
        Err(e) => {
            assert!(
                matches!(e, SrsfError::RankFailed { .. }),
                "expected RankFailed, got {e}"
            );
            println!(
                "chaos: typed failure after {:.2?}: SrsfError::RankFailed ({e})",
                t0.elapsed()
            );
        }
    }
    drop(doomed);
    println!("chaos: degraded world dropped; surviving workers reaped");

    let restored =
        Solver::restore_resident(&pts, &dir, Transport::InProc).expect("restore from snapshots");
    println!("restore: resident world rebuilt from the snapshots (no re-factorization)");
    let x = restored.try_solve(&b).expect("restored solve");

    let gathered = Solver::builder(kernel, &pts)
        .tol(1e-6)
        .driver(Driver::distributed(p))
        .build()
        .and_then(|clean| clean.gather())
        .expect("fault-free reference factorization");
    let want = gathered.solve_mat(&Mat::from_vec(b.len(), 1, b.clone()));
    assert_eq!(
        x,
        want.as_slice().to_vec(),
        "restored solve must match the fault-free reference bit for bit"
    );
    println!("restore: re-solve bit-identical to the fault-free gathered reference");
}

/// What the compression did: the per-level skeleton rank table (Fig. 9
/// of the paper) plus the sketched path's counters — how often the
/// a-posteriori check forced a retry or a CPQR fallback, and how many
/// blocks the sketches applied.
fn print_compression(stats: &srsf::prelude::FactorStats) {
    println!("\ncompression (all ranks):");
    println!("{:>7} {:>8} {:>10}", "level", "boxes", "avg rank");
    for (level, avg) in stats.rank_table() {
        let boxes = stats.ranks[&level].0;
        println!("{level:>7} {boxes:>8} {avg:>10.1}");
    }
    let c = &stats.compression;
    println!(
        "sketch retries = {}, CPQR fallbacks = {}, sketch blocks = {}",
        c.sketch_retries, c.sketch_fallbacks, c.dense_block_applies
    );
}

fn main() {
    let args = parse_args();
    let grid = UnitGrid::new(args.side);
    match args.kernel {
        KernelChoice::Laplace => {
            let kernel = LaplaceKernel::new(&grid);
            run(
                &kernel,
                &FastKernelOp::laplace(&kernel, &grid),
                &grid,
                &args,
            );
        }
        KernelChoice::Helmholtz => {
            let kernel = HelmholtzKernel::new(&grid, args.kappa);
            println!("kernel = helmholtz, kappa = {}", args.kappa);
            run(
                &kernel,
                &FastKernelOp::helmholtz(&kernel, &grid),
                &grid,
                &args,
            );
        }
    }
}

/// The demo over one kernel; `fast` is the FFT-accelerated matvec the
/// residuals are measured with. Factor once on a persistent rank world,
/// report the factorization's per-rank communication against the §IV
/// bound and what every rank keeps, serve `reps` solves in place with
/// their per-solve communication, and check the served results against
/// the gathered factorization bit for bit.
fn run<K: Kernel>(kernel: &K, fast: &FastKernelOp<K::Elem>, grid: &UnitGrid, args: &Args) {
    let (p, transport, reps) = (args.p, args.transport, args.solve_reps);
    let (trace_out, metrics) = (args.trace_out.as_deref(), args.metrics);
    if args.chaos {
        return run_chaos(kernel, grid, p, transport);
    }
    let pts = grid.points();
    let b = random_vector::<K::Elem>(grid.n(), 11);

    let t0 = Instant::now();
    // On the TCP transport this call spawns `p - 1` worker processes that
    // re-execute this binary up to this same call and then stay alive —
    // parked in their serve loops — until the solver is shut down;
    // everything below runs in the launching process only.
    let f = Solver::builder(kernel, &pts)
        .tol(1e-6)
        .driver(Driver::distributed(p))
        .transport(transport)
        .trace(trace_out.is_some())
        .build()
        .expect("distributed factorization");
    let t_factor = t0.elapsed().as_secs_f64();
    let stats = f
        .comm_stats()
        .expect("distributed driver records comm stats");

    println!(
        "resident service: N = {}, p = {p} ranks, transport = {transport} ({})",
        grid.n(),
        match transport.base() {
            BaseTransport::InProc => "ranks as threads of this process",
            BaseTransport::Tcp => "every rank a real OS process on localhost",
        }
    );
    println!("\nper-rank communication of the factorization:");
    println!(
        "{:>5} {:>10} {:>12} {:>12}",
        "rank", "messages", "words", "compute[s]"
    );
    for (r, s) in stats.per_rank.iter().enumerate() {
        println!(
            "{:>5} {:>10} {:>12} {:>12.3}",
            r, s.msgs_sent, s.words_sent, s.compute_s
        );
    }
    let sqrt_np = (grid.n() as f64 / p as f64).sqrt();
    println!("\npaper bound (Eq. 13): words = O(sqrt(N/p) + log p) = O({sqrt_np:.0})");
    println!(
        "measured max words = {} ({:.1} x sqrt(N/p))",
        stats.max_words(),
        stats.max_words() as f64 / sqrt_np
    );
    let words: Vec<u64> = stats.per_rank.iter().map(|s| s.words_sent).collect();
    println!(
        "factor-phase words per rank = {words:?}, total {} ({})",
        stats.total_words(),
        if kernel.is_symmetric() {
            "symmetric kernel: one block per box pair in every halo update, fold and top gather"
        } else {
            "general kernel: both directions of every box pair"
        }
    );
    println!(
        "modeled critical path: intra-node {:.3}s, inter-node {:.3}s",
        stats.critical_path_s(&NetworkModel::intra_node()),
        stats.critical_path_s(&NetworkModel::inter_node())
    );

    let records = f.records_per_rank().expect("resident record probe");
    println!("\nper-rank residency (records never leave their ranks):");
    println!("{:>5} {:>10} {:>14}", "rank", "records", "factor bytes");
    let bytes = f.memory_bytes_per_rank().expect("per-rank bytes");
    for (r, (n, bb)) in records.iter().zip(bytes.iter()).enumerate() {
        println!("{r:>5} {n:>10} {bb:>14}");
    }
    let (heaviest, lightest) = (
        *bytes.iter().max().expect("ranks"),
        *bytes.iter().min().expect("ranks"),
    );
    println!(
        "factor bytes max/min over ranks = {:.3} ({heaviest} / {lightest})",
        heaviest as f64 / lightest as f64
    );
    println!(
        "rank 0 holds {} of {} records (top block {}: its block columns are \
         dealt out over the ranks active at the top level)",
        records[0],
        f.n_records(),
        f.top_size()
    );

    // Amortized serving: k solves against the one resident factorization,
    // with exact per-solve counters from bracketing probes.
    let before = f.resident_comm_probe().expect("probe");
    let t1 = Instant::now();
    let mut x = Vec::new();
    for _ in 0..reps {
        x = f.solve(&b);
    }
    let t_solves = t1.elapsed().as_secs_f64();
    let after = f.resident_comm_probe().expect("probe");

    println!(
        "\n{reps} resident solves in {:.3}s ({:.3}s each) after a {:.3}s factorization",
        t_solves,
        t_solves / reps as f64,
        t_factor
    );
    println!("relres = {:.3e}", relative_residual(fast, &x, &b));
    let per_solve = |pick: fn(&srsf::runtime::CommStats) -> u64| -> Vec<u64> {
        (0..p)
            .map(|r| (pick(&after.per_rank[r]) - pick(&before.per_rank[r])) / reps as u64)
            .collect()
    };
    let (msgs, words) = (per_solve(|s| s.msgs_sent), per_solve(|s| s.words_sent));
    let max_words = words.iter().copied().max().unwrap_or(0);
    println!(
        "per-solve communication: max msgs = {}, max words = {max_words} \
         ({:.1} x sqrt(N/p) = {:.0})",
        msgs.iter().copied().max().unwrap_or(0),
        max_words as f64 / sqrt_np,
        sqrt_np
    );
    // The top solve's panel hops along the owners of the top's block
    // columns and back: a sending owner's share of these is one or two
    // messages of up to `top` words per right-hand side.
    println!("per-solve msgs per rank = {msgs:?}, words per rank = {words:?}");

    // The served results are the gathered factorization's blocked sweep,
    // bit for bit — residency changes where records live, not the answer.
    let gathered = f.gather().expect("gather the factorization onto rank 0");
    let want = gathered.solve_mat(&Mat::from_vec(b.len(), 1, b.clone()));
    assert_eq!(
        x,
        want.as_slice().to_vec(),
        "resident solve must match the gathered blocked sweep bit for bit"
    );
    println!("\nresident vs gather(): solutions bit-identical across {reps} served solves");

    if metrics {
        let snap = f.metrics().expect("resident driver exposes metrics");
        println!("\nserve metrics:\n{}", snap.render());
        print_compression(f.stats());
    }
    if let Some(path) = trace_out {
        // Drains every rank's ring buffer over the serve protocol; the
        // report covers the factorization and all solves since startup.
        let reports = f.trace_reports();
        std::fs::write(path, srsf::trace::export::chrome_trace_json(&reports))
            .expect("write trace file");
        println!("\n{}", srsf::trace::export::profile_table(&reports));
        println!(
            "trace: wrote Chrome/Perfetto JSON for {} ranks to {path}",
            reports.len()
        );
        // The top chain by its spans: the hops are the sends under
        // KIND_SOLVE_UP in the top level's bookkeeping phases; the one-off
        // scatter of the block columns is what rank 0 sends under
        // KIND_TOP (in the top gather it only receives).
        let sends = |kind: &str, from: std::ops::Range<usize>| -> (usize, u64) {
            let hits = reports
                .iter()
                .filter(|rep| from.contains(&(rep.rank as usize)))
                .flat_map(|rep| &rep.spans)
                .filter(|s| {
                    s.name.starts_with("send ")
                        && s.name.contains("transition/gather")
                        && s.name.ends_with(kind)
                });
            hits.fold((0, 0), |(n, b), s| (n + 1, b + s.bytes))
        };
        let (hops, hop_bytes) = sends("kind SOLVE_UP", 0..p);
        let (scatter_msgs, scatter_bytes) = sends("kind TOP", 0..1);
        println!(
            "top chain: {:.1} messages and {} words per solve over all ranks; \
             one-off scatter of the top's block columns from rank 0: \
             {scatter_msgs} messages, {} words",
            hops as f64 / reps as f64,
            hop_bytes / 8 / reps as u64,
            scatter_bytes / 8
        );
    }

    // On the TCP backend, re-run in-process and check the §IV counters
    // are a property of the algorithm, not of the fabric carrying it.
    if transport.base() == BaseTransport::Tcp {
        let f_in = Solver::builder(kernel, &pts)
            .tol(1e-6)
            .driver(Driver::distributed(p))
            .build()
            .expect("inproc comparison factorization");
        assert_eq!(
            x,
            f_in.solve(&b),
            "solutions must be bit-identical across backends"
        );
        let in_stats = f_in.comm_stats().expect("inproc comm stats");
        for (r, (a, c)) in stats
            .per_rank
            .iter()
            .zip(in_stats.per_rank.iter())
            .enumerate()
        {
            assert_eq!(
                (a.msgs_sent, a.words_sent),
                (c.msgs_sent, c.words_sent),
                "rank {r} counters differ across backends"
            );
        }
        println!(
            "\nbackend equivalence: tcp vs inproc solutions bit-identical, \
             per-rank message/word counters identical across {p} ranks"
        );
    }

    let final_stats = f.shutdown().expect("resident shutdown");
    assert_eq!(final_stats.per_rank.len(), p);
    println!("resident shutdown: clean (no live workers)");
}
