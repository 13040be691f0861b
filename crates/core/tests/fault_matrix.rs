//! The fault matrix: deterministic fault injection against the resident
//! serving stack.
//!
//! Two claims are asserted, matching the transport contract:
//!
//! * **Recoverable faults are invisible.** Seeded delay / drop-with-
//!   redelivery / duplication plans reorder and repeat frame deliveries
//!   but never lose one, and the matching-queue sequence dedup restores
//!   the exact logical stream — so the factorization, every solve, *and
//!   the per-rank communication counters* are bit-identical to the
//!   fault-free run, on both transports.
//! * **Unrecoverable faults are typed, bounded, and clean.** A rank
//!   crash or a permanent link cut surfaces as
//!   `SrsfError::RankFailed{rank, step}` within the configured receive
//!   timeout — never a hang, never an abort — the degraded service fails
//!   later calls fast with the same error, and shutdown/Drop still reap
//!   every surviving worker.
//!
//! Plus the recovery story: a resident build that persisted per-rank
//! snapshots (`checkpoint_dir`) is rebuilt by `Solver::restore_resident`
//! and serves bit-identical solutions — including after a crash killed
//! the original world.

use srsf_core::{Driver, FactorOpts, Solver, SrsfError};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{Mat, Scalar};
use srsf_runtime::{set_tcp_child_args, FaultPlan, Transport};
use std::time::{Duration, Instant};

fn opts() -> FactorOpts {
    FactorOpts::default()
        .with_tol(1e-8)
        .with_leaf_size(16)
        .with_recv_timeout(Duration::from_secs(5))
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

fn resident(
    kernel: &LaplaceKernel,
    pts: &[srsf_geometry::point::Point],
    p: usize,
    transport: Transport,
) -> Solver<f64> {
    Solver::builder(kernel, pts)
        .opts(opts())
        .driver(Driver::distributed(p))
        .transport(transport)
        .build()
        .expect("resident build")
}

/// The recoverable plans: each perturbs delivery timing/multiplicity but
/// loses nothing, so each must be bit-invisible end to end.
fn recoverable_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("delay", FaultPlan::seeded(7).with_max_delay_us(200)),
        (
            "drop+redeliver",
            FaultPlan::seeded(11)
                .with_drop_permille(120)
                .with_max_delay_us(50),
        ),
        ("duplicate", FaultPlan::seeded(13).with_dup_permille(150)),
        (
            "all-of-the-above",
            FaultPlan::seeded(17)
                .with_max_delay_us(100)
                .with_drop_permille(60)
                .with_dup_permille(60),
        ),
    ]
}

/// Recoverable plans x p in {1, 4} on the in-process backend: solutions
/// and per-rank counters (factorization and per-solve) bit-identical to
/// the fault-free world.
#[test]
fn recoverable_faults_are_bit_invisible_inproc() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for p in [1usize, 4] {
        let clean = resident(&kernel, &pts, p, Transport::InProc);
        let b = random_mat::<f64>(pts.len(), 5, 400 + p as u64);
        let want = clean.solve_mat(&b);
        let clean_factor = clean.comm_stats().expect("comm").clone();
        let pre = clean.resident_comm_probe().expect("probe");
        let _ = clean.solve_mat(&b);
        let post = clean.resident_comm_probe().expect("probe");

        for (name, plan) in recoverable_plans() {
            let faulty = resident(&kernel, &pts, p, Transport::InProc.with_faults(plan));
            let fc = faulty.comm_stats().expect("comm").clone();
            for rank in 0..p {
                assert_eq!(
                    (fc.per_rank[rank].msgs_sent, fc.per_rank[rank].words_sent),
                    (
                        clean_factor.per_rank[rank].msgs_sent,
                        clean_factor.per_rank[rank].words_sent
                    ),
                    "p={p} plan={name}: rank {rank} factorization counters drifted"
                );
            }
            let got = faulty.solve_mat(&b);
            assert_mat_bits(&got, &want, &format!("p={p} plan={name} solve 1"));
            let fpre = faulty.resident_comm_probe().expect("probe");
            let got2 = faulty.solve_mat(&b);
            let fpost = faulty.resident_comm_probe().expect("probe");
            assert_mat_bits(&got2, &want, &format!("p={p} plan={name} solve 2"));
            for rank in 0..p {
                assert_eq!(
                    (
                        fpost.per_rank[rank].msgs_sent - fpre.per_rank[rank].msgs_sent,
                        fpost.per_rank[rank].words_sent - fpre.per_rank[rank].words_sent
                    ),
                    (
                        post.per_rank[rank].msgs_sent - pre.per_rank[rank].msgs_sent,
                        post.per_rank[rank].words_sent - pre.per_rank[rank].words_sent
                    ),
                    "p={p} plan={name}: rank {rank} per-solve counters drifted"
                );
            }
        }
    }
}

/// The combined recoverable plan over real OS processes: same bits as
/// the fault-free in-process world.
#[test]
fn recoverable_faults_are_bit_invisible_tcp_p4() {
    set_tcp_child_args(Some(vec![
        "recoverable_faults_are_bit_invisible_tcp_p4".into(),
        "--exact".into(),
    ]));
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let plan = FaultPlan::seeded(23)
        .with_max_delay_us(100)
        .with_drop_permille(60)
        .with_dup_permille(60);
    // TCP first: spawned workers must exit inside this session.
    let faulty = resident(&kernel, &pts, 4, Transport::Tcp.with_faults(plan));
    let b = random_mat::<f64>(pts.len(), 4, 900);
    let got = faulty.solve_mat(&b);
    let fc = faulty.comm_stats().expect("comm").clone();
    faulty.shutdown().expect("tcp shutdown");

    let clean = resident(&kernel, &pts, 4, Transport::InProc);
    let want = clean.solve_mat(&b);
    assert_mat_bits(&got, &want, "tcp faulty vs inproc clean");
    let cc = clean.comm_stats().expect("comm");
    for rank in 0..4 {
        assert_eq!(
            (fc.per_rank[rank].msgs_sent, fc.per_rank[rank].words_sent),
            (cc.per_rank[rank].msgs_sent, cc.per_rank[rank].words_sent),
            "rank {rank} factorization counters drifted under faults"
        );
    }
}

/// A worker crash mid-solve surfaces as a typed `RankFailed` naming the
/// dead rank, within the receive timeout; the poisoned service fails
/// later solves fast with the same error; Drop reaps the survivors; and
/// a fresh world builds cleanly afterwards.
#[test]
fn crash_mid_solve_is_typed_bounded_and_droppable_inproc() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    // The resident factor phase is barrier-free, so a crash at barrier 1
    // fires during the *first solve's* first level barrier: the build
    // succeeds, the serve degrades.
    let plan = FaultPlan::seeded(3).with_crash(2, 1);
    let solver = resident(&kernel, &pts, 4, Transport::InProc.with_faults(plan));
    let b = random_vector::<f64>(pts.len(), 5);

    let t0 = Instant::now();
    let err = solver
        .try_solve(&b)
        .expect_err("a crashed rank must fail the solve");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "failure detection took {:?} — not bounded",
        t0.elapsed()
    );
    match &err {
        SrsfError::RankFailed { rank, step } => {
            assert_eq!(*rank, 2, "wrong rank blamed: {err}");
            assert!(!step.is_empty(), "step must name where it died");
        }
        other => panic!("expected RankFailed, got {other}"),
    }

    // Poisoned: the same typed error, immediately — no second timeout.
    let t1 = Instant::now();
    let err2 = solver.try_solve(&b).expect_err("poisoned service");
    assert_eq!(err2, err, "poisoned service must repeat the failure");
    assert_eq!(
        solver.gather().map(|_| ()),
        Err(err.clone()),
        "a poisoned service cannot gather"
    );
    assert!(
        t1.elapsed() < Duration::from_secs(1),
        "fail-fast took {:?}",
        t1.elapsed()
    );

    // Degraded-but-droppable: no hang, no panic, and the slate is clean.
    drop(solver);
    let again = resident(&kernel, &pts, 4, Transport::InProc);
    let _ = again.solve(&b);
}

/// `build_with_solution` is a build and then one served solve, so it owes
/// the service's failure contract: the factor phase is barrier-free, the
/// crash at barrier 1 fires at the solve's first level barrier, and the
/// call returns the typed error within the receive timeout — no hang, no
/// stray panic.
#[test]
fn crash_in_the_build_time_solve_fails_build_with_solution_typed() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(pts.len(), 5);
    let plan = FaultPlan::seeded(3).with_crash(2, 1);
    let t0 = Instant::now();
    let Err(err) = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .transport(Transport::InProc.with_faults(plan))
        .build_with_solution(&b)
    else {
        panic!("a crashed rank must fail the build");
    };
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "failure detection took {:?} — not bounded",
        t0.elapsed()
    );
    assert!(
        matches!(err, SrsfError::RankFailed { rank: 2, .. }),
        "expected RankFailed on rank 2, got {err}"
    );
}

/// The top solve's panel is lost between two middle owners of the chain:
/// the link between ranks 1 and 2 goes down after the (single) upward
/// barrier, so the forward hop 1 -> 2 never arrives. Every rank is then
/// inside a bounded receive or barrier — rank 2 for the hop, rank 3 for
/// its own, rank 1 and rank 0 for the panel's way back — so the solve
/// fails typed, naming the next owner and the chain's step, within the
/// receive timeout; the degraded world drops without a hang.
#[test]
fn lost_hop_in_the_top_chain_is_typed_and_bounded() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let plan = FaultPlan::seeded(37).with_cut(1, 2, 1);
    let solver = resident(&kernel, &pts, 4, Transport::InProc.with_faults(plan));
    let b = random_mat::<f64>(pts.len(), 3, 77);

    let t0 = Instant::now();
    let err = solver.try_solve_mat(&b).expect_err("the panel is lost");
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "failure detection took {:?} — not bounded by the receive timeout",
        t0.elapsed()
    );
    match &err {
        SrsfError::RankFailed { rank, step } => {
            assert_eq!(*rank, 1, "rank 0 waits on the next owner: {err}");
            assert!(step.contains("SOLVE_UP"), "not a chain hop: {step}");
        }
        other => panic!("expected RankFailed, got {other}"),
    }
    assert_eq!(solver.try_solve_mat(&b).expect_err("poisoned"), err);
    let t1 = Instant::now();
    drop(solver);
    assert!(
        t1.elapsed() < Duration::from_secs(20),
        "reaping the survivors took {:?}",
        t1.elapsed()
    );
    // (Had ranks 1 and 2 not been neighbours in the chain, the cut would
    // have hit nothing and the solve succeeded.) The slate is clean:
    let again = resident(&kernel, &pts, 4, Transport::InProc);
    let _ = again.solve_mat(&b);
}

/// A permanently cut link during factorization fails the build with a
/// typed `RankFailed` within the receive timeout instead of hanging.
#[test]
fn cut_link_fails_the_build_typed_and_bounded() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let plan = FaultPlan::seeded(5).with_cut(1, 3, 0);
    let t0 = Instant::now();
    let Err(err) = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .transport(Transport::InProc.with_faults(plan))
        .build()
    else {
        panic!("a cut world cannot factor");
    };
    assert!(
        t0.elapsed() < Duration::from_secs(45),
        "cut detection took {:?} — not bounded by the receive timeout",
        t0.elapsed()
    );
    assert!(
        matches!(err, SrsfError::RankFailed { .. }),
        "expected RankFailed, got {err}"
    );
}

/// Checkpoint round trip on the in-process backend: a restored world
/// serves bit-identical solutions without re-factorizing, and a restore
/// against the wrong point set is rejected up front.
#[test]
fn checkpoint_restore_serves_bit_identical_solutions() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ckpt_roundtrip");
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let original = Solver::builder(&kernel, &pts)
        .opts(opts())
        .driver(Driver::distributed(4))
        .checkpoint_dir(&dir)
        .build()
        .expect("checkpointed build");
    let b = random_mat::<f64>(pts.len(), 6, 777);
    let want = original.solve_mat(&b);
    let records = original
        .records_per_rank()
        .expect("per-rank records")
        .to_vec();
    let bytes = original.memory_bytes_per_rank().expect("bytes").to_vec();
    // The gathered blocked sweep is the bit-reference for resident
    // solves; its one-column case references restored vector solves too.
    let gathered = original.gather().expect("gather");
    original.shutdown().expect("shutdown");
    assert_eq!(
        original.gather().map(|_| ()),
        Err(SrsfError::ServiceShutDown),
        "a shut-down service cannot gather"
    );

    let restored = Solver::restore_resident(&pts, &dir, Transport::InProc).expect("restore");
    assert!(restored.is_resident());
    assert_eq!(
        restored.records_per_rank().expect("per-rank records"),
        &records[..],
        "restored record distribution differs"
    );
    // Every rank's snapshot carried its own block columns of the top.
    assert_eq!(
        restored.memory_bytes_per_rank().expect("bytes"),
        &bytes[..],
        "restored per-rank bytes differ"
    );
    for rep in 0..2 {
        let got = restored.try_solve_mat(&b).expect("restored solve");
        assert_mat_bits(&got, &want, &format!("restored solve rep={rep}"));
    }
    let bv = random_vector::<f64>(pts.len(), 31);
    let want_v = gathered.solve_mat(&Mat::from_vec(bv.len(), 1, bv.clone()));
    let got_v = restored.try_solve(&bv).expect("restored vector solve");
    assert_eq!(
        got_v,
        want_v.as_slice(),
        "restored vector solve differs from gathered sweep"
    );
    restored.shutdown().expect("restored shutdown");

    // The geometry hash pins the exact point set: one perturbed
    // coordinate must be rejected before any world is spun up.
    let mut wrong = pts.clone();
    wrong[0].x += 1e-9;
    let Err(err) = Solver::<f64>::restore_resident(&wrong, &dir, Transport::InProc) else {
        panic!("perturbed geometry must be rejected");
    };
    assert!(
        matches!(err, SrsfError::Checkpoint { .. }),
        "expected Checkpoint error, got {err}"
    );
}

/// [`opts`] with a 60 s receive timeout, for a crash the dying rank
/// announces to its peers (`FaultyTransport::barrier` in srsf-runtime)
/// rather than one a receive timer finds: the timeout lies above the
/// 30 s detection bound the case asserts, so a pass shows that the
/// announcement did the detecting, and a top factorization slowed by a
/// loaded machine cannot outlast the timer and fail the build.
fn announced_crash_opts() -> FactorOpts {
    opts().with_recv_timeout(Duration::from_secs(60))
}

/// The chaos acceptance: a TCP resident world with per-rank checkpoints
/// loses a worker mid-solve — the failure is typed and bounded, the
/// degraded world drops cleanly, and `restore_resident` rebuilds a
/// serving world from the snapshots whose solutions are bit-identical to
/// the fault-free reference.
#[test]
fn tcp_crash_then_restore_from_checkpoint() {
    set_tcp_child_args(Some(vec![
        "tcp_crash_then_restore_from_checkpoint".into(),
        "--exact".into(),
    ]));
    // Deterministic path: TCP workers re-execute this test and must
    // resolve the same checkpoint directory as the parent.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ckpt_tcp_chaos");
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let plan = FaultPlan::seeded(29).with_crash(2, 1);
    let doomed = Solver::builder(&kernel, &pts)
        .opts(announced_crash_opts())
        .driver(Driver::distributed(4))
        .transport(Transport::Tcp.with_faults(plan))
        .checkpoint_dir(&dir)
        .build()
        .expect("factor phase is barrier-free; the crash fires mid-solve");
    let b = random_mat::<f64>(pts.len(), 3, 555);

    let t0 = Instant::now();
    let err = doomed
        .try_solve_mat(&b)
        .expect_err("crashed worker process must fail the solve");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "TCP failure detection took {:?}",
        t0.elapsed()
    );
    assert!(
        matches!(err, SrsfError::RankFailed { .. }),
        "expected RankFailed, got {err}"
    );
    drop(doomed); // reaps the surviving worker processes

    // Recovery: restore from the snapshots the doomed world wrote at
    // factor completion, and match the fault-free reference bit for bit.
    let restored = Solver::restore_resident(&pts, &dir, Transport::InProc).expect("restore");
    let got = restored.try_solve_mat(&b).expect("restored solve");
    let clean = Solver::builder(&kernel, &pts)
        .opts(announced_crash_opts())
        .driver(Driver::distributed(4))
        .build()
        .expect("fault-free build");
    let want = clean.solve_mat(&b);
    assert_mat_bits(&got, &want, "restored-after-crash vs fault-free");
}
