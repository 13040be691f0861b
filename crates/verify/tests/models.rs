//! Model-checked miniatures of the solver's concurrent subsystems.
//!
//! Compiled and run only with `RUSTFLAGS="--cfg srsf_model"`:
//!
//! ```text
//! RUSTFLAGS="--cfg srsf_model" cargo test -p srsf-verify --test models
//! ```
//!
//! Each model rebuilds one concurrency pattern from the runtime/core
//! crates in miniature — same primitives, same protocol, small enough to
//! explore exhaustively — and asserts no deadlock, no lost wakeup, and a
//! schedule-independent result across at least 1000 interleavings. The
//! `detects_*` tests seed real bugs and check the explorer finds them
//! and that a failing schedule replays deterministically.

#![cfg(srsf_model)]

use srsf_verify::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use srsf_verify::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use srsf_verify::{thread, Model};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Run a model expected to fail; return the failure message.
fn expect_failure<T, F>(model: Model, f: F) -> String
where
    T: PartialEq + std::fmt::Debug + Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    match catch_unwind(AssertUnwindSafe(move || model.check(f))) {
        Ok(report) => panic!("model unexpectedly passed ({} schedules)", report.schedules),
        Err(p) => {
            if let Some(s) = p.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = p.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                panic!("non-string model failure payload")
            }
        }
    }
}

/// Extract the `SRSF_MODEL_REPLAY="..."` schedule from a failure message.
fn replay_string(msg: &str) -> String {
    let tail = msg
        .split("SRSF_MODEL_REPLAY=\"")
        .nth(1)
        .unwrap_or_else(|| panic!("no replay string in failure: {msg}"));
    tail.split('"').next().unwrap().to_string()
}

// ---------------------------------------------------------------------------
// Subsystem 1: the transport matching queue (MsgQueue::recv_where).
// Two producer links feed one consumer over an mpsc channel; the consumer
// pulls frames *by tag*, buffering non-matching frames in a pending list,
// and must observe end-of-stream once all senders are gone.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Frame {
    tag: u32,
    val: u64,
}

fn recv_where(rx: &mpsc::Receiver<Frame>, pending: &mut Vec<Frame>, want: u32) -> Option<u64> {
    if let Some(pos) = pending.iter().position(|f| f.tag == want) {
        return Some(pending.remove(pos).val);
    }
    loop {
        match rx.recv() {
            Ok(f) if f.tag == want => return Some(f.val),
            Ok(f) => pending.push(f),
            Err(_) => return None,
        }
    }
}

#[test]
fn matching_queue_delivers_out_of_order_tags() {
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let (tx, rx) = mpsc::channel::<Frame>();
            let tx2 = tx.clone();
            let a = thread::spawn(move || {
                for (tag, val) in [(1, 10), (2, 20), (4, 40)] {
                    tx.send(Frame { tag, val }).unwrap();
                }
            });
            let b = thread::spawn(move || {
                for (tag, val) in [(3, 30), (5, 50)] {
                    tx2.send(Frame { tag, val }).unwrap();
                }
            });
            // Consume in an order that forces pending-list buffering on most
            // schedules (per-link order is FIFO, cross-link order is not).
            let mut pending = Vec::new();
            let got: Vec<Option<u64>> = [3, 1, 5, 2, 4]
                .iter()
                .map(|&want| recv_where(&rx, &mut pending, want))
                .collect();
            a.join().unwrap();
            b.join().unwrap();
            // All senders gone and pending drained: the next match is EOF,
            // exactly how a died link surfaces in MsgQueue.
            let eof = recv_where(&rx, &mut pending, 99);
            (got, eof, pending.len())
        });
    assert_eq!(
        report.schedules >= 1000,
        true,
        "explored {}",
        report.schedules
    );
}

// ---------------------------------------------------------------------------
// Subsystem 2: the TCP transport's generation barrier (TimeoutBarrier).
// Mutex<(arrived, generation)> + Condvar, waited on with wait_timeout in
// production; in the model the timeout never fires, so a lost wakeup
// would be reported as a deadlock instead of being masked by a retry.
// ---------------------------------------------------------------------------

struct GenBarrier {
    n: usize,
    state: Mutex<(usize, u64)>,
    cv: Condvar,
}

impl GenBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 += 1;
        if s.0 == self.n {
            s.0 = 0;
            s.1 += 1;
            self.cv.notify_all();
            return;
        }
        let gen = s.1;
        while s.1 == gen {
            s = self
                .cv
                .wait_timeout(s, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }
}

#[test]
fn generation_barrier_has_no_lost_wakeup() {
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let b = Arc::new(GenBarrier::new(3));
            let rounds = Arc::new(AtomicUsize::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (b, rounds) = (b.clone(), rounds.clone());
                    thread::spawn(move || {
                        for _ in 0..2 {
                            b.wait();
                            rounds.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                b.wait();
                rounds.fetch_add(1, Ordering::SeqCst);
            }
            for w in workers {
                w.join().unwrap();
            }
            rounds.load(Ordering::SeqCst) // 3 threads x 2 rounds on every schedule
        });
    assert!(report.schedules >= 1000, "explored {}", report.schedules);
}

// ---------------------------------------------------------------------------
// Subsystem 3: the resident world's shutdown handshake. A serve worker
// polls its command stream and an `alive` liveness flag (the model's
// analogue of recv_service_idle); the master retires it either by a
// shutdown command or by clearing the flag and dropping the channel —
// both paths must terminate with all prior work observed.
// ---------------------------------------------------------------------------

enum Cmd {
    Work(u64),
    Shutdown,
}

fn serve_poll_loop(rx: &mpsc::Receiver<Cmd>, alive: &AtomicBool) -> u64 {
    let mut acc = 0;
    loop {
        match rx.try_recv() {
            Ok(Cmd::Work(x)) => acc += x,
            Ok(Cmd::Shutdown) => break,
            Err(mpsc::TryRecvError::Disconnected) => break,
            Err(mpsc::TryRecvError::Empty) => {
                if !alive.load(Ordering::Acquire) {
                    // The flag promises no *new* work, but a command may
                    // have landed between the try_recv above and this
                    // check — drain before retiring. (Breaking here
                    // without the drain loses that command on some
                    // schedules; see detects_poll_loop_toctou.)
                    while let Ok(Cmd::Work(x)) = rx.try_recv() {
                        acc += x;
                    }
                    break;
                }
                thread::yield_now();
            }
        }
    }
    acc
}

/// The naive retire path: break as soon as the flag is observed clear.
/// Loses a command that arrived between the failed `try_recv` and the
/// flag check — the model checker catches this as a schedule-dependent
/// result.
fn serve_poll_loop_toctou(rx: &mpsc::Receiver<Cmd>, alive: &AtomicBool) -> u64 {
    let mut acc = 0;
    loop {
        match rx.try_recv() {
            Ok(Cmd::Work(x)) => acc += x,
            Ok(Cmd::Shutdown) => break,
            Err(mpsc::TryRecvError::Disconnected) => break,
            Err(mpsc::TryRecvError::Empty) => {
                if !alive.load(Ordering::Acquire) {
                    break;
                }
                thread::yield_now();
            }
        }
    }
    acc
}

#[test]
fn shutdown_by_command_drains_all_work() {
    // Two serve workers (the resident world runs one per rank), retired
    // by an explicit shutdown command after their work, as
    // shutdown_session does.
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let alive = Arc::new(AtomicBool::new(true));
            let mut txs = Vec::new();
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (tx, rx) = mpsc::channel();
                    txs.push(tx);
                    let alive = alive.clone();
                    thread::spawn(move || serve_poll_loop(&rx, &alive))
                })
                .collect();
            for (i, tx) in txs.iter().enumerate() {
                tx.send(Cmd::Work(5 + i as u64)).unwrap();
                tx.send(Cmd::Work(7)).unwrap();
            }
            for tx in &txs {
                tx.send(Cmd::Shutdown).unwrap();
            }
            // Commands precede shutdown in-stream: never a lost solve.
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .collect::<Vec<_>>() // always [12, 13]
        });
    assert!(report.schedules >= 1000, "explored {}", report.schedules);
}

#[test]
fn shutdown_by_liveness_flag_terminates() {
    // Same two workers, retired the WorldHandle::finish() way: clear the
    // shared liveness flag, then drop the command channels.
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let alive = Arc::new(AtomicBool::new(true));
            let mut txs = Vec::new();
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (tx, rx) = mpsc::channel();
                    txs.push(tx);
                    let alive = alive.clone();
                    thread::spawn(move || serve_poll_loop(&rx, &alive))
                })
                .collect();
            for (i, tx) in txs.iter().enumerate() {
                tx.send(Cmd::Work(5 + i as u64)).unwrap();
                tx.send(Cmd::Work(7)).unwrap();
            }
            alive.store(false, Ordering::Release);
            drop(txs);
            // The in-flight commands are never lost: the poll loop drains
            // the stream before honoring the cleared flag.
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .collect::<Vec<_>>() // always [12, 13]
        });
    assert!(report.schedules >= 1000, "explored {}", report.schedules);
}

// ---------------------------------------------------------------------------
// Subsystem 4: the work-stealing chunk claim of the colored elimination
// pool — an AtomicUsize cursor hands out box indices, each exactly once,
// and results land in per-box OnceLock slots merged in index order.
// ---------------------------------------------------------------------------

#[test]
fn work_stealing_claims_each_chunk_once() {
    const CHUNKS: usize = 5;
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let next = Arc::new(AtomicUsize::new(0));
            let slots: Arc<Vec<OnceLock<usize>>> =
                Arc::new((0..CHUNKS).map(|_| OnceLock::new()).collect());
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (next, slots) = (next.clone(), slots.clone());
                    thread::spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= CHUNKS {
                            break;
                        }
                        // The "result" depends only on the chunk, never on
                        // the claiming worker; a double claim panics here.
                        slots[i].set(i * i).expect("chunk claimed twice");
                    })
                })
                .collect();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= CHUNKS {
                    break;
                }
                slots[i].set(i * i).expect("chunk claimed twice");
            }
            for w in workers {
                w.join().unwrap();
            }
            // Deterministic row-major merge, as eliminate_wave does.
            slots
                .iter()
                .map(|s| *s.get().expect("chunk lost"))
                .collect::<Vec<_>>()
        });
    assert!(report.schedules >= 1000, "explored {}", report.schedules);
}

// ---------------------------------------------------------------------------
// Subsystem 5: the per-neighbor eager-send completion counter of a
// distributed rank's level-loop hooks. A rank's phase boxes eliminate in wave
// sub-rounds: each round is filled by the work-stealing pool (a round of
// one box runs on the calling thread, as `eliminate_wave` does),
// then merged in fixed box order; a neighbor's update frame is posted the
// moment the last box that neighbor tracks retires from the merge —
// exactly once, never before, and carrying post-merge values only. The
// counter spans the whole phase, not one round.
// ---------------------------------------------------------------------------

/// The phase's boxes, cut into its sub-rounds in elimination order.
const ROUNDS: [&[usize]; 3] = [&[0, 1], &[2], &[3, 4]];
/// Boxes the modeled neighbor tracks (its halo), spread over the first
/// and last rounds while the middle one tracks none; the frame must list
/// exactly these, with their post-merge values, in merge order.
const TRACKED: [usize; 2] = [1, 4];

/// One round's pool fill: a worker and the calling thread claim boxes
/// off a shared counter, each publishing through its slot.
fn fill_round(boxes: &'static [usize]) -> Vec<u64> {
    let slots: Arc<Vec<OnceLock<u64>>> =
        Arc::new((0..boxes.len()).map(|_| OnceLock::new()).collect());
    let claim = move |slots: &[OnceLock<u64>], i: usize| {
        slots[i]
            .set(boxes[i] as u64 * 10 + 1)
            .expect("box claimed twice");
    };
    if boxes.len() > 1 {
        let next = Arc::new(AtomicUsize::new(0));
        let w = {
            let (slots, next) = (slots.clone(), next.clone());
            thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= boxes.len() {
                    break;
                }
                claim(&slots, i);
            })
        };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= boxes.len() {
                break;
            }
            claim(&slots, i);
        }
        w.join().unwrap();
    } else {
        (0..boxes.len()).for_each(|i| claim(&slots, i));
    }
    slots.iter().map(|s| *s.get().expect("box lost")).collect()
}

/// One phase of the eager-send protocol: per sub-round, pool fill then
/// deterministic merge with the completion-counter send, while the
/// neighbor receives concurrently. `shorted_counter` seeds the bug the
/// detects test looks for: a counter that undercounts the halo by one,
/// posting the frame before the last tracked box retires.
fn eager_send_round(shorted_counter: bool) -> (Vec<u64>, Vec<(usize, u64)>) {
    // The tracking neighbor, receiving concurrently with the merge.
    let (tx, rx) = mpsc::channel::<Vec<(usize, u64)>>();
    let neighbor = thread::spawn(move || rx.recv().expect("neighbor got no frame"));

    // The counter is seeded once per phase, over every round's boxes.
    let mut remaining = if shorted_counter {
        TRACKED.len() - 1
    } else {
        TRACKED.len()
    };
    let mut frame: Vec<(usize, u64)> = Vec::new();
    let mut merged: Vec<u64> = Vec::new();
    let mut sends = 0usize;
    for boxes in ROUNDS {
        let filled = fill_round(boxes);
        for (&i, raw) in boxes.iter().zip(filled) {
            // "apply_output": the merged value differs from the raw slot,
            // so a frame built from unretired boxes is distinguishable.
            let v = raw * 2;
            merged.push(v);
            if TRACKED.contains(&i) {
                frame.push((i, v));
                remaining = remaining.wrapping_sub(1);
                if remaining == 0 {
                    sends += 1;
                    tx.send(frame.clone()).unwrap();
                }
            }
        }
    }
    assert_eq!(sends, 1, "eager send posted {sends} times, want exactly 1");
    let got = neighbor.join().unwrap();
    assert_eq!(
        got.len(),
        TRACKED.len(),
        "eager frame incomplete: posted before the last halo box retired"
    );
    for (i, v) in &got {
        assert_eq!(*v, merged[*i], "frame carries a pre-merge value");
    }
    (merged, got)
}

#[test]
fn eager_send_posts_once_after_last_halo_box() {
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| eager_send_round(false));
    // The fill/merge/recv space of three rounds (two pooled) is small
    // enough to enumerate outright (1409 schedules) — stronger than any
    // schedule-count floor.
    assert!(
        report.exhausted && report.schedules >= 1000,
        "explored {} (exhausted: {})",
        report.schedules,
        report.exhausted
    );
}

// ---------------------------------------------------------------------------
// Subsystem 6: barrier-free round transition. With the inter-round
// barrier gone from the factorization sweep, ordering rests on two
// invariants: every rank posts a frame to every neighbor every round
// (empty frames included), and tags are unique per round so the matching
// queue pairs racing frames with the right receives. A rank that blasts
// through several rounds of sends before its peer wakes must neither
// deadlock nor cross frames.
// ---------------------------------------------------------------------------

#[test]
fn barrier_free_rounds_need_no_rendezvous() {
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let (tx_to_a, rx_a) = mpsc::channel::<Frame>();
            let (tx_to_b, rx_b) = mpsc::channel::<Frame>();
            let b = thread::spawn(move || {
                // B eliminates and exchanges round by round (the common
                // path: send own update, then receive the peer's).
                let mut pending = Vec::new();
                let mut got = Vec::new();
                for round in 0..3u32 {
                    tx_to_a
                        .send(Frame {
                            tag: round,
                            val: 200 + round as u64,
                        })
                        .unwrap();
                    got.push(recv_where(&rx_b, &mut pending, round).expect("frame from A"));
                }
                got
            });
            // A has nothing to eliminate this level: it posts every
            // round's (empty) frame immediately and races through the
            // removed barrier into its receives — B's matching queue
            // buffers whatever arrives ahead of the round it is in.
            for round in 0..3u32 {
                tx_to_b
                    .send(Frame {
                        tag: round,
                        val: 100 + round as u64,
                    })
                    .unwrap();
            }
            let mut pending = Vec::new();
            let got_a: Vec<u64> = (0..3u32)
                .map(|round| recv_where(&rx_a, &mut pending, round).expect("frame from B"))
                .collect();
            (got_a, b.join().unwrap()) // ([200, 201, 202], [100, 101, 102])
        });
    // Two ranks x three rounds enumerates completely under the bound.
    assert!(
        report.exhausted && report.schedules >= 100,
        "explored {} (exhausted: {})",
        report.schedules,
        report.exhausted
    );
}

// ---------------------------------------------------------------------------
// Subsystem 7: a rank leaving. An in-process rank announces its exit to
// every peer whenever its closure ends (world.rs `run_rank`): the
// fault-injected transport's crash path announces before the rank
// panics, and a rank that returns first flushes the frames a fault plan
// withheld, then announces. The matching queue records the exit and
// fails any wait on the gone rank instead of blocking — but frames that
// arrived *before* the exit stay deliverable. Every live rank must
// observe a death (typed, not by luck), the degraded world must still
// complete a live-ranks-only regroup round, and a rank that returns
// neither loses a frame it sent nor fails a peer still waking from the
// last barrier they shared.
// ---------------------------------------------------------------------------

/// Control tag of a death announcement (the model's TAG_DEATH).
const DEATH: u32 = u32::MAX;

#[derive(Debug)]
struct DFrame {
    src: usize,
    tag: u32,
    val: u64,
}

/// The matching queue under failure: pending frames first (pre-death
/// deliveries stay deliverable), then the dead set, then blocking recv.
/// A death announcement from any rank is recorded the moment it is seen,
/// even while waiting on a different peer.
fn recv_from(
    rx: &mpsc::Receiver<DFrame>,
    pending: &mut Vec<DFrame>,
    dead: &mut Vec<usize>,
    src: usize,
    tag: u32,
) -> Option<u64> {
    if let Some(pos) = pending.iter().position(|f| f.src == src && f.tag == tag) {
        return Some(pending.remove(pos).val);
    }
    if dead.contains(&src) {
        return None;
    }
    loop {
        match rx.recv() {
            Ok(f) if f.tag == DEATH => {
                dead.push(f.src);
                if f.src == src {
                    return None;
                }
            }
            Ok(f) if f.src == src && f.tag == tag => return Some(f.val),
            Ok(f) => pending.push(f),
            Err(_) => return None,
        }
    }
}

/// A surviving rank: full round-0 exchange, a round-1 exchange in which
/// the dying peer fails typed (best-effort send, `None` receive), then a
/// live-ranks-only regroup round — the degraded world still makes
/// progress.
fn live_rank(
    me: usize,
    rx: &mpsc::Receiver<DFrame>,
    peers: &[(usize, mpsc::Sender<DFrame>)],
    other_live: usize,
    dying: usize,
) -> (Vec<u64>, Option<u64>, Option<u64>, u64) {
    let mut pending = Vec::new();
    let mut dead = Vec::new();
    for (_, tx) in peers {
        tx.send(DFrame {
            src: me,
            tag: 0,
            val: me as u64 * 100,
        })
        .unwrap();
    }
    let mut r0 = Vec::new();
    for (p, _) in peers {
        r0.push(recv_from(rx, &mut pending, &mut dead, *p, 0).expect("round-0 frame"));
    }
    // Round 1: the peer dies mid-phase. Sends to it are best-effort
    // (the production transports drop frames to a gone link), and the
    // receive surfaces the death as None instead of blocking.
    for (_, tx) in peers {
        let _ = tx.send(DFrame {
            src: me,
            tag: 1,
            val: me as u64 * 100 + 1,
        });
    }
    let from_live = recv_from(rx, &mut pending, &mut dead, other_live, 1);
    let from_dead = recv_from(rx, &mut pending, &mut dead, dying, 1);
    // Round 2: regroup among the survivors only.
    let live_tx = &peers.iter().find(|(p, _)| *p == other_live).unwrap().1;
    live_tx
        .send(DFrame {
            src: me,
            tag: 2,
            val: me as u64 * 100 + 2,
        })
        .unwrap();
    let regroup = recv_from(rx, &mut pending, &mut dead, other_live, 2).expect("regroup frame");
    assert!(
        dead.contains(&dying),
        "rank {me} never observed the death of rank {dying}"
    );
    (r0, from_live, from_dead, regroup)
}

/// The dying rank: participates fully in round 0, then crashes mid-phase
/// — announcing its death to every peer first, exactly as the faulty
/// transport's crash hook does before panicking the rank thread. The
/// seeded-bug variant swallows the announcement to one peer.
fn dying_rank(
    me: usize,
    rx: &mpsc::Receiver<DFrame>,
    peers: &[(usize, mpsc::Sender<DFrame>)],
    skip_announce: Option<usize>,
) {
    let mut pending = Vec::new();
    let mut dead = Vec::new();
    for (_, tx) in peers {
        tx.send(DFrame {
            src: me,
            tag: 0,
            val: me as u64 * 100,
        })
        .unwrap();
    }
    for (p, _) in peers {
        recv_from(rx, &mut pending, &mut dead, *p, 0).expect("round-0 frame");
    }
    for (p, tx) in peers {
        if Some(*p) == skip_announce {
            continue; // BUG: this peer never learns of the death
        }
        let _ = tx.send(DFrame {
            src: me,
            tag: DEATH,
            val: 0,
        });
    }
}

/// Three ranks, rank 2 dies between rounds 0 and 1; `skip_announce`
/// seeds the swallowed-notification bug.
fn death_mid_phase_round(
    skip_announce: Option<usize>,
) -> (
    (Vec<u64>, Option<u64>, Option<u64>, u64),
    (Vec<u64>, Option<u64>, Option<u64>, u64),
) {
    let (tx0, rx0) = mpsc::channel::<DFrame>();
    let (tx1, rx1) = mpsc::channel::<DFrame>();
    let (tx2, rx2) = mpsc::channel::<DFrame>();
    let t1 = {
        let peers = vec![(0usize, tx0.clone()), (2usize, tx2.clone())];
        thread::spawn(move || live_rank(1, &rx1, &peers, 0, 2))
    };
    let t2 = {
        let peers = vec![(0usize, tx0), (1usize, tx1.clone())];
        thread::spawn(move || dying_rank(2, &rx2, &peers, skip_announce))
    };
    let peers = vec![(1usize, tx1), (2usize, tx2)];
    let r0 = live_rank(0, &rx0, &peers, 1, 2);
    let r1 = t1.join().unwrap();
    t2.join().unwrap();
    (r0, r1)
}

#[test]
fn rank_death_mid_phase_is_observed_by_all_live_ranks() {
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let (r0, r1) = death_mid_phase_round(None);
            // Typed observation on every schedule: the dead peer's round-1
            // frame is a clean None, the live exchange and the regroup
            // complete, and round-0 frames delivered before the death were
            // never discarded.
            assert_eq!(r0, (vec![100, 200], Some(101), None, 102));
            assert_eq!(r1, (vec![0, 200], Some(1), None, 2));
            (r0, r1)
        });
    assert!(report.schedules >= 1000, "explored {}", report.schedules);
}

/// The in-process barrier a rank's exit breaks (the runtime's
/// `TimeoutBarrier`; the model's timeout never fires). A waiter checks
/// its generation before the exit, so a rank that leaves right after the
/// last barrier cannot fail a peer that is still waking from it.
struct ExitBarrier {
    n: usize,
    /// `(arrived, generation, first rank gone)`.
    state: Mutex<(usize, u64, Option<usize>)>,
    cv: Condvar,
}

impl ExitBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::new((0, 0, None)),
            cv: Condvar::new(),
        }
    }

    /// `Err(rank)` when `rank` left before the barrier could complete.
    fn wait(&self) -> Result<(), usize> {
        let mut s = self.state.lock().unwrap();
        if let Some(gone) = s.2 {
            return Err(gone);
        }
        let gen = s.1;
        s.0 += 1;
        if s.0 == self.n {
            s.0 = 0;
            s.1 += 1;
            self.cv.notify_all();
            return Ok(());
        }
        while s.1 == gen {
            if let Some(gone) = s.2 {
                s.0 -= 1;
                return Err(gone);
            }
            s = self.cv.wait(s).unwrap();
        }
        Ok(())
    }

    fn exit(&self, rank: usize) {
        let mut s = self.state.lock().unwrap();
        s.2.get_or_insert(rank);
        self.cv.notify_all();
    }
}

/// Rank 1 passes the last barrier, sends one frame straight through and
/// one that its fault plan withholds, and returns: the exit flushes the
/// withheld frame, then announces. Rank 0 waits on the barrier and then
/// on both frames, and finally on a frame rank 1 never sent. The
/// seeded-bug variant (`eof_first`) announces before the flush.
fn rank_returns_round(
    eof_first: bool,
) -> (Result<(), usize>, Option<u64>, Option<u64>, Option<u64>) {
    let (tx0, rx0) = mpsc::channel::<DFrame>();
    let barrier = Arc::new(ExitBarrier::new(2));
    let leaver = {
        let barrier = barrier.clone();
        thread::spawn(move || {
            barrier.wait().expect("the last barrier completes");
            let frame = |tag, val| DFrame { src: 1, tag, val };
            tx0.send(frame(1, 11)).unwrap();
            let withheld = vec![frame(2, 12)];
            let eof = frame(DEATH, 0);
            if eof_first {
                // BUG: the EOF overtakes the withheld frame.
                tx0.send(eof).unwrap();
                withheld.into_iter().for_each(|f| tx0.send(f).unwrap());
            } else {
                withheld.into_iter().for_each(|f| tx0.send(f).unwrap());
                tx0.send(eof).unwrap();
            }
            barrier.exit(1);
        })
    };
    let released = barrier.wait();
    let (mut pending, mut dead) = (Vec::new(), Vec::new());
    let sent = recv_from(&rx0, &mut pending, &mut dead, 1, 1);
    let withheld = recv_from(&rx0, &mut pending, &mut dead, 1, 2);
    let never_sent = recv_from(&rx0, &mut pending, &mut dead, 1, 3);
    leaver.join().unwrap();
    (released, sent, withheld, never_sent)
}

#[test]
fn returning_rank_delivers_its_frames_before_its_exit() {
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let out = rank_returns_round(false);
            // On every schedule: the barrier released rank 0 although
            // rank 1 may have left before rank 0 woke, both frames
            // arrived, and the wait on a frame never sent ended typed.
            assert_eq!(out, (Ok(()), Some(11), Some(12), None));
            out
        });
    assert!(
        report.exhausted || report.schedules >= 1000,
        "explored {} (exhausted: {})",
        report.schedules,
        report.exhausted
    );
}

// ---------------------------------------------------------------------------
// Subsystem 8: the top solve's owner chain (core::distributed::serve).
// The packed top's block columns live on a chain of owners; rank 0 gathers
// every active rank's values, the panel makes p_top - 1 forward hops (each
// owner applying its columns before passing the rest on), turns round at
// the last owner and makes p_top - 1 hops back, and only then does rank 0
// send the replies the other ranks are waiting for. Value frames, replies
// and hops share each rank's one inbox and are told apart by (src, tag).
// An owner must take its turn in the chain *before* it waits for rank 0's
// reply: the reply is downstream of its own hop.
// ---------------------------------------------------------------------------

const TOP_VALUES: u32 = 10;
const TOP_REPLY: u32 = 11;
const TOP_FWD: u32 = 12;
const TOP_BWD: u32 = 13;

/// One rank of a `p`-owner chain (rank order). The panel is modeled as a
/// number each forward step multiplies into and each backward step adds
/// to, so that any reordering or lost hop changes the result. Returns
/// what the rank ends up holding and how many hop frames it sent.
fn top_chain_rank(
    me: usize,
    p: usize,
    rx: &mpsc::Receiver<DFrame>,
    txs: &[mpsc::Sender<DFrame>],
    reply_first: bool,
) -> (u64, usize) {
    let (mut pending, mut dead) = (Vec::new(), Vec::new());
    let send = |dst: usize, tag: u32, val: u64| {
        txs[dst].send(DFrame { src: me, tag, val }).unwrap();
    };
    let mut hops = 0;
    let mut chain_turn = |panel: u64, pending: &mut Vec<DFrame>, dead: &mut Vec<usize>| {
        let mut panel = panel * 10 + me as u64; // forward sweep of my columns
        if me + 1 < p {
            send(me + 1, TOP_FWD, panel);
            hops += 1;
            panel = recv_from(rx, pending, dead, me + 1, TOP_BWD).expect("panel back");
        }
        panel + 1000 * (me as u64 + 1) // backward sweep of my columns
    };
    if me == 0 {
        let gathered: u64 = (1..p)
            .map(|src| recv_from(rx, &mut pending, &mut dead, src, TOP_VALUES).expect("values"))
            .sum();
        let solved = chain_turn(gathered, &mut pending, &mut dead);
        for dst in 1..p {
            send(dst, TOP_REPLY, solved);
        }
        return (solved, hops);
    }
    send(0, TOP_VALUES, me as u64);
    let mut reply = None;
    if reply_first {
        // BUG: rank 0 replies only once the panel is back, and the panel
        // cannot come back past an owner that has not taken its turn.
        reply = recv_from(rx, &mut pending, &mut dead, 0, TOP_REPLY);
    }
    let panel = recv_from(rx, &mut pending, &mut dead, me - 1, TOP_FWD).expect("panel");
    let back = chain_turn(panel, &mut pending, &mut dead);
    send(me - 1, TOP_BWD, back);
    hops += 1;
    let reply = reply.or_else(|| recv_from(rx, &mut pending, &mut dead, 0, TOP_REPLY));
    (reply.expect("reply"), hops)
}

/// Three owners, every rank a thread; `reply_first` seeds the ordering
/// bug on rank 1.
fn top_chain_round(reply_first: bool) -> Vec<(u64, usize)> {
    let p = 3;
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..p).map(|_| mpsc::channel::<DFrame>()).unzip();
    let mut rxs = rxs.into_iter();
    let rx0 = rxs.next().unwrap();
    let workers: Vec<_> = rxs
        .enumerate()
        .map(|(i, rx)| {
            let txs = txs.clone();
            thread::spawn(move || top_chain_rank(i + 1, p, &rx, &txs, reply_first && i == 0))
        })
        .collect();
    let mut out = vec![top_chain_rank(0, p, &rx0, &txs, false)];
    out.extend(workers.into_iter().map(|w| w.join().unwrap()));
    out
}

#[test]
fn top_chain_token_makes_two_p_minus_one_hops() {
    let report = Model::new()
        .preemption_bound(3)
        .max_schedules(50_000)
        .check(|| {
            let out = top_chain_round(false);
            // Gathered 1 + 2 = 3; forward 3 -> 30 -> 301 -> 3012; backward
            // +3000, +2000, +1000: every rank ends with the same solved
            // value, on every schedule, after 2 (p - 1) = 4 hop frames.
            assert!(out.iter().all(|&(v, _)| v == 9012), "{out:?}");
            assert_eq!(out.iter().map(|&(_, h)| h).sum::<usize>(), 4);
            out
        });
    assert!(report.schedules >= 1000, "explored {}", report.schedules);
}

#[test]
fn detects_reply_wait_before_chain_turn_as_deadlock() {
    let msg = expect_failure(Model::new().preemption_bound(2), || top_chain_round(true));
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

// ---------------------------------------------------------------------------
// Bug detection and deterministic replay.
// ---------------------------------------------------------------------------

#[test]
fn detects_swallowed_death_notification_as_deadlock() {
    // The seeded bug: the dying rank's announcement never reaches rank 0,
    // whose wait on the dead peer can then block forever (the inbox still
    // has live producers, so no EOF rescues it) — and rank 1, parked in
    // the regroup receive while holding a sender to rank 0, hangs with
    // it. This is why an exit announcement must reach *every* peer
    // before the rank stops.
    let msg = expect_failure(Model::new().preemption_bound(2), || {
        death_mid_phase_round(Some(0))
    });
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn detects_eof_before_the_withheld_flush() {
    // The seeded bug: a returning rank announces its exit before it
    // flushes the frame its fault plan withheld, so the frame lands
    // behind the EOF and its peer reports a lost rank for a frame that
    // was sent.
    let msg = expect_failure(Model::new().preemption_bound(2), || {
        let out = rank_returns_round(true);
        assert_eq!(out.2, Some(12), "withheld frame lost behind the EOF");
        out
    });
    assert!(
        msg.contains("withheld frame lost behind the EOF"),
        "unexpected failure: {msg}"
    );
}

#[test]
fn detects_eager_send_before_last_halo_box() {
    // The seeded bug: the completion counter misses one tracked box, so
    // the frame is posted while that box is still unretired — the
    // protocol's "never before the last halo box retires" clause.
    let msg = expect_failure(Model::new().preemption_bound(3), || eager_send_round(true));
    assert!(
        msg.contains("eager frame incomplete") || msg.contains("posted"),
        "unexpected failure: {msg}"
    );
}

#[test]
fn detects_missing_empty_frame_as_deadlock() {
    // Remove the barrier AND the every-rank-sends-every-round invariant
    // and the sweep deadlocks: A skips its "empty" frame, so B parks in
    // a receive that can never match while A parks in B's join shadow.
    // This is why a rank's phase posts a frame to every neighbor even
    // when it eliminated nothing.
    let msg = expect_failure(Model::new().preemption_bound(2), || {
        let (tx_to_a, rx_a) = mpsc::channel::<Frame>();
        let (tx_to_b, rx_b) = mpsc::channel::<Frame>();
        let b = thread::spawn(move || {
            let mut pending = Vec::new();
            tx_to_a.send(Frame { tag: 0, val: 200 }).unwrap();
            // Blocks forever: A never posts its round-0 frame.
            recv_where(&rx_b, &mut pending, 0)
        });
        // BUG: A has no boxes this round and posts no frame at all
        // (instead of an empty one), then waits on B's next-round frame.
        let mut pending = Vec::new();
        let _got = recv_where(&rx_a, &mut pending, 0);
        let stuck = recv_where(&rx_a, &mut pending, 1);
        let from_b = b.join().unwrap();
        drop(tx_to_b);
        (stuck, from_b)
    });
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

/// A non-atomic read-modify-write: some interleaving loses an update.
fn racy_counter() -> usize {
    let c = Arc::new(AtomicUsize::new(0));
    let c2 = c.clone();
    let t = thread::spawn(move || {
        let v = c2.load(Ordering::SeqCst);
        c2.store(v + 1, Ordering::SeqCst);
    });
    let v = c.load(Ordering::SeqCst);
    c.store(v + 1, Ordering::SeqCst);
    t.join().unwrap();
    let total = c.load(Ordering::SeqCst);
    assert_eq!(total, 2, "lost update");
    total
}

#[test]
fn detects_lost_update_and_replays_it() {
    let msg = expect_failure(Model::new().preemption_bound(2), racy_counter);
    assert!(msg.contains("lost update"), "unexpected failure: {msg}");
    let schedule = replay_string(&msg);

    // The printed schedule must reproduce the same failure, first try.
    let replay_msg = expect_failure(Model::new().replay(&schedule), racy_counter);
    assert!(
        replay_msg.contains("lost update"),
        "replay found a different failure: {replay_msg}"
    );
    assert!(
        replay_msg.contains(&schedule),
        "replay reported schedule [{schedule}] differently: {replay_msg}"
    );
}

#[test]
fn detects_poll_loop_toctou() {
    // The naive liveness-flag retire path: a command sent before the
    // flag cleared can arrive between a failed try_recv and the flag
    // check and be silently dropped. A real find: this exact bug was in
    // the first version of the drained loop above.
    let msg = expect_failure(Model::new().preemption_bound(3), || {
        let (tx, rx) = mpsc::channel();
        let alive = Arc::new(AtomicBool::new(true));
        let alive2 = alive.clone();
        let worker = thread::spawn(move || serve_poll_loop_toctou(&rx, &alive2));
        tx.send(Cmd::Work(5)).unwrap();
        tx.send(Cmd::Work(7)).unwrap();
        alive.store(false, Ordering::Release);
        drop(tx);
        worker.join().unwrap()
    });
    assert!(
        msg.contains("schedule-dependent result"),
        "unexpected failure: {msg}"
    );
}

#[test]
fn detects_abba_deadlock() {
    let msg = expect_failure(Model::new().preemption_bound(2), || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (a.clone(), b.clone());
        let t = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        t.join().unwrap();
    });
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn detects_lost_wakeup_as_deadlock() {
    // The waiter has no predicate: if the notifier fires first, the
    // notification is lost and the waiter sleeps forever. In the model
    // (no timeouts) that is a detected deadlock on those schedules.
    let msg = expect_failure(Model::new().preemption_bound(2), || {
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let pair2 = pair.clone();
        let t = thread::spawn(move || {
            pair2.1.notify_one();
        });
        {
            let g = pair.0.lock().unwrap();
            let _g = pair.1.wait(g).unwrap();
        }
        t.join().unwrap();
    });
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn detects_schedule_dependent_result() {
    // Two unsynchronized increments where the *observed intermediate*
    // is returned: different schedules see different values.
    let msg = expect_failure(Model::new().preemption_bound(2), || {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        let t = thread::spawn(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        let seen = c.load(Ordering::SeqCst); // 0 or 1 depending on schedule
        t.join().unwrap();
        seen
    });
    assert!(
        msg.contains("schedule-dependent result"),
        "unexpected failure: {msg}"
    );
}
