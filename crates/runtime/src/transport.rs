//! Pluggable message transports: ranks as threads or as real OS processes.
//!
//! A [`World`](crate::world::World) runs the same rank closure over one of
//! two backends, selected with [`Transport`]:
//!
//! * [`Transport::InProc`] — every rank is an OS thread of the calling
//!   process; frames move through in-memory channels. Fast to spin up,
//!   deterministic, and the right default for tests and benches.
//! * [`Transport::Tcp`] — every rank is a **separate OS process** and
//!   frames move over localhost TCP sockets, so ranks genuinely share no
//!   memory. The calling process becomes rank 0 and launches ranks
//!   `1..p` by re-executing its own binary (`std::env::current_exe`)
//!   with the `SRSF_RANK` / `SRSF_WORLD` / `SRSF_ADDR` / `SRSF_SEQ`
//!   environment set. A spawned worker re-runs `main` until it reaches
//!   the matching `World::run` call, joins the rendezvous, runs *only*
//!   its rank, ships its result back to rank 0, and exits.
//!
//! Both backends implement [`RankTransport`] — tagged point-to-point
//! send/recv with out-of-order buffering, plus a barrier — and the
//! communication counters are maintained *above* the trait (in
//! [`RankCtx`](crate::world::RankCtx)), so per-rank message/word counts
//! are identical across backends by construction: the paper's §IV bounds
//! measured over TCP are measurements of real inter-process traffic.
//!
//! # Wire format
//!
//! Every frame is length-prefixed: a 16-byte header
//! `(payload_len: u64 LE, src: u32 LE, tag: u32 LE)` followed by
//! `payload_len` raw bytes. Tags below [`tags::CTRL_BASE`] are algorithm
//! data; the top of the range is transport-internal (handshake, barrier,
//! worker results — see below). Frames from other processes are decoded
//! with the bounds-checked [`codec`](crate::codec) readers, so a
//! truncated or hostile frame surfaces as an error, not a panic or an
//! attacker-sized allocation.
//!
//! # Rendezvous / handshake
//!
//! 1. Rank 0 binds an ephemeral rendezvous listener on `127.0.0.1` and
//!    spawns ranks `1..p` with its address in `SRSF_ADDR`.
//! 2. Each worker binds its own ephemeral peer listener, connects to the
//!    rendezvous, and sends `HELLO{magic, version, session, world, rank,
//!    peer_port}`. Rank 0 validates every field (stale sessions and
//!    stray connections are rejected) and the hello assigns the worker
//!    its slot.
//! 3. Rank 0 broadcasts `PEERS{world, ports[0..p]}` over the rendezvous
//!    connections, which stay open as the rank-0 data links.
//! 4. Workers complete the mesh: rank `i` dials ranks `1..i` (sending
//!    `DIAL{magic, session, rank}`) and accepts connections from ranks
//!    `i+1..p`, giving every pair of ranks a dedicated socket.
//!
//! After the handshake each rank runs one reader thread per link that
//! decodes frames into a single matching queue; barriers are centralized
//! control frames through rank 0 (`BARRIER` / `BARRIER_ACK`), which do
//! not touch the data counters — same as the in-process barrier. On both
//! backends a barrier honors the world's receive timeout, so a rank that
//! died before arriving surfaces as a panic, not a hang.
//!
//! When the rank closure returns, workers send `RESULT{CommStats, R}`
//! (both [`Wire`]-encoded) to rank 0 and exit; a panicking worker sends
//! `PANIC{message}` instead, and rank 0 re-panics with the worker's
//! message so failures look the same as on the in-process backend.
//!
//! # Re-exec discipline
//!
//! Spawning by re-exec means a worker re-runs everything `main` does
//! before the `World::run` call, so that prefix must be deterministic
//! and reasonably cheap. Programs that run several TCP worlds are
//! handled with a per-thread session counter (`SRSF_SEQ`): a worker
//! executes earlier sessions on the in-process backend (pure
//! recomputation to reach the same program point) and joins over TCP
//! exactly at the session it was spawned for. Test binaries should pass
//! `[test_name, "--exact"]` to [`set_tcp_child_args`] so a worker re-runs
//! only the one test that spawned it.
//!
//! The session counter is per *launcher thread*, but a re-executed
//! worker cannot tell which launcher thread a session belonged to —
//! create TCP worlds from one thread of a program at a time.
//! (Concurrent TCP worlds from *different test functions* are fine:
//! `--exact` re-runs make each worker see only its own test's
//! sessions.)

use crate::codec::{ByteReader, ByteWriter, Bytes, Wire};
use crate::stats::{CommStats, WorldStats};
use crate::tags;
use crate::world::{RankCtx, World};
use std::cell::{Cell, RefCell};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use srsf_verify::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Message-transport backend selection for a `World`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// Ranks as threads of this process, frames over in-memory channels.
    #[default]
    InProc,
    /// Ranks as spawned OS processes, frames over localhost TCP sockets.
    Tcp,
    /// Either backend wrapped in the deterministic fault injector: every
    /// rank's transport is a [`FaultyTransport`] replaying the seeded
    /// [`FaultPlan`] (delays, drops with bounded redelivery, duplicated
    /// frames, a one-shot rank crash, a permanent link cut). Recoverable
    /// plans leave solutions and counters bit-identical to the fault-free
    /// run; crash/cut plans surface as typed failures, never hangs.
    Faulty {
        /// The backend actually carrying the frames.
        inner: BaseTransport,
        /// The seeded fault schedule.
        plan: FaultPlan,
    },
}

/// The concrete frame carrier under a [`Transport`] selection — what is
/// left once the fault-injection wrapper is peeled off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BaseTransport {
    /// Ranks as threads of this process, frames over in-memory channels.
    #[default]
    InProc,
    /// Ranks as spawned OS processes, frames over localhost TCP sockets.
    Tcp,
}

impl From<BaseTransport> for Transport {
    fn from(b: BaseTransport) -> Self {
        match b {
            BaseTransport::InProc => Transport::InProc,
            BaseTransport::Tcp => Transport::Tcp,
        }
    }
}

impl Transport {
    /// The backend that actually carries frames (the fault wrapper is
    /// transparent to dispatch).
    pub fn base(&self) -> BaseTransport {
        match self {
            Transport::InProc => BaseTransport::InProc,
            Transport::Tcp => BaseTransport::Tcp,
            Transport::Faulty { inner, .. } => *inner,
        }
    }

    /// The fault schedule, when this selection injects faults.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        match self {
            Transport::Faulty { plan, .. } => Some(*plan),
            _ => None,
        }
    }

    /// Wrap this selection in the deterministic fault injector (replaces
    /// any plan already attached).
    pub fn with_faults(self, plan: FaultPlan) -> Transport {
        Transport::Faulty {
            inner: self.base(),
            plan,
        }
    }
}

impl core::fmt::Display for Transport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Transport::InProc => f.write_str("inproc"),
            Transport::Tcp => f.write_str("tcp"),
            Transport::Faulty { inner, .. } => write!(
                f,
                "faulty({})",
                match inner {
                    BaseTransport::InProc => "inproc",
                    BaseTransport::Tcp => "tcp",
                }
            ),
        }
    }
}

impl core::str::FromStr for Transport {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inproc" | "threads" => Ok(Transport::InProc),
            "tcp" | "process" | "processes" => Ok(Transport::Tcp),
            other => Err(format!(
                "unknown transport {other:?} (expected \"inproc\" or \"tcp\")"
            )),
        }
    }
}

/// A seeded, deterministic fault schedule for [`Transport::Faulty`].
///
/// Every per-frame decision (delay, drop, duplicate) is a pure hash of
/// `(seed, src, dst, per-link sequence number)`, so the same plan replays
/// the same faults on every run and on both backends. Crash and cut
/// faults are indexed by *barrier count* — the solve phases of Algorithm
/// 2 run a barrier per level on both backends, so "crash at barrier k"
/// lands at the same protocol point regardless of transport timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every per-frame fault decision.
    pub seed: u64,
    /// Upper bound (exclusive range is `0..=max`) on the deterministic
    /// per-frame delivery delay, in microseconds. `0` disables delays.
    pub max_delay_us: u32,
    /// Per-mille probability that a frame is "dropped" — withheld by the
    /// sender and redelivered (exactly once, link order preserved) at its
    /// next transport operation, modelling a retransmit.
    pub drop_permille: u16,
    /// Per-mille probability that a frame is delivered twice; the
    /// receiver's sequence-number dedup discards the copy.
    pub dup_permille: u16,
    /// One-shot rank crash: `(rank, k)` panics `rank` (after announcing
    /// its death to peers) when it *enters its k-th barrier*, `k >= 1`.
    pub crash: Option<(u32, u32)>,
    /// Permanent link cut: `(a, b, after)` silently discards every data
    /// frame between ranks `a` and `b` once each side has passed `after`
    /// barriers (`after = 0` cuts the link from the start). Barriers
    /// themselves are control traffic and stay up, so the failure
    /// surfaces as a bounded receive timeout, not a hang.
    pub cut: Option<(u32, u32, u32)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Set the per-frame delivery-delay bound, in microseconds.
    pub fn with_max_delay_us(mut self, us: u32) -> Self {
        self.max_delay_us = us;
        self
    }

    /// Set the per-mille frame-drop (withhold + redeliver) probability.
    pub fn with_drop_permille(mut self, pm: u16) -> Self {
        assert!(pm <= 1000, "permille probability out of range");
        self.drop_permille = pm;
        self
    }

    /// Set the per-mille frame-duplication probability.
    pub fn with_dup_permille(mut self, pm: u16) -> Self {
        assert!(pm <= 1000, "permille probability out of range");
        self.dup_permille = pm;
        self
    }

    /// Crash `rank` when it enters its `k`-th barrier (`k >= 1`).
    pub fn with_crash(mut self, rank: u32, k: u32) -> Self {
        assert!(k >= 1, "barriers are counted from 1");
        self.crash = Some((rank, k));
        self
    }

    /// Cut the `a`–`b` link permanently once `after` barriers have passed.
    pub fn with_cut(mut self, a: u32, b: u32, after: u32) -> Self {
        self.cut = Some((a, b, after));
        self
    }
}

/// A received frame: source rank, tag, payload.
#[derive(Debug)]
pub struct RawMsg {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload bytes.
    pub payload: Bytes,
}

/// What a reader pushes into the matching queue.
enum Event {
    Frame(RawMsg),
    /// The link to `src` closed; no further frames from it can arrive.
    Eof(usize),
}

/// Why a receive did not complete.
#[derive(Debug)]
pub enum RecvError {
    /// No matching frame arrived within the timeout.
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// Rank the frame was expected from.
        src: usize,
        /// Tag the receive was matching.
        tag: u32,
        /// How long the rank waited.
        waited: Duration,
    },
    /// The link to `src` closed with the receive still unmatched.
    Disconnected {
        /// The waiting rank.
        rank: usize,
        /// Rank the frame was expected from.
        src: usize,
        /// Tag the receive was matching.
        tag: u32,
    },
    /// The peer died of a panic and relayed its message before the link
    /// closed — reported instead of a bare disconnect so a resident
    /// session names the root cause, not the symptom.
    PeerPanicked {
        /// The waiting rank.
        rank: usize,
        /// The rank that panicked.
        src: usize,
        /// The peer's panic message.
        message: String,
    },
}

impl core::fmt::Display for RecvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecvError::Timeout {
                rank,
                src,
                tag,
                waited,
            } => write!(
                f,
                "rank {rank} timed out after {waited:.1?} waiting for a message from rank {src} \
                 with tag {tag} ({})",
                tags::describe(*tag)
            ),
            RecvError::Disconnected { rank, src, tag } => write!(
                f,
                "rank {rank} lost rank {src} while waiting for tag {tag} ({})",
                tags::describe(*tag)
            ),
            RecvError::PeerPanicked { rank, src, message } => {
                write!(f, "rank {rank}: rank {src} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// The backend surface a [`RankCtx`](crate::world::RankCtx) runs on:
/// tagged point-to-point messaging with out-of-order buffering, plus a
/// barrier. Implementations do **not** count traffic — the counters live
/// in `RankCtx`, which is what makes the counts backend-invariant.
pub trait RankTransport: Send {
    /// This rank's id in `0..size`.
    fn rank(&self) -> usize;

    /// World size `p`.
    fn size(&self) -> usize;

    /// Ship `payload` to rank `dst` under `tag`.
    fn send(&mut self, dst: usize, tag: u32, payload: Bytes);

    /// Next frame from `src` whose tag is in `matching` (other frames are
    /// buffered for later receives).
    fn recv_any_of(
        &mut self,
        src: usize,
        matching: &[u32],
        timeout: Duration,
    ) -> Result<RawMsg, RecvError>;

    /// Blocking receive of the next `(src, tag)` frame.
    fn recv(&mut self, src: usize, tag: u32, timeout: Duration) -> Result<Bytes, RecvError> {
        Ok(self.recv_any_of(src, &[tag], timeout)?.payload)
    }

    /// Synchronize all ranks.
    fn barrier(&mut self, timeout: Duration) -> Result<(), RecvError>;

    /// Opportunistically pump the fabric: move every frame the backend
    /// has already delivered into the matching queue, without blocking.
    /// Purely a latency lever for compute/communication overlap — a later
    /// tag-matched receive performs the same drain on demand — so the
    /// default is a no-op and traffic counters are unaffected.
    fn progress(&mut self) {}

    /// Tell every peer this rank is going away without further sends, so
    /// their blocked receives fail fast (`Disconnected`) instead of
    /// waiting out the timeout. The TCP backend gets this for free from
    /// socket EOF on process exit; the in-process backend pushes explicit
    /// EOF events (a dead thread closes no channels — its peers all still
    /// hold clones of every sender).
    fn announce_death(&mut self) {}
}

/// Frame matching shared by both backends: a single incoming channel (fed
/// by senders or reader threads) plus a buffer of frames received ahead
/// of the receive that wants them.
struct MsgQueue {
    rank: usize,
    pending: Vec<RawMsg>,
    rx: Receiver<Event>,
    closed: Vec<bool>,
}

impl MsgQueue {
    fn new(rank: usize, size: usize, rx: Receiver<Event>) -> Self {
        Self {
            rank,
            pending: Vec::new(),
            rx,
            closed: vec![false; size],
        }
    }

    fn recv_where(
        &mut self,
        src: usize,
        matching: &[u32],
        timeout: Duration,
    ) -> Result<RawMsg, RecvError> {
        let hit = |m: &RawMsg| m.src == src && matching.contains(&m.tag);
        if let Some(pos) = self.pending.iter().position(hit) {
            return Ok(self.pending.swap_remove(pos));
        }
        if self.closed[src] {
            return Err(self.link_down(src, matching[0]));
        }
        let start = Instant::now();
        let deadline = start + timeout;
        let timed_out = || RecvError::Timeout {
            rank: self.rank,
            src,
            tag: matching[0],
            waited: start.elapsed(),
        };
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(timed_out());
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(Event::Frame(m)) if hit(&m) => return Ok(m),
                Ok(Event::Frame(m)) => self.pending.push(m),
                Ok(Event::Eof(s)) => {
                    self.closed[s] = true;
                    if s == src {
                        return Err(self.link_down(src, matching[0]));
                    }
                }
                Err(RecvTimeoutError::Timeout) => return Err(timed_out()),
                Err(RecvTimeoutError::Disconnected) => return Err(self.link_down(src, matching[0])),
            }
        }
    }

    /// Non-blocking drain: move every event already queued by the fabric
    /// into the pending buffer, so later tag-matched receives hit the
    /// buffer instead of waiting on the channel. Backs the transports'
    /// `progress` hook.
    fn drain_ready(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(Event::Frame(m)) => self.pending.push(m),
                Ok(Event::Eof(s)) => self.closed[s] = true,
                Err(_) => break,
            }
        }
    }

    /// The error for a dead link to `src`: if the peer relayed a panic
    /// frame before closing, surface its message as the cause.
    fn link_down(&mut self, src: usize, tag: u32) -> RecvError {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == TAG_PANIC)
        {
            let m = self.pending.swap_remove(pos);
            return RecvError::PeerPanicked {
                rank: self.rank,
                src,
                message: String::from_utf8_lossy(&m.payload).into_owned(),
            };
        }
        RecvError::Disconnected {
            rank: self.rank,
            src,
            tag,
        }
    }
}

// ---------------------------------------------------------------------------
// In-process backend
// ---------------------------------------------------------------------------

/// A barrier whose wait can time out, so a rank that died before
/// arriving surfaces as a diagnosable error instead of hanging the
/// world forever — the same contract the TCP barrier gets from its
/// control-frame receives.
struct TimeoutBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    p: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    /// First rank that announced its death; a broken barrier can never
    /// complete again, so waiters fail fast naming the dead rank instead
    /// of waiting out their timeout.
    dead: Option<usize>,
}

/// Outcome of a [`TimeoutBarrier::wait`].
enum BarrierWait {
    /// All ranks arrived.
    Done,
    /// The timeout elapsed with ranks still missing.
    TimedOut,
    /// A rank announced its death; the barrier can never complete.
    Broken(usize),
}

impl TimeoutBarrier {
    fn new(p: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                dead: None,
            }),
            cv: Condvar::new(),
            p,
        }
    }

    /// Mark the barrier permanently broken by the death of `rank`, waking
    /// every current waiter.
    fn defect(&self, rank: usize) {
        // INVARIANT: poisoning requires a panicked holder, whose panic already ends the run
        let mut s = self.state.lock().expect("barrier lock");
        if s.dead.is_none() {
            s.dead = Some(rank);
        }
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> BarrierWait {
        // INVARIANT: poisoning requires a panicked holder, whose panic already ends the run
        let mut s = self.state.lock().expect("barrier lock");
        if let Some(dead) = s.dead {
            return BarrierWait::Broken(dead);
        }
        let gen = s.generation;
        s.arrived += 1;
        if s.arrived == self.p {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return BarrierWait::Done;
        }
        let deadline = Instant::now() + timeout;
        while s.generation == gen {
            if let Some(dead) = s.dead {
                s.arrived -= 1;
                return BarrierWait::Broken(dead);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                // Withdraw this arrival so the state stays consistent for
                // the ranks still waiting (they will time out themselves).
                s.arrived -= 1;
                return BarrierWait::TimedOut;
            }
            // INVARIANT: poisoning requires a panicked holder, whose panic already ends the run
            s = self.cv.wait_timeout(s, remaining).expect("barrier lock").0;
        }
        BarrierWait::Done
    }
}

/// The in-process backend: per-rank mpsc channels and a shared barrier.
struct InProcTransport {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Event>>,
    queue: MsgQueue,
    barrier: Arc<TimeoutBarrier>,
}

impl RankTransport for InProcTransport {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn send(&mut self, dst: usize, tag: u32, payload: Bytes) {
        // A hung-up receiver means the peer rank is already gone: the
        // frame is undeliverable, and the failure surfaces as a *typed*
        // error at this rank's next receive from `dst` (channel EOF) —
        // mirroring TCP, where a send to a dead peer lands in the OS
        // buffer and the death is observed at recv. Panicking here would
        // bypass the resident world's graceful-degradation path.
        let _ = self.senders[dst].send(Event::Frame(RawMsg {
            src: self.rank,
            tag,
            payload,
        }));
    }
    fn recv_any_of(
        &mut self,
        src: usize,
        matching: &[u32],
        timeout: Duration,
    ) -> Result<RawMsg, RecvError> {
        self.queue.recv_where(src, matching, timeout)
    }
    fn barrier(&mut self, timeout: Duration) -> Result<(), RecvError> {
        match self.barrier.wait(timeout) {
            BarrierWait::Done => Ok(()),
            BarrierWait::TimedOut => Err(RecvError::Timeout {
                rank: self.rank,
                src: 0,
                tag: TAG_BARRIER,
                waited: timeout,
            }),
            BarrierWait::Broken(dead) => Err(RecvError::Disconnected {
                rank: self.rank,
                src: dead,
                tag: TAG_BARRIER,
            }),
        }
    }
    fn announce_death(&mut self) {
        for (dst, tx) in self.senders.iter().enumerate() {
            if dst != self.rank {
                let _ = tx.send(Event::Eof(self.rank));
            }
        }
        // Peers blocked *inside* the shared barrier see no channel EOF;
        // breaking the barrier is what fails them fast.
        self.barrier.defect(self.rank);
    }
    fn progress(&mut self) {
        self.queue.drain_ready();
    }
}

/// Build the `p` connected in-process transports of one world.
pub(crate) fn inproc_world(p: usize) -> Vec<Box<dyn RankTransport>> {
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel::<Event>();
        senders.push(tx);
        receivers.push(rx);
    }
    let barrier = Arc::new(TimeoutBarrier::new(p));
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| {
            Box::new(InProcTransport {
                rank,
                size: p,
                senders: senders.clone(),
                queue: MsgQueue::new(rank, p, rx),
                barrier: barrier.clone(),
            }) as Box<dyn RankTransport>
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// splitmix64-style mixer: the pure hash behind every per-frame fault
/// decision, so a [`FaultPlan`] replays identically on both backends.
fn fault_hash(seed: u64, src: u64, dst: u64, seq: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(src.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(dst.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(seq.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`RankTransport`] wrapper that injects the faults of a seeded
/// [`FaultPlan`] while guaranteeing that *recoverable* faults (delay,
/// drop-with-redelivery, duplication) cannot change what the algorithm
/// observes:
///
/// * every outgoing data frame gets an 8-byte per-link sequence header,
///   stripped (and deduplicated) on receive;
/// * a "dropped" frame is withheld and redelivered at the sender's next
///   transport operation — flushing at the top of every `send` preserves
///   per-link FIFO order, so a drop is exactly a bounded delay;
/// * duplicated frames carry the same sequence number and are discarded
///   by the receiver's dedup set.
///
/// Control frames (barrier, worker results — tags at
/// [`tags::CTRL_BASE`] and above) are written below this wrapper and pass
/// through untouched. Crash and cut faults are *not* recoverable: a crash
/// announces the rank's death and panics at its k-th barrier; a cut
/// silently discards data frames on one link so the peer's receive fails
/// by bounded timeout.
pub struct FaultyTransport {
    inner: Box<dyn RankTransport>,
    plan: FaultPlan,
    /// Next per-destination sequence number.
    next_seq: Vec<u64>,
    /// Sequence numbers already delivered, per source.
    seen: Vec<std::collections::HashSet<u64>>,
    /// Dropped frames awaiting redelivery: `(dst, tag, seq-framed payload)`.
    withheld: Vec<(usize, u32, Bytes)>,
    /// Barriers this rank has entered (the index for crash/cut faults).
    barriers: u64,
}

impl FaultyTransport {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: Box<dyn RankTransport>, plan: FaultPlan) -> Self {
        let p = inner.size();
        Self {
            inner,
            plan,
            next_seq: vec![0; p],
            seen: (0..p).map(|_| std::collections::HashSet::new()).collect(),
            withheld: Vec::new(),
            barriers: 0,
        }
    }

    /// Redeliver every withheld frame, in original order. Runs at the top
    /// of every transport operation, so a withheld frame is delayed by at
    /// most one operation and per-link FIFO order is preserved.
    fn flush_withheld(&mut self) {
        for (dst, tag, framed) in std::mem::take(&mut self.withheld) {
            self.inner.send(dst, tag, framed);
        }
    }

    fn cut_active(&self, peer: usize) -> bool {
        let me = self.inner.rank() as u32;
        let peer = peer as u32;
        match self.plan.cut {
            Some((a, b, after)) => {
                ((me, peer) == (a, b) || (me, peer) == (b, a)) && self.barriers >= after as u64
            }
            None => false,
        }
    }
}

impl RankTransport for FaultyTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, dst: usize, tag: u32, payload: Bytes) {
        self.flush_withheld();
        let me = self.inner.rank();
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&seq.to_le_bytes());
        framed.extend_from_slice(&payload);
        if self.cut_active(dst) {
            return;
        }
        let roll = |salt: u64| fault_hash(self.plan.seed, me as u64, dst as u64, seq, salt);
        if self.plan.max_delay_us > 0 {
            let us = roll(3) % (self.plan.max_delay_us as u64 + 1);
            if us > 0 {
                std::thread::sleep(Duration::from_micros(us));
            }
        }
        if self.plan.drop_permille > 0 && roll(1) % 1000 < self.plan.drop_permille as u64 {
            self.withheld.push((dst, tag, framed));
            return;
        }
        let dup = self.plan.dup_permille > 0 && roll(2) % 1000 < self.plan.dup_permille as u64;
        if dup {
            self.inner.send(dst, tag, framed.clone());
        }
        self.inner.send(dst, tag, framed);
    }

    fn recv_any_of(
        &mut self,
        src: usize,
        matching: &[u32],
        timeout: Duration,
    ) -> Result<RawMsg, RecvError> {
        self.flush_withheld();
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let mut m = self.inner.recv_any_of(src, matching, remaining)?;
            if tags::is_control(m.tag) {
                // Control frames (worker results, relayed panics) are
                // written below the wrapper and carry no sequence header.
                return Ok(m);
            }
            debug_assert!(m.payload.len() >= 8, "data frame without a seq header");
            if m.payload.len() < 8 {
                return Ok(m);
            }
            // INVARIANT: the slice is the fixed-width 8-byte seq header
            let seq = u64::from_le_bytes(m.payload[..8].try_into().unwrap());
            m.payload.drain(..8);
            if self.seen[src].insert(seq) {
                return Ok(m);
            }
            // A duplicated frame: discard and keep waiting.
        }
    }

    fn barrier(&mut self, timeout: Duration) -> Result<(), RecvError> {
        self.flush_withheld();
        self.barriers += 1;
        let me = self.inner.rank() as u32;
        if self.plan.crash == Some((me, self.barriers as u32)) {
            self.inner.announce_death();
            // INVARIANT: deliberate — the injected crash *is* a rank death; peers
            // observe it as Disconnected/PeerPanicked and degrade gracefully
            panic!(
                "injected fault: rank {me} crashed at barrier {}",
                self.barriers
            );
        }
        self.inner.barrier(timeout)
    }

    fn progress(&mut self) {
        self.flush_withheld();
        self.inner.progress();
    }

    fn announce_death(&mut self) {
        self.inner.announce_death();
    }
}

impl Drop for FaultyTransport {
    fn drop(&mut self) {
        // A frame withheld by the rank's final transport operation must
        // still reach its peer (recoverable faults may not lose frames).
        // Skip on panic: a crashed rank legitimately loses its tail, and
        // its peers may already be gone. The catch guards against a peer
        // that exited first — a send to it would panic, and a panic out
        // of drop aborts.
        if !std::thread::panicking() {
            let _ =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.flush_withheld()));
        }
    }
}

/// Wrap `t` in a [`FaultyTransport`] when a plan is present.
pub(crate) fn maybe_faulty(
    t: Box<dyn RankTransport>,
    plan: Option<FaultPlan>,
) -> Box<dyn RankTransport> {
    match plan {
        Some(plan) => Box::new(FaultyTransport::new(t, plan)),
        None => t,
    }
}

// ---------------------------------------------------------------------------
// TCP backend: framing
// ---------------------------------------------------------------------------

const TAG_HELLO: u32 = tags::CTRL_BASE;
const TAG_PEERS: u32 = tags::CTRL_BASE + 1;
const TAG_DIAL: u32 = tags::CTRL_BASE + 2;
const TAG_BARRIER: u32 = tags::CTRL_BASE + 3;
const TAG_BARRIER_ACK: u32 = tags::CTRL_BASE + 4;
const TAG_RESULT: u32 = tags::CTRL_BASE + 5;
const TAG_PANIC: u32 = tags::CTRL_BASE + 6;

/// `b"SRSFTCP1"` — first field of every handshake payload.
const MAGIC: u64 = u64::from_le_bytes(*b"SRSFTCP1");
const VERSION: u64 = 1;
const FRAME_HDR: usize = 16;
/// Sanity cap on a data-frame payload; a corrupted header cannot demand
/// more.
const MAX_FRAME: u64 = 1 << 32;
/// Cap on handshake-frame payloads, which are read from connectors that
/// have not yet proven a magic number (HELLO/DIAL are 48 bytes; PEERS is
/// `8 + 8p`).
const HANDSHAKE_FRAME_CAP: u64 = 1 << 20;
/// Per-connection budget for reading a HELLO/DIAL off a fresh accept: a
/// genuine rank sends it immediately after connecting, so a connector
/// silent for this long is a stray to reject — without letting it eat
/// the whole handshake deadline while real ranks queue in the backlog.
const ACCEPT_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Floor on how long the rendezvous, peer-table and mesh steps may take.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// The handshake deadline: workers re-execute `main`'s prefix before they
/// can connect — real recomputation, not a hang — and replay earlier TCP
/// sessions in-process, so the deadline scales with the world's receive
/// timeout (floored at [`HANDSHAKE_TIMEOUT`] so short test timeouts keep
/// a functional handshake). `SRSF_HANDSHAKE_SECS` overrides it for
/// launch prefixes heavier than the receive timeout.
fn handshake_timeout(recv_timeout: Duration) -> Duration {
    match std::env::var("SRSF_HANDSHAKE_SECS") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(secs) => Duration::from_secs(secs),
            // INVARIANT: deliberate — a malformed override must fail loudly at
            // startup instead of being silently replaced by the default (the
            // operator believes they lengthened the handshake window)
            Err(_) => panic!("SRSF_HANDSHAKE_SECS must be a whole number of seconds, got {s:?}"),
        },
        Err(std::env::VarError::NotPresent) => HANDSHAKE_TIMEOUT.max(recv_timeout),
        // INVARIANT: deliberate — same malformed-override argument as above
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("SRSF_HANDSHAKE_SECS is not valid UTF-8: {v:?}")
        }
    }
}

/// Bounded dial retry with deterministic exponential backoff: up to
/// [`DIAL_RETRIES`] retries sleeping 10, 20, 40, 80, 160, 320 ms between
/// attempts, so a worker that dials a peer an instant before its listener
/// is up (or mid SYN-queue overflow on a loaded host) recovers instead of
/// failing the whole handshake.
const DIAL_RETRIES: u32 = 6;
const DIAL_BACKOFF: Duration = Duration::from_millis(10);

fn connect_with_retry<A: std::net::ToSocketAddrs>(addr: A) -> std::io::Result<TcpStream> {
    let mut backoff = DIAL_BACKOFF;
    let mut last = None;
    for attempt in 0..=DIAL_RETRIES {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        match TcpStream::connect(&addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    // INVARIANT: the loop always runs at least once, so `last` is Some here
    Err(last.expect("at least one dial attempt"))
}
/// Slice length for the result wait's liveness polling: rank 0 waits for
/// a worker's result as long as the worker process is alive (its compute
/// may legitimately outlast any protocol timeout — the in-process
/// backend's join has the same semantics), failing fast only when the
/// process has exited without reporting.
const RESULT_POLL: Duration = Duration::from_secs(1);

/// Environment a spawned worker process reads its assignment from.
pub(crate) const ENV_RANK: &str = "SRSF_RANK";
pub(crate) const ENV_WORLD: &str = "SRSF_WORLD";
pub(crate) const ENV_ADDR: &str = "SRSF_ADDR";
pub(crate) const ENV_SEQ: &str = "SRSF_SEQ";
/// Set (to any value) to let worker processes inherit stdout instead of
/// discarding it.
pub(crate) const ENV_WORKER_STDOUT: &str = "SRSF_WORKER_STDOUT";

fn write_frame(s: &mut TcpStream, src: usize, tag: u32, payload: &[u8]) -> std::io::Result<()> {
    let mut hdr = [0u8; FRAME_HDR];
    hdr[0..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    hdr[8..12].copy_from_slice(&(src as u32).to_le_bytes());
    hdr[12..16].copy_from_slice(&tag.to_le_bytes());
    s.write_all(&hdr)?;
    s.write_all(payload)
}

/// Read one frame; `Ok(None)` on a clean EOF at a frame boundary.
/// `cap` bounds the allocation the header can demand: handshake reads
/// (which face arbitrary local connectors, *before* any magic check)
/// pass [`HANDSHAKE_FRAME_CAP`]; established rank links pass
/// [`MAX_FRAME`].
fn read_frame(s: &mut TcpStream, cap: u64) -> std::io::Result<Option<(usize, u32, Bytes)>> {
    let mut hdr = [0u8; FRAME_HDR];
    if !read_exact_or_eof(s, &mut hdr)? {
        return Ok(None);
    }
    // INVARIANT: the slice is a fixed-width field of the 16-byte header
    let len = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
    if len > cap {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame claims {len} payload bytes (cap {cap})"),
        ));
    }
    // INVARIANT: the slice is a fixed-width field of the 16-byte header
    let src = u32::from_le_bytes(hdr[8..12].try_into().unwrap()) as usize;
    // INVARIANT: the slice is a fixed-width field of the 16-byte header
    let tag = u32::from_le_bytes(hdr[12..16].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload)?;
    Ok(Some((src, tag, payload)))
}

/// `read_exact`, except a clean EOF before the first byte returns
/// `Ok(false)`.
fn read_exact_or_eof(s: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = s.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        filled += n;
    }
    Ok(true)
}

/// One reader thread per link: decode frames into the matching queue,
/// then report the link's EOF. The per-link thread is what keeps sockets
/// drained at all times — a rank blocked in compute cannot back-pressure
/// its peers into a send/send deadlock.
fn spawn_reader(mut stream: TcpStream, src: usize, tx: Sender<Event>) {
    std::thread::Builder::new()
        .name(format!("srsf-tcp-read-{src}"))
        .spawn(move || loop {
            match read_frame(&mut stream, MAX_FRAME) {
                Ok(Some((hdr_src, tag, payload))) => {
                    debug_assert_eq!(hdr_src, src, "frame src does not match its link");
                    // The link identity (fixed at handshake) is
                    // authoritative over the self-reported header field.
                    if tx.send(Event::Frame(RawMsg { src, tag, payload })).is_err() {
                        break;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send(Event::Eof(src));
                    break;
                }
            }
        })
        // INVARIANT: OS-thread spawn fails only on resource exhaustion
        .expect("spawn tcp reader thread");
}

// ---------------------------------------------------------------------------
// TCP backend: transport
// ---------------------------------------------------------------------------

/// The TCP backend: one socket per peer (write side owned here, read side
/// owned by the reader threads feeding `queue`).
struct TcpTransport {
    rank: usize,
    size: usize,
    peers: Vec<Option<TcpStream>>,
    queue: MsgQueue,
    barrier_seq: u64,
}

impl RankTransport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn send(&mut self, dst: usize, tag: u32, payload: Bytes) {
        let me = self.rank;
        // A dead or missing link makes the frame undeliverable; the
        // failure surfaces as a *typed* error at the next receive from
        // `dst` (the reader thread reports the socket EOF), so sends stay
        // best-effort and the resident world can degrade gracefully
        // instead of panicking mid-solve.
        let Some(s) = self.peers[dst].as_mut() else {
            return;
        };
        if let Err(e) = write_frame(s, me, tag, &payload) {
            eprintln!("srsf-runtime: rank {me} failed sending tag {tag} to rank {dst}: {e}");
            // Drop the write half: every later send to `dst` is a no-op.
            self.peers[dst] = None;
        }
    }
    fn recv_any_of(
        &mut self,
        src: usize,
        matching: &[u32],
        timeout: Duration,
    ) -> Result<RawMsg, RecvError> {
        self.queue.recv_where(src, matching, timeout)
    }

    /// Centralized message barrier through rank 0. Control frames bypass
    /// the data counters, mirroring the in-process `Barrier`.
    fn barrier(&mut self, timeout: Duration) -> Result<(), RecvError> {
        let seq = self.barrier_seq;
        self.barrier_seq += 1;
        if self.size == 1 {
            return Ok(());
        }
        let me = self.rank;
        let payload = seq.to_le_bytes().to_vec();
        if me == 0 {
            for src in 1..self.size {
                let m = self.queue.recv_where(src, &[TAG_BARRIER], timeout)?;
                assert_eq!(
                    m.payload, payload,
                    "barrier desync: rank {src} is at a different barrier than rank 0"
                );
            }
            for dst in 1..self.size {
                // INVARIANT: the handshake established a link to every rank
                let s = self.peers[dst].as_mut().expect("barrier link");
                write_frame(s, 0, TAG_BARRIER_ACK, &payload)
                    // INVARIANT: deliberate — an unreachable peer is unrecoverable for this rank;
                    // panicking with rank/tag context is how workers report fatal transport faults
                    // (the parent maps it to TAG_PANIC / exit status)
                    .unwrap_or_else(|e| panic!("barrier ack to rank {dst}: {e}"));
            }
        } else {
            // INVARIANT: the handshake established a link to rank 0
            let s = self.peers[0].as_mut().expect("barrier link");
            write_frame(s, me, TAG_BARRIER, &payload)
                // INVARIANT: deliberate — an unreachable peer is unrecoverable for this rank;
                // panicking with rank/tag context is how workers report fatal transport faults
                // (the parent maps it to TAG_PANIC / exit status)
                .unwrap_or_else(|e| panic!("rank {me} barrier arrival: {e}"));
            let m = self.queue.recv_where(0, &[TAG_BARRIER_ACK], timeout)?;
            assert_eq!(m.payload, payload, "barrier desync at rank {me}");
        }
        Ok(())
    }

    fn progress(&mut self) {
        // The per-link reader threads already drain the sockets into the
        // event channel; this moves their harvest into the matching queue.
        self.queue.drain_ready();
    }
}

// ---------------------------------------------------------------------------
// Session bookkeeping, launcher configuration
// ---------------------------------------------------------------------------

/// The assignment a spawned worker process reads from its environment.
pub(crate) struct WorkerJob {
    pub rank: usize,
    pub world: usize,
    pub addr: String,
    pub seq: u64,
}

fn parse_worker_env() -> Option<WorkerJob> {
    let rank: usize = std::env::var(ENV_RANK).ok()?.parse().ok()?;
    let world: usize = std::env::var(ENV_WORLD).ok()?.parse().ok()?;
    let addr = std::env::var(ENV_ADDR).ok()?;
    let seq: u64 = std::env::var(ENV_SEQ).ok()?.parse().ok()?;
    Some(WorkerJob {
        rank,
        world,
        addr,
        seq,
    })
}

pub(crate) fn worker_job() -> Option<&'static WorkerJob> {
    static JOB: OnceLock<Option<WorkerJob>> = OnceLock::new();
    JOB.get_or_init(parse_worker_env).as_ref()
}

/// `true` when this process is a spawned TCP worker rank rather than the
/// launching process. Programs that print around `World::run` can use
/// this to keep output on the launcher only (workers re-run `main` up to
/// the `run` call and then exit inside it, so code *before* the call runs
/// in every rank process).
#[doc(hidden)]
// ORACLE: tcp_world
pub fn is_spawned_worker() -> bool {
    worker_job().is_some()
}

thread_local! {
    /// TCP sessions created by this thread, in order. A worker is spawned
    /// for one specific session (`SRSF_SEQ`) and must re-reach exactly
    /// that `World::run` call; earlier sessions re-run in-process.
    static TCP_SESSION: Cell<u64> = const { Cell::new(0) };
    /// Override for the argv a TCP world hands to spawned workers.
    static CHILD_ARGS: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

pub(crate) fn next_session_seq() -> u64 {
    TCP_SESSION.with(|c| {
        let v = c.get() + 1;
        c.set(v);
        v
    })
}

/// Override the arguments passed to re-executed worker processes for TCP
/// worlds created *by this thread* (`None` restores the default: the
/// launching process's own arguments).
///
/// Required inside `cargo test` binaries, where the default would make a
/// worker re-run the whole test suite: pass
/// `vec!["<full_test_name>".into(), "--exact".into()]` so the worker
/// re-runs only the test that spawned it.
#[doc(hidden)]
// ORACLE: every TCP test (tcp_world, transport_equiv, one_schedule, fault_matrix, ...)
pub fn set_tcp_child_args(args: Option<Vec<String>>) {
    CHILD_ARGS.with(|c| *c.borrow_mut() = args);
}

fn child_args() -> Vec<String> {
    CHILD_ARGS
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| std::env::args().skip(1).collect())
}

/// Kills still-running workers if the launcher unwinds mid-session, so a
/// failed test cannot strand rank processes waiting on their timeouts.
#[derive(Default)]
pub(crate) struct ChildGuard {
    spawned: Vec<(usize, std::process::Child)>,
    done: bool,
}

impl ChildGuard {
    /// Panic early (with the worker's exit status) if a worker died
    /// before completing the handshake.
    fn check_none_exited(&mut self) {
        for (rank, child) in &mut self.spawned {
            if let Ok(Some(status)) = child.try_wait() {
                // INVARIANT: deliberate — a worker dying mid-handshake leaves the job
                // unstartable; failing fast with its exit status is the report
                panic!("worker rank {rank} exited during the handshake: {status}");
            }
        }
    }

    /// `Some(status)` if the worker for `rank` has exited.
    pub(crate) fn exited(&mut self, rank: usize) -> Option<std::process::ExitStatus> {
        self.spawned
            .iter_mut()
            .find(|(r, _)| *r == rank)
            .and_then(|(_, child)| child.try_wait().ok().flatten())
    }

    /// Exit status of the worker for `rank`, waiting briefly for the
    /// process to be reaped (its socket EOF precedes the exit by a
    /// moment).
    pub(crate) fn status_of(&mut self, rank: usize) -> String {
        let Some((_, child)) = self.spawned.iter_mut().find(|(r, _)| *r == rank) else {
            return "unknown worker".to_string();
        };
        for _ in 0..200 {
            if let Ok(Some(status)) = child.try_wait() {
                return status.to_string();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        "process still running".to_string()
    }

    /// Mark the session complete and reap every worker, leaving the
    /// guard disarmed for its eventual drop.
    pub(crate) fn finish_ref(&mut self) {
        self.done = true;
        for (_, child) in &mut self.spawned {
            let _ = child.wait();
        }
    }

    /// Give workers up to `budget` to exit on their own (they observe the
    /// closed rank-0 links), disarming the guard if they all do; any
    /// stragglers are killed by the guard's drop.
    pub(crate) fn wait_graceful(&mut self, budget: Duration) {
        if self.done {
            return;
        }
        let deadline = Instant::now() + budget;
        loop {
            let all_exited = self
                .spawned
                .iter_mut()
                .all(|(_, child)| matches!(child.try_wait(), Ok(Some(_))));
            if all_exited {
                self.done = true;
                return;
            }
            if Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if !self.done {
            for (_, child) in &mut self.spawned {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TCP backend: launcher (rank 0) and worker entry
// ---------------------------------------------------------------------------

/// Validate a rendezvous `HELLO`; returns the worker's `(rank, peer
/// port)`. Uses the bounds-checked readers throughout — this is the one
/// place where bytes from an arbitrary connector reach the runtime.
fn read_hello(s: &mut TcpStream, p: usize, seq: u64) -> Result<(usize, u16), String> {
    let (_, tag, payload) = read_frame(s, HANDSHAKE_FRAME_CAP)
        .map_err(|e| format!("hello read failed: {e}"))?
        .ok_or("connection closed before HELLO")?;
    if tag != TAG_HELLO {
        return Err(format!("expected HELLO, got tag {tag}"));
    }
    let mut r = ByteReader::new(payload);
    let mut next = |what: &'static str| {
        r.try_get_u64()
            .map_err(|e| format!("malformed HELLO ({what}): {e}"))
    };
    if next("magic")? != MAGIC {
        return Err("bad magic — connector is not an srsf worker".into());
    }
    let version = next("version")?;
    if version != VERSION {
        return Err(format!("wire version {version}, expected {VERSION}"));
    }
    let got_seq = next("session")?;
    if got_seq != seq {
        return Err(format!(
            "worker from session {got_seq}, this is session {seq}"
        ));
    }
    let world = next("world")? as usize;
    if world != p {
        return Err(format!(
            "worker built a {world}-rank world, launcher has {p}"
        ));
    }
    let rank = next("rank")? as usize;
    if rank == 0 || rank >= p {
        return Err(format!("worker rank {rank} out of range 1..{p}"));
    }
    let port = next("port")?;
    let port = u16::try_from(port).map_err(|_| format!("peer port {port} out of range"))?;
    Ok((rank, port))
}

/// Rank-0 side of the TCP launch: spawn the worker processes, run the
/// rendezvous and peer-table broadcast, and wire up rank 0's transport.
/// Shared between the run-to-completion path ([`run_tcp_parent`]) and the
/// resident-session path (`World::run_resident`), which keeps the
/// returned transport and guard alive inside a
/// [`crate::world::WorldHandle`].
pub(crate) fn tcp_parent_setup(world: &World, seq: u64) -> (Box<dyn RankTransport>, ChildGuard) {
    let p = world.size();
    let recv_timeout = world.recv_timeout();
    // INVARIANT: deliberate — a handshake fault before the transport exists can
    // only be reported by dying; the parent turns it into a worker exit status
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind rendezvous listener");
    listener
        .set_nonblocking(true)
        // INVARIANT: deliberate — a handshake fault before the transport exists can
        // only be reported by dying; the parent turns it into a worker exit status
        .expect("nonblocking rendezvous listener");
    // INVARIANT: deliberate — a handshake fault before the transport exists can
    // only be reported by dying; the parent turns it into a worker exit status
    let addr = listener.local_addr().expect("rendezvous address");
    // INVARIANT: deliberate — a handshake fault before the transport exists can
    // only be reported by dying; the parent turns it into a worker exit status
    let exe = std::env::current_exe().expect("current_exe for worker re-exec");
    let args = child_args();

    let mut children = ChildGuard::default();
    for rank in 1..p {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&args)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_WORLD, p.to_string())
            .env(ENV_ADDR, addr.to_string())
            .env(ENV_SEQ, seq.to_string());
        if std::env::var_os(ENV_WORKER_STDOUT).is_none() {
            // Workers re-run main's prefix, so their stdout would
            // duplicate the launcher's; panics still reach stderr.
            cmd.stdout(std::process::Stdio::null());
        }
        let child = cmd
            .spawn()
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            .unwrap_or_else(|e| panic!("spawn worker rank {rank}: {e}"));
        children.spawned.push((rank, child));
    }

    // Rendezvous: collect one valid HELLO per worker rank.
    let handshake = handshake_timeout(recv_timeout);
    let deadline = Instant::now() + handshake;
    let mut streams: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    let mut ports = vec![0u16; p];
    let mut got = 0;
    while got + 1 < p {
        // The deadline binds every branch: a stray connector that stalls
        // mid-hello must not extend the wait past it (its read timeout
        // is capped at the remaining budget), and repeated dials cannot
        // keep the accept arm hot forever.
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(
            remaining > Duration::ZERO,
            "rendezvous timed out with {got} of {} workers connected",
            p - 1
        );
        match listener.accept() {
            Ok((mut s, _)) => {
                s.set_nonblocking(false).ok();
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(remaining.min(ACCEPT_READ_TIMEOUT)))
                    .ok();
                match read_hello(&mut s, p, seq) {
                    Ok((rank, port)) => {
                        assert!(
                            streams[rank].is_none(),
                            "worker rank {rank} connected twice"
                        );
                        ports[rank] = port;
                        streams[rank] = Some(s);
                        got += 1;
                    }
                    Err(e) => eprintln!("srsf-runtime: rejected rendezvous connection: {e}"),
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                children.check_none_exited();
                std::thread::sleep(Duration::from_millis(2));
            }
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            Err(e) => panic!("rendezvous accept failed: {e}"),
        }
    }

    // Broadcast the peer table; the rendezvous links stay open as the
    // rank-0 data links.
    let mut w = ByteWriter::new();
    w.put_u64(p as u64);
    for &port in &ports {
        w.put_u64(port as u64);
    }
    let table = w.finish();
    for rank in 1..p {
        // INVARIANT: the accept loop above filled every stream slot
        let s = streams[rank].as_mut().expect("rendezvous link");
        s.set_read_timeout(None).ok();
        write_frame(s, 0, TAG_PEERS, &table)
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            .unwrap_or_else(|e| panic!("send peer table to rank {rank}: {e}"));
    }

    let (tx, rx) = channel();
    for rank in 1..p {
        let read_half = streams[rank]
            .as_ref()
            // INVARIANT: the accept loop above filled every stream slot
            .unwrap()
            .try_clone()
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            .expect("clone rank link");
        spawn_reader(read_half, rank, tx.clone());
    }
    drop(tx);

    let transport = TcpTransport {
        rank: 0,
        size: p,
        peers: streams,
        queue: MsgQueue::new(0, p, rx),
        barrier_seq: 0,
    };
    (
        maybe_faulty(Box::new(transport), world.fault_plan()),
        children,
    )
}

/// Collect the `RESULT`/`PANIC` frame of every worker rank. The wait
/// mirrors the in-process join: block as long as the worker process is
/// alive (post-communication compute has no protocol deadline), fail
/// fast once it has exited without reporting — the exit status then
/// names the real cause instead of a timeout. A relayed worker panic
/// re-panics here.
pub(crate) fn collect_tcp_results<R: Wire>(
    transport: &mut dyn RankTransport,
    children: &mut ChildGuard,
    p: usize,
) -> (Vec<R>, Vec<CommStats>) {
    let mut results = Vec::with_capacity(p - 1);
    let mut stats = Vec::with_capacity(p - 1);
    for src in 1..p {
        let m = loop {
            match transport.recv_any_of(src, &[TAG_RESULT, TAG_PANIC], RESULT_POLL) {
                Ok(m) => break m,
                Err(e @ (RecvError::Disconnected { .. } | RecvError::PeerPanicked { .. })) => {
                    let status = children.status_of(src);
                    // INVARIANT: deliberate — a worker dying without a result frame is fatal to
                    // the job; its exit status is the diagnostic
                    panic!("worker rank {src} exited without reporting a result ({status}): {e}");
                }
                Err(RecvError::Timeout { .. }) => {
                    if let Some(status) = children.exited(src) {
                        // The result frame may still be draining through
                        // the reader thread (exit closely follows the
                        // send); give it one more poll before declaring
                        // the worker dead.
                        match transport.recv_any_of(src, &[TAG_RESULT, TAG_PANIC], RESULT_POLL) {
                            Ok(m) => break m,
                            // INVARIANT: deliberate — same dead-worker argument as above
                            Err(e) => panic!(
                                "worker rank {src} exited without reporting a result \
                                 ({status}): {e}"
                            ),
                        }
                    }
                }
            }
        };
        if m.tag == TAG_PANIC {
            let msg = String::from_utf8_lossy(&m.payload).into_owned();
            // INVARIANT: deliberate — re-raising a worker panic on the driver thread is
            // the TAG_PANIC protocol's whole point
            panic!("rank {src} panicked: {msg}");
        }
        let mut r = ByteReader::new(m.payload);
        let s =
            // INVARIANT: result frames come from our own encoder; a malformed one is a
            // peer bug worth dying loudly on
            CommStats::decode(&mut r).unwrap_or_else(|e| panic!("rank {src} result frame: {e}"));
        // INVARIANT: same trusted result-frame argument as above
        let val = R::decode(&mut r).unwrap_or_else(|e| panic!("rank {src} result frame: {e}"));
        stats.push(s);
        results.push(val);
    }
    children.finish_ref();
    (results, stats)
}

/// Rank-0 side of a TCP world: spawn workers, run the rendezvous, run
/// rank 0 in this process, then collect the workers' results.
pub(crate) fn run_tcp_parent<R, F>(world: &World, seq: u64, f: F) -> (Vec<R>, WorldStats)
where
    R: Send + Wire,
    F: Fn(&mut RankCtx) -> R + Send + Sync,
{
    let p = world.size();
    let (transport, mut children) = tcp_parent_setup(world, seq);
    let mut ctx = RankCtx::from_transport(transport, world.recv_timeout());
    srsf_trace::enter_rank(0);
    let r0 = f(&mut ctx);
    let stats0 = ctx.stats();
    let mut transport = ctx.into_transport();

    let (worker_results, worker_stats) =
        collect_tcp_results::<R>(&mut *transport, &mut children, p);
    let mut results = Vec::with_capacity(p);
    let mut world_stats = WorldStats {
        per_rank: Vec::with_capacity(p),
    };
    results.push(r0);
    world_stats.per_rank.push(stats0);
    results.extend(worker_results);
    world_stats.per_rank.extend(worker_stats);
    (results, world_stats)
}

/// Worker side of a TCP world: join the rendezvous, complete the mesh,
/// run this rank's closure, report the result, and exit the process
/// (nothing after the launching `World::run` call may execute here).
pub(crate) fn run_tcp_worker<R, F>(job: &WorkerJob, world: &World, f: F) -> !
where
    R: Send + Wire,
    F: Fn(&mut RankCtx) -> R + Send + Sync,
{
    let p = world.size();
    let rank = job.rank;
    assert_eq!(
        job.world, p,
        "worker rank {rank} was spawned for a {}-rank world but this process built one with \
         {p} ranks — the program must be deterministic up to its World::run calls",
        job.world
    );
    assert!(rank >= 1 && rank < p, "worker rank {rank} out of range");

    let mut hub = connect_with_retry(job.addr.as_str())
        // INVARIANT: deliberate — a handshake fault before the transport exists can
        // only be reported by dying; the parent turns it into a worker exit status
        .unwrap_or_else(|e| panic!("rank {rank}: cannot reach rendezvous {}: {e}", job.addr));
    hub.set_nodelay(true).ok();
    let handshake = handshake_timeout(world.recv_timeout());
    hub.set_read_timeout(Some(handshake)).ok();
    // INVARIANT: deliberate — a handshake fault before the transport exists can
    // only be reported by dying; the parent turns it into a worker exit status
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind peer listener");
    // INVARIANT: deliberate — a handshake fault before the transport exists can
    // only be reported by dying; the parent turns it into a worker exit status
    let my_port = listener.local_addr().expect("peer listener address").port();

    let mut w = ByteWriter::new();
    w.put_u64(MAGIC);
    w.put_u64(VERSION);
    w.put_u64(job.seq);
    w.put_u64(p as u64);
    w.put_u64(rank as u64);
    w.put_u64(my_port as u64);
    write_frame(&mut hub, rank, TAG_HELLO, &w.finish())
        // INVARIANT: deliberate — a handshake fault before the transport exists can
        // only be reported by dying; the parent turns it into a worker exit status
        .unwrap_or_else(|e| panic!("rank {rank}: send HELLO: {e}"));

    let (src, tag, payload) = read_frame(&mut hub, HANDSHAKE_FRAME_CAP)
        // INVARIANT: deliberate — a handshake fault before the transport exists can
        // only be reported by dying; the parent turns it into a worker exit status
        .unwrap_or_else(|e| panic!("rank {rank}: read peer table: {e}"))
        // INVARIANT: deliberate — a handshake fault before the transport exists can
        // only be reported by dying; the parent turns it into a worker exit status
        .unwrap_or_else(|| panic!("rank {rank}: rendezvous closed before the peer table"));
    assert_eq!((src, tag), (0, TAG_PEERS), "handshake: expected PEERS");
    let mut r = ByteReader::new(payload);
    let world_size = r
        .try_get_u64()
        // INVARIANT: deliberate — a handshake fault before the transport exists can
        // only be reported by dying; the parent turns it into a worker exit status
        .unwrap_or_else(|e| panic!("rank {rank}: peer table: {e}")) as usize;
    assert_eq!(world_size, p, "peer table world size mismatch");
    let ports: Vec<u16> = (0..p)
        .map(|_| {
            r.try_get_u64()
                // INVARIANT: deliberate — a handshake fault before the transport exists can
                // only be reported by dying; the parent turns it into a worker exit status
                .unwrap_or_else(|e| panic!("rank {rank}: peer table: {e}")) as u16
        })
        .collect();

    // Mesh: dial every lower worker rank, accept every higher one.
    let mut peers: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    for dst in 1..rank {
        let mut s = connect_with_retry(("127.0.0.1", ports[dst]))
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            .unwrap_or_else(|e| panic!("rank {rank}: dial rank {dst}: {e}"));
        s.set_nodelay(true).ok();
        let mut w = ByteWriter::new();
        w.put_u64(MAGIC);
        w.put_u64(job.seq);
        w.put_u64(rank as u64);
        write_frame(&mut s, rank, TAG_DIAL, &w.finish())
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            .unwrap_or_else(|e| panic!("rank {rank}: DIAL rank {dst}: {e}"));
        peers[dst] = Some(s);
    }
    listener
        .set_nonblocking(true)
        // INVARIANT: deliberate — a handshake fault before the transport exists can
        // only be reported by dying; the parent turns it into a worker exit status
        .expect("nonblocking peer listener");
    let deadline = Instant::now() + handshake;
    let mut accepted = 0;
    while accepted < p - 1 - rank {
        // As in the rendezvous loop: the deadline binds every branch and
        // caps how long a stalled dialer can hold the accept arm.
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(
            remaining > Duration::ZERO,
            "rank {rank}: peer mesh timed out ({accepted} of {} dials)",
            p - 1 - rank
        );
        match listener.accept() {
            Ok((mut s, _)) => {
                s.set_nonblocking(false).ok();
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(remaining.min(ACCEPT_READ_TIMEOUT)))
                    .ok();
                match read_dial(&mut s, p, job.seq) {
                    Ok(peer) => {
                        assert!(
                            peer > rank && peers[peer].is_none(),
                            "unexpected DIAL from rank {peer}"
                        );
                        s.set_read_timeout(None).ok();
                        peers[peer] = Some(s);
                        accepted += 1;
                    }
                    Err(e) => eprintln!("srsf-runtime: rank {rank} rejected peer dial: {e}"),
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            Err(e) => panic!("rank {rank}: peer accept failed: {e}"),
        }
    }

    hub.set_read_timeout(None).ok();
    // A second handle to the rank-0 link for the result frame, taken
    // before the transport owns the stream.
    // INVARIANT: deliberate — a handshake fault before the transport exists can
    // only be reported by dying; the parent turns it into a worker exit status
    let mut result_link = hub.try_clone().expect("clone rank-0 link");
    peers[0] = Some(hub);

    let (tx, rx) = channel();
    for peer in 0..p {
        if peer == rank {
            continue;
        }
        let read_half = peers[peer]
            .as_ref()
            // INVARIANT: the dial/accept loops above established every peer link
            .unwrap_or_else(|| panic!("rank {rank}: missing link to rank {peer}"))
            .try_clone()
            // INVARIANT: deliberate — a handshake fault before the transport exists can
            // only be reported by dying; the parent turns it into a worker exit status
            .expect("clone peer link");
        spawn_reader(read_half, peer, tx.clone());
    }
    drop(tx);

    let transport = TcpTransport {
        rank,
        size: p,
        peers,
        queue: MsgQueue::new(rank, p, rx),
        barrier_seq: 0,
    };
    let mut ctx = RankCtx::from_transport(
        maybe_faulty(Box::new(transport), world.fault_plan()),
        world.recv_timeout(),
    );
    srsf_trace::enter_rank(rank);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
    let code = match outcome {
        Ok(val) => {
            // `process::exit` below skips destructors: pump the transport
            // once so a frame withheld by a fault plan on this rank's
            // final send is redelivered before the process goes away.
            ctx.progress();
            let mut w = ByteWriter::new();
            ctx.stats().encode(&mut w);
            val.encode(&mut w);
            write_frame(&mut result_link, rank, TAG_RESULT, &w.finish())
                // INVARIANT: deliberate — an unreachable peer is unrecoverable for this rank;
                // panicking with rank/tag context is how workers report fatal transport faults
                // (the parent maps it to TAG_PANIC / exit status)
                .unwrap_or_else(|e| panic!("rank {rank}: send result: {e}"));
            0
        }
        Err(payload) => {
            let msg = panic_message(payload);
            let _ = write_frame(&mut result_link, rank, TAG_PANIC, msg.as_bytes());
            101
        }
    };
    std::process::exit(code);
}

/// Validate a peer-mesh `DIAL`; returns the dialing rank.
fn read_dial(s: &mut TcpStream, p: usize, seq: u64) -> Result<usize, String> {
    let (_, tag, payload) = read_frame(s, HANDSHAKE_FRAME_CAP)
        .map_err(|e| format!("dial read failed: {e}"))?
        .ok_or("connection closed before DIAL")?;
    if tag != TAG_DIAL {
        return Err(format!("expected DIAL, got tag {tag}"));
    }
    let mut r = ByteReader::new(payload);
    let mut next = |what: &'static str| {
        r.try_get_u64()
            .map_err(|e| format!("malformed DIAL ({what}): {e}"))
    };
    if next("magic")? != MAGIC {
        return Err("bad magic".into());
    }
    let got_seq = next("session")?;
    if got_seq != seq {
        return Err(format!(
            "dial from session {got_seq}, this is session {seq}"
        ));
    }
    let rank = next("rank")? as usize;
    if rank == 0 || rank >= p {
        return Err(format!("dialing rank {rank} out of range"));
    }
    Ok(rank)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
