//! The rank world: `p` ranks over a pluggable message transport.
//!
//! Each rank runs a user closure against a [`RankCtx`] that exposes the
//! message-passing surface (tagged point-to-point send/recv, barrier) and
//! the accounting hooks. Ranks share no mutable state: all coordination
//! goes through byte messages, so the algorithm code is structured exactly
//! as an MPI program would be. Which fabric carries the bytes is chosen
//! with [`World::transport`]:
//!
//! * [`Transport::InProc`] (default) — ranks as scoped OS threads of this
//!   process over in-memory channels;
//! * [`Transport::Tcp`] — ranks as spawned OS processes over localhost
//!   sockets (see [`crate::transport`] for the launcher, handshake and
//!   wire format).
//!
//! The per-rank [`CommStats`] counters are maintained here, *above* the
//! transport, so the same program moves the same messages and words on
//! either backend — backend equivalence of the counters is structural,
//! and the paper's §IV communication bounds can be measured over real
//! inter-process traffic.
//!
//! Deadlock discipline: every receive has a matching `send` issued in the
//! same round, and every receive and barrier is bounded by the world's
//! receive timeout. A wait that cannot complete comes back as a typed
//! [`RecvError`] — never a panic, never a hang — naming the waiting rank,
//! the expected source, and the tag decoded back into algorithm terms
//! (level / phase / kind — see [`crate::tags`]). A rank whose closure has
//! ended, by returning or by panicking, is gone on both backends: a TCP
//! rank's sockets close when its process exits, and an in-process rank
//! announces its exit to every peer. Frames it sent before it left are
//! still delivered first, so a peer that waits on it fails at once
//! (`Disconnected`) instead of waiting out the timeout.

use crate::codec::{Bytes, Wire};
use crate::stats::{CommStats, WorldStats};
use crate::tags;
use crate::transport::{self, BaseTransport, FaultPlan, RankTransport, RecvError, Transport};
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::atomic::{AtomicBool, Ordering};
use srsf_verify::sync::Arc;
use std::time::{Duration, Instant};

/// How finely the idle wait of a resident serve loop slices its receive,
/// so a cleared session-liveness flag is noticed promptly.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Per-rank handle: rank id, world size, messaging, counters.
pub struct RankCtx {
    transport: Box<dyn RankTransport>,
    stats: CommStats,
    recv_timeout: Duration,
    /// Cleared when the resident session this rank serves is torn down
    /// (in-process backend only; TCP ranks learn the same from link EOF).
    alive: Option<Arc<AtomicBool>>,
}

impl RankCtx {
    pub(crate) fn from_transport(
        transport: Box<dyn RankTransport>,
        recv_timeout: Duration,
    ) -> Self {
        Self {
            transport,
            stats: CommStats::default(),
            recv_timeout,
            alive: None,
        }
    }

    pub(crate) fn set_alive_flag(&mut self, flag: Arc<AtomicBool>) {
        self.alive = Some(flag);
    }

    pub(crate) fn into_transport(self) -> Box<dyn RankTransport> {
        self.transport
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// World size `p`.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Send `payload` to rank `dst` under `tag`. Counts one message and
    /// `ceil(len/8)` words.
    pub fn send(&mut self, dst: usize, tag: u32, payload: Bytes) {
        assert!(dst < self.size(), "rank {dst} out of range");
        assert_ne!(dst, self.rank(), "self-sends are a protocol bug");
        assert!(
            !tags::is_control(tag),
            "tag {tag} is reserved for transport control frames"
        );
        assert!(
            !tags::is_serve(tag),
            "tag {tag} is a serve-envelope tag; use send_service"
        );
        self.stats.msgs_sent += 1;
        self.stats.words_sent += (payload.len() as u64).div_ceil(8);
        let mut sp = srsf_trace::span!(srsf_trace::Cat::Comm, "send {}", tags::describe(tag));
        sp.add_bytes(payload.len() as u64);
        self.transport.send(dst, tag, payload);
    }

    /// Send a resident-session service frame (command dispatch, RHS or
    /// solution slab, stats probe — a [`tags::is_serve`] tag), **without**
    /// touching the §IV data counters. Service frames are the serving
    /// API's envelope — the residency analogue of the old rank-0 record
    /// gather, and of the transports' own control frames — not Algorithm
    /// 2 traffic, so counting them would pollute the per-solve
    /// communication-bound measurements the counters exist for.
    pub fn send_service(&mut self, dst: usize, tag: u32, payload: Bytes) {
        assert!(dst < self.size(), "rank {dst} out of range");
        assert_ne!(dst, self.rank(), "self-sends are a protocol bug");
        assert!(tags::is_serve(tag), "send_service requires a serve tag");
        self.transport.send(dst, tag, payload);
    }

    /// Blocking wait for the next `(src, tag)` service frame during the
    /// *idle* phase of a resident serve loop. Idleness is not a protocol
    /// error — a resident rank may legitimately wait arbitrarily long for
    /// the next command — so no receive timeout applies; instead the wait
    /// is sliced so session teardown is noticed promptly. Returns `None`
    /// when the session is over without a frame: the rank-0 handle was
    /// dropped (liveness flag cleared on the in-process backend, link EOF
    /// on TCP), which a resident worker treats as an implicit shutdown.
    pub fn recv_service_idle(&mut self, src: usize, tag: u32) -> Option<Bytes> {
        loop {
            match self
                .transport
                .recv_any_of(src, &[tag, tags::TAG_SERVE_PING], IDLE_POLL)
            {
                Ok(m) if m.tag == tags::TAG_SERVE_PING => {
                    // Health probe ([`WorldHandle::health`]): echo the
                    // nonce back on the uncounted service path and keep
                    // waiting for a real command. Only the idle wait
                    // answers probes — a rank busy mid-solve reads as
                    // unresponsive, which is exactly what the probe asks.
                    self.transport.send(src, tags::TAG_SERVE_PONG, m.payload);
                    continue;
                }
                Ok(m) => return Some(m.payload),
                Err(RecvError::Timeout { .. }) => {
                    // Acquire pairs with the Release store in
                    // `WorldHandle::finish`/`Drop`: a cleared flag makes the
                    // driver's last frames visible to the drain below. No
                    // other state rides on this flag, so SeqCst adds nothing.
                    let torn_down = self
                        .alive
                        .as_ref()
                        .is_some_and(|flag| !flag.load(Ordering::Acquire));
                    if torn_down {
                        // Drain before giving up: a frame sent just before
                        // the flag cleared may land between our timeout and
                        // the flag check, and returning `None` here would
                        // silently drop it. The srsf-verify model of this
                        // loop (`shutdown_by_liveness_flag_terminates` in
                        // crates/verify/tests/models.rs) catches exactly
                        // this lost-command window when the drain is absent.
                        return match self.transport.recv_any_of(src, &[tag], Duration::ZERO) {
                            Ok(m) => Some(m.payload),
                            Err(_) => None,
                        };
                    }
                }
                // Rank 0 is gone (or died of a panic): session over.
                Err(_) => return None,
            }
        }
    }

    /// Blocking receive of the next message from `src` with `tag`.
    /// Out-of-order messages are buffered, so rank pairs can interleave
    /// tags freely. A timeout or a dead link comes back as a typed
    /// [`RecvError`] naming the waiting rank, the expected source and the
    /// decoded tag — on both backends.
    pub fn try_recv(&mut self, src: usize, tag: u32) -> Result<Bytes, RecvError> {
        let mut sp = srsf_trace::span!(srsf_trace::Cat::Comm, "recv {}", tags::describe(tag));
        let start = Instant::now();
        let m = self.transport.recv_any_of(src, &[tag], self.recv_timeout)?;
        self.stats.wait_s += start.elapsed().as_secs_f64();
        sp.add_bytes(m.payload.len() as u64);
        Ok(m.payload)
    }

    /// Synchronize all ranks; a peer that died or stalled is the typed
    /// [`RecvError`] within the receive timeout.
    pub fn try_barrier(&mut self) -> Result<(), RecvError> {
        let _sp = srsf_trace::span!(srsf_trace::Cat::Comm, "barrier");
        let start = Instant::now();
        self.transport.barrier(self.recv_timeout)?;
        self.stats.wait_s += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Opportunistically pump the transport without blocking: frames that
    /// already arrived move into the matching queue, so a compute phase
    /// can overlap with in-flight neighbor traffic and the eventual
    /// blocking [`try_recv`](Self::try_recv) finds its frame pre-buffered. Never
    /// waits and touches no counters — receives are counted (and their
    /// wait time accounted) only where they block.
    pub fn progress(&mut self) {
        self.transport.progress();
    }

    /// Run `f` and account its wall time as local computation.
    pub fn compute<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.stats.compute_s += start.elapsed().as_secs_f64();
        r
    }

    /// Current counters (snapshot).
    pub fn stats(&self) -> CommStats {
        self.stats
    }
}

/// A world of `p` ranks.
pub struct World {
    p: usize,
    recv_timeout: Duration,
    transport: Transport,
}

impl World {
    /// Create a world with `p` ranks on the in-process backend.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1);
        Self {
            p,
            recv_timeout: Duration::from_secs(120),
            transport: Transport::InProc,
        }
    }

    /// Select the message transport (default: [`Transport::InProc`]).
    pub fn transport(mut self, t: Transport) -> Self {
        self.transport = t;
        self
    }

    /// Override the receive timeout (tests use short ones). Honored by
    /// both backends.
    pub fn with_recv_timeout(mut self, t: Duration) -> Self {
        self.recv_timeout = t;
        self
    }

    /// World size `p`.
    pub fn size(&self) -> usize {
        self.p
    }

    pub(crate) fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    /// The fault schedule attached to this world's transport selection,
    /// if any (see [`Transport::Faulty`]).
    pub(crate) fn fault_plan(&self) -> Option<FaultPlan> {
        self.transport.fault_plan()
    }

    /// Run `f(rank_ctx)` on every rank concurrently; returns the per-rank
    /// results and the communication statistics.
    ///
    /// On [`Transport::Tcp`] this call spawns ranks `1..p` as real OS
    /// processes (re-executing the current binary; see
    /// [`crate::transport`]) and runs rank 0 in the calling process. In a
    /// spawned worker the call never returns: the worker runs its rank,
    /// reports its result to rank 0, and exits. `R: Wire` is what carries
    /// the workers' results across the process boundary; on the
    /// in-process backend it is not exercised.
    #[doc(hidden)]
    // ORACLE: the world.rs and tcp_world.rs tests drive one-shot worlds
    // through it; the library's own sessions are resident (`run_resident`).
    pub fn run<R, F>(&self, f: F) -> (Vec<R>, WorldStats)
    where
        R: Send + Wire,
        F: Fn(&mut RankCtx) -> R + Send + Sync,
    {
        match self.transport.base() {
            BaseTransport::InProc => self.run_inproc(f),
            BaseTransport::Tcp => {
                let seq = transport::next_session_seq();
                if let Some(job) = transport::worker_job() {
                    if job.seq == seq {
                        transport::run_tcp_worker(job, self, f)
                    } else {
                        // A worker re-running main's prefix has hit a TCP
                        // session *earlier* than the one it was spawned
                        // for: recompute it in-process to reach the same
                        // program point with the same state.
                        self.run_inproc(f)
                    }
                } else if self.p == 1 {
                    // A 1-rank world exchanges no messages; there is no
                    // transport to exercise and nothing to spawn.
                    self.run_inproc(f)
                } else {
                    transport::run_tcp_parent(self, seq, f)
                }
            }
        }
    }

    fn run_inproc<R, F>(&self, f: F) -> (Vec<R>, WorldStats)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Send + Sync,
    {
        let p = self.p;
        let f = &f;
        let plan = self.fault_plan();
        let mut ctxs: Vec<RankCtx> = transport::inproc_world(p)
            .into_iter()
            .map(|t| RankCtx::from_transport(transport::maybe_faulty(t, plan), self.recv_timeout))
            .collect();

        let mut out: Vec<Option<(R, CommStats)>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, mut ctx) in ctxs.drain(..).enumerate() {
                handles.push((
                    rank,
                    scope.spawn(move || {
                        // Tag this thread for the tracing layer so its
                        // spans collect under the rank it executes.
                        srsf_trace::enter_rank(rank);
                        let r = run_rank(&mut ctx, f);
                        (r, ctx.stats())
                    }),
                ));
            }
            for (rank, h) in handles {
                match h.join() {
                    Ok(v) => out[rank] = Some(v),
                    // Re-raise the rank's own panic payload so the
                    // diagnostic (e.g. a decoded recv timeout) survives,
                    // mirroring how the TCP backend relays worker panics.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        let mut results = Vec::with_capacity(p);
        let mut stats = WorldStats::default();
        for slot in out {
            // INVARIANT: every rank thread fills its slot before joining; an empty
            // slot implies a panicked rank, which already propagated via join
            let (r, s) = slot.expect("missing rank result");
            results.push(r);
            stats.per_rank.push(s);
        }
        (results, stats)
    }

    /// Run a **resident** session: `factor` runs once on every rank (the
    /// expensive build phase, free to borrow caller state); its per-rank
    /// output `S` then stays on the rank that produced it, where `serve`
    /// keeps ranks `1..p` alive — typically a request/response command
    /// loop built from [`RankCtx::recv_service_idle`] — until the session
    /// is shut down. Rank 0 returns to the caller as soon as *its*
    /// `factor` completes, yielding its own `S` plus a live
    /// [`WorldHandle`] through which the caller drives further protocol
    /// rounds against the resident ranks.
    ///
    /// Backend mapping:
    ///
    /// * [`Transport::InProc`] — `factor` runs on scoped rank threads
    ///   (borrows allowed); each rank's `S` then moves into a fresh
    ///   detached serve thread over a new channel fabric. `serve` must
    ///   therefore own its captures (`'static`).
    /// * [`Transport::Tcp`] — one continuous session: worker processes run
    ///   `factor` then `serve` back to back and only exit (reporting their
    ///   final counters) when `serve` returns; the handle keeps rank 0's
    ///   sockets and the child guard alive.
    ///
    /// Shutdown is cooperative and tag-based: the caller's protocol makes
    /// every `serve` return (e.g. a broadcast shutdown command), then
    /// [`WorldHandle::finish`] joins/collects the workers. Dropping the
    /// handle without that round is safe — workers observe the teardown
    /// (liveness flag / link EOF) from their idle wait and exit cleanly.
    pub fn run_resident<S, F, G>(&self, factor: F, serve: G) -> (S, WorldHandle)
    where
        S: Send + 'static,
        F: Fn(&mut RankCtx) -> S + Send + Sync,
        G: Fn(&mut RankCtx, S) + Send + Sync + 'static,
    {
        match self.transport.base() {
            BaseTransport::InProc => self.resident_inproc(factor, Arc::new(serve)),
            BaseTransport::Tcp => {
                let seq = transport::next_session_seq();
                if let Some(job) = transport::worker_job() {
                    if job.seq == seq {
                        // This process is a spawned worker of this very
                        // session: run factor + serve to completion and
                        // exit inside the call (never returns).
                        transport::run_tcp_worker(job, self, move |ctx: &mut RankCtx| {
                            let s = factor(ctx);
                            serve(ctx, s);
                        })
                    } else {
                        // A worker replaying an *earlier* resident session
                        // of main's prefix: recompute it in-process so the
                        // prefix reaches the same program point with the
                        // same state (the handle's solves are
                        // backend-invariant by construction).
                        self.resident_inproc(factor, Arc::new(serve))
                    }
                } else if self.p == 1 {
                    self.resident_inproc(factor, Arc::new(serve))
                } else {
                    self.resident_tcp_parent(seq, factor)
                }
            }
        }
    }

    fn resident_inproc<S, F, G>(&self, factor: F, serve: Arc<G>) -> (S, WorldHandle)
    where
        S: Send + 'static,
        F: Fn(&mut RankCtx) -> S + Send + Sync,
        G: Fn(&mut RankCtx, S) + Send + Sync + 'static,
    {
        let p = self.p;
        // Phase 1: the build runs on scoped rank threads exactly like a
        // normal `run` (the closure may borrow caller state).
        let (mut states, _) = self.run_inproc(factor);
        let s0 = states.remove(0);
        // Phase 2: a fresh channel fabric whose worker ranks own their
        // resident state. The fabric swap is invisible to the protocol —
        // the serve loop's first frame is the first frame on it.
        let plan = self.fault_plan();
        let mut transports = transport::inproc_world(p);
        let alive = Arc::new(AtomicBool::new(true));
        // The caller's thread becomes rank 0 for the serve session; tag it
        // so its solve-sweep spans collect under rank 0.
        srsf_trace::enter_rank(0);
        let mut ctx0 = RankCtx::from_transport(
            transport::maybe_faulty(transports.remove(0), plan),
            self.recv_timeout,
        );
        ctx0.set_alive_flag(alive.clone());
        let mut joins = Vec::with_capacity(p - 1);
        for (i, (t, s)) in transports.into_iter().zip(states).enumerate() {
            let serve = serve.clone();
            let timeout = self.recv_timeout;
            let alive = alive.clone();
            let join = std::thread::Builder::new()
                .name(format!("srsf-serve-{}", i + 1))
                .spawn(move || {
                    srsf_trace::enter_rank(i + 1);
                    let mut ctx =
                        RankCtx::from_transport(transport::maybe_faulty(t, plan), timeout);
                    ctx.set_alive_flag(alive);
                    run_rank(&mut ctx, |ctx| serve(ctx, s));
                    ctx.stats()
                })
                // INVARIANT: OS-thread spawn fails only on resource exhaustion; the
                // resident world cannot exist without its serve threads
                .expect("spawn resident serve thread");
            joins.push(join);
        }
        (
            s0,
            WorldHandle {
                ctx: Some(ctx0),
                backend: ResidentBackend::InProc { joins },
                alive,
                p,
                probe_nonce: 0,
                metrics: Arc::new(srsf_trace::MetricsRegistry::new()),
            },
        )
    }

    fn resident_tcp_parent<S, F>(&self, seq: u64, factor: F) -> (S, WorldHandle)
    where
        F: Fn(&mut RankCtx) -> S + Send + Sync,
    {
        let (transport, children) = transport::tcp_parent_setup(self, seq);
        srsf_trace::enter_rank(0);
        let mut ctx = RankCtx::from_transport(transport, self.recv_timeout);
        let s0 = factor(&mut ctx);
        (
            s0,
            WorldHandle {
                ctx: Some(ctx),
                backend: ResidentBackend::Tcp { children },
                alive: Arc::new(AtomicBool::new(true)),
                p: self.p,
                probe_nonce: 0,
                metrics: Arc::new(srsf_trace::MetricsRegistry::new()),
            },
        )
    }
}

/// Run one in-process rank's closure and announce its exit to its peers
/// ([`RankTransport::announce_exit`]) however the closure ends — the
/// in-process counterpart of a TCP rank's sockets closing when its
/// process exits (a thread closes no channels: its peers all hold clones
/// of every sender). A rank that returns pumps its transport first, so
/// every frame it sent, a fault plan's withheld frames included, is
/// queued ahead of the EOF; a rank that panics loses its tail, as a
/// crashed process does.
fn run_rank<R>(ctx: &mut RankCtx, f: impl FnOnce(&mut RankCtx) -> R) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx))) {
        Ok(r) => {
            ctx.progress();
            ctx.transport.announce_exit();
            r
        }
        Err(payload) => {
            ctx.transport.announce_exit();
            std::panic::resume_unwind(payload)
        }
    }
}

enum ResidentBackend {
    /// Detached serve threads over in-memory channels.
    InProc {
        joins: Vec<std::thread::JoinHandle<CommStats>>,
    },
    /// Worker processes held by the kill-on-unwind guard.
    Tcp { children: transport::ChildGuard },
}

/// A live resident rank world, returned by [`World::run_resident`]: rank
/// 0's context plus the worker ranks parked in their serve loops.
///
/// The handle is the session's lifetime. Drive protocol rounds through
/// [`WorldHandle::ctx`]; end the session by making every worker's serve
/// closure return (the caller's shutdown round) and then calling
/// [`WorldHandle::finish`] to join the workers and collect their final
/// counters. Dropping the handle instead is safe on both backends:
/// teardown is observed from the workers' idle wait (liveness flag /
/// link EOF) and they exit cleanly; TCP children that still fail to exit
/// within a short grace period are killed by the guard.
pub struct WorldHandle {
    ctx: Option<RankCtx>,
    backend: ResidentBackend,
    alive: Arc<AtomicBool>,
    p: usize,
    /// Monotonic nonce for health probes, so a stale PONG from an earlier
    /// (timed-out) probe is never mistaken for the current reply.
    probe_nonce: u64,
    /// The session's serve-metrics registry ([`WorldHandle::metrics`]).
    metrics: Arc<srsf_trace::MetricsRegistry>,
}

/// Liveness of one resident rank, as reported by [`WorldHandle::health`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankHealth {
    /// The rank answered the probe from its idle wait.
    Alive,
    /// The rank's process/thread is running but did not answer within the
    /// probe timeout — typically busy inside a solve phase.
    Unresponsive,
    /// The rank's serve loop has exited (cleanly or by crash).
    Dead,
}

impl WorldHandle {
    /// Rank 0's live context, for issuing protocol rounds against the
    /// resident ranks.
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.ctx
            .as_mut()
            // INVARIANT: documented — calling ctx() after finish() is a driver-side
            // usage bug, not a runtime condition
            .expect("resident session already finished")
    }

    /// World size `p`.
    pub fn size(&self) -> usize {
        self.p
    }

    /// The session's serve-metrics registry: per-solve latency
    /// histograms, served/failed counters, and per-rank resident-memory
    /// gauges (see `srsf_trace::MetricsRegistry`). The serving layer
    /// above (the resident solve service) feeds it; callers snapshot it
    /// at any time. Shared — clones observe the same registry.
    pub fn metrics(&self) -> Arc<srsf_trace::MetricsRegistry> {
        self.metrics.clone()
    }

    /// `true` while the worker for `rank` is still running its serve
    /// loop — lets a shutdown round skip ranks that already exited (e.g.
    /// after reporting a factorization error) instead of writing to a
    /// dead link.
    pub fn worker_live(&mut self, rank: usize) -> bool {
        assert!(rank >= 1 && rank < self.p, "rank {rank} is not a worker");
        match &mut self.backend {
            ResidentBackend::InProc { joins } => !joins[rank - 1].is_finished(),
            ResidentBackend::Tcp { children } => children.exited(rank).is_none(),
        }
    }

    /// Probe the liveness of every rank: sends each live worker a PING on
    /// the uncounted service path and waits up to `timeout` for the
    /// matching PONG (nonce-checked, so a stale reply from an earlier
    /// probe never satisfies a later one). Index 0 is rank 0 — the caller
    /// itself — and always [`RankHealth::Alive`].
    ///
    /// A rank parked in its idle wait answers within one poll slice; a
    /// rank busy mid-solve reads as [`RankHealth::Unresponsive`]; a rank
    /// whose serve loop exited (clean shutdown or crash) reads as
    /// [`RankHealth::Dead`]. Probes ride the service envelope and touch
    /// no §IV data counters.
    pub fn health(&mut self, timeout: Duration) -> Vec<RankHealth> {
        let mut out = Vec::with_capacity(self.p);
        out.push(RankHealth::Alive);
        for rank in 1..self.p {
            out.push(self.probe_rank(rank, timeout));
        }
        out
    }

    fn probe_rank(&mut self, rank: usize, timeout: Duration) -> RankHealth {
        if !self.worker_live(rank) {
            return RankHealth::Dead;
        }
        self.probe_nonce += 1;
        let nonce = self.probe_nonce.to_le_bytes();
        let ctx = self.ctx();
        ctx.send_service(rank, tags::TAG_SERVE_PING, nonce.to_vec());
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match ctx
                .transport
                .recv_any_of(rank, &[tags::TAG_SERVE_PONG], remaining)
            {
                Ok(m) if m.payload == nonce => return RankHealth::Alive,
                // A stale PONG from an earlier probe that timed out while
                // the rank was busy: discard and keep waiting.
                Ok(_) => continue,
                Err(RecvError::Timeout { .. }) => return RankHealth::Unresponsive,
                Err(_) => return RankHealth::Dead,
            }
        }
    }

    /// Join every worker after the caller's shutdown round has made their
    /// serve closures return; yields the cumulative per-rank counters
    /// (rank 0's from its live context; workers' as reported at exit).
    /// Worker panics propagate. On TCP the wait is liveness-aware: a
    /// worker process that died without reporting fails fast with its
    /// exit status rather than hanging.
    pub fn finish(mut self) -> WorldStats {
        // Release pairs with the Acquire load in `recv_service_idle`:
        // everything rank 0 sent before this store is visible to a worker
        // that observes the cleared flag (and drains before exiting).
        self.alive.store(false, Ordering::Release);
        // INVARIANT: documented — finish() consumes the session; a second call
        // cannot compile, so ctx is always present here
        let ctx = self.ctx.take().expect("resident session already finished");
        let stats0 = ctx.stats();
        let mut per_rank = vec![CommStats::default(); self.p];
        per_rank[0] = stats0;
        match &mut self.backend {
            ResidentBackend::InProc { joins } => {
                // Close rank 0's side first so any worker still idling
                // observes the teardown instead of waiting on a command.
                drop(ctx);
                for (i, join) in joins.drain(..).enumerate() {
                    match join.join() {
                        Ok(s) => per_rank[i + 1] = s,
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            }
            ResidentBackend::Tcp { children } => {
                let mut transport = ctx.into_transport();
                let (_, stats) =
                    transport::collect_tcp_results::<()>(&mut *transport, children, self.p);
                for (i, s) in stats.into_iter().enumerate() {
                    per_rank[i + 1] = s;
                }
            }
        }
        WorldStats { per_rank }
    }

    /// Quiet teardown for a *degraded* world — one already known to have
    /// lost a rank. Like [`WorldHandle::finish`], but a worker's panic
    /// payload is swallowed instead of re-raised and a TCP child that
    /// died without reporting is reaped instead of failing fast, so the
    /// caller can surface the failure once (typed) rather than again at
    /// teardown. Returns rank 0's counters; workers that exited
    /// abnormally report zeros.
    pub fn reap(mut self) -> WorldStats {
        // Release pairs with the Acquire load in `recv_service_idle`,
        // exactly as in `finish`.
        self.alive.store(false, Ordering::Release);
        // INVARIANT: documented — reap() consumes the session; a second call
        // cannot compile, so ctx is always present here
        let ctx = self.ctx.take().expect("resident session already finished");
        let stats0 = ctx.stats();
        let mut per_rank = vec![CommStats::default(); self.p];
        per_rank[0] = stats0;
        // Close rank 0's side: survivors still blocked on the dead rank
        // observe EOF / the cleared flag within their bounded waits.
        drop(ctx);
        match &mut self.backend {
            ResidentBackend::InProc { joins } => {
                for (i, join) in joins.drain(..).enumerate() {
                    if let Ok(s) = join.join() {
                        per_rank[i + 1] = s;
                    }
                }
            }
            ResidentBackend::Tcp { children } => {
                children.wait_graceful(Duration::from_secs(5));
            }
        }
        WorldStats { per_rank }
    }
}

impl Drop for WorldHandle {
    fn drop(&mut self) {
        // Release for the same reason as in `finish` above.
        self.alive.store(false, Ordering::Release);
        // Closing rank 0's transport EOFs the TCP links / drops the
        // channel senders; workers notice from their idle wait and exit.
        drop(self.ctx.take());
        if let ResidentBackend::Tcp { children } = &mut self.backend {
            children.wait_graceful(Duration::from_secs(5));
        }
        // InProc serve threads are detached; they exit on the cleared
        // flag without anything to join (a join here could block a drop
        // behind a worker that is mid-solve).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{ByteReader, ByteWriter};

    /// [`RankCtx::try_recv`], panicking with the error's message.
    fn recv(ctx: &mut RankCtx, src: usize, tag: u32) -> Bytes {
        ctx.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RankCtx::try_barrier`], panicking with the error's message.
    fn barrier(ctx: &mut RankCtx) {
        if let Err(e) = ctx.try_barrier() {
            panic!("barrier failed: {e}");
        }
    }

    /// How long a silent rank stays alive in the timeout tests: well past
    /// their receive timeouts, so the waiting peer meets the timer and
    /// not the silent rank's exit.
    const LINGER: Duration = Duration::from_secs(2);

    #[test]
    fn single_rank_world() {
        let (results, stats) = World::new(1).run(|ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.size(), 1);
            ctx.compute(|| 7 * 6)
        });
        assert_eq!(results, vec![42]);
        assert_eq!(stats.per_rank.len(), 1);
        assert_eq!(stats.total_msgs(), 0);
        assert!(stats.per_rank[0].compute_s >= 0.0);
    }

    #[test]
    fn ring_pass() {
        let p = 4;
        let (results, stats) = World::new(p).run(|ctx| {
            let me = ctx.rank();
            let next = (me + 1) % ctx.size();
            let prev = (me + ctx.size() - 1) % ctx.size();
            let mut w = ByteWriter::new();
            w.put_u64(me as u64);
            ctx.send(next, 0, w.finish());
            let mut r = ByteReader::new(recv(ctx, prev, 0));
            r.get_u64()
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
        assert_eq!(stats.total_msgs(), 4);
        // one u64 payload = 1 word each
        assert_eq!(stats.total_words(), 4);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let (results, _) = World::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                // Send tag 2 first, then tag 1.
                let mut w = ByteWriter::new();
                w.put_u64(222);
                ctx.send(1, 2, w.finish());
                let mut w = ByteWriter::new();
                w.put_u64(111);
                ctx.send(1, 1, w.finish());
                0
            } else {
                // Receive in the opposite order.
                let a = ByteReader::new(recv(ctx, 0, 1)).get_u64();
                let b = ByteReader::new(recv(ctx, 0, 2)).get_u64();
                assert_eq!((a, b), (111, 222));
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let p = 4;
        World::new(p).run(|ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            barrier(ctx);
            // After the barrier every rank must see all increments.
            assert_eq!(counter.load(Ordering::SeqCst), p);
        });
    }

    #[test]
    fn word_counting_rounds_up() {
        let (_, stats) = World::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                let mut w = ByteWriter::new();
                w.put_u64(1); // 8 bytes
                w.put_u64(2); // 16 bytes total
                ctx.send(1, 0, w.finish());
            } else {
                recv(ctx, 0, 0);
            }
        });
        assert_eq!(stats.per_rank[0].msgs_sent, 1);
        assert_eq!(stats.per_rank[0].words_sent, 2);
        assert_eq!(stats.per_rank[1].msgs_sent, 0);
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn recv_timeout_panics_rather_than_hangs() {
        World::new(2)
            .with_recv_timeout(Duration::from_millis(50))
            .run(|ctx| {
                if ctx.rank() == 1 {
                    let _ = recv(ctx, 0, 9); // never sent
                } else {
                    std::thread::sleep(LINGER);
                }
            });
    }

    #[test]
    fn timeout_panic_names_rank_src_and_decoded_tag() {
        let t = crate::tags::tag(3, 2, crate::tags::KIND_SOLVE_UP);
        let err = std::panic::catch_unwind(|| {
            World::new(2)
                .with_recv_timeout(Duration::from_millis(30))
                .run(|ctx| {
                    if ctx.rank() == 1 {
                        let _ = recv(ctx, 0, t);
                    } else {
                        std::thread::sleep(LINGER);
                    }
                });
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("rank 1 timed out"), "{msg}");
        assert!(msg.contains("from rank 0"), "{msg}");
        assert!(msg.contains("level 3"), "{msg}");
        assert!(msg.contains("SOLVE_UP"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "barrier failed")]
    fn barrier_with_a_missing_rank_times_out_instead_of_hanging() {
        World::new(2)
            .with_recv_timeout(Duration::from_millis(50))
            .run(|ctx| {
                // Rank 1 never arrives; rank 0 must not hang.
                if ctx.rank() == 0 {
                    barrier(ctx);
                } else {
                    std::thread::sleep(LINGER);
                }
            });
    }

    #[test]
    #[should_panic(expected = "reserved for transport control")]
    fn control_tags_are_rejected_on_the_data_path() {
        World::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, u32::MAX, Vec::new());
            }
        });
    }

    #[test]
    #[should_panic(expected = "use send_service")]
    fn serve_tags_are_rejected_on_the_counted_path() {
        World::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, crate::tags::TAG_SERVE_CMD, Vec::new());
            }
        });
    }

    /// A worker-side echo loop: empty command = shutdown, otherwise the
    /// payload comes back with this rank's id appended.
    fn echo_serve(ctx: &mut RankCtx, base: u64) {
        while let Some(cmd) = ctx.recv_service_idle(0, crate::tags::TAG_SERVE_CMD) {
            if cmd.is_empty() {
                break;
            }
            let mut w = ByteWriter::new();
            w.put_u64(ByteReader::new(cmd).get_u64() + base + ctx.rank() as u64);
            ctx.send_service(0, crate::tags::TAG_SERVE_SOL, w.finish());
        }
    }

    #[test]
    fn resident_world_serves_repeated_rounds_then_shuts_down() {
        let p = 4;
        let (s0, mut handle) =
            World::new(p).run_resident(|ctx| ctx.rank() as u64 + 100, echo_serve);
        assert_eq!(s0, 100, "rank 0 keeps its own factor output");
        for round in 0..3u64 {
            for dst in 1..p {
                let mut w = ByteWriter::new();
                w.put_u64(round);
                handle
                    .ctx()
                    .send_service(dst, crate::tags::TAG_SERVE_CMD, w.finish());
            }
            for src in 1..p {
                let reply = recv(handle.ctx(), src, crate::tags::TAG_SERVE_SOL);
                let v = ByteReader::new(reply).get_u64();
                assert_eq!(v, round + 100 + src as u64 + src as u64);
            }
        }
        // Service-envelope traffic must not touch the data counters.
        assert_eq!(handle.ctx().stats().msgs_sent, 0);
        for dst in 1..p {
            assert!(handle.worker_live(dst), "rank {dst} died early");
            handle
                .ctx()
                .send_service(dst, crate::tags::TAG_SERVE_CMD, Vec::new());
        }
        let stats = handle.finish();
        assert_eq!(stats.per_rank.len(), p);
        assert_eq!(stats.total_msgs(), 0);
    }

    #[test]
    fn dropped_handle_leaves_no_live_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let exits = Arc::new(AtomicUsize::new(0));
        let p = 4;
        let (_, handle) = {
            let exits = exits.clone();
            World::new(p).run_resident(
                |ctx| ctx.rank(),
                move |ctx, _| {
                    echo_serve(ctx, 0);
                    exits.fetch_add(1, Ordering::SeqCst);
                },
            )
        };
        // No shutdown round: dropping the handle is the teardown.
        drop(handle);
        let deadline = Instant::now() + Duration::from_secs(5);
        while exits.load(Ordering::SeqCst) < p - 1 {
            assert!(
                Instant::now() < deadline,
                "workers still alive after the handle was dropped"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Several rounds of an all-pairs exchange; returns the sum of
    /// everything received. Enough traffic that drop/dup/delay plans all
    /// actually fire.
    fn chatter(ctx: &mut RankCtx) -> u64 {
        let me = ctx.rank();
        let p = ctx.size();
        let mut acc = 0u64;
        for round in 0..6u64 {
            for dst in 0..p {
                if dst != me {
                    let mut w = ByteWriter::new();
                    w.put_u64(round * 100 + me as u64);
                    ctx.send(dst, round as u32 * 8, w.finish());
                }
            }
            for src in 0..p {
                if src != me {
                    acc += ByteReader::new(recv(ctx, src, round as u32 * 8)).get_u64();
                }
            }
            barrier(ctx);
        }
        acc
    }

    #[test]
    fn recoverable_fault_plan_is_bit_identical_to_the_clean_run() {
        let plan = crate::transport::FaultPlan::seeded(42)
            .with_max_delay_us(150)
            .with_drop_permille(250)
            .with_dup_permille(250);
        let (clean, clean_stats) = World::new(4).run(chatter);
        let (faulty, faulty_stats) = World::new(4)
            .transport(Transport::InProc.with_faults(plan))
            .run(chatter);
        assert_eq!(clean, faulty, "recoverable faults changed a result");
        for (c, f) in clean_stats.per_rank.iter().zip(&faulty_stats.per_rank) {
            assert_eq!(c.msgs_sent, f.msgs_sent, "message counters diverged");
            assert_eq!(c.words_sent, f.words_sent, "word counters diverged");
        }
    }

    #[test]
    fn injected_crash_fails_the_barrier_naming_the_dead_rank() {
        let plan = crate::transport::FaultPlan::seeded(7).with_crash(1, 1);
        let err = std::panic::catch_unwind(|| {
            World::new(2)
                .with_recv_timeout(Duration::from_secs(10))
                .transport(Transport::InProc.with_faults(plan))
                .run(barrier);
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(
            msg.contains("lost rank 1") || msg.contains("rank 1 crashed at barrier 1"),
            "{msg}"
        );
    }

    #[test]
    fn link_cut_surfaces_as_a_bounded_timeout_not_a_hang() {
        let plan = crate::transport::FaultPlan::seeded(3).with_cut(0, 1, 0);
        let start = Instant::now();
        let err = std::panic::catch_unwind(|| {
            World::new(2)
                .with_recv_timeout(Duration::from_millis(200))
                .transport(Transport::InProc.with_faults(plan))
                .run(|ctx| {
                    if ctx.rank() == 0 {
                        let mut w = ByteWriter::new();
                        w.put_u64(1);
                        ctx.send(1, 0, w.finish());
                        std::thread::sleep(LINGER);
                    } else {
                        recv(ctx, 0, 0);
                    }
                });
        })
        .unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(10), "cut hung");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("timed out"), "{msg}");
    }

    /// The in-process twin of `tcp_dead_peer_fails_fast_with_diagnostics`:
    /// a rank that returns is gone, so a peer waiting on it fails at once
    /// — not after its 60 s receive timeout — naming the rank it lost and
    /// the step it waited in.
    #[test]
    fn inproc_exit_fails_a_waiting_peer_fast() {
        let waited_tag = crate::tags::tag(2, 1, crate::tags::KIND_FOLD);
        let start = Instant::now();
        let err = std::panic::catch_unwind(|| {
            World::new(2)
                .with_recv_timeout(Duration::from_secs(60))
                .run(move |ctx| {
                    if ctx.rank() == 0 {
                        let _ = recv(ctx, 1, waited_tag);
                    }
                });
        })
        .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the exit took {:?} to reach the waiting peer",
            start.elapsed()
        );
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("rank 0 lost rank 1"), "{msg}");
        assert!(msg.contains("FOLD"), "{msg}");
    }

    /// A rank's frames sent before it returned, a fault plan's withheld
    /// ones included, reach its peer ahead of its exit: the last frame is
    /// withheld until the exit flushes it, so an EOF announced before the
    /// flush would fail the last receive.
    #[test]
    fn frames_sent_before_an_exit_are_delivered_before_it() {
        let plan = crate::transport::FaultPlan::seeded(5).with_drop_permille(1000);
        let (results, _) = World::new(2)
            .with_recv_timeout(Duration::from_secs(60))
            .transport(Transport::InProc.with_faults(plan))
            .run(|ctx| {
                if ctx.rank() == 0 {
                    for t in 0..4u32 {
                        let mut w = ByteWriter::new();
                        w.put_u64(10 + t as u64);
                        ctx.send(1, t, w.finish());
                    }
                    return 0;
                }
                (0..4u32)
                    .map(|t| ByteReader::new(recv(ctx, 0, t)).get_u64())
                    .sum::<u64>()
            });
        assert_eq!(results, vec![0, 10 + 11 + 12 + 13]);
    }

    #[test]
    fn health_probes_report_alive_then_dead() {
        let p = 3;
        let (_, mut handle) = World::new(p).run_resident(|ctx| ctx.rank() as u64, echo_serve);
        let h = handle.health(Duration::from_secs(10));
        assert_eq!(h, vec![RankHealth::Alive; p]);
        // Probes ride the service envelope: no data-counter traffic.
        assert_eq!(handle.ctx().stats().msgs_sent, 0);
        // Shut one worker down; its health must converge to Dead.
        handle
            .ctx()
            .send_service(1, crate::tags::TAG_SERVE_CMD, Vec::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let h = handle.health(Duration::from_millis(100));
            if h[1] == RankHealth::Dead {
                assert_eq!(h[2], RankHealth::Alive, "rank 2 should still serve");
                break;
            }
            assert!(Instant::now() < deadline, "rank 1 never read as dead");
        }
    }

    #[test]
    fn dead_resident_rank_fails_the_next_round_instead_of_hanging() {
        let p = 2;
        let (_, mut handle) = World::new(p)
            .with_recv_timeout(Duration::from_secs(5))
            .run_resident(
                |ctx| ctx.rank(),
                |_ctx, _| panic!("worker died before serving"),
            );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The worker is gone; the receive must fail fast with a
            // link-down diagnostic, not wait out a timeout.
            let start = Instant::now();
            let _ = recv(handle.ctx(), 1, crate::tags::TAG_SERVE_SOL);
            start.elapsed()
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("lost rank 1"), "{msg}");
    }
}
