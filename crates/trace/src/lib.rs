//! `srsf-trace`: a zero-dependency span/event recorder and metrics layer
//! for the SRSF runtime.
//!
//! The paper's scalability story is told in per-phase timings and
//! per-rank communication volume; this crate is the instrument that
//! measures them. It has three parts:
//!
//! * **Span recording** ([`span!`], [`SpanGuard`]): scoped wall-clock
//!   spans land in per-thread fixed-capacity ring buffers. The whole
//!   layer sits behind one process-global `AtomicBool`
//!   ([`set_enabled`]) — when tracing is off, [`span!`] is a single
//!   relaxed atomic load and the label closure is never evaluated, so
//!   instrumented hot paths cost one predictable branch. Spans are
//!   recorded only on threads that declared a rank via [`enter_rank`]
//!   (the runtime does this at every rank entry point), which is what
//!   keeps in-process multi-rank worlds separable: the collection side
//!   ([`take_report`]) drains by rank tag, not by thread.
//! * **Reports** ([`TraceReport`]): one rank's drained spans plus its
//!   drop counter. Reports cross the wire as `Wire` frames (the impl
//!   lives in `srsf-runtime`, which owns the `Wire` trait) and rank 0
//!   renders them with [`export::chrome_trace_json`] (Perfetto /
//!   `chrome://tracing`, one pid per rank, one tid per recorded thread)
//!   or [`export::profile_table`] (plain-text per-phase wall-clock with
//!   the compute vs comm-wait split and bytes moved).
//! * **Metrics** ([`metrics::MetricsRegistry`]): log-bucketed latency
//!   histograms (fixed allocation, mergeable, `Wire`-encodable),
//!   served/failed counters, and per-rank resident-memory gauges for
//!   the resident serve loop. Counter mutation is confined to
//!   `metrics.rs` by an `xtask lint` rule, mirroring the runtime's
//!   `CommStats` discipline.
//!
//! Timestamps are nanoseconds from a process-wide monotonic anchor
//! ([`now_ns`]): in-process ranks share one timeline; TCP ranks each
//! start near zero and render as separate Perfetto processes.
//!
//! Nothing here may perturb the quantities the paper analyzes: tracing
//! records locally and ships reports over *uncounted service frames*
//! (or inside rank-result frames), so solutions and the §IV per-rank
//! message/word counters are bit-identical with tracing on or off —
//! asserted by `srsf-core`'s `trace_identity` tests.

#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;

pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Spans each recorded thread can hold before the ring wraps; wrapped
/// (overwritten) spans are tallied in [`TraceReport::dropped`] rather
/// than silently lost. Sized for a full factorization sweep: spans are
/// per phase, per elimination wave and per message wait, not per box.
pub const RING_CAP: usize = 8192;

/// Span category — the coarse row grouping of the profile table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Cat {
    /// A factorization phase: a level's interior phase, one of its
    /// rank-colour rounds or its transition, or the top.
    Phase = 0,
    /// Rank-local numerical work (skeletonization / elimination / merge).
    Compute = 1,
    /// A communication wait: send, receive, or barrier.
    Comm = 2,
    /// A resident solve sweep round.
    Solve = 3,
    /// Serve-envelope work (command dispatch, scatter/gather slabs).
    Serve = 4,
}

impl Cat {
    /// Round-trip a wire byte back to a category.
    pub fn from_u8(v: u8) -> Option<Cat> {
        match v {
            0 => Some(Cat::Phase),
            1 => Some(Cat::Compute),
            2 => Some(Cat::Comm),
            3 => Some(Cat::Solve),
            4 => Some(Cat::Serve),
            _ => None,
        }
    }

    /// Stable lower-case label used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Cat::Phase => "phase",
            Cat::Compute => "compute",
            Cat::Comm => "comm",
            Cat::Solve => "solve",
            Cat::Serve => "serve",
        }
    }
}

/// One closed span: what happened, on which thread, when, for how long,
/// and how many payload bytes moved under it (zero for non-comm spans).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Category byte (a [`Cat`] value; kept raw so decoding is total).
    pub cat: u8,
    /// Human-readable label (phase name, `tags::describe` string, …).
    pub name: String,
    /// Recorder-thread id, unique per thread within the process.
    pub tid: u32,
    /// Start, nanoseconds from the process anchor ([`now_ns`]).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes attributed to the span (comm spans only).
    pub bytes: u64,
}

/// One rank's drained trace: every span its threads recorded since the
/// last drain, in start-time order, plus the ring-overflow counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// The rank whose threads recorded these spans.
    pub rank: u32,
    /// Spans overwritten by ring wrap-around before this drain.
    pub dropped: u64,
    /// The surviving spans, sorted by `(start_ns, tid)`.
    pub spans: Vec<Span>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off, process-wide. The runtime calls this
/// at rank entry with the driver's `trace` option — storing `false`
/// explicitly, so an untraced run self-cleans after a traced one.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Is span recording on? The one branch [`span!`] pays when disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn anchor() -> &'static Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide monotonic anchor (which is pinned
/// at first use).
pub fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

const NO_RANK: u32 = u32::MAX;

/// A fixed-capacity ring of spans: pushes past [`RING_CAP`] overwrite
/// the oldest entry and bump the drop counter.
struct Ring {
    spans: Vec<Span>,
    next: usize,
    dropped: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            spans: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, s: Span) {
        if self.spans.len() < RING_CAP {
            self.spans.push(s);
        } else {
            self.spans[self.next] = s;
            self.next = (self.next + 1) % RING_CAP;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> (Vec<Span>, u64) {
        let dropped = self.dropped;
        let mut spans = std::mem::take(&mut self.spans);
        // Rotate so the oldest surviving span comes first after a wrap.
        spans.rotate_left(self.next);
        self.next = 0;
        self.dropped = 0;
        (spans, dropped)
    }
}

/// One recorded thread's slot in the global registry: its ring, its
/// process-unique tid, and the rank its spans currently belong to.
struct Slot {
    rank: AtomicU32,
    tid: u32,
    ring: Mutex<Ring>,
}

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SLOT: RefCell<Option<Arc<Slot>>> = const { RefCell::new(None) };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Declare that the current thread executes rank `rank` from here on:
/// registers the thread's ring buffer (first call) and tags it, so its
/// spans land in `rank`'s [`take_report`]. Threads that never call this
/// record nothing. The runtime calls it at every rank entry point —
/// in-process rank threads, TCP worker processes, resident serve
/// threads — so instrumented library code never has to.
pub fn enter_rank(rank: usize) {
    SLOT.with(|s| {
        let mut s = s.borrow_mut();
        let slot = s.get_or_insert_with(|| {
            let slot = Arc::new(Slot {
                rank: AtomicU32::new(NO_RANK),
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring::new()),
            });
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(slot.clone());
            slot
        });
        slot.rank.store(rank as u32, Ordering::Release);
    });
}

/// Does the current thread have a rank tag (i.e. would a span record)?
fn has_rank() -> bool {
    SLOT.with(|s| {
        s.borrow()
            .as_ref()
            .is_some_and(|slot| slot.rank.load(Ordering::Acquire) != NO_RANK)
    })
}

fn record(cat: u8, name: String, start_ns: u64, dur_ns: u64, bytes: u64) {
    SLOT.with(|s| {
        if let Some(slot) = s.borrow().as_ref() {
            if slot.rank.load(Ordering::Acquire) == NO_RANK {
                return;
            }
            slot.ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Span {
                    cat,
                    name,
                    tid: slot.tid,
                    start_ns,
                    dur_ns,
                    bytes,
                });
        }
    });
}

/// Drain every span recorded under `rank` across all of the process's
/// registered threads into one [`TraceReport`], resetting the rings.
/// Slots whose threads have exited and whose rings are drained are
/// unregistered on the way.
pub fn take_report(rank: usize) -> TraceReport {
    let mut spans = Vec::new();
    let mut dropped = 0u64;
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    for slot in reg.iter() {
        if slot.rank.load(Ordering::Acquire) == rank as u32 {
            let (s, d) = slot
                .ring
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drain();
            spans.extend(s);
            dropped += d;
        }
    }
    // A strong count of 1 means the owning thread's TLS handle is gone:
    // the thread exited, nothing will record there again.
    reg.retain(|slot| Arc::strong_count(slot) > 1);
    drop(reg);
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    TraceReport {
        rank: rank as u32,
        dropped,
        spans,
    }
}

/// A scoped span: created by [`span!`], records itself into the current
/// thread's ring when dropped. Inert (and near-free) when tracing is
/// disabled or the thread has no rank tag.
pub struct SpanGuard {
    /// `(category, label, start_ns)` — `None` for the inert guard.
    active: Option<(u8, String, u64)>,
    bytes: u64,
}

impl SpanGuard {
    /// Open a span now; `name` is evaluated only on this live path.
    pub fn begin(cat: Cat, name: impl FnOnce() -> String) -> SpanGuard {
        if has_rank() {
            SpanGuard {
                active: Some((cat as u8, name(), now_ns())),
                bytes: 0,
            }
        } else {
            SpanGuard::disabled()
        }
    }

    /// The inert guard — what [`span!`] yields when tracing is off.
    pub fn disabled() -> SpanGuard {
        SpanGuard {
            active: None,
            bytes: 0,
        }
    }

    /// Attribute `n` payload bytes to this span (comm spans).
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cat, name, start)) = self.active.take() {
            let dur = now_ns().saturating_sub(start);
            record(cat, name, start, dur, self.bytes);
        }
    }
}

/// Open a scoped span: `let _g = span!(Cat::Phase, "level {l} interior");`.
///
/// Compiles to a branch on the process-global enable flag: when tracing
/// is disabled the format arguments are never evaluated and the inert
/// guard costs nothing on drop. The span closes (and is recorded) when
/// the guard goes out of scope; bind it to a named `_g`, not `_`, or it
/// drops immediately.
#[macro_export]
macro_rules! span {
    ($cat:expr, $($fmt:tt)+) => {
        if $crate::is_enabled() {
            $crate::SpanGuard::begin($cat, || ::std::format!($($fmt)+))
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test body: the enable flag and registry are process-global,
    /// so the scenarios run sequentially.
    #[test]
    fn recorder_end_to_end() {
        // Disabled: nothing records, even with a rank tag.
        enter_rank(7);
        set_enabled(false);
        {
            let _g = span!(Cat::Phase, "should not appear");
        }
        assert!(take_report(7).spans.is_empty());

        // Enabled: spans land under the thread's rank, in time order.
        set_enabled(true);
        {
            let _g = span!(Cat::Phase, "outer {}", 1);
            let mut inner = span!(Cat::Comm, "recv x");
            inner.add_bytes(128);
        }
        let rep = take_report(7);
        assert_eq!(rep.rank, 7);
        assert_eq!(rep.dropped, 0);
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.spans[0].name, "outer 1");
        let comm = rep
            .spans
            .iter()
            .find(|s| s.cat == Cat::Comm as u8)
            .expect("comm span recorded");
        assert_eq!(comm.bytes, 128);
        assert_eq!(comm.name, "recv x");
        // Drained: a second take is empty.
        assert!(take_report(7).spans.is_empty());

        // A thread without a rank tag records nothing.
        set_enabled(true);
        let handle = std::thread::spawn(|| {
            let _g = span!(Cat::Phase, "untagged");
        });
        handle.join().expect("helper thread");
        assert!(take_report(7).spans.is_empty());

        // Ring wrap-around: pushes past capacity count as dropped and
        // the survivors come back oldest-first.
        enter_rank(3);
        for i in 0..(RING_CAP + 10) {
            record(Cat::Phase as u8, format!("s{i}"), i as u64, 1, 0);
        }
        let rep = take_report(3);
        assert_eq!(rep.dropped, 10);
        assert_eq!(rep.spans.len(), RING_CAP);
        assert_eq!(rep.spans[0].name, "s10");
        let last = format!("s{}", RING_CAP + 9);
        assert_eq!(rep.spans.last().map(|s| s.name.as_str()), Some(&last[..]));

        set_enabled(false);
    }

    #[test]
    fn cat_round_trips() {
        for cat in [Cat::Phase, Cat::Compute, Cat::Comm, Cat::Solve, Cat::Serve] {
            assert_eq!(Cat::from_u8(cat as u8), Some(cat));
        }
        assert_eq!(Cat::from_u8(5), None);
    }
}
