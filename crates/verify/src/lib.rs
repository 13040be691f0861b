//! Deterministic concurrency model checking for the srsf workspace.
//!
//! This crate is the solver's answer to "the concurrent code passed its
//! tests once, on one interleaving". It provides:
//!
//! * [`sync`] / [`thread`] — drop-in replacements for the `std`
//!   primitives the runtime and core crates use (`AtomicUsize`,
//!   `Mutex`, `Condvar`, `OnceLock`, `mpsc`, `spawn`). In a
//!   normal build they are plain re-exports of `std` and cost nothing.
//!   Compiled with `RUSTFLAGS="--cfg srsf_model"` they route every
//!   operation through a cooperative scheduler.
//! * [`sched`] — that scheduler: a loom-style explorer that runs a
//!   closure under every thread interleaving reachable within a
//!   preemption bound, detecting deadlocks, lost wakeups, panics, and
//!   schedule-dependent results, and printing a deterministic replay
//!   string for any failure.
//!
//! ```text
//! RUSTFLAGS="--cfg srsf_model" cargo test -p srsf-verify --tests
//! SRSF_MODEL_REPLAY="0,1,1,2" RUSTFLAGS="--cfg srsf_model" cargo test -p srsf-verify <failing test>
//! ```
//!
//! The subsystem models under `tests/` mirror the concurrent cores of
//! the solver (transport matching queue, timeout barrier, resident
//! shutdown handshake, work-stealing claim, eager-send counter, round
//! transition, rank death, the resident top solve's owner chain) in a few dozen lines each, small
//! enough to explore exhaustively.

#![forbid(unsafe_code)]

pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::{Model, Report};
