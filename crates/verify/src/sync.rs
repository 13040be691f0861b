//! Drop-in synchronization primitives.
//!
//! In a normal build every name here is a re-export of the `std::sync`
//! original — adopting the shim costs nothing. Under `--cfg srsf_model`
//! the same names resolve to scheduler-aware wrappers that route every
//! operation through the cooperative model-checking scheduler (see
//! [`crate::sched`]): each atomic access, lock acquisition, channel
//! or channel operation becomes a yield point where the
//! explorer may switch threads.
//!
//! The wrappers keep `std` semantics on threads that are *not* part of
//! an active model run (they fall back to the plain operation), so a
//! whole workspace can be compiled with `--cfg srsf_model` and only the
//! model tests behave differently. The one rule: a primitive used inside
//! a model must be touched only by threads spawned with
//! [`crate::thread::spawn`] — `std::thread` threads are invisible to the
//! scheduler.
//!
//! Modeled waits never time out ([`Condvar::wait_timeout`] behaves as
//! `wait`, `recv_timeout` as `recv`): a lost wakeup therefore leaves the
//! waiter blocked forever and is reported as a deadlock instead of being
//! papered over by a timeout path.

pub use std::sync::{Arc, LockResult, OnceLock, PoisonError, TryLockError, TryLockResult};

#[cfg(not(srsf_model))]
pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

/// Atomic types (std re-export in normal builds).
#[cfg(not(srsf_model))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

/// Multi-producer single-consumer channels (std re-export in normal
/// builds).
#[cfg(not(srsf_model))]
pub mod mpsc {
    pub use std::sync::mpsc::*;
}

#[cfg(srsf_model)]
pub use model::{atomic, mpsc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

/// Scheduler-aware implementations used when compiled with
/// `--cfg srsf_model`.
#[cfg(srsf_model)]
mod model {
    use crate::sched::{fresh_key, with_current};
    use std::ops::{Deref, DerefMut};
    use std::sync::{LockResult, PoisonError};
    use std::time::Duration;

    /// Yield point: hand the scheduler a chance to preempt. No-op on
    /// non-model threads.
    fn hook() {
        let _ = with_current(|e, me| e.yield_now(me));
    }

    /// Atomic types routed through the model scheduler. Every operation
    /// is a yield point and executes with `SeqCst` regardless of the
    /// requested ordering: the checker verifies logic under sequential
    /// consistency (weak-memory effects are TSan's job).
    pub mod atomic {
        use super::hook;
        pub use std::sync::atomic::Ordering;

        macro_rules! int_atomic {
            ($(#[$meta:meta])* $name:ident, $std:ident, $ty:ty) => {
                $(#[$meta])*
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: std::sync::atomic::$std,
                }

                impl $name {
                    /// Create a new atomic with the given initial value.
                    pub const fn new(v: $ty) -> Self {
                        Self {
                            inner: std::sync::atomic::$std::new(v),
                        }
                    }

                    /// Load the value (yield point).
                    pub fn load(&self, _order: Ordering) -> $ty {
                        hook();
                        self.inner.load(Ordering::SeqCst)
                    }

                    /// Store a value (yield point).
                    pub fn store(&self, v: $ty, _order: Ordering) {
                        hook();
                        self.inner.store(v, Ordering::SeqCst)
                    }

                    /// Swap in a value, returning the previous one
                    /// (yield point).
                    pub fn swap(&self, v: $ty, _order: Ordering) -> $ty {
                        hook();
                        self.inner.swap(v, Ordering::SeqCst)
                    }

                    /// Atomic add, returning the previous value (yield
                    /// point).
                    pub fn fetch_add(&self, v: $ty, _order: Ordering) -> $ty {
                        hook();
                        self.inner.fetch_add(v, Ordering::SeqCst)
                    }


                    /// Consume the atomic and return the value.
                    pub fn into_inner(self) -> $ty {
                        self.inner.into_inner()
                    }
                }
            };
        }

        int_atomic!(
            /// Model-checked drop-in for [`std::sync::atomic::AtomicUsize`].
            AtomicUsize,
            AtomicUsize,
            usize
        );
        int_atomic!(
            /// Model-checked drop-in for [`std::sync::atomic::AtomicU64`].
            AtomicU64,
            AtomicU64,
            u64
        );
        int_atomic!(
            /// Model-checked drop-in for [`std::sync::atomic::AtomicU32`].
            AtomicU32,
            AtomicU32,
            u32
        );

        /// Model-checked drop-in for [`std::sync::atomic::AtomicBool`].
        #[derive(Debug, Default)]
        pub struct AtomicBool {
            inner: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Create a new atomic flag with the given initial value.
            pub const fn new(v: bool) -> Self {
                Self {
                    inner: std::sync::atomic::AtomicBool::new(v),
                }
            }

            /// Load the flag (yield point).
            pub fn load(&self, _order: Ordering) -> bool {
                hook();
                self.inner.load(Ordering::SeqCst)
            }

            /// Store the flag (yield point).
            pub fn store(&self, v: bool, _order: Ordering) {
                hook();
                self.inner.store(v, Ordering::SeqCst)
            }

            /// Swap the flag, returning the previous value (yield point).
            pub fn swap(&self, v: bool, _order: Ordering) -> bool {
                hook();
                self.inner.swap(v, Ordering::SeqCst)
            }

            /// Consume the atomic and return the value.
            pub fn into_inner(self) -> bool {
                self.inner.into_inner()
            }
        }
    }

    /// Model-checked drop-in for [`std::sync::Mutex`]: acquisition spins
    /// on `try_lock` with the holder tracked by the scheduler, so
    /// contention becomes explicit blocked/wake transitions the explorer
    /// can reorder.
    #[derive(Debug)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
        key: usize,
    }

    impl<T> Mutex<T> {
        /// Create a new mutex guarding `t`.
        pub fn new(t: T) -> Self {
            Self {
                inner: std::sync::Mutex::new(t),
                key: fresh_key(),
            }
        }

        /// Acquire the lock (yield point; blocks in the scheduler when
        /// contended).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if let Some((exec, me)) = with_current(|e, me| (e.clone(), me)) {
                loop {
                    exec.yield_now(me);
                    match self.inner.try_lock() {
                        Ok(g) => {
                            return Ok(MutexGuard {
                                inner: Some(g),
                                lock: self,
                            })
                        }
                        Err(std::sync::TryLockError::Poisoned(p)) => {
                            return Err(PoisonError::new(MutexGuard {
                                inner: Some(p.into_inner()),
                                lock: self,
                            }))
                        }
                        Err(std::sync::TryLockError::WouldBlock) => exec.block_on(me, self.key),
                    }
                }
            } else {
                match self.inner.lock() {
                    Ok(g) => Ok(MutexGuard {
                        inner: Some(g),
                        lock: self,
                    }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        inner: Some(p.into_inner()),
                        lock: self,
                    })),
                }
            }
        }

        /// Consume the mutex and return the protected value.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }

        /// Mutable access without locking (requires `&mut self`).
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }
    }

    /// Guard returned by [`Mutex::lock`]; wakes scheduler-blocked
    /// waiters on drop.
    pub struct MutexGuard<'a, T> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        lock: &'a Mutex<T>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // INVARIANT: inner is Some for any live guard; only Drop and wait() take it
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // INVARIANT: inner is Some for any live guard; only Drop and wait() take it
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if let Some(g) = self.inner.take() {
                drop(g);
                let _ = with_current(|e, _| e.wake(self.lock.key));
            }
        }
    }

    /// Model-checked drop-in for [`std::sync::Condvar`]. In a model,
    /// `wait` atomically registers the waiter *before* releasing the
    /// mutex (the scheduler token makes the pair indivisible), and
    /// `wait_timeout` never times out — a notification that can be
    /// missed therefore shows up as a deadlock, not a silent timeout.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
        key: usize,
    }

    impl Condvar {
        /// Create a new condition variable.
        pub fn new() -> Self {
            Self {
                inner: std::sync::Condvar::new(),
                key: fresh_key(),
            }
        }

        /// Release the guard and block until notified, then reacquire.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            if let Some((exec, me)) = with_current(|e, me| (e.clone(), me)) {
                let lock = guard.lock;
                exec.block_mark(me, self.key);
                drop(guard); // releases the mutex and wakes its waiters
                exec.block_parked(me);
                lock.lock()
            } else {
                self.std_wait(guard)
            }
        }

        /// Like [`Condvar::wait`]; in a model the timeout is ignored
        /// (never fires) so lost wakeups surface as deadlocks.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            if with_current(|_, _| ()).is_some() {
                match self.wait(guard) {
                    Ok(g) => Ok((g, WaitTimeoutResult(false))),
                    Err(p) => {
                        let g = p.into_inner();
                        Err(PoisonError::new((g, WaitTimeoutResult(false))))
                    }
                }
            } else {
                let mut guard = guard;
                // INVARIANT: a live guard holds its std guard; wait() is the only other taker
                let std_g = guard.inner.take().expect("guard taken");
                let lock = guard.lock;
                drop(guard); // inner already taken: no unlock, no wake
                match self.inner.wait_timeout(std_g, dur) {
                    Ok((g, t)) => Ok((
                        MutexGuard {
                            inner: Some(g),
                            lock,
                        },
                        WaitTimeoutResult(t.timed_out()),
                    )),
                    Err(p) => {
                        let (g, t) = p.into_inner();
                        Err(PoisonError::new((
                            MutexGuard {
                                inner: Some(g),
                                lock,
                            },
                            WaitTimeoutResult(t.timed_out()),
                        )))
                    }
                }
            }
        }

        fn std_wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            // INVARIANT: a live guard holds its std guard; wait() is the only other taker
            let std_g = guard.inner.take().expect("guard taken");
            let lock = guard.lock;
            drop(guard);
            match self.inner.wait(std_g) {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    lock,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    inner: Some(p.into_inner()),
                    lock,
                })),
            }
        }

        /// Wake every waiter (deterministic in a model: all become
        /// runnable, the explorer decides the order).
        pub fn notify_all(&self) {
            self.inner.notify_all();
            let _ = with_current(|e, _| e.wake(self.key));
        }

        /// Wake one waiter (the lowest-id blocked thread in a model).
        #[doc(hidden)]
        // ORACLE: verify/tests/models.rs
        pub fn notify_one(&self) {
            self.inner.notify_one();
            let _ = with_current(|e, _| e.wake_one(self.key));
        }
    }

    /// Result of [`Condvar::wait_timeout`]; in a model it never reports
    /// a timeout.
    #[derive(Debug, Clone, Copy)]
    pub struct WaitTimeoutResult(bool);

    impl WaitTimeoutResult {
        /// `true` if the wait ended by timing out rather than by a
        /// notification.
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    /// Model-checked drop-in for [`std::sync::mpsc`]: sends wake the
    /// scheduler-blocked receiver, dropping the last sender wakes it for
    /// disconnect, and `recv_timeout` never times out in a model (an
    /// undelivered frame is a deadlock, not a timeout).
    pub mod mpsc {
        use crate::sched::{fresh_key, with_current};
        pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};
        use std::time::Duration;

        /// Create an unbounded channel.
        pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
            let (tx, rx) = std::sync::mpsc::channel();
            let key = fresh_key();
            (
                Sender {
                    inner: Some(tx),
                    key,
                },
                Receiver { inner: rx, key },
            )
        }

        /// Sending half; wakes the modeled receiver on send and (via
        /// `Drop` of the last clone) on disconnect.
        #[derive(Debug)]
        pub struct Sender<T> {
            inner: Option<std::sync::mpsc::Sender<T>>,
            key: usize,
        }

        impl<T> Clone for Sender<T> {
            fn clone(&self) -> Self {
                Self {
                    inner: self.inner.clone(),
                    key: self.key,
                }
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                // Drop the inner sender *first* so a woken receiver
                // observes the disconnect, then wake it.
                drop(self.inner.take());
                let _ = with_current(|e, _| e.wake(self.key));
            }
        }

        impl<T> Sender<T> {
            /// Send a value (yield point in a model).
            pub fn send(&self, t: T) -> Result<(), SendError<T>> {
                if let Some((exec, me)) = with_current(|e, me| (e.clone(), me)) {
                    exec.yield_now(me);
                    // INVARIANT: inner is Some until Drop; no send can follow Drop
                    let r = self.inner.as_ref().expect("sender taken").send(t);
                    exec.wake(self.key);
                    r
                } else {
                    // INVARIANT: inner is Some until Drop; no send can follow Drop
                    self.inner.as_ref().expect("sender taken").send(t)
                }
            }
        }

        /// Receiving half.
        #[derive(Debug)]
        pub struct Receiver<T> {
            inner: std::sync::mpsc::Receiver<T>,
            key: usize,
        }

        impl<T> Receiver<T> {
            /// Receive, blocking in the scheduler until a frame or
            /// disconnect arrives.
            pub fn recv(&self) -> Result<T, RecvError> {
                if let Some((exec, me)) = with_current(|e, me| (e.clone(), me)) {
                    exec.yield_now(me);
                    loop {
                        match self.inner.try_recv() {
                            Ok(v) => return Ok(v),
                            Err(TryRecvError::Disconnected) => return Err(RecvError),
                            Err(TryRecvError::Empty) => exec.block_on(me, self.key),
                        }
                    }
                } else {
                    self.inner.recv()
                }
            }

            /// Non-blocking receive (yield point in a model).
            pub fn try_recv(&self) -> Result<T, TryRecvError> {
                if let Some((exec, me)) = with_current(|e, me| (e.clone(), me)) {
                    exec.yield_now(me);
                }
                self.inner.try_recv()
            }

            /// Receive with a timeout. In a model the timeout is ignored
            /// (never fires): a frame that never arrives is reported as
            /// a deadlock rather than masked by the timeout path.
            pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
                if with_current(|_, _| ()).is_some() {
                    match self.recv() {
                        Ok(v) => Ok(v),
                        Err(RecvError) => Err(RecvTimeoutError::Disconnected),
                    }
                } else {
                    self.inner.recv_timeout(timeout)
                }
            }
        }
    }
}
