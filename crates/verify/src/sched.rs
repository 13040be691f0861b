//! The cooperative model-checking scheduler behind [`crate::Model`].
//!
//! # How a model run works
//!
//! A model is a closure using the [`crate::sync`] / [`crate::thread`]
//! shims. [`Model::check`] runs the closure many times; in each run,
//! every shim operation (atomic access, lock, channel op, barrier
//! arrival) is a **yield point**: the running thread hands a scheduling
//! token to the scheduler, which picks which registered thread runs
//! next. Exactly one model thread executes at any moment, so each run is
//! one *serialized interleaving* — a schedule — and everything between
//! two yield points is atomic by construction.
//!
//! # Exploration
//!
//! Schedules are enumerated by **depth-first search with a preemption
//! bound**: at each yield point where more than one thread could run, the
//! scheduler records the alternatives; after the run it backtracks to the
//! deepest decision with an untried alternative and re-executes with that
//! prefix. Switching away from a thread that *could* have continued
//! counts as a preemption, and schedules exceeding the bound are pruned
//! — the classic result (Musuvathi & Qadeer's iterative context
//! bounding) is that almost all real concurrency bugs manifest within
//! two preemptions, which keeps the search tractable while staying
//! systematic. Exploration is exhaustive (within the bound) up to
//! [`Model::max_schedules`].
//!
//! # What a run can detect
//!
//! * **Panics** — any assertion failure inside the model;
//! * **deadlock** — no runnable thread while some are blocked (this is
//!   also how *lost wakeups* surface: a missed `notify` leaves its waiter
//!   blocked forever, because modeled waits never time out);
//! * **livelock** — a run exceeding the step budget;
//! * **schedule-dependent results** — the closure's return value is
//!   compared across every explored schedule and must be identical.
//!
//! # Determinism and replay
//!
//! Model closures must be deterministic apart from scheduling (no real
//! time, no ambient randomness). Every failure report prints the
//! schedule as a comma-separated list of the thread ids chosen at each
//! branching decision; [`Model::replay`] (or the `SRSF_MODEL_REPLAY`
//! environment variable) re-executes exactly that interleaving, so a
//! failure found on schedule 8141 of 10000 reproduces deterministically
//! in one run under a debugger.
//!
//! # Scope
//!
//! The scheduler serializes all shim operations, so it verifies model
//! logic under **sequential consistency**. It cannot observe weak-memory
//! reorderings — that is what the ThreadSanitizer CI job is for; the two
//! are complementary. Threads created with `std::thread` (rather than
//! [`crate::thread::spawn`]) are invisible to the scheduler and must not
//! be used inside a model.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Once};

/// Sentinel panic payload used to unwind model threads when a run is
/// aborted (another thread failed, or a deadlock was detected). Caught
/// and swallowed by the thread wrapper; never observed by user code.
pub(crate) struct ModelAbort;

/// Upper bound on threads a single model may register.
const MAX_THREADS: usize = 16;

/// Scheduling-step budget per run; exceeding it is reported as a
/// livelock.
const MAX_STEPS: usize = 1_000_000;

/// Key space for "waiting for thread `t` to finish" (join) resources,
/// disjoint from object-address and channel keys.
#[cfg_attr(not(srsf_model), allow(dead_code))] // called by the model-mode shims only
pub(crate) fn thread_key(tid: usize) -> usize {
    (usize::MAX / 2) + tid
}

/// A fresh resource key for objects without a stable address (channels).
/// Tagged into the top of the key space so it cannot collide with the
/// object-address keys used by locks and condvars.
#[cfg_attr(not(srsf_model), allow(dead_code))] // called by the model-mode shims only
pub(crate) fn fresh_key() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    // Relaxed: the counter only needs uniqueness, never ordering.
    (usize::MAX / 4) * 3 + NEXT.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    /// Eligible to be scheduled.
    Runnable,
    /// Waiting for `wake`/`wake_one` on a resource key.
    Blocked(usize),
    /// Exited (normally or by unwinding).
    Finished,
}

struct ExecState {
    threads: Vec<TState>,
    /// Threads whose last decision was a spin-yield (and have not run a
    /// real operation since): a spin-yield avoids handing the token to
    /// them, so two polling loops cannot ping-pong without the thread
    /// they are waiting on making progress.
    spinning: Vec<bool>,
    /// Which thread holds the execution token.
    running: usize,
    /// Alternatives (thread ids) at each branching decision, in order.
    log_alt: Vec<Vec<usize>>,
    /// Index into `log_alt[i]` actually taken.
    taken: Vec<usize>,
    preemptions: usize,
    steps: usize,
    /// Set on failure/deadlock/livelock; makes every parked thread
    /// unwind with [`ModelAbort`] at its next wakeup.
    abort: bool,
    failure: Option<String>,
    finished: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExecState {
    /// The schedule so far, as the thread ids chosen at each branching
    /// decision.
    fn schedule_tids(&self) -> Vec<usize> {
        self.log_alt
            .iter()
            .zip(&self.taken)
            .map(|(alts, &i)| alts[i])
            .collect()
    }
}

/// Why the current thread reached a scheduling decision.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Caller {
    /// A plain yield point: the caller can continue.
    Runnable,
    /// An explicit `yield_now` in a polling loop: prefer running someone
    /// else (free of preemption cost), continue only if alone.
    Spin,
    /// The caller just blocked or finished.
    Gone,
}

/// How the next run's branching decisions are forced.
#[derive(Clone)]
enum Prefix {
    /// DFS: indices into the alternative list at each decision.
    Indices(Vec<usize>),
    /// Replay: the thread id to choose at each decision.
    Tids(Vec<usize>),
}

/// One run's shared scheduler state; every model thread holds an `Arc`.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    preemption_bound: usize,
    prefix: Prefix,
}

thread_local! {
    /// The execution this OS thread participates in, if it is a model
    /// thread of an active run.
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// Run `f` with the current model-thread context, or return `None` when
/// the calling thread is not part of an active model run (the shims then
/// fall back to plain `std` behavior).
#[cfg_attr(not(srsf_model), allow(dead_code))] // called by the model-mode shims only
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Execution>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(e, t)| f(e, *t)))
}

/// `true` on threads registered with an active model run — used by the
/// quiet panic hook to keep expected model-thread unwinds off stderr.
/// Must tolerate being called while `with_current` holds the borrow
/// (a sentinel panic raised inside the closure runs the hook first):
/// an outstanding borrow itself proves this is a model thread.
fn in_model_thread() -> bool {
    CURRENT.with(|c| match c.try_borrow() {
        Ok(b) => b.is_some(),
        Err(_) => true,
    })
}

/// Install (once per process) a panic hook that suppresses output for
/// panics on model threads: sentinel aborts are pure control flow, and
/// genuine model failures are captured and re-reported with their replay
/// schedule by the controller.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ModelAbort>().is_some() || in_model_thread() {
                return;
            }
            prev(info);
        }));
    });
}

// Several entry points are reached only from the model-mode shims.
#[cfg_attr(not(srsf_model), allow(dead_code))]
impl Execution {
    fn new(preemption_bound: usize, prefix: Prefix) -> Self {
        Self {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                spinning: Vec::new(),
                running: 0,
                log_alt: Vec::new(),
                taken: Vec::new(),
                preemptions: 0,
                steps: 0,
                abort: false,
                failure: None,
                finished: 0,
                handles: Vec::new(),
            }),
            cv: Condvar::new(),
            preemption_bound,
            prefix,
        }
    }

    /// Register a new model thread (called on the *spawning* thread so
    /// registration order is deterministic). Returns its id.
    pub(crate) fn register(&self) -> usize {
        let mut st = self.lock();
        assert!(
            st.threads.len() < MAX_THREADS,
            "model spawned more than {MAX_THREADS} threads"
        );
        st.threads.push(TState::Runnable);
        st.spinning.push(false);
        st.threads.len() - 1
    }

    pub(crate) fn add_handle(&self, h: std::thread::JoinHandle<()>) {
        self.lock().handles.push(h);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        match self.state.lock() {
            Ok(g) => g,
            // A model thread can only panic while *running* (holding the
            // token, not this lock), so the state itself is consistent.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Pick the next thread to run. Returns the chosen thread, or
    /// `None` when the run is over (all finished) or aborted.
    fn decide(&self, st: &mut ExecState, me: usize, caller: Caller) -> Option<usize> {
        if st.abort {
            return None;
        }
        st.steps += 1;
        if st.steps > MAX_STEPS {
            self.fail(
                st,
                format!("livelock: run exceeded {MAX_STEPS} scheduling steps"),
            );
            return None;
        }
        // A spin-yield marks the caller as spinning until its next real
        // operation; see the `spinning` field.
        st.spinning[me] = caller == Caller::Spin;
        let enabled: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, TState::Runnable))
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            if st.finished == st.threads.len() {
                return None; // clean completion
            }
            let states: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .map(|(i, s)| match s {
                    TState::Blocked(k) => format!("thread {i} blocked on resource {k:#x}"),
                    TState::Runnable => format!("thread {i} runnable"),
                    TState::Finished => format!("thread {i} finished"),
                })
                .collect();
            self.fail(
                st,
                format!("deadlock: no runnable thread ({})", states.join("; ")),
            );
            return None;
        }

        // Order alternatives: continuing the current thread first (free),
        // then other enabled threads by id (each costs a preemption when
        // the current thread could have continued). A spinning caller
        // (explicit `yield_now`) instead *prefers* other threads — the
        // loom convention that a spin loop cannot make progress until
        // someone else runs — which keeps polling loops finite without
        // charging the switch to the preemption budget.
        let can_continue = caller == Caller::Runnable && enabled.contains(&me);
        let alts: Vec<usize> = match caller {
            Caller::Runnable if can_continue => {
                if st.preemptions >= self.preemption_bound {
                    vec![me]
                } else {
                    std::iter::once(me)
                        .chain(enabled.iter().copied().filter(|&t| t != me))
                        .collect()
                }
            }
            Caller::Spin => {
                // Prefer other threads that are not themselves spinning;
                // among only-spinners, any other thread; alone, continue.
                let fresh: Vec<usize> = enabled
                    .iter()
                    .copied()
                    .filter(|&t| t != me && !st.spinning[t])
                    .collect();
                if !fresh.is_empty() {
                    fresh
                } else {
                    let others: Vec<usize> = enabled.iter().copied().filter(|&t| t != me).collect();
                    if others.is_empty() {
                        vec![me]
                    } else {
                        others
                    }
                }
            }
            _ => enabled,
        };

        let next = if alts.len() == 1 {
            alts[0]
        } else {
            let di = st.taken.len();
            let idx = match &self.prefix {
                Prefix::Indices(p) if di < p.len() => {
                    assert!(
                        p[di] < alts.len(),
                        "exploration prefix diverged: the model is nondeterministic \
                         (decision {di} offers {} alternatives, prefix wants index {})",
                        alts.len(),
                        p[di]
                    );
                    p[di]
                }
                Prefix::Tids(p) if di < p.len() => match alts.iter().position(|&t| t == p[di]) {
                    Some(idx) => idx,
                    None => {
                        self.fail(
                            st,
                            format!(
                                "replay diverged at decision {di}: schedule wants thread {} \
                                 but the alternatives are {alts:?}",
                                p[di]
                            ),
                        );
                        return None;
                    }
                },
                _ => 0,
            };
            st.log_alt.push(alts.clone());
            st.taken.push(idx);
            alts[idx]
        };
        if can_continue && next != me {
            st.preemptions += 1;
        }
        st.running = next;
        Some(next)
    }

    /// Park until this thread holds the token (or the run aborted).
    /// Panics with the [`ModelAbort`] sentinel on abort.
    fn park_until_running(&self, mut st: std::sync::MutexGuard<'_, ExecState>, me: usize) {
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.running == me && st.threads[me] == TState::Runnable {
                return;
            }
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// First park of a freshly spawned model thread: wait to be
    /// scheduled for the first time.
    pub(crate) fn acquire_initial(&self, me: usize) {
        let st = self.lock();
        self.park_until_running(st, me);
    }

    /// A plain yield point: offer the scheduler a chance to preempt.
    pub(crate) fn yield_now(&self, me: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        match self.decide(&mut st, me, Caller::Runnable) {
            Some(next) if next == me => {}
            Some(_) => {
                self.cv.notify_all();
                self.park_until_running(st, me);
            }
            None => {
                // Aborted (deadlock/livelock was recorded by decide).
                self.cv.notify_all();
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
        }
    }

    /// An explicit spin-loop yield: schedule some *other* runnable
    /// thread if one exists (without charging the preemption budget), so
    /// polling loops cannot run unboundedly while their condition is in
    /// another thread's hands.
    pub(crate) fn yield_spin(&self, me: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        match self.decide(&mut st, me, Caller::Spin) {
            Some(next) if next == me => {}
            Some(_) => {
                self.cv.notify_all();
                self.park_until_running(st, me);
            }
            None => {
                self.cv.notify_all();
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
        }
    }

    /// Block the calling thread on `key` until some other thread calls
    /// [`Execution::wake`] / [`Execution::wake_one`] for it *and* the
    /// scheduler picks it again.
    pub(crate) fn block_on(&self, me: usize, key: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        st.threads[me] = TState::Blocked(key);
        match self.decide(&mut st, me, Caller::Gone) {
            Some(_) => {
                self.cv.notify_all();
                self.park_until_running(st, me);
            }
            None => {
                self.cv.notify_all();
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
        }
    }

    /// Mark every thread blocked on `key` runnable (they re-check their
    /// predicate when next scheduled). Does **not** yield.
    pub(crate) fn wake(&self, key: usize) {
        let mut st = self.lock();
        for s in st.threads.iter_mut() {
            if *s == TState::Blocked(key) {
                *s = TState::Runnable;
            }
        }
    }

    /// Wake the lowest-id thread blocked on `key` (deterministic
    /// `notify_one`). Returns `true` if a thread was woken.
    pub(crate) fn wake_one(&self, key: usize) -> bool {
        let mut st = self.lock();
        for s in st.threads.iter_mut() {
            if *s == TState::Blocked(key) {
                *s = TState::Runnable;
                return true;
            }
        }
        false
    }

    /// Mark the calling thread blocked on `key` **without yielding** —
    /// the atomic first half of a condvar wait: the caller still runs
    /// (to release its mutex) and must then call [`Execution::block_parked`].
    pub(crate) fn block_mark(&self, me: usize, key: usize) {
        let mut st = self.lock();
        st.threads[me] = TState::Blocked(key);
    }

    /// Second half of a condvar wait: hand off the token and park. The
    /// thread was already marked blocked by [`Execution::block_mark`]
    /// (and may have been re-woken in between; that is a valid wakeup).
    pub(crate) fn block_parked(&self, me: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        if st.threads[me] == TState::Runnable {
            // Woken between mark and park (notify raced ahead): treat as
            // an ordinary yield so the token stays consistent.
            drop(st);
            self.yield_now(me);
            return;
        }
        match self.decide(&mut st, me, Caller::Gone) {
            Some(_) => {
                self.cv.notify_all();
                self.park_until_running(st, me);
            }
            None => {
                self.cv.notify_all();
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
        }
    }

    /// `true` once thread `tid` has exited.
    pub(crate) fn is_finished(&self, tid: usize) -> bool {
        self.lock().threads[tid] == TState::Finished
    }

    /// Record a failure and abort the run; every parked thread unwinds
    /// with the sentinel at its next wakeup.
    fn fail(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// Thread exit paths, called exactly once per model thread by the
    /// spawn wrapper.
    pub(crate) fn exit_normal(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me] = TState::Finished;
        st.finished += 1;
        // Wake joiners before choosing a successor so they are eligible.
        for s in st.threads.iter_mut() {
            if *s == TState::Blocked(thread_key(me)) {
                *s = TState::Runnable;
            }
        }
        let _ = self.decide(&mut st, me, Caller::Gone);
        self.cv.notify_all();
    }

    pub(crate) fn exit_panicked(&self, me: usize, msg: String) {
        let mut st = self.lock();
        st.threads[me] = TState::Finished;
        st.finished += 1;
        self.fail(&mut st, format!("thread {me} panicked: {msg}"));
    }

    pub(crate) fn exit_aborted(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me] = TState::Finished;
        st.finished += 1;
        self.cv.notify_all();
    }

    /// Controller side: wait for every registered thread to exit, then
    /// join the OS threads and return the run record.
    fn wait_done(&self) -> (Vec<Vec<usize>>, Vec<usize>, Option<String>, Vec<usize>) {
        let mut st = self.lock();
        while st.finished < st.threads.len() {
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        let handles = std::mem::take(&mut st.handles);
        let log = st.log_alt.clone();
        let taken = st.taken.clone();
        let failure = st.failure.clone();
        let tids = st.schedule_tids();
        drop(st);
        for h in handles {
            let _ = h.join();
        }
        (log, taken, failure, tids)
    }
}

/// Register the calling OS thread as model thread `tid` of `exec` for the
/// duration of `body` (used by the spawn wrapper).
pub(crate) fn enter_thread<R>(exec: &Arc<Execution>, tid: usize, body: impl FnOnce() -> R) -> R {
    CURRENT.with(|c| *c.borrow_mut() = Some((exec.clone(), tid)));
    let r = body();
    CURRENT.with(|c| *c.borrow_mut() = None);
    r
}

pub(crate) fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of one schedule.
struct RunRecord<T> {
    log: Vec<Vec<usize>>,
    taken: Vec<usize>,
    failure: Option<String>,
    tids: Vec<usize>,
    value: Option<T>,
}

/// A bounded exhaustive exploration of a concurrent model.
///
/// ```no_run
/// use srsf_verify::{sync::atomic::{AtomicUsize, Ordering}, Model};
/// use std::sync::Arc;
///
/// let report = Model::new().check(|| {
///     let c = Arc::new(AtomicUsize::new(0));
///     let c2 = c.clone();
///     let t = srsf_verify::thread::spawn(move || c2.fetch_add(1, Ordering::SeqCst));
///     c.fetch_add(1, Ordering::SeqCst);
///     t.join().unwrap();
///     c.load(Ordering::SeqCst) // must be 2 on every schedule
/// });
/// assert!(report.schedules >= 1);
/// ```
pub struct Model {
    preemption_bound: usize,
    max_schedules: usize,
    replay: Option<Vec<usize>>,
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Distinct schedules executed.
    pub schedules: usize,
    /// `true` when the search space (within the preemption bound) was
    /// fully enumerated rather than cut off by `max_schedules`.
    pub exhausted: bool,
}

impl Model {
    /// A model with the default bounds: preemption bound 3, at most
    /// 200 000 schedules.
    pub fn new() -> Self {
        Self {
            preemption_bound: 3,
            max_schedules: 200_000,
            replay: None,
        }
    }

    /// Set the preemption bound (context switches away from a runnable
    /// thread per schedule). Bound 2–3 catches almost all real
    /// interleaving bugs; higher bounds grow the space combinatorially.
    #[doc(hidden)]
    // ORACLE: verify/tests/models.rs
    pub fn preemption_bound(mut self, b: usize) -> Self {
        self.preemption_bound = b;
        self
    }

    /// Cap the number of schedules explored.
    #[doc(hidden)]
    // ORACLE: verify/tests/models.rs
    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n.max(1);
        self
    }

    /// Run exactly one schedule: the comma-separated thread ids a failure
    /// report printed (e.g. `"0,1,1,2"`).
    pub fn replay(mut self, schedule: &str) -> Self {
        self.replay = Some(parse_schedule(schedule));
        self
    }

    /// Explore the model. The closure runs once per schedule as model
    /// thread 0 and may spawn further threads with
    /// [`crate::thread::spawn`]; its return value must be identical
    /// across all schedules (schedule-independence is checked).
    ///
    /// # Panics
    ///
    /// Panics — printing the failing schedule and how to replay it — on
    /// any model panic, deadlock, lost wakeup, livelock, or
    /// schedule-dependent result.
    pub fn check<T, F>(mut self, f: F) -> Report
    where
        T: PartialEq + std::fmt::Debug + Send + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        install_quiet_hook();
        if self.replay.is_none() {
            if let Ok(s) = std::env::var("SRSF_MODEL_REPLAY") {
                if !s.trim().is_empty() {
                    self.replay = Some(parse_schedule(&s));
                }
            }
        }
        let f = Arc::new(f);

        if let Some(tids) = self.replay.clone() {
            let rec = self.run_once(f, Prefix::Tids(tids));
            if let Some(msg) = rec.failure {
                // INVARIANT: deliberate — panicking is how the checker reports a
                // failing replay to the test harness
                panic!(
                    "srsf-verify: replayed schedule [{}] failed: {msg}",
                    fmt_schedule(&rec.tids)
                );
            }
            return Report {
                schedules: 1,
                exhausted: false,
            };
        }

        // Depth-first search over branching decisions.
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (chosen index, alternative count)
        let mut schedules = 0usize;
        let mut first: Option<(T, Vec<usize>)> = None;
        loop {
            let prefix: Vec<usize> = stack.iter().map(|&(c, _)| c).collect();
            let rec = self.run_once(f.clone(), Prefix::Indices(prefix));
            schedules += 1;
            if let Some(msg) = rec.failure {
                // INVARIANT: deliberate — panicking with the replay string is how
                // the checker reports a failing schedule to the test harness
                panic!(
                    "srsf-verify: model failed on schedule #{schedules} [{}]: {msg}\n\
                     replay with SRSF_MODEL_REPLAY=\"{}\"",
                    fmt_schedule(&rec.tids),
                    fmt_schedule(&rec.tids)
                );
            }
            // INVARIANT: a run with no failure stored its value before exit_normal
            let value = rec.value.expect("completed run must produce a value");
            match &first {
                None => first = Some((value, rec.tids.clone())),
                Some((v0, tids0)) => {
                    assert!(
                        *v0 == value,
                        "srsf-verify: schedule-dependent result\n  schedule [{}] -> {v0:?}\n  \
                         schedule [{}] -> {value:?}\nreplay the second with \
                         SRSF_MODEL_REPLAY=\"{}\"",
                        fmt_schedule(tids0),
                        fmt_schedule(&rec.tids),
                        fmt_schedule(&rec.tids)
                    );
                }
            }

            // Fold this run's new decisions into the DFS stack, then
            // backtrack to the deepest decision with an untried branch.
            for di in stack.len()..rec.taken.len() {
                stack.push((rec.taken[di], rec.log[di].len()));
            }
            let exhausted = loop {
                match stack.last_mut() {
                    None => break true,
                    Some((chosen, n)) => {
                        if *chosen + 1 < *n {
                            *chosen += 1;
                            break false;
                        }
                        stack.pop();
                    }
                }
            };
            if exhausted {
                return Report {
                    schedules,
                    exhausted: true,
                };
            }
            if schedules >= self.max_schedules {
                return Report {
                    schedules,
                    exhausted: false,
                };
            }
        }
    }

    fn run_once<T, F>(&self, f: Arc<F>, prefix: Prefix) -> RunRecord<T>
    where
        T: Send + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        let exec = Arc::new(Execution::new(self.preemption_bound, prefix));
        let root = exec.register();
        debug_assert_eq!(root, 0);
        let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let (exec2, slot2) = (exec.clone(), slot.clone());
        let handle = std::thread::Builder::new()
            .name("srsf-model-0".into())
            .spawn(move || {
                enter_thread(&exec2, root, || {
                    exec2.acquire_initial(root);
                    match catch_unwind(AssertUnwindSafe(|| f())) {
                        Ok(v) => {
                            *slot2.lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
                            exec2.exit_normal(root);
                        }
                        Err(p) if p.downcast_ref::<ModelAbort>().is_some() => {
                            exec2.exit_aborted(root);
                        }
                        Err(p) => exec2.exit_panicked(root, panic_msg(&*p)),
                    }
                })
            })
            // INVARIANT: OS-thread spawn fails only on resource exhaustion; the
            // checker cannot proceed without its root thread
            .expect("spawn model root thread");
        exec.add_handle(handle);
        let (log, taken, failure, tids) = exec.wait_done();
        let value = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
        RunRecord {
            log,
            taken,
            failure,
            tids,
            value,
        }
    }
}

fn parse_schedule(s: &str) -> Vec<usize> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<usize>()
                // INVARIANT: deliberate — a malformed SRSF_MODEL_REPLAY is operator
                // error and the run cannot mean anything
                .unwrap_or_else(|_| panic!("bad schedule token {t:?} (expected a thread id)"))
        })
        .collect()
}

fn fmt_schedule(tids: &[usize]) -> String {
    tids.iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",")
}
