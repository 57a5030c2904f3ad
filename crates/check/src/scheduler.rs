//! The cooperative scheduler and bounded-DFS schedule explorer.
//!
//! A model (a closure using the [`crate::sync`] shim primitives) is run
//! many times. Each run is one *schedule*: at every shim operation the
//! running logical thread yields to the scheduler, which deterministically
//! picks the next thread to run from a decision prefix. After each run the
//! explorer backtracks depth-first to the deepest decision with an untried
//! alternative — subject to a preemption bound — and replays. Failures
//! (deadlock, data race, panic, livelock) carry a dot-separated schedule
//! string that replays the failing run exactly.
//!
//! Logical threads are real OS threads, but exactly one runs at a time:
//! every cross-thread handoff goes through one mutex/condvar pair, so the
//! model's memory accesses are genuinely data-race-free in the host
//! process and all modeled nondeterminism is in the decision sequence.
//! Timed condvar waits are *quiescently fair*: the timeout only fires at
//! points where no untimed thread is runnable — modeling timeouts that are
//! long relative to scheduling, which keeps retry loops bounded.

use crate::lockorder::LockOrderGraph;
use crate::report::{Failure, FailureKind, Report};
use crate::vc::VClock;
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Logical thread id within one execution.
pub(crate) type Tid = usize;

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Maximum schedules to execute before stopping (the wall-clock
    /// budget knob: schedules are explored depth-first until this cap or
    /// exhaustion of the bounded space).
    pub max_schedules: usize,
    /// Maximum preemptive context switches per schedule (`None` =
    /// unbounded). A switch away from a thread that could have continued
    /// is a preemption; forced switches (the thread blocked) are free.
    /// Most concurrency bugs manifest within two preemptions.
    pub preemption_bound: Option<u32>,
    /// Per-schedule step budget; exceeding it reports a livelock.
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_schedules: 10_000,
            preemption_bound: Some(2),
            max_steps: 50_000,
        }
    }
}

/// Panic payload used to unwind model threads when an execution aborts.
struct Abort;

/// Silences the default panic hook for [`Abort`] unwinds (they are the
/// checker's own control flow, not errors). Real model panics still go
/// through the previous hook. Installed once per process.
fn silence_abort_panics() {
    static INSTALLED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Abort>().is_none() {
                previous(info);
            }
        }));
    });
}

thread_local! {
    static CONTEXT: RefCell<Option<(Arc<Execution>, Tid)>> = const { RefCell::new(None) };
}

/// Runs `f` with the thread-local execution context set.
fn with_context<R>(exec: &Arc<Execution>, tid: Tid, f: impl FnOnce() -> R) -> R {
    CONTEXT.with(|c| *c.borrow_mut() = Some((Arc::clone(exec), tid)));
    let r = f();
    CONTEXT.with(|c| *c.borrow_mut() = None);
    r
}

/// How a logical thread is (or is not) runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    BlockedLock(usize),
    BlockedCondvar { cv: usize, timed: bool },
    BlockedRecv(usize),
    BlockedJoin(Tid),
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    clock: VClock,
    /// Lock ids currently held, in acquisition order.
    held: Vec<usize>,
    /// Set when the scheduler woke this thread by firing its timed wait.
    timed_out: bool,
    name: String,
}

#[derive(Debug)]
struct LockState {
    label: String,
    holder: Option<Tid>,
    clock: VClock,
}

#[derive(Debug)]
struct CvState {
    clock: VClock,
    waiters: Vec<Tid>,
}

struct ChannelState {
    queue: VecDeque<(Box<dyn Any + Send>, VClock)>,
    senders: usize,
    receiver_alive: bool,
}

#[derive(Debug)]
struct CellState {
    label: String,
    last_write: Option<(Tid, VClock)>,
    reads: Vec<(Tid, VClock)>,
}

/// One scheduling decision, as recorded during a run.
#[derive(Debug, Clone)]
pub(crate) struct Decision {
    pub enabled: Vec<Tid>,
    pub current: Tid,
    pub chosen: Tid,
}

struct ExecState {
    threads: Vec<ThreadState>,
    active: Tid,
    steps: usize,
    prefix: Vec<Tid>,
    decisions: Vec<Decision>,
    locks: Vec<LockState>,
    condvars: Vec<CvState>,
    channels: Vec<ChannelState>,
    cells: Vec<CellState>,
    failure: Option<FailureKind>,
    done: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
    lock_order: Arc<Mutex<LockOrderGraph>>,
}

impl ExecState {
    /// Threads the scheduler may run next: all `Runnable` threads, or —
    /// only when none exist — threads in timed waits (firing the timeout).
    fn enabled(&self) -> Vec<Tid> {
        let runnable: Vec<Tid> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if !runnable.is_empty() {
            return runnable;
        }
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::BlockedCondvar { timed: true, .. }))
            .map(|(i, _)| i)
            .collect()
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    fn deadlock_waiting(&self) -> Vec<String> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status != Status::Finished)
            .map(|(i, t)| {
                let what = match t.status {
                    Status::BlockedLock(l) => format!("lock '{}'", self.locks[l].label),
                    Status::BlockedCondvar { cv, .. } => format!("condvar #{cv}"),
                    Status::BlockedRecv(c) => format!("recv on channel #{c}"),
                    Status::BlockedJoin(j) => format!("join of t{j}"),
                    Status::Runnable | Status::Finished => "nothing".to_string(),
                };
                let held: Vec<&str> = t
                    .held
                    .iter()
                    .map(|&l| self.locks[l].label.as_str())
                    .collect();
                format!(
                    "t{i}('{}') waiting on {what}, holding [{}]",
                    t.name,
                    held.join(", ")
                )
            })
            .collect()
    }

    fn decide(&mut self, me: Tid, enabled: &[Tid]) -> Result<Tid, FailureKind> {
        let idx = self.decisions.len();
        let chosen = if idx < self.prefix.len() {
            let c = self.prefix[idx];
            if !enabled.contains(&c) {
                return Err(FailureKind::ReplayDivergence {
                    detail: format!(
                        "decision {idx}: t{c} not enabled (enabled: {enabled:?}) — \
                         the model must be deterministic apart from scheduling"
                    ),
                });
            }
            c
        } else if enabled.contains(&me) {
            // Default policy: keep running the current thread. Alternatives
            // (the preemptions) are introduced by backtracking.
            me
        } else {
            enabled[0]
        };
        self.decisions.push(Decision {
            enabled: enabled.to_vec(),
            current: me,
            chosen,
        });
        Ok(chosen)
    }
}

/// One execution ("schedule") of the model, shared between its OS threads.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    config: Config,
}

impl Execution {
    fn new(config: Config, prefix: Vec<Tid>, lock_order: Arc<Mutex<LockOrderGraph>>) -> Execution {
        Execution {
            state: Mutex::new(ExecState {
                threads: vec![ThreadState {
                    status: Status::Runnable,
                    clock: VClock::new(),
                    held: Vec::new(),
                    timed_out: false,
                    name: "main".to_string(),
                }],
                active: 0,
                steps: 0,
                prefix,
                decisions: Vec::new(),
                locks: Vec::new(),
                condvars: Vec::new(),
                channels: Vec::new(),
                cells: Vec::new(),
                failure: None,
                done: false,
                os_handles: Vec::new(),
                lock_order,
            }),
            cv: Condvar::new(),
            config,
        }
    }

    /// The calling OS thread's execution context; panics outside a model.
    pub(crate) fn current() -> (Arc<Execution>, Tid) {
        Execution::try_current()
            .expect("presp-check shim primitive used outside Checker::explore / Checker::replay")
    }

    pub(crate) fn try_current() -> Option<(Arc<Execution>, Tid)> {
        CONTEXT.with(|c| c.borrow().clone())
    }

    fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a failure and wakes everyone; the execution is over.
    fn set_failure(&self, st: &mut ExecState, kind: FailureKind) {
        if st.failure.is_none() {
            st.failure = Some(kind);
        }
        st.done = true;
    }

    /// Aborts the calling model thread (unwinds to its wrapper).
    fn abort(&self) -> ! {
        self.cv.notify_all();
        panic::panic_any(Abort);
    }

    /// Picks the next thread to run. On return either `st.done` is set or
    /// `st.active` names the chosen (now runnable) thread.
    fn advance(&self, st: &mut ExecState, me: Tid) {
        st.steps += 1;
        if st.steps > self.config.max_steps {
            self.set_failure(
                st,
                FailureKind::StepLimit {
                    steps: self.config.max_steps,
                },
            );
            return;
        }
        let enabled = st.enabled();
        if enabled.is_empty() {
            if st.all_finished() {
                st.done = true;
            } else {
                let waiting = st.deadlock_waiting();
                self.set_failure(st, FailureKind::Deadlock { waiting });
            }
            return;
        }
        match st.decide(me, &enabled) {
            Ok(chosen) => {
                // Firing a timed wait: the chosen thread wakes by timeout,
                // with no happens-before edge from any notifier.
                if let Status::BlockedCondvar { cv, timed: true } = st.threads[chosen].status {
                    st.threads[chosen].timed_out = true;
                    st.threads[chosen].status = Status::Runnable;
                    st.condvars[cv].waiters.retain(|&w| w != chosen);
                }
                st.active = chosen;
            }
            Err(kind) => self.set_failure(st, kind),
        }
    }

    /// Parks the calling thread until it is scheduled again (or the
    /// execution fails, in which case it unwinds).
    fn park(&self, me: Tid, mut st: MutexGuard<'_, ExecState>) {
        loop {
            if st.failure.is_some() {
                drop(st);
                self.abort();
            }
            if st.active == me && st.threads[me].status == Status::Runnable {
                return;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A plain schedule point: yield, let the scheduler pick who runs.
    pub(crate) fn yield_point(self: &Arc<Self>, me: Tid) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            self.abort();
        }
        self.advance(&mut st, me);
        self.cv.notify_all();
        self.park(me, st);
    }

    /// Blocks the calling thread with `status` until another thread makes
    /// it runnable and the scheduler picks it.
    fn block(self: &Arc<Self>, me: Tid, status: Status) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            self.abort();
        }
        st.threads[me].status = status;
        self.advance(&mut st, me);
        self.cv.notify_all();
        self.park(me, st);
    }

    /// Marks the calling thread finished and schedules a successor.
    fn retire(self: &Arc<Self>, me: Tid) {
        let mut st = self.lock_state();
        if st.done {
            drop(st);
            self.cv.notify_all();
            return;
        }
        st.threads[me].status = Status::Finished;
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedJoin(me) {
                st.threads[t].status = Status::Runnable;
            }
        }
        self.advance(&mut st, me);
        drop(st);
        self.cv.notify_all();
    }

    fn record_panic(self: &Arc<Self>, me: Tid, message: String) {
        let mut st = self.lock_state();
        let thread = st.threads[me].name.clone();
        self.set_failure(&mut st, FailureKind::Panic { thread, message });
        drop(st);
        self.cv.notify_all();
    }

    // ---- mutexes ------------------------------------------------------

    pub(crate) fn mutex_create(self: &Arc<Self>, label: &str) -> usize {
        let mut st = self.lock_state();
        let id = st.locks.len();
        let label = if label == "mutex" {
            format!("{label}#{id}")
        } else {
            label.to_string()
        };
        st.locks.push(LockState {
            label,
            holder: None,
            clock: VClock::new(),
        });
        id
    }

    pub(crate) fn mutex_lock(self: &Arc<Self>, id: usize) {
        let (_, me) = Execution::current();
        self.yield_point(me);
        loop {
            {
                let mut st = self.lock_state();
                if st.failure.is_some() {
                    drop(st);
                    self.abort();
                }
                if st.locks[id].holder.is_none() {
                    st.locks[id].holder = Some(me);
                    let lock_clock = st.locks[id].clock.clone();
                    st.threads[me].clock.join(&lock_clock);
                    // Lock-order edges: `id` acquired while holding `held`.
                    let held = st.threads[me].held.clone();
                    if !held.is_empty() {
                        let inner = st.locks[id].label.clone();
                        let graph = Arc::clone(&st.lock_order);
                        let mut graph = graph
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        for h in held {
                            graph.add_edge(&st.locks[h].label.clone(), &inner);
                        }
                    }
                    st.threads[me].held.push(id);
                    return;
                }
            }
            self.block(me, Status::BlockedLock(id));
        }
    }

    pub(crate) fn mutex_unlock(self: &Arc<Self>, id: usize, me: Tid) {
        let mut st = self.lock_state();
        if st.failure.is_some() || st.done {
            return;
        }
        if st.locks[id].holder != Some(me) {
            // Unlock during an unwind that never completed the acquire.
            return;
        }
        st.locks[id].holder = None;
        st.threads[me].held.retain(|&l| l != id);
        let thread_clock = st.threads[me].clock.clone();
        st.locks[id].clock.join(&thread_clock);
        st.threads[me].clock.tick(me);
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedLock(id) {
                st.threads[t].status = Status::Runnable;
            }
        }
        // No yield: the next schedule point of any thread can pick the
        // woken waiters; local computation after an unlock is invisible.
    }

    // ---- condvars -----------------------------------------------------

    pub(crate) fn condvar_create(self: &Arc<Self>) -> usize {
        let mut st = self.lock_state();
        let id = st.condvars.len();
        st.condvars.push(CvState {
            clock: VClock::new(),
            waiters: Vec::new(),
        });
        id
    }

    /// Releases `mutex`, waits on `cv`, re-acquires `mutex`. Returns
    /// whether the wake was a timeout (`timed` waits only).
    pub(crate) fn condvar_wait(self: &Arc<Self>, cv: usize, mutex: usize, timed: bool) -> bool {
        let (_, me) = Execution::current();
        {
            let mut st = self.lock_state();
            if st.failure.is_some() {
                drop(st);
                self.abort();
            }
            // Atomic wait-and-release (no other thread runs in between:
            // exactly one logical thread is ever active).
            st.locks[mutex].holder = None;
            st.threads[me].held.retain(|&l| l != mutex);
            let thread_clock = st.threads[me].clock.clone();
            st.locks[mutex].clock.join(&thread_clock);
            st.threads[me].clock.tick(me);
            for t in 0..st.threads.len() {
                if st.threads[t].status == Status::BlockedLock(mutex) {
                    st.threads[t].status = Status::Runnable;
                }
            }
            st.threads[me].timed_out = false;
            st.condvars[cv].waiters.push(me);
        }
        self.block(me, Status::BlockedCondvar { cv, timed });
        let timed_out = {
            let mut st = self.lock_state();
            std::mem::take(&mut st.threads[me].timed_out)
        };
        self.relock(mutex, me);
        timed_out
    }

    /// Re-acquires `mutex` after a condvar wake, without an extra entry
    /// yield (the wake itself was the schedule point).
    fn relock(self: &Arc<Self>, mutex: usize, me: Tid) {
        loop {
            {
                let mut st = self.lock_state();
                if st.failure.is_some() {
                    drop(st);
                    self.abort();
                }
                if st.locks[mutex].holder.is_none() {
                    st.locks[mutex].holder = Some(me);
                    let lock_clock = st.locks[mutex].clock.clone();
                    st.threads[me].clock.join(&lock_clock);
                    st.threads[me].held.push(mutex);
                    return;
                }
            }
            self.block(me, Status::BlockedLock(mutex));
        }
    }

    pub(crate) fn condvar_notify(self: &Arc<Self>, cv: usize, _all: bool) {
        let (_, me) = Execution::current();
        self.yield_point(me);
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            self.abort();
        }
        let thread_clock = st.threads[me].clock.clone();
        st.condvars[cv].clock.join(&thread_clock);
        st.threads[me].clock.tick(me);
        // `notify_one` is modeled as notify-all: condvar waits may wake
        // spuriously by contract, so waking extra threads only explores
        // legal behaviors (and every protocol must tolerate them).
        let waiters = std::mem::take(&mut st.condvars[cv].waiters);
        let cv_clock = st.condvars[cv].clock.clone();
        for w in waiters {
            st.threads[w].status = Status::Runnable;
            st.threads[w].timed_out = false;
            st.threads[w].clock.join(&cv_clock);
        }
    }

    // ---- channels -----------------------------------------------------

    pub(crate) fn channel_create(self: &Arc<Self>) -> usize {
        let mut st = self.lock_state();
        let id = st.channels.len();
        st.channels.push(ChannelState {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        });
        id
    }

    pub(crate) fn channel_send(
        self: &Arc<Self>,
        chan: usize,
        value: Box<dyn Any + Send>,
    ) -> Result<(), Box<dyn Any + Send>> {
        let (_, me) = Execution::current();
        self.yield_point(me);
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            self.abort();
        }
        if !st.channels[chan].receiver_alive {
            return Err(value);
        }
        let snapshot = st.threads[me].clock.clone();
        st.channels[chan].queue.push_back((value, snapshot));
        st.threads[me].clock.tick(me);
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedRecv(chan) {
                st.threads[t].status = Status::Runnable;
            }
        }
        Ok(())
    }

    pub(crate) fn channel_recv(self: &Arc<Self>, chan: usize) -> Option<Box<dyn Any + Send>> {
        let (_, me) = Execution::current();
        self.yield_point(me);
        loop {
            {
                let mut st = self.lock_state();
                if st.failure.is_some() {
                    drop(st);
                    self.abort();
                }
                if let Some((value, clock)) = st.channels[chan].queue.pop_front() {
                    st.threads[me].clock.join(&clock);
                    return Some(value);
                }
                if st.channels[chan].senders == 0 {
                    return None;
                }
            }
            self.block(me, Status::BlockedRecv(chan));
        }
    }

    pub(crate) fn sender_clone(self: &Arc<Self>, chan: usize) {
        let mut st = self.lock_state();
        st.channels[chan].senders += 1;
    }

    pub(crate) fn sender_drop(self: &Arc<Self>, chan: usize) {
        let mut st = self.lock_state();
        if st.done {
            return;
        }
        st.channels[chan].senders = st.channels[chan].senders.saturating_sub(1);
        if st.channels[chan].senders == 0 {
            // Wake a blocked receiver so it can observe disconnection.
            for t in 0..st.threads.len() {
                if st.threads[t].status == Status::BlockedRecv(chan) {
                    st.threads[t].status = Status::Runnable;
                }
            }
        }
    }

    pub(crate) fn receiver_drop(self: &Arc<Self>, chan: usize) {
        let mut st = self.lock_state();
        if st.done {
            return;
        }
        st.channels[chan].receiver_alive = false;
    }

    // ---- race-checked cells -------------------------------------------

    pub(crate) fn cell_create(self: &Arc<Self>, label: &str) -> usize {
        let mut st = self.lock_state();
        let id = st.cells.len();
        let label = if label == "cell" {
            format!("cell#{id}")
        } else {
            label.to_string()
        };
        st.cells.push(CellState {
            label,
            last_write: None,
            reads: Vec::new(),
        });
        id
    }

    pub(crate) fn cell_read(self: &Arc<Self>, id: usize) {
        let (_, me) = Execution::current();
        self.yield_point(me);
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            self.abort();
        }
        if let Some((writer, write_clock)) = &st.cells[id].last_write {
            if *writer != me && !write_clock.le(&st.threads[me].clock) {
                let kind = FailureKind::Race {
                    cell: st.cells[id].label.clone(),
                    access: format!("read by t{me} concurrent with write by t{writer}"),
                };
                self.set_failure(&mut st, kind);
                drop(st);
                self.abort();
            }
        }
        let clock = st.threads[me].clock.clone();
        st.cells[id].reads.push((me, clock));
    }

    pub(crate) fn cell_write(self: &Arc<Self>, id: usize) {
        let (_, me) = Execution::current();
        self.yield_point(me);
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            self.abort();
        }
        let my_clock = st.threads[me].clock.clone();
        let conflict = match &st.cells[id].last_write {
            Some((writer, wc)) if *writer != me && !wc.le(&my_clock) => {
                Some(format!("write by t{me} concurrent with write by t{writer}"))
            }
            _ => st.cells[id].reads.iter().find_map(|(reader, rc)| {
                (*reader != me && !rc.le(&my_clock))
                    .then(|| format!("write by t{me} concurrent with read by t{reader}"))
            }),
        };
        if let Some(access) = conflict {
            let kind = FailureKind::Race {
                cell: st.cells[id].label.clone(),
                access,
            };
            self.set_failure(&mut st, kind);
            drop(st);
            self.abort();
        }
        st.cells[id].reads.clear();
        st.cells[id].last_write = Some((me, my_clock));
    }

    // ---- threads ------------------------------------------------------

    /// Registers a new logical thread (spawn happens-before its body).
    pub(crate) fn register_thread(self: &Arc<Self>, parent: Tid, name: &str) -> Tid {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        // Snapshot before the tick: the child inherits everything up to
        // the spawn, while the parent's *later* events stay concurrent.
        let mut clock = st.threads[parent].clock.clone();
        clock.tick(tid);
        st.threads[parent].clock.tick(parent);
        let name = if name.is_empty() {
            format!("t{tid}")
        } else {
            name.to_string()
        };
        st.threads.push(ThreadState {
            status: Status::Runnable,
            clock,
            held: Vec::new(),
            timed_out: false,
            name,
        });
        tid
    }

    pub(crate) fn add_os_handle(self: &Arc<Self>, handle: std::thread::JoinHandle<()>) {
        self.lock_state().os_handles.push(handle);
    }

    /// First park of a freshly spawned OS thread; returns `false` when the
    /// execution already failed and the body must not run.
    fn first_park(self: &Arc<Self>, me: Tid) -> bool {
        let mut st = self.lock_state();
        loop {
            if st.failure.is_some() {
                return false;
            }
            if st.active == me && st.threads[me].status == Status::Runnable {
                return true;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Runs `body` as logical thread `tid` on a new OS thread.
    pub(crate) fn spawn_os_thread(
        self: &Arc<Self>,
        tid: Tid,
        body: impl FnOnce() + Send + 'static,
    ) {
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("presp-check-t{tid}"))
            .spawn(move || {
                with_context(&exec, tid, || {
                    if !exec.first_park(tid) {
                        return;
                    }
                    match panic::catch_unwind(AssertUnwindSafe(body)) {
                        Ok(()) => exec.retire(tid),
                        Err(payload) => {
                            if payload.downcast_ref::<Abort>().is_none() {
                                // `as_ref` reaches the payload itself; a bare
                                // `&payload` would downcast on the Box.
                                exec.record_panic(tid, panic_message(payload.as_ref()));
                            }
                        }
                    }
                });
            })
            .expect("spawn model OS thread");
        self.add_os_handle(handle);
    }

    /// Blocks until `target` finishes (join happens-after its body).
    pub(crate) fn thread_join(self: &Arc<Self>, target: Tid) {
        let (_, me) = Execution::current();
        self.yield_point(me);
        loop {
            {
                let mut st = self.lock_state();
                if st.failure.is_some() {
                    drop(st);
                    self.abort();
                }
                if st.threads[target].status == Status::Finished {
                    let target_clock = st.threads[target].clock.clone();
                    st.threads[me].clock.join(&target_clock);
                    return;
                }
            }
            self.block(me, Status::BlockedJoin(target));
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---- the explorer -----------------------------------------------------

/// One recorded decision with its DFS bookkeeping.
struct Node {
    enabled: Vec<Tid>,
    current: Tid,
    /// Index into [`Node::alternatives`] of the branch taken.
    rank: usize,
    /// Preemptions consumed by the prefix strictly before this node.
    preemptions_before: u32,
}

impl Node {
    /// The candidate threads at this decision, non-preemptive choice
    /// first, the rest in thread-id order.
    fn alternatives(&self) -> Vec<Tid> {
        let preferred = if self.enabled.contains(&self.current) {
            self.current
        } else {
            self.enabled[0]
        };
        let mut alts = vec![preferred];
        alts.extend(self.enabled.iter().copied().filter(|&t| t != preferred));
        alts
    }

    /// Whether taking alternative `rank` preempts a runnable current
    /// thread.
    fn is_preemption(&self, rank: usize) -> bool {
        self.enabled.contains(&self.current) && self.alternatives()[rank] != self.current
    }
}

/// The result of one execution.
struct RunOutcome {
    decisions: Vec<Decision>,
    failure: Option<FailureKind>,
}

/// The schedule-exploring model checker.
///
/// `explore` runs a model closure under every schedule in a bounded
/// depth-first enumeration; `replay` re-runs one schedule from its
/// failure string. See the crate docs for the full contract.
pub struct Checker {
    config: Config,
}

impl Checker {
    /// A checker with explicit bounds.
    pub fn new(config: Config) -> Checker {
        Checker { config }
    }

    fn run_once(
        &self,
        body: &Arc<dyn Fn() + Send + Sync>,
        prefix: Vec<Tid>,
        lock_order: &Arc<Mutex<LockOrderGraph>>,
    ) -> RunOutcome {
        silence_abort_panics();
        let exec = Arc::new(Execution::new(self.config, prefix, Arc::clone(lock_order)));
        let body = Arc::clone(body);
        exec.spawn_os_thread(0, move || body());
        // Wait for the execution to finish (all threads done, or failed).
        {
            let mut st = exec.lock_state();
            while !st.done {
                st = exec
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        exec.cv.notify_all();
        let handles = std::mem::take(&mut exec.lock_state().os_handles);
        for handle in handles {
            let _ = handle.join();
        }
        let mut st = exec.lock_state();
        RunOutcome {
            decisions: std::mem::take(&mut st.decisions),
            failure: st.failure.take(),
        }
    }

    /// Explores schedules of `body` depth-first until a failure, the
    /// schedule budget, or exhaustion of the (preemption-bounded) space.
    ///
    /// The closure is run once per schedule and must create all model
    /// state (threads, locks, channels) itself, deterministically.
    pub fn explore<F>(&self, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        let lock_order = Arc::new(Mutex::new(LockOrderGraph::new()));
        let mut nodes: Vec<Node> = Vec::new();
        let mut schedules = 0;
        let mut exhausted = false;
        let mut failure = None;
        while schedules < self.config.max_schedules {
            let prefix: Vec<Tid> = nodes.iter().map(|n| n.alternatives()[n.rank]).collect();
            let outcome = self.run_once(&body, prefix, &lock_order);
            schedules += 1;
            if let Some(kind) = outcome.failure {
                failure = Some(Failure {
                    kind,
                    schedule: schedule_string(&outcome.decisions),
                });
                break;
            }
            nodes = decisions_to_nodes(&outcome.decisions);
            if !self.backtrack(&mut nodes) {
                exhausted = true;
                break;
            }
        }
        let graph = lock_order
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Report {
            schedules,
            exhausted,
            failure,
            lock_cycles: graph.cycles(),
            lock_edges: graph.edges(),
        }
    }

    /// Advances `nodes` to the next unexplored schedule; `false` when the
    /// bounded space is exhausted.
    fn backtrack(&self, nodes: &mut Vec<Node>) -> bool {
        let bound = self.config.preemption_bound;
        while let Some(mut node) = nodes.pop() {
            let alts = node.alternatives();
            let mut next = node.rank + 1;
            while next < alts.len() {
                let over_budget =
                    node.is_preemption(next) && bound.is_some_and(|b| node.preemptions_before >= b);
                if !over_budget {
                    break;
                }
                next += 1;
            }
            if next < alts.len() {
                node.rank = next;
                nodes.push(node);
                return true;
            }
        }
        false
    }

    /// Re-runs `body` once, following `schedule` (a failure's schedule
    /// string), and returns that single run's report. The model must be
    /// identical to the one that produced the schedule.
    pub fn replay<F>(&self, schedule: &str, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        let lock_order = Arc::new(Mutex::new(LockOrderGraph::new()));
        let prefix: Vec<Tid> = schedule
            .split('.')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<Tid>().expect("malformed schedule string"))
            .collect();
        let outcome = self.run_once(&body, prefix, &lock_order);
        let failure = outcome.failure.map(|kind| Failure {
            kind,
            schedule: schedule_string(&outcome.decisions),
        });
        let graph = lock_order
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Report {
            schedules: 1,
            exhausted: false,
            failure,
            lock_cycles: graph.cycles(),
            lock_edges: graph.edges(),
        }
    }
}

fn decisions_to_nodes(decisions: &[Decision]) -> Vec<Node> {
    let mut preemptions = 0u32;
    decisions
        .iter()
        .map(|d| {
            let node = Node {
                enabled: d.enabled.clone(),
                current: d.current,
                rank: 0,
                preemptions_before: preemptions,
            };
            let rank = node
                .alternatives()
                .iter()
                .position(|&t| t == d.chosen)
                .expect("chosen thread is among alternatives");
            if node.is_preemption(rank) {
                preemptions += 1;
            }
            Node { rank, ..node }
        })
        .collect()
}

fn schedule_string(decisions: &[Decision]) -> String {
    decisions
        .iter()
        .map(|d| d.chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}
