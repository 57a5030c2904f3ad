//! Shim synchronization primitives, API-compatible with the `std::sync`
//! subset the PR-ESP runtime uses.
//!
//! Every operation (lock, wait, notify, send, recv, spawn, join) is a
//! *schedule point*: the calling logical thread yields to the
//! cooperative scheduler, which decides who runs next. These types only
//! work inside [`crate::Checker::explore`] / [`crate::Checker::replay`];
//! constructing one outside a model panics.
//!
//! Blocking follows the modeled semantics, not wall-clock time: a
//! `Condvar::wait_timeout` "times out" only at quiescence (no untimed
//! thread runnable), i.e. the timeout is modeled as long relative to all
//! other activity.

use crate::scheduler::{Execution, Tid};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex as StdMutex;
use std::sync::PoisonError;
use std::time::Duration;

pub use std::sync::Arc;

// ---- Mutex ------------------------------------------------------------

/// A model-checked mutual-exclusion lock.
///
/// Give protocol locks stable labels via [`Mutex::labeled`]: the
/// lock-order graph is keyed by label, so labeled locks aggregate cleanly
/// across schedules and show up readably in cycle reports.
pub struct Mutex<T> {
    id: usize,
    data: UnsafeCell<T>,
}

// Exclusion is enforced by the scheduler (single holder, single active
// thread), so sharing the UnsafeCell across model threads is sound.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// A new anonymous mutex (label `mutex#<id>`).
    pub fn new(value: T) -> Mutex<T> {
        Mutex::labeled("mutex", value)
    }

    /// A new mutex with a stable label for lock-order reporting.
    pub fn labeled(label: &str, value: T) -> Mutex<T> {
        let (exec, _) = Execution::current();
        Mutex {
            id: exec.mutex_create(label),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, yielding to the scheduler first.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (exec, me) = Execution::current();
        exec.mutex_lock(self.id);
        MutexGuard {
            mutex: self,
            tid: me,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").field("id", &self.id).finish()
    }
}

/// Holds a [`Mutex`]; releasing is a silent (non-yielding) operation.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    tid: Tid,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Sound: this thread is the registered holder.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((exec, _)) = Execution::try_current() {
            exec.mutex_unlock(self.mutex.id, self.tid);
        }
    }
}

// ---- Condvar ----------------------------------------------------------

/// A model-checked condition variable.
///
/// `notify_one` is modeled as `notify_all`: condvar waits may wake
/// spuriously by contract, so waking every waiter only explores legal
/// behaviors — and flushes out protocols that depend on exactly-one wake.
pub struct Condvar {
    id: usize,
}

impl Condvar {
    /// A new condition variable.
    pub(crate) fn new() -> Condvar {
        let (exec, _) = Execution::current();
        Condvar {
            id: exec.condvar_create(),
        }
    }

    /// Atomically releases the guard's mutex and waits for a notification.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let (exec, me) = Execution::current();
        let mutex = guard.mutex;
        std::mem::forget(guard); // release is done inside condvar_wait
        exec.condvar_wait(self.id, mutex.id, false);
        MutexGuard { mutex, tid: me }
    }

    /// Like [`Condvar::wait`] but also wakeable by timeout. Returns the
    /// re-acquired guard and whether the wake was a timeout. The duration
    /// is ignored: the timeout fires only when no untimed thread can run.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (exec, me) = Execution::current();
        let mutex = guard.mutex;
        std::mem::forget(guard);
        let timed_out = exec.condvar_wait(self.id, mutex.id, true);
        (MutexGuard { mutex, tid: me }, timed_out)
    }

    /// Wakes one waiter (modeled as wake-all; see the type docs).
    pub(crate) fn notify_one(&self) {
        let (exec, _) = Execution::current();
        exec.condvar_notify(self.id, false);
    }

    /// Wakes every waiter.
    pub(crate) fn notify_all(&self) {
        let (exec, _) = Execution::current();
        exec.condvar_notify(self.id, true);
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

// ---- mpsc channel -----------------------------------------------------

/// The send half of an unbounded model-checked channel.
pub struct Sender<T> {
    chan: usize,
    _marker: PhantomData<fn(T)>,
}

/// The receive half of a model-checked channel.
pub struct Receiver<T> {
    chan: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").field("chan", &self.chan).finish()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("chan", &self.chan)
            .finish()
    }
}

/// Sending failed because the receiver was dropped; returns the value.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SendError<T>(pub T);

/// Receiving failed because every sender was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecvError;

/// A new unbounded channel (the model analogue of `std::sync::mpsc`).
pub(crate) fn channel<T: Send + 'static>() -> (Sender<T>, Receiver<T>) {
    let (exec, _) = Execution::current();
    let chan = exec.channel_create();
    (
        Sender {
            chan,
            _marker: PhantomData,
        },
        Receiver {
            chan,
            _marker: PhantomData,
        },
    )
}

impl<T: Send + 'static> Sender<T> {
    /// Queues `value`; never blocks. Fails if the receiver was dropped.
    pub(crate) fn send(&self, value: T) -> Result<(), SendError<T>> {
        let (exec, _) = Execution::current();
        exec.channel_send(self.chan, Box::new(value))
            .map_err(|b| SendError(*b.downcast::<T>().expect("channel value type")))
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        if let Some((exec, _)) = Execution::try_current() {
            exec.sender_clone(self.chan);
        }
        Sender {
            chan: self.chan,
            _marker: PhantomData,
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let Some((exec, _)) = Execution::try_current() {
            exec.sender_drop(self.chan);
        }
    }
}

impl<T: Send + 'static> Receiver<T> {
    /// Blocks until a message arrives or all senders are gone.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let (exec, _) = Execution::current();
        match exec.channel_recv(self.chan) {
            Some(b) => Ok(*b.downcast::<T>().expect("channel value type")),
            None => Err(RecvError),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if let Some((exec, _)) = Execution::try_current() {
            exec.receiver_drop(self.chan);
        }
    }
}

// ---- threads ----------------------------------------------------------

/// Handle to a spawned logical thread.
pub struct JoinHandle<T> {
    tid: Tid,
    slot: Arc<StdMutex<Option<T>>>,
}

/// The joined thread did not produce a value (it panicked; the checker
/// reports the panic as the execution's failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinError;

impl<T> JoinHandle<T> {
    /// Blocks until the thread finishes and returns its value.
    pub fn join(self) -> Result<T, JoinError> {
        let (exec, _) = Execution::current();
        exec.thread_join(self.tid);
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .ok_or(JoinError)
    }
}

/// Spawns a logical thread running `f` under the scheduler.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn_named("", f)
}

/// Like [`spawn`], with a thread name for failure reports.
pub fn spawn_named<T, F>(name: &str, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (exec, me) = Execution::current();
    exec.yield_point(me);
    let tid = exec.register_thread(me, name);
    let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
    let slot2 = Arc::clone(&slot);
    exec.spawn_os_thread(tid, move || {
        let value = f();
        *slot2.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
    });
    JoinHandle { tid, slot }
}

/// An explicit schedule point with no other effect.
pub(crate) fn yield_now() {
    let (exec, me) = Execution::current();
    exec.yield_point(me);
}
