//! The sync facade: one trait, two worlds.
//!
//! Protocol code written against [`SyncFacade`] compiles twice — against
//! [`StdSync`] (real `std::sync` primitives) for production, and against
//! [`CheckSync`] (the instrumented shims in [`crate::sync`]) for model
//! checking. The *same* source implements the shipped runtime and the
//! checked model, so exploration results apply to the code that runs.
//!
//! The facade is deliberately the narrow waist the PR-ESP runtime needs:
//! labeled mutexes (labels feed the lock-order graph), condvars with timed
//! waits, an mpsc channel, and spawn/join. `lock_recover` is the
//! poison-tolerant acquisition used on read-only post-mortem paths; under
//! [`CheckSync`] it is identical to `lock` (a model panic fails the whole
//! execution instead of poisoning).

use crate::sync as shim;
use std::ops::DerefMut;
use std::sync::PoisonError;
use std::time::Duration;

/// Family of synchronization primitives the runtime is generic over.
pub trait SyncFacade: Sized + Send + Sync + 'static {
    /// Mutual-exclusion lock around `T`.
    type Mutex<T: Send + 'static>: Send + Sync + 'static;
    /// RAII guard for [`SyncFacade::Mutex`].
    type Guard<'a, T: Send + 'static>: DerefMut<Target = T>;
    /// Condition variable paired with [`SyncFacade::Mutex`].
    type Condvar: Send + Sync + 'static;
    /// Send half of an unbounded mpsc channel.
    type Sender<T: Send + 'static>: Send + 'static;
    /// Receive half of an unbounded mpsc channel.
    type Receiver<T: Send + 'static>: Send + 'static;
    /// Handle to a spawned thread producing `T`.
    type JoinHandle<T: Send + 'static>: Send + 'static;

    /// A new anonymous mutex.
    fn mutex<T: Send + 'static>(value: T) -> Self::Mutex<T> {
        Self::mutex_labeled("mutex", value)
    }
    /// A new mutex with a stable label for lock-order reporting.
    fn mutex_labeled<T: Send + 'static>(label: &'static str, value: T) -> Self::Mutex<T>;
    /// Acquires the lock; panics on poisoning (a crashed critical section
    /// on a path that must not silently continue).
    fn lock<'a, T: Send + 'static>(mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T>;
    /// Acquires the lock, recovering from poisoning — for read-only /
    /// post-mortem paths that must survive a worker crash.
    fn lock_recover<'a, T: Send + 'static>(mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T>;

    /// A new condition variable.
    fn condvar() -> Self::Condvar;
    /// Releases the guard, waits for a notification, re-acquires.
    fn wait<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
    ) -> Self::Guard<'a, T>;
    /// Like [`SyncFacade::wait`] with a timeout; the `bool` is whether the
    /// wake was a timeout. Under [`CheckSync`] the duration is modeled as
    /// long relative to all other activity (fires only at quiescence).
    fn wait_timeout<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
        timeout: Duration,
    ) -> (Self::Guard<'a, T>, bool);
    /// Wakes one waiter (possibly more: spurious wakeups are allowed).
    fn notify_one(cv: &Self::Condvar);
    /// Wakes every waiter.
    fn notify_all(cv: &Self::Condvar);

    /// A new unbounded mpsc channel.
    fn channel<T: Send + 'static>() -> (Self::Sender<T>, Self::Receiver<T>);
    /// Clones the send half.
    fn clone_sender<T: Send + 'static>(tx: &Self::Sender<T>) -> Self::Sender<T>;
    /// Queues a message; `Err` returns the value if the receiver is gone.
    fn send<T: Send + 'static>(tx: &Self::Sender<T>, value: T) -> Result<(), T>;
    /// Blocks for the next message; `None` when all senders are gone.
    fn recv<T: Send + 'static>(rx: &Self::Receiver<T>) -> Option<T>;

    /// Spawns a named thread.
    fn spawn<T, F>(name: &str, f: F) -> Self::JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static;
    /// Joins a thread; `Err` if it panicked.
    fn join<T: Send + 'static>(handle: Self::JoinHandle<T>) -> Result<T, crate::sync::JoinError>;
    /// Cedes the processor (a schedule point under [`CheckSync`]).
    fn yield_now();
    /// Stalls the calling thread for roughly `duration` — the doorway
    /// fault injection uses to model slow workers. Under [`CheckSync`]
    /// this is just a schedule point: the model has no wall clock, so a
    /// stall degenerates to a yield and the explorer covers every
    /// interleaving a real delay could produce.
    fn stall(duration: Duration) {
        let _ = duration;
        Self::yield_now();
    }
    /// Whether the calling thread is unwinding from a panic. Cleanup
    /// guards (the scheduler's claim guard) branch on this to heal
    /// shared state from a dying worker. Under [`CheckSync`] a panic
    /// fails the whole model, so the healing branch is never reached
    /// during exploration — panic recovery is exercised on the
    /// production facade, hang recovery under the model.
    fn panicking() -> bool {
        std::thread::panicking()
    }
}

/// Production facade: plain `std::sync` / `std::thread`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdSync;

impl SyncFacade for StdSync {
    type Mutex<T: Send + 'static> = std::sync::Mutex<T>;
    type Guard<'a, T: Send + 'static> = std::sync::MutexGuard<'a, T>;
    type Condvar = std::sync::Condvar;
    type Sender<T: Send + 'static> = std::sync::mpsc::Sender<T>;
    type Receiver<T: Send + 'static> = std::sync::mpsc::Receiver<T>;
    type JoinHandle<T: Send + 'static> = std::thread::JoinHandle<T>;

    fn mutex_labeled<T: Send + 'static>(_label: &'static str, value: T) -> Self::Mutex<T> {
        std::sync::Mutex::new(value)
    }

    fn lock<'a, T: Send + 'static>(mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T> {
        mutex.lock().expect("mutex poisoned")
    }

    fn lock_recover<'a, T: Send + 'static>(mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn condvar() -> Self::Condvar {
        std::sync::Condvar::new()
    }

    fn wait<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
    ) -> Self::Guard<'a, T> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_timeout<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
        timeout: Duration,
    ) -> (Self::Guard<'a, T>, bool) {
        match cv.wait_timeout(guard, timeout) {
            Ok((guard, result)) => (guard, result.timed_out()),
            Err(poisoned) => {
                let (guard, result) = poisoned.into_inner();
                (guard, result.timed_out())
            }
        }
    }

    fn notify_one(cv: &Self::Condvar) {
        cv.notify_one();
    }

    fn notify_all(cv: &Self::Condvar) {
        cv.notify_all();
    }

    fn channel<T: Send + 'static>() -> (Self::Sender<T>, Self::Receiver<T>) {
        std::sync::mpsc::channel()
    }

    fn clone_sender<T: Send + 'static>(tx: &Self::Sender<T>) -> Self::Sender<T> {
        tx.clone()
    }

    fn send<T: Send + 'static>(tx: &Self::Sender<T>, value: T) -> Result<(), T> {
        tx.send(value).map_err(|e| e.0)
    }

    fn recv<T: Send + 'static>(rx: &Self::Receiver<T>) -> Option<T> {
        rx.recv().ok()
    }

    fn spawn<T, F>(name: &str, f: F) -> Self::JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let builder = if name.is_empty() {
            std::thread::Builder::new()
        } else {
            std::thread::Builder::new().name(name.to_string())
        };
        builder.spawn(f).expect("spawn thread")
    }

    fn join<T: Send + 'static>(handle: Self::JoinHandle<T>) -> Result<T, crate::sync::JoinError> {
        handle.join().map_err(|_| crate::sync::JoinError)
    }

    fn yield_now() {
        std::thread::yield_now();
    }

    fn stall(duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// Model-checking facade: the instrumented shims in [`crate::sync`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckSync;

impl SyncFacade for CheckSync {
    type Mutex<T: Send + 'static> = shim::Mutex<T>;
    type Guard<'a, T: Send + 'static> = shim::MutexGuard<'a, T>;
    type Condvar = shim::Condvar;
    type Sender<T: Send + 'static> = shim::Sender<T>;
    type Receiver<T: Send + 'static> = shim::Receiver<T>;
    type JoinHandle<T: Send + 'static> = shim::JoinHandle<T>;

    fn mutex_labeled<T: Send + 'static>(label: &'static str, value: T) -> Self::Mutex<T> {
        shim::Mutex::labeled(label, value)
    }

    fn lock<'a, T: Send + 'static>(mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T> {
        mutex.lock()
    }

    fn lock_recover<'a, T: Send + 'static>(mutex: &'a Self::Mutex<T>) -> Self::Guard<'a, T> {
        // No poisoning in the model: a panic fails the whole execution.
        mutex.lock()
    }

    fn condvar() -> Self::Condvar {
        shim::Condvar::new()
    }

    fn wait<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
    ) -> Self::Guard<'a, T> {
        cv.wait(guard)
    }

    fn wait_timeout<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: Self::Guard<'a, T>,
        timeout: Duration,
    ) -> (Self::Guard<'a, T>, bool) {
        cv.wait_timeout(guard, timeout)
    }

    fn notify_one(cv: &Self::Condvar) {
        cv.notify_one();
    }

    fn notify_all(cv: &Self::Condvar) {
        cv.notify_all();
    }

    fn channel<T: Send + 'static>() -> (Self::Sender<T>, Self::Receiver<T>) {
        shim::channel()
    }

    fn clone_sender<T: Send + 'static>(tx: &Self::Sender<T>) -> Self::Sender<T> {
        tx.clone()
    }

    fn send<T: Send + 'static>(tx: &Self::Sender<T>, value: T) -> Result<(), T> {
        tx.send(value).map_err(|e| e.0)
    }

    fn recv<T: Send + 'static>(rx: &Self::Receiver<T>) -> Option<T> {
        rx.recv().ok()
    }

    fn spawn<T, F>(name: &str, f: F) -> Self::JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        shim::spawn_named(name, f)
    }

    fn join<T: Send + 'static>(handle: Self::JoinHandle<T>) -> Result<T, crate::sync::JoinError> {
        handle.join()
    }

    fn yield_now() {
        shim::yield_now();
    }

    fn panicking() -> bool {
        // Always false under the checker. A real model panic fails the
        // execution (the checker reports it), and the checker also
        // unwinds blocked threads with its own control-flow panic when a
        // schedule aborts — a cleanup guard that re-entered the scheduler
        // during that unwind would turn every reported failure into a
        // process abort.
        false
    }
}
