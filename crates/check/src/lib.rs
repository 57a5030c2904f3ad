//! `presp-check`: deterministic concurrency checking for the PR-ESP
//! runtime, in the spirit of `loom`.
//!
//! A concurrent protocol is written once against the [`SyncFacade`]
//! trait. In production it instantiates [`StdSync`] (plain `std::sync`);
//! under test it instantiates [`CheckSync`], whose primitives yield to a
//! cooperative scheduler at every acquisition / signal / send / spawn
//! point. [`Checker::explore`] then runs the model under every schedule
//! in a bounded depth-first enumeration (with preemption bounding, as in
//! CHESS), checking each execution for:
//!
//! - **deadlocks** — no runnable thread, unfinished threads remain;
//! - **data races** — vector-clock happens-before analysis over
//!   [`RaceCell`] accesses;
//! - **panics** — any model thread panicking fails the execution;
//! - **livelocks** — a per-execution step budget;
//! - **lock-order cycles** — an acquired-while-holding graph accumulated
//!   across *all* explored schedules, reporting potential deadlocks even
//!   when no explored schedule actually deadlocked.
//!
//! Every failure carries a dot-separated *schedule string*; feeding it to
//! [`Checker::replay`] re-runs exactly the failing interleaving — a
//! deterministic reproducer for a concurrency bug.
//!
//! ```
//! use presp_check::{sync, Checker, Config};
//!
//! let checker = Checker::new(Config { max_schedules: 100, ..Config::default() });
//! let report = checker.explore(|| {
//!     let counter = sync::Arc::new(sync::Mutex::new(0u32));
//!     let c = sync::Arc::clone(&counter);
//!     let h = sync::spawn(move || *c.lock() += 1);
//!     *counter.lock() += 1;
//!     h.join().unwrap();
//!     assert_eq!(*counter.lock(), 2);
//! });
//! assert!(report.ok(), "{report}");
//! ```
//!
//! # Model contract
//!
//! The closure passed to [`Checker::explore`] is run once per schedule
//! and must be deterministic apart from scheduling: create all model
//! state (threads, locks, channels, cells) fresh inside the closure, do
//! not read wall-clock time or OS randomness, and route all cross-thread
//! communication through the shim primitives. Timed condvar waits are
//! modeled as *quiescently timed*: the timeout fires only when no untimed
//! thread is runnable, i.e. timeouts are long relative to all other
//! activity (this keeps retry loops finite and the schedule space
//! bounded).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod lockorder;
mod race;
mod report;
mod scheduler;
mod vc;

pub mod facade;
pub mod sync;

pub use facade::{CheckSync, StdSync, SyncFacade};
pub use lockorder::LockOrderGraph;
pub use race::RaceCell;
pub use report::{Failure, FailureKind, Report};
pub use scheduler::{Checker, Config};
pub use vc::VClock;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    fn small_checker() -> Checker {
        Checker::new(Config {
            max_schedules: 2_000,
            preemption_bound: Some(2),
            max_steps: 10_000,
        })
    }

    #[test]
    fn mutex_counter_is_clean_and_exhausts() {
        let report = small_checker().explore(|| {
            let counter = Arc::new(Mutex::new(0u32));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    sync::spawn(move || *c.lock() += 1)
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*counter.lock(), 2);
        });
        assert!(report.ok(), "{report}");
        assert!(report.exhausted, "tiny model should exhaust: {report}");
        assert!(report.schedules > 1, "must explore interleavings");
    }

    fn racy_body() {
        let cell = Arc::new(RaceCell::new("shared", 0u32));
        let c = Arc::clone(&cell);
        let h = sync::spawn(move || {
            let v = c.read();
            c.write(v + 1);
        });
        let v = cell.read();
        cell.write(v + 1);
        let _ = h.join();
    }

    #[test]
    fn detects_unsynchronized_race_and_replays_it() {
        let report = small_checker().explore(racy_body);
        let failure = report.failure.expect("race must be found");
        assert!(
            matches!(failure.kind, FailureKind::Race { .. }),
            "expected race, got: {failure}"
        );
        // The schedule string replays the identical failure.
        let replay = small_checker().replay(&failure.schedule, racy_body);
        assert_eq!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(&failure.kind),
            "replay must reproduce: {replay}"
        );
    }

    fn inversion_body() {
        let a = Arc::new(Mutex::labeled("A", ()));
        let b = Arc::new(Mutex::labeled("B", ()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let h = sync::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
        });
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let _ = h.join();
    }

    #[test]
    fn detects_lock_order_inversion_deadlock_and_cycle() {
        let report = small_checker().explore(inversion_body);
        let failure = report.failure.expect("deadlock must be found");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "expected deadlock, got: {failure}"
        );
        let replay = small_checker().replay(&failure.schedule, inversion_body);
        assert!(
            matches!(
                replay.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::Deadlock { .. })
            ),
            "replay must deadlock: {replay}"
        );
    }

    #[test]
    fn lock_cycle_reported_even_without_deadlocking_schedule() {
        // One thread takes A then B, then (after the first pair is
        // released) B then A: no schedule deadlocks, but the accumulated
        // lock-order graph has the A/B cycle.
        let report = small_checker().explore(|| {
            let a = Mutex::labeled("A", ());
            let b = Mutex::labeled("B", ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
        });
        assert!(report.failure.is_none(), "{report}");
        assert_eq!(
            report.lock_cycles,
            vec![vec!["A".to_string(), "B".to_string()]]
        );
        assert!(!report.ok());
    }

    #[test]
    fn condvar_handoff_is_clean() {
        let report = small_checker().explore(|| {
            let pair = Arc::new((Mutex::labeled("flag", false), Condvar::new()));
            let p = Arc::clone(&pair);
            let h = sync::spawn(move || {
                let (m, cv) = &*p;
                *m.lock() = true;
                cv.notify_all();
            });
            let (m, cv) = &*pair;
            let mut flag = m.lock();
            while !*flag {
                flag = cv.wait(flag);
            }
            drop(flag);
            h.join().unwrap();
        });
        assert!(report.ok(), "{report}");
        assert!(report.exhausted, "{report}");
    }

    #[test]
    fn timed_wait_fires_only_at_quiescence() {
        // The setter never notifies; only the (quiescent) timeout lets the
        // waiter observe the flag. A real `wait` here would deadlock.
        let report = small_checker().explore(|| {
            let pair = Arc::new((Mutex::labeled("flag", false), Condvar::new()));
            let p = Arc::clone(&pair);
            let h = sync::spawn(move || {
                *p.0.lock() = true; // stealth update, no notify
            });
            let (m, cv) = &*pair;
            let mut flag = m.lock();
            while !*flag {
                let (g, _timed_out) = cv.wait_timeout(flag, Duration::from_millis(50));
                flag = g;
            }
            drop(flag);
            h.join().unwrap();
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn channel_request_reply_and_disconnect() {
        let report = small_checker().explore(|| {
            let (tx, rx) = sync::channel::<(u32, sync::Sender<u32>)>();
            let worker = sync::spawn_named("worker", move || {
                while let Ok((n, reply)) = rx.recv() {
                    let _ = reply.send(n * 2);
                }
            });
            for n in 0..2u32 {
                let (rtx, rrx) = sync::channel();
                tx.send((n, rtx)).unwrap();
                assert_eq!(rrx.recv(), Ok(n * 2));
            }
            drop(tx); // disconnect: worker's recv errors and it exits
            worker.join().unwrap();
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn panic_in_model_is_reported_with_schedule() {
        let report = small_checker().explore(|| {
            let h = sync::spawn_named("boom", || panic!("kaboom"));
            let _ = h.join();
        });
        let failure = report.failure.expect("panic must be reported");
        match &failure.kind {
            FailureKind::Panic { thread, message } => {
                assert_eq!(thread, "boom");
                assert!(message.contains("kaboom"));
            }
            other => panic!("expected panic failure, got {other}"),
        }
    }

    #[test]
    fn livelock_hits_step_limit() {
        let checker = Checker::new(Config {
            max_schedules: 5,
            preemption_bound: Some(0),
            max_steps: 200,
        });
        let report = checker.explore(|| loop {
            sync::yield_now();
        });
        assert!(
            matches!(
                report.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::StepLimit { .. })
            ),
            "{report}"
        );
    }

    #[test]
    fn preemption_bound_caps_the_schedule_space() {
        let body = || {
            let m = Arc::new(Mutex::new(0u32));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    sync::spawn(move || {
                        for _ in 0..3 {
                            *m.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
        };
        let bounded = Checker::new(Config {
            max_schedules: 100_000,
            preemption_bound: Some(1),
            max_steps: 10_000,
        })
        .explore(body);
        let unbounded = Checker::new(Config {
            max_schedules: 100_000,
            preemption_bound: None,
            max_steps: 10_000,
        })
        .explore(body);
        assert!(bounded.ok() && unbounded.ok());
        assert!(bounded.exhausted && unbounded.exhausted);
        assert!(
            bounded.schedules < unbounded.schedules,
            "bound must prune: {} vs {}",
            bounded.schedules,
            unbounded.schedules
        );
    }

    #[test]
    fn replay_divergence_is_detected() {
        let report = small_checker().replay("0.0.7.0", || {
            let h = sync::spawn(|| ());
            h.join().unwrap();
        });
        assert!(
            matches!(
                report.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::ReplayDivergence { .. })
            ),
            "{report}"
        );
    }
}
