//! The configuration-memory scrubber daemon.
//!
//! Real DPR systems run a background scrubber (Xilinx SEM, or a soft SEU
//! controller) that walks configuration frames through the ICAP readback
//! port, repairs single-bit upsets with the per-frame ECC, and raises an
//! alarm on uncorrectable damage. This module is that daemon for the
//! simulated stack: a maintenance worker attached to the sharded
//! [`crate::threaded::ThreadedManager`]. A scrub pass takes the target tile's
//! shard lock and then the device-core lock — the same `tile_state` →
//! `core` order every scheduler worker commits under — so scrub passes
//! and reconfiguration requests serialize on the shared ICAP exactly like
//! two kernel work items contending for one PRC. Scrubs are maintenance,
//! not requests: they bypass the admission queue and the ticket gate.
//!
//! Like [`crate::threaded`], the daemon is generic over [`SyncFacade`]:
//! production uses `ScrubberDaemon` (= `ScrubberDaemon<StdSync>`), while
//! the model-check suites drive `ScrubberDaemon<CheckSync>` through
//! `presp-check`'s schedule explorer — including a committed lock-order
//! mutant the checker must catch and replay.
//!
//! Lock order invariant: `tile_state` → `core` for the pass itself, and
//! `core` → `scrub_stats` for consistent snapshots; the worker updates
//! its own counters only *after* releasing the device locks.

use crate::error::Error;
use crate::protocol;
use crate::scheduler::Shared;
use crate::sync::{Arc, StdSync, SyncFacade, TryRecv};
use crate::threaded::ThreadedManager;
use presp_soc::config::TileCoord;
use presp_soc::sim::ScrubReport;

/// Counters the daemon keeps across scrub passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubberStats {
    /// Completed scrub passes (one per scrubbed tile).
    pub passes: u64,
    /// Passes that found nothing to repair.
    pub clean_passes: u64,
    /// Frames whose single-bit upsets the ECC corrected.
    pub frames_repaired: u64,
    /// Passes that hit an uncorrectable (double-bit) frame and left the
    /// tile quarantined.
    pub quarantines: u64,
}

impl ScrubberStats {
    fn record(&mut self, report: &ScrubReport) {
        self.passes += 1;
        if report.is_clean() {
            self.clean_passes += 1;
        }
        self.frames_repaired += report.corrected.len() as u64;
        if !report.uncorrectable.is_empty() {
            self.quarantines += 1;
        }
    }
}

/// Committed known-bad protocol variants for checker validation, mirroring
/// [`crate::scheduler`]'s mutants: off by default, compiled only into this
/// crate's own test build.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScrubMutantConfig {
    /// The scrub worker acquires `scrub_stats` → `tile_state` → `core`
    /// (updating its counters *inside* one big critical section) while
    /// [`ScrubberDaemon::stats`] acquires `core` → `scrub_stats`: a
    /// lock-order inversion across the two threads.
    pub lock_inversion: bool,
}

/// A request travelling to the scrub worker.
enum ScrubRequest<S: SyncFacade> {
    Scrub {
        tile: TileCoord,
        done: S::Sender<Result<ScrubReport, Error>>,
    },
    ScrubAll {
        done: S::Sender<Result<Vec<(TileCoord, ScrubReport)>, Error>>,
    },
    Stop,
}

/// A background scrubber attached to a [`ThreadedManager`].
///
/// # Example
///
/// ```no_run
/// # use presp_runtime::threaded::ThreadedManager;
/// # use presp_runtime::scrubber::ScrubberDaemon;
/// # use presp_runtime::registry::BitstreamRegistry;
/// # use presp_soc::{config::SocConfig, sim::Soc};
/// # use presp_accel::AcceleratorKind;
/// # fn demo() -> Result<(), presp_runtime::Error> {
/// let config = SocConfig::grid_3x3_reconf("demo", 1)?;
/// let soc = Soc::new(&config)?;
/// let manager = ThreadedManager::spawn(soc, BitstreamRegistry::new());
/// let scrubber = ScrubberDaemon::attach(&manager);
/// let tile = config.reconfigurable_tiles()[0];
/// manager.reconfigure_blocking(tile, AcceleratorKind::Mac)?;
/// let report = scrubber.scrub_blocking(tile)?;
/// assert!(report.is_clean());
/// scrubber.shutdown();
/// manager.shutdown();
/// # Ok(()) }
/// ```
pub struct ScrubberDaemon<S: SyncFacade = StdSync> {
    queue: S::Sender<ScrubRequest<S>>,
    shared: Arc<Shared<S>>,
    stats: Arc<S::Mutex<ScrubberStats>>,
    worker: Arc<S::Mutex<Option<S::JoinHandle<()>>>>,
}

impl<S: SyncFacade> Clone for ScrubberDaemon<S> {
    fn clone(&self) -> ScrubberDaemon<S> {
        ScrubberDaemon {
            queue: S::clone_sender(&self.queue),
            shared: Arc::clone(&self.shared),
            stats: Arc::clone(&self.stats),
            worker: Arc::clone(&self.worker),
        }
    }
}

impl<S: SyncFacade> ScrubberDaemon<S> {
    /// Attaches a scrubber to `manager`, spawning its worker thread. The
    /// daemon shares the manager's tile shards and device core; scrubs
    /// interleave safely with reconfigurations and accelerator runs.
    pub fn attach(manager: &ThreadedManager<S>) -> ScrubberDaemon<S> {
        Self::boot(
            manager,
            #[cfg(test)]
            ScrubMutantConfig::default(),
        )
    }

    /// Attaches with explicit mutants enabled — checker-validation only.
    #[cfg(test)]
    pub(crate) fn attach_with_mutants(
        manager: &ThreadedManager<S>,
        mutants: ScrubMutantConfig,
    ) -> ScrubberDaemon<S> {
        Self::boot(manager, mutants)
    }

    fn boot(
        manager: &ThreadedManager<S>,
        #[cfg(test)] mutants: ScrubMutantConfig,
    ) -> ScrubberDaemon<S> {
        let shared = Arc::clone(&manager.shared);
        let stats = Arc::new(S::mutex_labeled("scrub_stats", ScrubberStats::default()));
        let (tx, rx) = S::channel::<ScrubRequest<S>>();
        let worker_shared = Arc::clone(&shared);
        let worker_stats = Arc::clone(&stats);
        let handle = S::spawn("presp-scrubber", move || {
            while let Some(request) = S::recv(&rx) {
                match request {
                    ScrubRequest::Scrub { tile, done } => {
                        #[cfg(test)]
                        let result = if mutants.lock_inversion {
                            // MUTANT: counters updated inside one big
                            // critical section, stats grabbed first —
                            // scrub_stats → tile_state → core, the
                            // reverse of `stats()`.
                            let mut st = S::lock(&worker_stats); // presp-analyze: mutant
                            let result = Self::scrub_pass(&worker_shared, tile);
                            if let Ok(report) = &result {
                                st.record(report);
                            }
                            result
                        } else {
                            Self::scrub_one(&worker_shared, &worker_stats, tile)
                        };
                        #[cfg(not(test))]
                        let result = Self::scrub_one(&worker_shared, &worker_stats, tile);
                        // A pass may quarantine the tile: wake any thread
                        // parked in `run_blocking` so it can observe that.
                        if let Some(shard) = worker_shared.shards.get(&tile) {
                            S::notify_all(&shard.reconfig_done);
                        }
                        let _ = S::send(&done, result);
                    }
                    ScrubRequest::ScrubAll { done } => {
                        let result = Self::scrub_sweep(&worker_shared, &worker_stats);
                        for shard in worker_shared.shards.values() {
                            S::notify_all(&shard.reconfig_done);
                        }
                        let _ = S::send(&done, result);
                    }
                    ScrubRequest::Stop => break,
                }
            }
            // Drain: answer every pending request before exiting, exactly
            // like the scheduler workers.
            loop {
                match S::try_recv(&rx) {
                    TryRecv::Value(ScrubRequest::Scrub { done, .. }) => {
                        let _ = S::send(&done, Err(Error::ManagerStopped));
                    }
                    TryRecv::Value(ScrubRequest::ScrubAll { done, .. }) => {
                        let _ = S::send(&done, Err(Error::ManagerStopped));
                    }
                    TryRecv::Value(ScrubRequest::Stop) => {}
                    TryRecv::Empty | TryRecv::Disconnected => break,
                }
            }
        });
        ScrubberDaemon {
            queue: tx,
            shared,
            stats,
            worker: Arc::new(S::mutex_labeled("scrub_worker", Some(handle))),
        }
    }

    /// One pass over `tile`: shard lock → core lock → scrub → release.
    fn scrub_pass(shared: &Shared<S>, tile: TileCoord) -> Result<ScrubReport, Error> {
        let shard = shared
            .shards
            .get(&tile)
            .ok_or(Error::Soc(presp_soc::Error::NoSuchTile { coord: tile }))?;
        let mut state = S::lock(&shard.state);
        let mut core = S::lock(&shared.core);
        let at = core.soc().horizon();
        protocol::scrub_tile_at(&mut state, &mut core, at)
    }

    /// The clean protocol: device locks → scrub → release → own counters.
    fn scrub_one(
        shared: &Shared<S>,
        stats: &S::Mutex<ScrubberStats>,
        tile: TileCoord,
    ) -> Result<ScrubReport, Error> {
        let result = Self::scrub_pass(shared, tile);
        if let Ok(report) = &result {
            let mut st = S::lock(stats);
            st.record(report);
        }
        result
    }

    /// A full sweep: every configured, non-quarantined tile, one at a
    /// time (the shard locks are never held pairwise), all anchored at
    /// the sweep's starting horizon like the deterministic manager's
    /// `scrub_all_at`.
    fn scrub_sweep(
        shared: &Shared<S>,
        stats: &S::Mutex<ScrubberStats>,
    ) -> Result<Vec<(TileCoord, ScrubReport)>, Error> {
        let at = S::lock(&shared.core).soc().horizon();
        let mut reports = Vec::new();
        for (&tile, shard) in &shared.shards {
            let report = {
                let mut state = S::lock(&shard.state);
                if state.is_quarantined() {
                    continue;
                }
                let mut core = S::lock(&shared.core);
                if core.soc().tile_region(tile).is_empty() {
                    continue;
                }
                protocol::scrub_tile_at(&mut state, &mut core, at)?
            };
            let mut st = S::lock(stats);
            st.record(&report);
            drop(st);
            reports.push((tile, report));
        }
        Ok(reports)
    }

    /// Enqueues a scrub pass over `tile`'s configuration frames and blocks
    /// for its report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] after shutdown,
    /// [`Error::TileQuarantined`] for quarantined tiles, plus SoC errors.
    pub fn scrub_blocking(&self, tile: TileCoord) -> Result<ScrubReport, Error> {
        let (done_tx, done_rx) = S::channel();
        S::send(
            &self.queue,
            ScrubRequest::Scrub {
                tile,
                done: done_tx,
            },
        )
        .map_err(|_| Error::ManagerStopped)?;
        S::recv(&done_rx).ok_or(Error::ManagerStopped)?
    }

    /// Enqueues a full scrub sweep (every configured, non-quarantined
    /// tile) and blocks for the per-tile reports.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] after shutdown, plus SoC errors.
    pub fn scrub_all_blocking(&self) -> Result<Vec<(TileCoord, ScrubReport)>, Error> {
        let (done_tx, done_rx) = S::channel();
        S::send(&self.queue, ScrubRequest::ScrubAll { done: done_tx })
            .map_err(|_| Error::ManagerStopped)?;
        S::recv(&done_rx).ok_or(Error::ManagerStopped)?
    }

    /// Daemon counters, snapshotted consistently with the manager's own
    /// scrub bookkeeping: takes the device-core lock first (the
    /// crate-wide `core` → `scrub_stats` order), so a scrub pass is never
    /// half counted.
    pub fn stats(&self) -> ScrubberStats {
        let _core = S::lock(&self.shared.core);
        *S::lock(&self.stats)
    }

    /// Stops the scrub worker and joins it. Idempotent and tolerant of
    /// poisoned locks, like [`ThreadedManager::shutdown`].
    pub fn shutdown(&self) {
        let _ = S::send(&self.queue, ScrubRequest::Stop);
        if let Some(handle) = S::lock_recover(&self.worker).take() {
            let _ = S::join(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BitstreamRegistry;
    use presp_accel::catalog::AcceleratorKind;
    use presp_check::{CheckSync, Checker, Config, FailureKind};
    use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
    use presp_fpga::fault::{FaultConfig, FaultPlan};
    use presp_fpga::frame::FrameAddress;
    use presp_soc::config::SocConfig;
    use presp_soc::sim::Soc;

    fn bitstream(soc: &Soc, col: u32) -> Bitstream {
        let device = soc.part().device();
        let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        let words = device.part().family().frame_words();
        b.add_frame(FrameAddress::new(0, col, 0), vec![col; words])
            .unwrap();
        b.build(true)
    }

    fn boot() -> (ThreadedManager, ScrubberDaemon, TileCoord) {
        let cfg = SocConfig::grid_3x3_reconf("scrub", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2))
            .unwrap();
        let mgr = ThreadedManager::spawn(soc, registry);
        let scrubber = ScrubberDaemon::attach(&mgr);
        (mgr, scrubber, tile)
    }

    /// Arms a fault plan with one forced SEU at the current makespan
    /// (drained by the next scrub pass), through the shared device lock.
    fn force_seu(mgr: &ThreadedManager, double_bit: bool) {
        let mut core = mgr.shared.core.lock().unwrap();
        let at = core.soc().horizon();
        let mut plan = FaultPlan::new(11, FaultConfig::uniform(0.0));
        plan.force_seu(at, double_bit);
        core.soc_mut().set_fault_plan(Some(plan));
    }

    #[test]
    fn scrub_repairs_a_forced_upset() {
        let (mgr, scrubber, tile) = boot();
        mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
            .unwrap();
        let report = scrubber.scrub_blocking(tile).unwrap();
        assert!(report.is_clean());
        force_seu(&mgr, false);
        let report = scrubber.scrub_blocking(tile).unwrap();
        assert_eq!(report.corrected.len(), 1);
        let stats = scrubber.stats();
        assert_eq!(stats.passes, 2);
        assert_eq!(stats.clean_passes, 1);
        assert_eq!(stats.frames_repaired, 1);
        assert_eq!(stats.quarantines, 0);
        scrubber.shutdown();
        mgr.shutdown();
    }

    #[test]
    fn scrub_all_quarantines_a_double_bit_upset() {
        let (mgr, scrubber, tile) = boot();
        mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
            .unwrap();
        force_seu(&mgr, true);
        let reports = scrubber.scrub_all_blocking().unwrap();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].1.uncorrectable.is_empty());
        assert_eq!(scrubber.stats().quarantines, 1);
        // The quarantined tile refuses further scrubs …
        assert!(matches!(
            scrubber.scrub_blocking(tile),
            Err(Error::TileQuarantined { .. })
        ));
        // … and a subsequent sweep skips it entirely.
        assert!(scrubber.scrub_all_blocking().unwrap().is_empty());
        scrubber.shutdown();
        mgr.shutdown();
    }

    #[test]
    fn scrubber_shutdown_is_idempotent_and_stops_requests() {
        let (mgr, scrubber, tile) = boot();
        scrubber.shutdown();
        scrubber.shutdown();
        assert!(matches!(
            scrubber.scrub_blocking(tile),
            Err(Error::ManagerStopped)
        ));
        mgr.shutdown();
    }

    #[test]
    fn scrubbing_under_reconfiguration_load_stays_consistent() {
        let (mgr, scrubber, tile) = boot();
        mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
            .unwrap();
        let swapper = {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let _ = mgr.execute_blocking(
                        tile,
                        AcceleratorKind::Mac,
                        presp_accel::AccelOp::Mac {
                            a: vec![1.0],
                            b: vec![2.0],
                        },
                    );
                }
            })
        };
        for _ in 0..10 {
            scrubber.scrub_blocking(tile).unwrap();
        }
        swapper.join().unwrap();
        let stats = scrubber.stats();
        assert_eq!(stats.passes, 10);
        assert!(mgr.stats().consistent());
        scrubber.shutdown();
        mgr.shutdown();
    }

    // ---- model-checked protocol (CheckSync) ---------------------------

    fn boot_checked(
        mutants: ScrubMutantConfig,
    ) -> (
        ThreadedManager<CheckSync>,
        ScrubberDaemon<CheckSync>,
        TileCoord,
    ) {
        let cfg = SocConfig::grid_3x3_reconf("scrub_model", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2))
            .unwrap();
        let mgr = ThreadedManager::<CheckSync>::spawn_with(
            soc,
            registry,
            crate::threaded::RuntimeConfig::default(),
        );
        let scrubber = ScrubberDaemon::attach_with_mutants(&mgr, mutants);
        (mgr, scrubber, tile)
    }

    fn mutant_checker() -> Checker {
        Checker::new(Config {
            max_schedules: 5_000,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
    }

    fn lock_inversion_model() {
        let (mgr, scrubber, tile) = boot_checked(ScrubMutantConfig {
            lock_inversion: true,
        });
        let worker = scrubber.clone();
        let s = presp_check::sync::spawn_named("scrub_caller", move || {
            let _ = worker.scrub_blocking(tile);
        });
        // `stats()` takes core → scrub_stats while the mutant worker
        // takes scrub_stats → tile_state → core.
        let _snapshot = scrubber.stats();
        s.join().unwrap();
        scrubber.shutdown();
        mgr.shutdown();
    }

    #[test]
    fn checker_catches_scrubber_lock_order_inversion_mutant() {
        let report = mutant_checker().explore(lock_inversion_model);
        let failure = report
            .failure
            .expect("the scrubber inversion mutant must deadlock some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "expected deadlock, got: {failure}"
        );
        let replay = mutant_checker().replay(&failure.schedule, lock_inversion_model);
        assert!(
            matches!(
                replay.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::Deadlock { .. })
            ),
            "replay must reproduce the deadlock: {replay}"
        );
    }

    #[test]
    fn clean_scrub_protocol_explores_without_findings() {
        // Scrubber + scheduler, mutants off: a quick bounded sweep here;
        // the 10k-schedule sweep lives in the workspace-level model_check
        // suite.
        let report = Checker::new(Config {
            max_schedules: 500,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
        .explore(|| {
            let (mgr, scrubber, tile) = boot_checked(ScrubMutantConfig::default());
            let worker = scrubber.clone();
            let s = presp_check::sync::spawn_named("scrub_caller", move || {
                let _ = worker.scrub_blocking(tile);
            });
            let _snapshot = scrubber.stats();
            s.join().unwrap();
            scrubber.shutdown();
            mgr.shutdown();
        });
        assert!(report.ok(), "{report}");
    }
}
