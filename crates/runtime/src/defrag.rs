//! The online defragmenter daemon.
//!
//! Under amorphous floorplanning, churn fragments the managed column
//! window: enough columns are free for an oversized request, but no
//! contiguous span is. Real PR platforms answer this with bitstream
//! relocation — reload an idle module a few frames over and coalesce the
//! holes. This module is that daemon for the simulated stack: a
//! maintenance worker attached to the sharded
//! [`crate::threaded::ThreadedManager`], sibling of the
//! [`crate::scrubber::ScrubberDaemon`].
//!
//! A repack pass is transactional per move and quiescent as a whole:
//!
//! 1. It takes the commit-order **gate** mutex for the whole pass.
//!    Workers acquire the gate before their shard + core commit critical
//!    section, so holding it keeps every lease exactly where the
//!    compaction plan saw it — no move can race a reconfiguration.
//! 2. The plan is computed under the device-core lock (the allocator's
//!    greedy left-slide compaction).
//! 3. Each move then takes the owning tile's shard lock and the core
//!    lock — the same `tile_state` → `core` order every worker and the
//!    scrubber use — and runs the protocol layer's `repack_move`:
//!    allocator first (validated against every live lease), fabric
//!    second (decouple → frame move → recouple), allocator rolled back
//!    if the fabric refuses. Quarantined owners are skipped.
//!
//! Like [`crate::threaded`], the daemon is generic over [`SyncFacade`]:
//! production uses `Defragmenter` (= `Defragmenter<StdSync>`), while the
//! model-check suites drive `Defragmenter<CheckSync>` through
//! `presp-check`'s schedule explorer — including a committed lock-order
//! mutant (`gate_inversion`) the checker must catch and replay.
//!
//! Lock order invariant: `defrag` → `gate` → `tile_state` → `core` for
//! the pass; [`Defragmenter::stats`] takes `defrag` alone (the pass
//! updates its counters under the same `defrag` guard it holds across
//! the whole pass, so a snapshot can never observe a half-counted pass).

use crate::error::Error;
use crate::manager::RepackReport;
use crate::protocol;
use crate::scheduler::Shared;
use crate::sync::{Arc, StdSync, SyncFacade, TryRecv};
use crate::threaded::ThreadedManager;
use presp_events::trace::ClockDomain;
use presp_events::TraceEvent;
use presp_soc::config::TileCoord;

/// Counters the daemon keeps across repack passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragStats {
    /// Completed repack passes.
    pub passes: u64,
    /// Passes whose compaction plan was empty (nothing to slide).
    pub idle_passes: u64,
    /// Region moves applied across all passes.
    pub moves: u64,
    /// Configuration frames physically relocated across all passes.
    pub frames_moved: u64,
    /// Planned moves skipped (owner quarantined, vanished, or refused).
    pub skipped: u64,
}

impl DefragStats {
    fn record(&mut self, report: &RepackReport) {
        self.passes += 1;
        if report.moves == 0 && report.skipped == 0 {
            self.idle_passes += 1;
        }
        self.moves += report.moves;
        self.frames_moved += report.frames_moved;
        self.skipped += report.skipped;
    }
}

/// Committed known-bad protocol variants for checker validation, mirroring
/// [`crate::scheduler::MutantConfig`]: all off by default; reachable from
/// the workspace test suites (hence `pub`) but hidden from the API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct DefragMutantConfig {
    /// The pass probes a shard's `tile_state` *before* taking the commit
    /// gate — the reverse of every worker's `gate` → `tile_state` commit
    /// acquisition. A worker inside its commit slot (gate held, shard
    /// lock pending) and the mutant pass (shard lock held, gate pending)
    /// deadlock.
    pub gate_inversion: bool,
}

/// A request travelling to the defrag worker.
enum DefragRequest<S: SyncFacade> {
    Repack {
        done: S::Sender<Result<RepackReport, Error>>,
    },
    Stop,
}

/// A background defragmenter attached to a [`ThreadedManager`].
///
/// # Example
///
/// ```no_run
/// # use presp_runtime::threaded::ThreadedManager;
/// # use presp_runtime::defrag::Defragmenter;
/// # use presp_runtime::registry::BitstreamRegistry;
/// # use presp_soc::{config::SocConfig, sim::Soc};
/// # use presp_floorplan::FitPolicy;
/// # fn demo() -> Result<(), presp_runtime::Error> {
/// let config = SocConfig::grid_3x3_reconf("demo", 1)?;
/// let soc = Soc::new(&config)?;
/// let manager = ThreadedManager::spawn(soc, BitstreamRegistry::new());
/// manager.enable_regions(FitPolicy::FirstFit)?;
/// let defrag = Defragmenter::attach(&manager);
/// let report = defrag.repack_blocking()?;
/// assert_eq!(report.skipped, 0);
/// defrag.shutdown();
/// manager.shutdown();
/// # Ok(()) }
/// ```
pub struct Defragmenter<S: SyncFacade = StdSync> {
    queue: S::Sender<DefragRequest<S>>,
    shared: Arc<Shared<S>>,
    defrag_stats: Arc<S::Mutex<DefragStats>>,
    defrag_worker: Arc<S::Mutex<Option<S::JoinHandle<()>>>>,
}

impl<S: SyncFacade> Clone for Defragmenter<S> {
    fn clone(&self) -> Defragmenter<S> {
        Defragmenter {
            queue: S::clone_sender(&self.queue),
            shared: Arc::clone(&self.shared),
            defrag_stats: Arc::clone(&self.defrag_stats),
            defrag_worker: Arc::clone(&self.defrag_worker),
        }
    }
}

impl<S: SyncFacade> Defragmenter<S> {
    /// Attaches a defragmenter to `manager`, spawning its worker thread.
    /// The daemon shares the manager's tile shards, commit gate and
    /// device core; repack passes serialize against worker commits via
    /// the gate. On the fixed-socket path (regions never enabled) every
    /// pass is an idle pass.
    pub fn attach(manager: &ThreadedManager<S>) -> Defragmenter<S> {
        Self::boot(manager, DefragMutantConfig::default())
    }

    /// Attaches with explicit mutants enabled — checker-validation only.
    #[doc(hidden)]
    pub fn attach_with_mutants(
        manager: &ThreadedManager<S>,
        mutants: DefragMutantConfig,
    ) -> Defragmenter<S> {
        Self::boot(manager, mutants)
    }

    fn boot(manager: &ThreadedManager<S>, mutants: DefragMutantConfig) -> Defragmenter<S> {
        let shared = Arc::clone(&manager.shared);
        let defrag_stats = Arc::new(S::mutex_labeled("defrag", DefragStats::default()));
        let (tx, rx) = S::channel::<DefragRequest<S>>();
        let worker_shared = Arc::clone(&shared);
        let worker_defrag = Arc::clone(&defrag_stats);
        let handle = S::spawn("presp-defrag", move || {
            while let Some(request) = S::recv(&rx) {
                match request {
                    DefragRequest::Repack { done } => {
                        let result = if mutants.gate_inversion {
                            Self::repack_inverted(&worker_shared, &worker_defrag)
                        } else {
                            Self::repack_once(&worker_shared, &worker_defrag)
                        };
                        // A pass moves idle horizons: wake any thread
                        // parked on a tile completion so it re-checks.
                        for shard in worker_shared.shards.values() {
                            S::notify_all(&shard.reconfig_done);
                        }
                        let _ = S::send(&done, result);
                    }
                    DefragRequest::Stop => break,
                }
            }
            // Drain: answer every pending request before exiting, exactly
            // like the scheduler workers and the scrubber.
            loop {
                match S::try_recv(&rx) {
                    TryRecv::Value(DefragRequest::Repack { done }) => {
                        let _ = S::send(&done, Err(Error::ManagerStopped));
                    }
                    TryRecv::Value(DefragRequest::Stop) => {}
                    TryRecv::Empty | TryRecv::Disconnected => break,
                }
            }
        });
        Defragmenter {
            queue: tx,
            shared,
            defrag_stats,
            defrag_worker: Arc::new(S::mutex_labeled("defrag_worker", Some(handle))),
        }
    }

    /// The clean protocol: own counters held across the pass, then the
    /// gate-quiesced pass itself.
    fn repack_once(
        shared: &Shared<S>,
        defrag_stats: &S::Mutex<DefragStats>,
    ) -> Result<RepackReport, Error> {
        let mut counters = S::lock(defrag_stats);
        let report = Self::repack_pass(shared)?;
        counters.record(&report);
        Ok(report)
    }

    /// The known-bad variant for checker validation: a shard probe
    /// *before* the gate, inverting the workers' `gate` → `tile_state`
    /// commit order.
    fn repack_inverted(
        shared: &Shared<S>,
        defrag_stats: &S::Mutex<DefragStats>,
    ) -> Result<RepackReport, Error> {
        // MUTANT: every tile_state taken first, gate second — the
        // reverse of every worker's gate → tile_state commit
        // acquisition, so whichever shard a worker commits on is
        // already held when this thread blocks on the gate.
        let probes: Vec<_> = shared
            .shards
            .values()
            .map(|shard| S::lock(&shard.state)) // presp-analyze: mutant
            .collect();
        let quiesce = S::lock(&shared.gate); // presp-analyze: mutant
        drop(quiesce);
        drop(probes);
        Self::repack_once(shared, defrag_stats)
    }

    /// One gate-quiesced repack pass: plan under `core`, then one
    /// `tile_state` → `core` move at a time, all anchored at the pass's
    /// starting horizon like the deterministic manager's `repack_at`.
    fn repack_pass(shared: &Shared<S>) -> Result<RepackReport, Error> {
        // Quiesce commits: workers take the gate before their shard +
        // core critical section, so holding it pins every lease where
        // the compaction plan is about to observe it.
        let quiesced = S::lock(&shared.gate);
        let (at, plan) = {
            let core = S::lock(&shared.core);
            (core.soc().horizon(), protocol::plan_repack(&core))
        };
        let mut report = RepackReport::default();
        for mv in &plan {
            // Locate the owning shard by lease id — one shard lock at a
            // time, never two nested.
            let mut owner: Option<TileCoord> = None;
            for (tile, shard) in &shared.shards {
                let probe = S::lock(&shard.state);
                if probe.lease().is_some_and(|l| l.id == mv.id) {
                    owner = Some(*tile);
                }
            }
            let Some(tile) = owner else {
                report.skipped += 1;
                continue;
            };
            let Some(shard) = shared.shards.get(&tile) else {
                report.skipped += 1;
                continue;
            };
            let mut state = S::lock(&shard.state);
            if state.is_quarantined() {
                report.skipped += 1;
                continue;
            }
            let mut core = S::lock(&shared.core);
            match protocol::repack_move(&mut state, &mut core, mv, at) {
                Ok(frames) => {
                    report.moves += 1;
                    report.frames_moved += frames;
                }
                Err(_) => report.skipped += 1,
            }
        }
        {
            let mut core = S::lock(&shared.core);
            let now = core.soc().horizon().max(at);
            core.soc_mut()
                .tracer_mut()
                .instant(ClockDomain::SocCycles, now, || TraceEvent::DefragPass {
                    moves: report.moves,
                    frames: report.frames_moved,
                });
        }
        drop(quiesced);
        Ok(report)
    }

    /// Enqueues one repack pass and blocks for its report. A pass with
    /// nothing to slide returns a default (all-zero) report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] after shutdown.
    pub fn repack_blocking(&self) -> Result<RepackReport, Error> {
        let (done_tx, done_rx) = S::channel();
        S::send(&self.queue, DefragRequest::Repack { done: done_tx })
            .map_err(|_| Error::ManagerStopped)?;
        S::recv(&done_rx).ok_or(Error::ManagerStopped)?
    }

    /// Daemon counters. Consistent by construction: the worker updates
    /// them under the same `defrag` guard it holds across the whole
    /// pass, so a snapshot never observes a half-counted pass.
    pub fn stats(&self) -> DefragStats {
        *S::lock(&self.defrag_stats)
    }

    /// Stops the defrag worker and joins it. Idempotent and tolerant of
    /// poisoned locks, like [`ThreadedManager::shutdown`].
    pub fn shutdown(&self) {
        let _ = S::send(&self.queue, DefragRequest::Stop);
        if let Some(handle) = S::lock_recover(&self.defrag_worker).take() {
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
    use presp_floorplan::FitPolicy;
    use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
    use presp_fpga::frame::FrameAddress;
    use presp_soc::config::SocConfig;
    use presp_soc::sim::Soc;

    fn bitstream(soc: &Soc, col: u32, frames: u32) -> Bitstream {
        let device = soc.part().device();
        let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        let words = device.part().family().frame_words();
        for minor in 0..frames {
            b.add_frame(FrameAddress::new(0, col, minor), vec![col + minor; words])
                .unwrap();
        }
        b.build(true)
    }

    fn span_bitstream(soc: &Soc, cols: std::ops::Range<u32>, frames: u32) -> Bitstream {
        let device = soc.part().device();
        let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        let words = device.part().family().frame_words();
        for col in cols {
            for minor in 0..frames {
                b.add_frame(FrameAddress::new(0, col, minor), vec![col + minor; words])
                    .unwrap();
            }
        }
        b.build(true)
    }

    /// The manager-side amorphous recipe (see `manager::tests`), driven
    /// end to end through the threaded scheduler and the daemon: seven
    /// 1-column loads pack the window, a swap opens non-adjacent holes,
    /// the 3-column request is refused, one daemon pass heals the
    /// fragmentation, and the retry is admitted and attributed.
    #[test]
    fn daemon_repack_turns_reject_into_admit() {
        let cfg = SocConfig::grid_reconf("defrag_daemon", 7).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tiles = cfg.reconfigurable_tiles();
        let mut registry = BitstreamRegistry::new();
        for &tile in &tiles {
            registry
                .register(tile, AcceleratorKind::Mac, bitstream(&soc, 1, 4))
                .unwrap();
            registry
                .register(tile, AcceleratorKind::Sort, bitstream(&soc, 3, 4))
                .unwrap();
            registry
                .register(tile, AcceleratorKind::Gemm, span_bitstream(&soc, 7..10, 4))
                .unwrap();
        }
        let mgr = ThreadedManager::spawn(soc, registry);
        mgr.enable_regions_within(FitPolicy::FirstFit, 1..12)
            .unwrap();
        let defrag = Defragmenter::attach(&mgr);
        for &t in &tiles {
            mgr.reconfigure_blocking(t, AcceleratorKind::Mac).unwrap();
        }
        mgr.reconfigure_blocking(tiles[5], AcceleratorKind::Sort)
            .unwrap();
        let frag = mgr.fragmentation().unwrap();
        assert_eq!(frag.free_columns, 4);
        assert_eq!(frag.largest_free_span, 2);
        // Oversized: free columns exist, but no 3-wide span.
        let err = mgr.reconfigure_blocking(tiles[1], AcceleratorKind::Gemm);
        assert!(
            matches!(err, Err(Error::RegionUnavailable { width: 3, .. })),
            "{err:?}"
        );
        assert_eq!(mgr.stats().oversized_rejected, 1);
        let sched = mgr.scheduler_stats();
        assert_eq!(sched.free_columns, 4);
        assert_eq!(sched.largest_free_span, 2);
        assert!(sched.external_fragmentation > 0.0);
        // One daemon pass heals the fragmentation…
        let report = defrag.repack_blocking().unwrap();
        assert_eq!(report.moves, 1);
        assert_eq!(report.skipped, 0);
        assert!(report.frames_moved > 0);
        let stats = defrag.stats();
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.moves, 1);
        assert_eq!(stats.idle_passes, 0);
        // …and the retry is admitted and attributed to the repack.
        mgr.reconfigure_blocking(tiles[1], AcceleratorKind::Gemm)
            .unwrap();
        let after = mgr.stats();
        assert_eq!(after.oversized_admitted, 1);
        assert_eq!(after.repack_admitted, 1);
        assert!(after.consistent());
        // Left behind: the vacated column 2 and the DSP column 6.
        assert_eq!(mgr.fragmentation().unwrap().free_columns, 2);
        assert_eq!(mgr.tile_lease(tiles[1]).unwrap().base, 9);
        defrag.shutdown();
        mgr.shutdown();
    }

    #[test]
    fn repack_without_regions_is_an_idle_pass() {
        let cfg = SocConfig::grid_3x3_reconf("defrag_idle", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let mgr = ThreadedManager::spawn(soc, BitstreamRegistry::new());
        let defrag = Defragmenter::attach(&mgr);
        let report = defrag.repack_blocking().unwrap();
        assert_eq!(report, RepackReport::default());
        let stats = defrag.stats();
        assert_eq!((stats.passes, stats.idle_passes), (1, 1));
        defrag.shutdown();
        mgr.shutdown();
    }

    #[test]
    fn defrag_shutdown_is_idempotent_and_stops_requests() {
        let cfg = SocConfig::grid_3x3_reconf("defrag_stop", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let mgr = ThreadedManager::spawn(soc, BitstreamRegistry::new());
        let defrag = Defragmenter::attach(&mgr);
        defrag.shutdown();
        defrag.shutdown();
        assert!(matches!(
            defrag.repack_blocking(),
            Err(Error::ManagerStopped)
        ));
        mgr.shutdown();
    }

    #[test]
    fn repacking_under_reconfiguration_load_stays_consistent() {
        let cfg = SocConfig::grid_3x3_reconf("defrag_load", 2).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tiles = cfg.reconfigurable_tiles();
        let mut registry = BitstreamRegistry::new();
        for &tile in &tiles {
            registry
                .register(tile, AcceleratorKind::Mac, bitstream(&soc, 1, 2))
                .unwrap();
            registry
                .register(tile, AcceleratorKind::Sort, bitstream(&soc, 2, 2))
                .unwrap();
        }
        let mgr = ThreadedManager::spawn(soc, registry);
        mgr.enable_regions(FitPolicy::FirstFit).unwrap();
        let defrag = Defragmenter::attach(&mgr);
        let swapper = {
            let mgr = mgr.clone();
            let tiles = tiles.clone();
            std::thread::spawn(move || {
                for i in 0..10 {
                    let kind = if i % 2 == 0 {
                        AcceleratorKind::Mac
                    } else {
                        AcceleratorKind::Sort
                    };
                    for &t in &tiles {
                        let _ = mgr.reconfigure_blocking(t, kind);
                    }
                }
            })
        };
        for _ in 0..10 {
            defrag.repack_blocking().unwrap();
        }
        swapper.join().unwrap();
        assert_eq!(defrag.stats().passes, 10);
        assert!(mgr.stats().consistent());
        defrag.shutdown();
        mgr.shutdown();
    }

    // ---- model-checked protocol (CheckSync) ---------------------------

    fn boot_checked(
        mutants: DefragMutantConfig,
    ) -> (
        ThreadedManager<CheckSync>,
        Defragmenter<CheckSync>,
        presp_soc::config::TileCoord,
    ) {
        let cfg = SocConfig::grid_3x3_reconf("defrag_model", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2, 1))
            .unwrap();
        let mgr = ThreadedManager::<CheckSync>::spawn_with(
            soc,
            registry,
            crate::threaded::RuntimeConfig::default(),
        );
        let defrag = Defragmenter::attach_with_mutants(&mgr, mutants);
        (mgr, defrag, tile)
    }

    fn mutant_checker() -> Checker {
        Checker::new(Config {
            max_schedules: 5_000,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
    }

    fn gate_inversion_model() {
        let (mgr, defrag, tile) = boot_checked(DefragMutantConfig {
            gate_inversion: true,
        });
        // A worker commits under gate → tile_state while the mutant pass
        // probes tile_state → gate on the same shard.
        let submitter = mgr.clone();
        let s = presp_check::sync::spawn_named("reconf_caller", move || {
            let _ = submitter.reconfigure_blocking(tile, AcceleratorKind::Mac);
        });
        let worker = defrag.clone();
        let d = presp_check::sync::spawn_named("defrag_caller", move || {
            let _ = worker.repack_blocking();
        });
        d.join().unwrap();
        s.join().unwrap();
        defrag.shutdown();
        mgr.shutdown();
    }

    #[test]
    fn checker_catches_defrag_gate_inversion_mutant() {
        let report = mutant_checker().explore(gate_inversion_model);
        let failure = report
            .failure
            .expect("the defrag gate-inversion mutant must deadlock some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "expected deadlock, got: {failure}"
        );
        let replay = mutant_checker().replay(&failure.schedule, gate_inversion_model);
        assert!(
            matches!(
                replay.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::Deadlock { .. })
            ),
            "replay must reproduce the deadlock: {replay}"
        );
    }

    #[test]
    fn clean_defrag_protocol_explores_without_findings() {
        // Defragmenter + scheduler, mutants off: a quick bounded sweep
        // here; the 10k-schedule sweep lives in the workspace-level
        // model_check suite.
        let report = Checker::new(Config {
            max_schedules: 500,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
        .explore(|| {
            let (mgr, defrag, tile) = boot_checked(DefragMutantConfig::default());
            mgr.enable_regions(FitPolicy::FirstFit).unwrap();
            let submitter = mgr.clone();
            let s = presp_check::sync::spawn_named("reconf_caller", move || {
                let _ = submitter.reconfigure_blocking(tile, AcceleratorKind::Mac);
            });
            let worker = defrag.clone();
            let d = presp_check::sync::spawn_named("defrag_caller", move || {
                let _ = worker.repack_blocking();
            });
            let _snapshot = defrag.stats();
            d.join().unwrap();
            s.join().unwrap();
            defrag.shutdown();
            mgr.shutdown();
        });
        assert!(report.ok(), "{report}");
    }
}
