//! The OS-threaded workqueue runtime: [`ThreadedManager`], the one
//! handle applications, benches and maintenance callers hold. Its scrub
//! and repack passes live in [`crate::scrubber`] and [`crate::defrag`].
//!
//! The paper's manager "uses the built-in kernel workqueue to manage
//! multiple reconfiguration requests": application threads enqueue
//! requests; the queue executes them as soon as the PRC is ready; callers
//! wait for completion. [`ThreadedManager`] is that API: per-tile queues
//! drained by a pool of worker threads, with only the ICAP/NoC critical
//! section serializing (in global ticket order, so results are
//! reproducible for any worker count). The claim/gate/commit protocol
//! itself lives in [`crate::scheduler`].
//!
//! The whole protocol is generic over [`SyncFacade`]: production code
//! instantiates [`ThreadedManager`] (= `ThreadedManager<StdSync>`, plain
//! `std::sync` primitives), while the model-check suites instantiate
//! `ThreadedManager<CheckSync>` and run the *same*
//! claim/gate/commit/reply protocol under `presp-check`'s schedule
//! explorer. Lock labels (`"sched_admission"`, `"tile_queue"`, `"gate"`,
//! `"tile_state"`, `"core"`, `"supervisor"`, `"worker_faults"`,
//! `"worker"`) feed its lock-order graph.

use crate::cache::CacheStats;
use crate::error::Error;
use crate::manager::{ExecPath, ManagerStats, RecoveryPolicy};
use crate::registry::BitstreamRegistry;
use crate::scheduler::{
    spawn_worker, supervisor_loop, MutantConfig, Payload, Pending, SchedulerStats, Shared,
    WorkerHandles, DEFAULT_CACHE_CAPACITY,
};
use crate::supervisor::{SupervisorStats, WorkerFaultPlan};
use crate::sync::{Arc, StdSync, SyncFacade};
use presp_accel::catalog::AcceleratorKind;
use presp_accel::AccelOp;
use presp_floorplan::{FitPolicy, FragmentationStats, RegionLease};
use presp_soc::config::TileCoord;
use presp_soc::sim::{AccelRun, Soc};
use std::ops::Range;
use std::time::Duration;

/// Boot-time settings of a [`ThreadedManager`].
/// `RuntimeConfig::default()` is what [`ThreadedManager::spawn`] boots
/// with.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Retry, supervision, deadline and admission-control policy.
    pub policy: RecoveryPolicy,
    /// Worker threads; `None` starts one per reconfigurable tile. Any
    /// count produces identical virtual-time results (see
    /// [`crate::scheduler`]); `Some(1)` is the single-worker workqueue.
    pub workers: Option<usize>,
    /// Capacity of the bitstream LRU; `0` disables the cache.
    pub cache_capacity: usize,
    /// Deliberate protocol bugs for checker validation; all off by
    /// default.
    #[doc(hidden)]
    pub mutants: MutantConfig,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            policy: RecoveryPolicy::default(),
            workers: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            mutants: MutantConfig::default(),
        }
    }
}

/// The sharded, multi-worker front-end to the DPR protocol: a
/// thread-safe handle to the runtime. Requests to independent tiles are
/// prepared concurrently by the worker pool; the shared device commits
/// them in admission order.
///
/// Cloning is cheap; clones share the same queues, shards and device
/// core, so clone it into as many application threads as you like. See
/// the [`crate::scheduler`] docs for the scheduling model.
///
/// # Example
///
/// ```no_run
/// # use presp_runtime::threaded::ThreadedManager;
/// # use presp_runtime::registry::BitstreamRegistry;
/// # use presp_soc::{config::SocConfig, sim::Soc};
/// # use presp_accel::{AccelOp, AcceleratorKind};
/// # fn demo() -> Result<(), presp_runtime::Error> {
/// let config = SocConfig::grid_3x3_reconf("demo", 2)?;
/// let soc = Soc::new(&config)?;
/// let manager = ThreadedManager::spawn(soc, BitstreamRegistry::new());
/// let tile = config.reconfigurable_tiles()[0];
/// manager.reconfigure_blocking(tile, AcceleratorKind::Mac)?;
/// let run = manager.run_blocking(tile, AccelOp::Mac { a: vec![1.0], b: vec![2.0] })?;
/// manager.shutdown();
/// # Ok(()) }
/// ```
pub struct ThreadedManager<S: SyncFacade = StdSync> {
    pub(crate) shared: Arc<Shared<S>>,
    workers: WorkerHandles<S>,
}

impl<S: SyncFacade> Clone for ThreadedManager<S> {
    fn clone(&self) -> ThreadedManager<S> {
        ThreadedManager {
            shared: Arc::clone(&self.shared),
            workers: Arc::clone(&self.workers),
        }
    }
}

impl ThreadedManager<StdSync> {
    /// Boots with [`RuntimeConfig::default`]: the default
    /// [`RecoveryPolicy`], one worker per reconfigurable tile and a
    /// 16-entry bitstream cache.
    pub fn spawn(soc: Soc, registry: BitstreamRegistry) -> ThreadedManager {
        ThreadedManager::spawn_with(soc, registry, RuntimeConfig::default())
    }
}

impl<S: SyncFacade> ThreadedManager<S> {
    /// Boots the worker pool over a SoC and registry, under any sync
    /// facade. One shard is created per tile in the SoC's configuration,
    /// so requests to any grid coordinate flow through the same protocol
    /// (and fail with the same errors) as on the deterministic manager.
    pub fn spawn_with(
        soc: Soc,
        registry: BitstreamRegistry,
        config: RuntimeConfig,
    ) -> ThreadedManager<S> {
        let workers = config
            .workers
            .unwrap_or_else(|| soc.config().reconfigurable_tiles().len())
            .max(1);
        let shared = Arc::new(Shared::new(soc, registry, config, workers));
        let handles: Vec<_> = (0..workers)
            .map(|slot| spawn_worker(&shared, slot))
            .collect();
        let workers_handle: WorkerHandles<S> = Arc::new(S::mutex_labeled("worker", Some(handles)));
        if shared.policy.supervised {
            let sup_shared = Arc::clone(&shared);
            let sup_workers = Arc::clone(&workers_handle);
            let handle = S::spawn("presp-supervisor", move || {
                supervisor_loop(&sup_shared, &sup_workers);
            });
            if let Some(handles) = S::lock(&workers_handle).as_mut() {
                handles.push(handle);
            }
        }
        ThreadedManager {
            shared,
            workers: workers_handle,
        }
    }

    /// Submits a reconfiguration without blocking, coalescing it into an
    /// identical queued or in-flight one when possible. With
    /// `policy.breaker` a quarantined tile is refused at the door; a full
    /// bounded queue refuses or sheds per `policy.overload`.
    pub fn submit_reconfigure(&self, tile: TileCoord, kind: AcceleratorKind) -> Pending<S, ()> {
        let (done, rx) = S::channel();
        let payload = Payload::Reconfigure {
            kind,
            done,
            coalesced: Vec::new(),
        };
        self.submit(tile, payload, rx)
    }

    /// Submits an accelerator invocation without blocking. Runs never
    /// carry a deadline — a missed deadline is a reconfiguration-ledger
    /// outcome and plain runs are outside that ledger.
    pub fn submit_run(&self, tile: TileCoord, op: AccelOp) -> Pending<S, AccelRun> {
        let (done, rx) = S::channel();
        let op = Box::new(op);
        self.submit(tile, Payload::Run { op, done }, rx)
    }

    /// Submits an ensure-loaded-then-run request without blocking.
    pub fn submit_execute(
        &self,
        tile: TileCoord,
        kind: AcceleratorKind,
        op: AccelOp,
    ) -> Pending<S, (AccelRun, ExecPath)> {
        let (done, rx) = S::channel();
        let op = Box::new(op);
        self.submit(tile, Payload::Execute { kind, op, done }, rx)
    }

    /// The one request path, for every kind: door check → deadline stamp
    /// → admission → wake a worker → settle a shed. Every refusal answers
    /// the request's own channel through [`Payload::fail`], so the caller
    /// always holds the same kind of [`Pending`].
    fn submit<T: Send + 'static>(
        &self,
        tile: TileCoord,
        payload: Payload<S>,
        rx: S::Receiver<Result<T, Error>>,
    ) -> Pending<S, T> {
        if self.shared.refused_at_door(tile) {
            payload.fail(Error::TileQuarantined { tile });
            return Pending { rx };
        }
        let deadline_at = match payload {
            Payload::Run { .. } => None,
            _ => self.shared.deadline_from_now(),
        };
        match self.shared.admit(tile, deadline_at, payload) {
            Ok((wake, shed)) => {
                if wake {
                    S::notify_all(&self.shared.work);
                }
                if let Some(shed) = shed {
                    self.shared.settle_shed(shed);
                }
            }
            Err((error, payload)) => payload.fail(error),
        }
        Pending { rx }
    }

    /// Enqueues a reconfiguration and blocks until it completes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] after shutdown, plus manager
    /// errors.
    pub fn reconfigure_blocking(
        &self,
        tile: TileCoord,
        kind: AcceleratorKind,
    ) -> Result<(), Error> {
        self.submit_reconfigure(tile, kind).wait()
    }

    /// Enqueues an accelerator invocation and blocks for its result.
    ///
    /// If the tile is mid-reconfiguration (its driver is unloaded), the
    /// call waits for the next reconfiguration completion and retries —
    /// the paper's "other threads trying to access it must wait until the
    /// reconfiguration is complete and the new driver is loaded".
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] after shutdown, plus manager and
    /// SoC errors.
    pub fn run_blocking(&self, tile: TileCoord, op: AccelOp) -> Result<AccelRun, Error> {
        loop {
            match self.submit_run(tile, op.clone()).wait() {
                Err(Error::NoDriver { .. }) => {
                    // Wait for a reconfiguration to finish, then retry —
                    // unless the tile was quarantined, in which case no
                    // reconfiguration will ever complete here.
                    self.wait_for_reconfig(tile)?;
                }
                other => return other,
            }
        }
    }

    /// Enqueues an ensure-loaded-then-run request and blocks for its
    /// result: the worker reconfigures if needed (with the manager's
    /// retry/backoff recovery) and degrades to the CPU software path when
    /// the accelerator path is unavailable, so the call completes even on
    /// a faulty tile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] after shutdown, plus
    /// non-degradable manager errors.
    pub fn execute_blocking(
        &self,
        tile: TileCoord,
        kind: AcceleratorKind,
        op: AccelOp,
    ) -> Result<(AccelRun, ExecPath), Error> {
        self.submit_execute(tile, kind, op).wait()
    }

    /// Waits (bounded) for a reconfiguration to complete on `tile`, or
    /// fails fast when the tile is quarantined. Used by blocking callers
    /// that found the tile mid-swap.
    fn wait_for_reconfig(&self, tile: TileCoord) -> Result<(), Error> {
        let shard = self
            .shared
            .shards
            .get(&tile)
            .ok_or(Error::Soc(presp_soc::Error::NoSuchTile { coord: tile }))?;
        let state = S::lock(&shard.state);
        if state.is_quarantined() {
            return Err(Error::TileQuarantined { tile });
        }
        let _unused = S::wait_timeout(&shard.reconfig_done, state, Duration::from_millis(50));
        Ok(())
    }

    /// Stops the workers from claiming queued jobs until the returned
    /// guard drops. Jobs already claimed run to completion, and admission
    /// goes on: requests queue, and a full bounded queue refuses or sheds
    /// per `policy.overload`. A harness that bursts requests holds claims
    /// across the burst, so the queue bound alone decides what is shed,
    /// however the host schedules the threads.
    ///
    /// Submit only while the hold lives; wait after it drops. Waiting on a
    /// request queued under the hold — its handle, or any `*_blocking`
    /// method — never returns while the hold lives, because no worker
    /// claims the job.
    pub fn hold_claims(&self) -> ClaimHold<'_, S> {
        self.shared.hold_claims();
        ClaimHold {
            shared: &self.shared,
        }
    }

    /// Aggregate manager statistics.
    ///
    /// Read-only post-mortem path: recovers from a poisoned device-core
    /// lock (a panicking worker must not take crash forensics down with
    /// it).
    pub fn stats(&self) -> ManagerStats {
        S::lock_recover(&self.shared.core).stats()
    }

    /// Wall-clock scheduling metrics (queue-wait percentiles, coalesced
    /// submissions, backlog high-water mark). Takes only the admission
    /// lock; fragmentation is read through
    /// [`ThreadedManager::fragmentation`]. Recovers from a poisoned lock.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        S::lock_recover(&self.shared.admission).stats.clone()
    }

    /// Hit/miss counters of the bitstream cache.
    pub fn cache_stats(&self) -> CacheStats {
        S::lock_recover(&self.shared.core).cache_stats()
    }

    /// Switches the device core from fixed sockets to amorphous
    /// floorplanning, confined to the column window `window` when one is
    /// given (the PR share of the fabric, with the static system outside
    /// it) and over the whole fabric otherwise. Must run before the first
    /// load; see the device core's `enable_regions`.
    ///
    /// # Errors
    ///
    /// [`presp_soc::Error::RegionConflict`] when any tile already loaded.
    pub fn enable_regions(
        &self,
        policy: FitPolicy,
        window: Option<Range<u32>>,
    ) -> Result<(), Error> {
        S::lock(&self.shared.core).enable_regions(policy, window)
    }

    /// Fragmentation snapshot of the region allocator; `None` on the
    /// fixed-socket path.
    pub fn fragmentation(&self) -> Option<FragmentationStats> {
        S::lock_recover(&self.shared.core).fragmentation()
    }

    /// The live region lease of `tile` (amorphous floorplanning only);
    /// `None` for unknown tiles, unloaded tiles, or the fixed-socket
    /// path.
    pub fn tile_lease(&self, tile: TileCoord) -> Option<RegionLease> {
        S::lock_recover(&self.shared.core).tile_lease(tile).cloned()
    }

    /// Latest completion cycle on the shared virtual clock — the
    /// application makespan across everything the workers dispatched.
    /// OS-thread interleaving varies between runs; this virtual-time
    /// reading is still exact for the operations performed.
    ///
    /// Like [`ThreadedManager::stats`], survives a poisoned core lock.
    pub fn makespan(&self) -> u64 {
        S::lock_recover(&self.shared.core).soc().horizon()
    }

    /// Attaches a sharded trace sink: worker `i` commits through shard
    /// `i mod sink.len()`. Every emit already holds the `core` lock, so
    /// the shards do not relieve contention. The tracer's seq counter
    /// survives per-commit shard re-attachment and commits are
    /// gate-serialized, so [`presp_events::ShardedSink::drain_merged`]
    /// reproduces the exact single-sink log byte for byte at any worker
    /// count.
    ///
    /// Post-mortem path like [`ThreadedManager::stats`]: recovers from a
    /// poisoned core lock, so a crashed worker cannot make the trace log
    /// unreachable.
    pub fn attach_sharded_tracer(&self, sink: &presp_events::ShardedSink) {
        let mut core = S::lock_recover(&self.shared.core);
        core.set_trace_shards((0..sink.len()).map(|i| sink.shard(i)).collect());
        // Attach shard 0 immediately so emissions before the first
        // worker commit (boot-time spans, scrubber passes) are recorded.
        core.soc_mut().attach_tracer(sink.shard(0));
    }

    /// Installs (or disarms, with `None`) a fault plan on the underlying
    /// SoC. Spec-driven harnesses arm a seeded plan before driving a
    /// workload and disarm it before a confirmation sweep; quiesce the
    /// workload first — swapping the plan mid-request changes which hook
    /// draws the in-flight request sees.
    pub fn set_fault_plan(&self, plan: Option<presp_fpga::fault::FaultPlan>) {
        S::lock_recover(&self.shared.core).set_fault_plan(plan);
    }

    /// Faults the installed plan has injected so far (all zero when no
    /// plan is armed). Post-mortem path: recovers from a poisoned core
    /// lock.
    pub fn injected_faults(&self) -> presp_fpga::fault::InjectedFaults {
        S::lock_recover(&self.shared.core)
            .soc()
            .fault_plan()
            .map(presp_fpga::fault::FaultPlan::injected)
            .unwrap_or_default()
    }

    /// Tiles currently quarantined, in coordinate order. Post-mortem
    /// path: recovers from poisoned shard locks.
    pub fn quarantined_tiles(&self) -> Vec<TileCoord> {
        self.shared
            .shards
            .iter()
            .filter(|(_, shard)| S::lock_recover(&shard.state).is_quarantined())
            .map(|(&coord, _)| coord)
            .collect()
    }

    /// Caller-side unlocked read the `unsynced_stats` mutant races with.
    #[doc(hidden)]
    pub fn unsynced_runs(&self) -> u64 {
        self.shared.racy_runs.read()
    }

    /// Installs (or disarms, with `None`) a worker-software-fault plan.
    /// Only a supervised manager (`policy.supervised`) consults the
    /// plan; arm it before driving a workload.
    pub fn set_worker_fault_plan(&self, plan: Option<WorkerFaultPlan>) {
        *S::lock_recover(&self.shared.worker_faults) = plan;
    }

    /// Supervision counters (deaths, respawns, steals, redispatches),
    /// with the installed fault plan's injection counters.
    /// Post-mortem path: recovers from poisoned locks.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        let mut stats = S::lock_recover(&self.shared.supervisor).stats;
        if let Some(plan) = S::lock_recover(&self.shared.worker_faults).as_ref() {
            stats.injected = plan.injected();
        }
        stats
    }

    /// Tickets admitted but neither committed nor retired, plus claims
    /// still registered with the supervisor. Zero on any quiesced
    /// manager — the "no orphaned tickets" invariant the supervision
    /// layer preserves across worker deaths, hangs and sheds.
    pub fn orphaned_tickets(&self) -> u64 {
        let claims = S::lock_recover(&self.shared.supervisor).claims.len() as u64;
        let next_ticket = S::lock_recover(&self.shared.admission).next_ticket;
        let gate_next = S::lock_recover(&self.shared.gate).next;
        claims + next_ticket.saturating_sub(gate_next)
    }

    /// Stops the workers and joins them: pending unclaimed jobs are
    /// answered with [`Error::ManagerStopped`], their tickets retired so
    /// in-flight workers still pass the gate; hung claims are released
    /// the same way and the supervisor thread is told to exit.
    /// Idempotent and tolerant of poisoned locks.
    pub fn shutdown(&self) {
        self.shared.drain_to_stop();
        S::notify_all(&self.shared.work);
        self.shared.stop_supervision();
        // Take the handles in a standalone statement: the workers-lock
        // guard must drop before joining, or a supervisor respawn racing
        // shutdown would deadlock pushing into the held lock.
        let handles = S::lock_recover(&self.workers).take();
        if let Some(handles) = handles {
            for handle in handles {
                let _ = S::join(handle);
            }
        }
        // Unblock any thread parked in a blocking wait loop.
        for shard in self.shared.shards.values() {
            S::notify_all(&shard.reconfig_done);
        }
    }
}

/// A hold on claims from [`ThreadedManager::hold_claims`]; the workers
/// claim again once every hold has dropped. Waiting on a queued request
/// while a hold lives blocks forever.
#[must_use = "claims resume as soon as the hold drops"]
pub struct ClaimHold<'a, S: SyncFacade = StdSync> {
    shared: &'a Shared<S>,
}

impl<S: SyncFacade> Drop for ClaimHold<'_, S> {
    fn drop(&mut self) {
        self.shared.release_claims();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::OverloadPolicy;
    use crate::supervisor::{install_quiet_panic_hook, WorkerFault, WorkerFaultPlan};
    use presp_accel::AccelValue;
    use presp_check::{CheckSync, Checker, Config, FailureKind};
    use presp_fpga::bitstream::Bitstream;
    use presp_soc::config::SocConfig;

    fn bitstream(soc: &Soc, col: u32) -> Bitstream {
        Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, 1).unwrap()
    }

    fn boot(n: usize) -> (ThreadedManager, Vec<TileCoord>) {
        boot_with(n, RecoveryPolicy::default())
    }

    /// Boots `n` reconfigurable tiles with one worker each.
    fn boot_with(n: usize, policy: RecoveryPolicy) -> (ThreadedManager, Vec<TileCoord>) {
        let cfg = SocConfig::grid_3x3_reconf("threaded", n).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tiles = cfg.reconfigurable_tiles();
        let mut registry = BitstreamRegistry::new();
        for (i, &tile) in tiles.iter().enumerate() {
            registry
                .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2 + i as u32))
                .unwrap();
            registry
                .register(tile, AcceleratorKind::Sort, bitstream(&soc, 30 + i as u32))
                .unwrap();
        }
        let config = RuntimeConfig {
            policy,
            ..RuntimeConfig::default()
        };
        (ThreadedManager::spawn_with(soc, registry, config), tiles)
    }

    fn supervised_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            supervised: true,
            ..RecoveryPolicy::default()
        }
    }

    /// Polls until `f` holds. Respawns and steals run on the
    /// supervisor's wall-clock watchdog, so tests wait for them briefly.
    fn wait_until(mut f: impl FnMut() -> bool) {
        for _ in 0..2000 {
            if f() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("condition not reached within 2s");
    }

    /// Boots a model-checked manager inside an exploration body: one
    /// tile, one worker.
    fn boot_checked(mutants: MutantConfig) -> (ThreadedManager<CheckSync>, Vec<TileCoord>) {
        boot_checked_with(RecoveryPolicy::default(), mutants)
    }

    fn boot_checked_with(
        policy: RecoveryPolicy,
        mutants: MutantConfig,
    ) -> (ThreadedManager<CheckSync>, Vec<TileCoord>) {
        let cfg = SocConfig::grid_3x3_reconf("model", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tiles = cfg.reconfigurable_tiles();
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
            .unwrap();
        let mgr = ThreadedManager::<CheckSync>::spawn_with(
            soc,
            registry,
            RuntimeConfig {
                policy,
                workers: Some(1),
                mutants,
                ..RuntimeConfig::default()
            },
        );
        (mgr, tiles)
    }

    fn mutant_checker() -> Checker {
        Checker::new(Config {
            max_schedules: 5_000,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
    }

    #[test]
    fn blocking_reconfigure_and_run() {
        let (mgr, tiles) = boot(1);
        mgr.reconfigure_blocking(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let run = mgr
            .run_blocking(
                tiles[0],
                AccelOp::Mac {
                    a: vec![2.0],
                    b: vec![3.0],
                },
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(6.0));
        mgr.shutdown();
    }

    #[test]
    fn each_load_reads_its_bitstream_once() {
        let (mgr, tiles) = boot(1);
        let sink = presp_events::ShardedSink::new(1);
        mgr.attach_sharded_tracer(&sink);
        // A first load misses once and records no cache hit; swapping
        // away and back hits once and records it once.
        for (kind, misses, hits, records) in [
            (AcceleratorKind::Mac, 1, 0, 0),
            (AcceleratorKind::Sort, 2, 0, 0),
            (AcceleratorKind::Mac, 2, 1, 1),
        ] {
            mgr.reconfigure_blocking(tiles[0], kind).unwrap();
            let stats = mgr.cache_stats();
            let drained = sink.drain_merged();
            let hit = |r: &&presp_events::TraceRecord| {
                matches!(r.event, presp_events::TraceEvent::PbsCacheHit { .. })
            };
            let recorded = drained.iter().filter(hit).count();
            assert_eq!(
                (stats.misses, stats.hits, recorded),
                (misses, hits, records)
            );
        }
        mgr.shutdown();
    }

    #[test]
    fn one_thread_per_tile_runs_concurrently() {
        let (mgr, tiles) = boot(2);
        let handles: Vec<_> = tiles
            .iter()
            .enumerate()
            .map(|(i, &tile)| {
                let mgr = mgr.clone();
                std::thread::spawn(move || {
                    mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
                        .unwrap();
                    let mut total = 0.0f32;
                    for round in 0..5 {
                        let v = (i + round) as f32;
                        let run = mgr
                            .run_blocking(
                                tile,
                                AccelOp::Mac {
                                    a: vec![v; 16],
                                    b: vec![1.0; 16],
                                },
                            )
                            .unwrap();
                        match run.value {
                            AccelValue::Scalar(s) => total += s,
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    total
                })
            })
            .collect();
        let results: Vec<f32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Thread i computes Σ_round 16·(i+round) = 16·(5i + 10).
        assert_eq!(results[0], 160.0);
        assert_eq!(results[1], 240.0);
        assert_eq!(mgr.stats().reconfigurations, 2);
        assert_eq!(mgr.stats().runs, 10);
        mgr.shutdown();
    }

    #[test]
    fn swapping_under_contention_stays_consistent() {
        let (mgr, tiles) = boot(1);
        let tile = tiles[0];
        let swapper = {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                for _ in 0..4 {
                    mgr.reconfigure_blocking(tile, AcceleratorKind::Sort)
                        .unwrap();
                    mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
                        .unwrap();
                }
            })
        };
        // This thread hammers the tile with MAC work; whenever the swapper
        // has SORT loaded the call returns NoDriver internally and retries.
        let mut successes = 0;
        for _ in 0..20 {
            match mgr.run_blocking(
                tile,
                AccelOp::Mac {
                    a: vec![1.0],
                    b: vec![1.0],
                },
            ) {
                Ok(run) => {
                    assert_eq!(run.value, AccelValue::Scalar(1.0));
                    successes += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        swapper.join().unwrap();
        assert_eq!(successes, 20);
        assert!(mgr.stats().consistent(), "{:?}", mgr.stats());
        mgr.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_stops_requests() {
        let (mgr, tiles) = boot(1);
        mgr.shutdown();
        mgr.shutdown();
        let err = mgr.reconfigure_blocking(tiles[0], AcceleratorKind::Mac);
        assert!(matches!(err, Err(Error::ManagerStopped)));
    }

    #[test]
    fn maintenance_passes_stop_with_the_manager() {
        let (mgr, tiles) = boot(1);
        for _ in 0..2 {
            mgr.shutdown();
            assert!(matches!(
                mgr.scrub_blocking(tiles[0]),
                Err(Error::ManagerStopped)
            ));
            assert!(matches!(
                mgr.scrub_all_blocking(),
                Err(Error::ManagerStopped)
            ));
            assert!(matches!(mgr.repack_blocking(), Err(Error::ManagerStopped)));
        }
        // The ledger stays readable and counts no maintenance pass.
        let stats = mgr.stats();
        assert_eq!((stats.scrub_passes, stats.scrub_clean_passes), (0, 0));
        assert_eq!((stats.repack_passes, stats.repack_moves), (0, 0));
    }

    #[test]
    fn shutdown_under_load_answers_every_caller() {
        // Shut down while four threads are mid-burst: every call must get
        // an answer — a result or ManagerStopped — and every thread must
        // join. A dropped reply sender or a hung worker fails this test.
        let (mgr, tiles) = boot(2);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let mgr = mgr.clone();
                let tile = tiles[i % 2];
                std::thread::spawn(move || {
                    let mut answered = 0;
                    for j in 0..50 {
                        let (kind, op) = if (i + j) % 2 == 0 {
                            (
                                AcceleratorKind::Mac,
                                AccelOp::Mac {
                                    a: vec![1.0],
                                    b: vec![2.0],
                                },
                            )
                        } else {
                            (
                                AcceleratorKind::Sort,
                                AccelOp::Sort {
                                    data: vec![2.0, 1.0],
                                },
                            )
                        };
                        match mgr.execute_blocking(tile, kind, op) {
                            Ok(_) | Err(Error::ManagerStopped) => answered += 1,
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                    answered
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(2));
        mgr.shutdown();
        for h in handles {
            assert_eq!(h.join().expect("worker thread panicked"), 50);
        }
        // The workers are joined; a fresh request is refused, not lost.
        let err = mgr.run_blocking(
            tiles[0],
            AccelOp::Mac {
                a: vec![1.0],
                b: vec![1.0],
            },
        );
        assert!(matches!(err, Err(Error::ManagerStopped)));
    }

    #[test]
    fn stats_survive_a_poisoned_core_lock() {
        // Regression: post-mortem paths used `.expect("lock")` and
        // panicked if any thread had crashed inside a critical section,
        // losing exactly the stats needed to debug the crash.
        let (mgr, tiles) = boot(1);
        mgr.reconfigure_blocking(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let poisoner = mgr.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shared.core.lock().unwrap();
            panic!("crash while holding the core lock");
        })
        .join();
        // The lock is now poisoned; forensics must still work.
        let stats = mgr.stats();
        assert_eq!(stats.reconfigurations, 1);
        assert!(stats.consistent());
        assert!(mgr.makespan() > 0);
        mgr.shutdown();
        mgr.shutdown(); // still idempotent post-poison
    }

    #[test]
    fn attach_sharded_tracer_survives_a_poisoned_core_lock() {
        // Regression: attaching a tracer went through the panicking lock
        // while every other post-mortem path recovered — so a crashed
        // worker made the trace log unreachable exactly when it was
        // needed. It must behave like `stats`/`makespan`.
        let (mgr, tiles) = boot(1);
        mgr.reconfigure_blocking(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let poisoner = mgr.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shared.core.lock().unwrap();
            panic!("crash while holding the core lock");
        })
        .join();
        // The old implementation panicked right here; attaching must
        // succeed and the sink must really reach the SoC.
        let sink = presp_events::ShardedSink::new(2);
        mgr.attach_sharded_tracer(&sink);
        let mut core = match mgr.shared.core.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        core.soc_mut()
            .tracer_mut()
            .instant(presp_events::trace::ClockDomain::SocCycles, 0, || {
                presp_events::TraceEvent::CpuFallback {
                    kind: "post-poison probe",
                }
            });
        drop(core);
        assert!(
            !sink.drain_merged().is_empty(),
            "the post-poison tracer must still capture events"
        );
        mgr.shutdown();
    }

    // ---- supervision, deadlines & admission control -------------------

    #[test]
    fn panicking_worker_is_healed_and_respawned() {
        install_quiet_panic_hook();
        let (mgr, tiles) = boot_with(2, supervised_policy());
        mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Panic)])));
        // Ticket 0's worker panics mid-prepare: the claim guard heals the
        // gate and the job is redispatched under the same ticket, so the
        // blocked caller still gets its result.
        mgr.reconfigure_blocking(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let run = mgr
            .run_blocking(
                tiles[0],
                AccelOp::Mac {
                    a: vec![2.0],
                    b: vec![4.0],
                },
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(8.0));
        wait_until(|| mgr.supervisor_stats().worker_respawns == 1);
        let sup = mgr.supervisor_stats();
        assert_eq!(sup.worker_deaths, 1);
        assert_eq!(sup.redispatches, 1);
        assert_eq!(sup.injected.panics, 1);
        // Quiescent invariant: the replying worker may still be mid
        // post-commit bookkeeping when the waiter wakes, so poll.
        wait_until(|| mgr.orphaned_tickets() == 0);
        assert!(mgr.stats().consistent(), "{:?}", mgr.stats());
        mgr.shutdown();
    }

    #[test]
    fn hung_worker_claim_is_stolen_and_redispatched() {
        let (mgr, tiles) = boot_with(1, supervised_policy());
        mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
        // The only worker wedges after prepare; the watchdog steals the
        // claim blocking the gate and the released worker redoes it.
        mgr.reconfigure_blocking(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let sup = mgr.supervisor_stats();
        assert_eq!(sup.injected.hangs, 1);
        assert_eq!(sup.redispatches, 1);
        assert_eq!(sup.worker_deaths, 0);
        // Quiescent invariant: the replying worker may still be mid
        // post-commit bookkeeping when the waiter wakes, so poll.
        wait_until(|| mgr.orphaned_tickets() == 0);
        assert!(mgr.stats().consistent(), "{:?}", mgr.stats());
        mgr.shutdown();
    }

    #[test]
    fn reconfiguration_past_its_deadline_is_cancelled() {
        let policy = RecoveryPolicy {
            deadline_cycles: 1,
            ..supervised_policy()
        };
        let (mgr, tiles) = boot_with(1, policy);
        mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
        // A hangs until the watchdog steals it (wall-clock), so B is
        // admitted meanwhile with a deadline 1 virtual cycle out. A
        // commits first, on time at virtual time 0; B commits after A's
        // whole reconfiguration and has missed.
        let a = mgr.submit_reconfigure(tiles[0], AcceleratorKind::Mac);
        let b = mgr.submit_reconfigure(tiles[0], AcceleratorKind::Sort);
        a.wait().unwrap();
        let err = b.wait();
        assert!(
            matches!(err, Err(Error::DeadlineExceeded { .. })),
            "got {err:?}"
        );
        let stats = mgr.stats();
        assert_eq!(stats.deadline_misses, 1);
        assert!(stats.consistent(), "{stats:?}");
        // Quiescent invariant: the replying worker may still be mid
        // post-commit bookkeeping when the waiter wakes, so poll.
        wait_until(|| mgr.orphaned_tickets() == 0);
        mgr.shutdown();
    }

    #[test]
    fn execute_past_its_deadline_degrades_to_cpu() {
        let policy = RecoveryPolicy {
            deadline_cycles: 1,
            ..supervised_policy()
        };
        let (mgr, tiles) = boot_with(1, policy);
        mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
        let a = mgr.submit_reconfigure(tiles[0], AcceleratorKind::Mac);
        let b = mgr.submit_execute(
            tiles[0],
            AcceleratorKind::Sort,
            AccelOp::Sort {
                data: vec![3.0, 1.0, 2.0],
            },
        );
        a.wait().unwrap();
        // The execute missed its deadline: it skips the accelerator (no
        // reconfiguration, no fabric time) and degrades to the CPU path.
        let (run, path) = b.wait().unwrap();
        assert_eq!(path, ExecPath::CpuFallback);
        assert_eq!(run.value, AccelValue::Vector(vec![1.0, 2.0, 3.0]));
        let stats = mgr.stats();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.fallback_runs, 1);
        assert!(stats.consistent(), "{stats:?}");
        mgr.shutdown();
    }

    /// Submits A — ticket 0, scripted to hang — and returns once the
    /// only worker has claimed it, holding the fault plan: the worker
    /// blocks drawing A's fault, so A stays claimed (its tile queue
    /// empty) and the watchdog has no hung claim to steal until the
    /// returned guard drops. Whatever the test submits meanwhile queues
    /// behind A in program order, independent of watchdog timing.
    fn pin_hung_claim(
        mgr: &ThreadedManager,
        tile: TileCoord,
    ) -> (
        Pending<StdSync, ()>,
        <StdSync as SyncFacade>::Guard<'_, Option<WorkerFaultPlan>>,
    ) {
        mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
        let plan = StdSync::lock(&mgr.shared.worker_faults);
        let a = mgr.submit_reconfigure(tile, AcceleratorKind::Mac);
        wait_until(|| mgr.scheduler_stats().wait_samples() == 1);
        (a, plan)
    }

    #[test]
    fn bounded_queue_rejects_new_requests_when_full() {
        // Two cases: the bare bounded queue, and the overload regime with
        // deadlines and the CPU fallback on, where the queued execute
        // misses its one-cycle deadline and degrades instead of failing.
        // Either way every submission is answered or shed.
        for deadline_cycles in [0, 1] {
            let policy = RecoveryPolicy {
                queue_capacity: 1,
                overload: OverloadPolicy::RejectNew,
                deadline_cycles,
                cpu_fallback: deadline_cycles > 0,
                ..supervised_policy()
            };
            let (mgr, tiles) = boot_with(1, policy);
            let (a, plan) = pin_hung_claim(&mgr, tiles[0]);
            // A is claimed, so B fills the single slot and C finds the
            // door closed.
            let b = mgr.submit_execute(
                tiles[0],
                AcceleratorKind::Sort,
                AccelOp::Sort {
                    data: vec![3.0, 1.0, 2.0],
                },
            );
            let err = mgr
                .submit_run(
                    tiles[0],
                    AccelOp::Mac {
                        a: vec![1.0],
                        b: vec![1.0],
                    },
                )
                .wait();
            assert!(matches!(err, Err(Error::Overloaded { .. })), "got {err:?}");
            // Released, A hangs and is stolen and redone; B follows it.
            drop(plan);
            a.wait().unwrap();
            let (run, path) = b.wait().unwrap();
            assert_eq!(run.value, AccelValue::Vector(vec![1.0, 2.0, 3.0]));
            let missed = u64::from(deadline_cycles > 0);
            let expected = if missed == 1 {
                ExecPath::CpuFallback
            } else {
                ExecPath::Accelerator
            };
            assert_eq!(path, expected);
            assert_eq!(mgr.supervisor_stats().injected.hangs, 1);
            // Quiescent invariant: the replying worker may still be mid
            // post-commit bookkeeping when the waiter wakes, so poll.
            wait_until(|| mgr.orphaned_tickets() == 0);
            let stats = mgr.stats();
            let (submitted, completed) = (3, 2);
            assert_eq!(stats.shed, 1);
            assert_eq!(completed + stats.shed, submitted, "{stats:?}");
            assert_eq!(stats.deadline_misses, missed);
            assert_eq!(stats.fallback_runs, missed);
            assert!(stats.consistent(), "{stats:?}");
            mgr.shutdown();
        }
    }

    /// While a claim hold lives the worker claims nothing, so a bounded
    /// queue sheds exactly what exceeds its bound; holds nest, and the
    /// queued job runs once the last one drops.
    fn held_claims_model() {
        let policy = RecoveryPolicy {
            queue_capacity: 1,
            overload: OverloadPolicy::RejectNew,
            ..RecoveryPolicy::default()
        };
        let (mgr, tiles) = boot_checked_with(policy, MutantConfig::default());
        let submit = |x: f32| {
            mgr.submit_execute(
                tiles[0],
                AcceleratorKind::Mac,
                AccelOp::Mac {
                    a: vec![x],
                    b: vec![2.0],
                },
            )
        };
        let outer = mgr.hold_claims();
        let inner = mgr.hold_claims();
        let queued = submit(1.0);
        drop(inner);
        let err = submit(2.0).wait();
        assert!(matches!(err, Err(Error::Overloaded { .. })), "got {err:?}");
        assert_eq!(mgr.scheduler_stats().wait_samples(), 0);
        drop(outer);
        let (run, _path) = queued.wait().unwrap();
        assert_eq!(run.value, AccelValue::Scalar(2.0));
        mgr.shutdown();
        assert_eq!(mgr.stats().shed, 1);
    }

    #[test]
    fn held_claims_leave_the_queue_bound_to_decide_the_shed() {
        let report = mutant_checker().explore(held_claims_model);
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn bounded_queue_sheds_oldest_under_shed_oldest_policy() {
        let policy = RecoveryPolicy {
            queue_capacity: 1,
            overload: OverloadPolicy::ShedOldest,
            ..supervised_policy()
        };
        let (mgr, tiles) = boot_with(1, policy);
        let (a, plan) = pin_hung_claim(&mgr, tiles[0]);
        let b = mgr.submit_reconfigure(tiles[0], AcceleratorKind::Sort);
        // C displaces the oldest queued request (B): B's waiter learns it
        // was shed, C takes the slot and completes.
        let c = mgr.submit_run(
            tiles[0],
            AccelOp::Mac {
                a: vec![2.0],
                b: vec![3.0],
            },
        );
        let err = b.wait();
        assert!(matches!(err, Err(Error::Overloaded { .. })), "got {err:?}");
        drop(plan);
        a.wait().unwrap();
        let run = c.wait().unwrap();
        assert_eq!(run.value, AccelValue::Scalar(6.0));
        assert_eq!(mgr.supervisor_stats().injected.hangs, 1);
        assert_eq!(mgr.stats().shed, 1);
        // Quiescent invariant: the replying worker may still be mid
        // post-commit bookkeeping when the waiter wakes, so poll.
        wait_until(|| mgr.orphaned_tickets() == 0);
        assert!(mgr.stats().consistent(), "{:?}", mgr.stats());
        mgr.shutdown();
    }

    /// Quarantines `tile` (a `breaker` policy with `max_retries: 0` and
    /// `quarantine_after: 1`): a forced ICAP fault exhausts the only
    /// attempt of one reconfiguration.
    fn quarantine(mgr: &ThreadedManager, tile: TileCoord) {
        use presp_fpga::fault::{FaultConfig, FaultPlan};
        let mut plan = FaultPlan::new(11, FaultConfig::uniform(0.0));
        for n in 0..4 {
            plan.force_icap_fault(n);
        }
        mgr.set_fault_plan(Some(plan));
        let err = mgr.reconfigure_blocking(tile, AcceleratorKind::Mac);
        assert!(
            matches!(err, Err(Error::RetriesExhausted { .. })),
            "got {err:?}"
        );
        assert_eq!(mgr.quarantined_tiles(), vec![tile]);
    }

    #[test]
    fn circuit_breaker_refuses_quarantined_tiles_at_the_door() {
        let policy = RecoveryPolicy {
            max_retries: 0,
            quarantine_after: 1,
            breaker: true,
            ..supervised_policy()
        };
        let (mgr, tiles) = boot_with(1, policy);
        quarantine(&mgr, tiles[0]);
        // The breaker now refuses at the queue door: no ticket burned, no
        // worker woken, the shed counter records the refusal.
        let err = mgr.reconfigure_blocking(tiles[0], AcceleratorKind::Sort);
        assert!(
            matches!(err, Err(Error::TileQuarantined { .. })),
            "got {err:?}"
        );
        let stats = mgr.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 0, "the breaker fires before the ledger");
        assert!(stats.consistent(), "{stats:?}");
        // Quiescent invariant: the replying worker may still be mid
        // post-commit bookkeeping when the waiter wakes, so poll.
        wait_until(|| mgr.orphaned_tickets() == 0);
        mgr.shutdown();
    }

    #[test]
    fn every_request_kind_is_refused_alike() {
        // One row per refusal: its policy and the sheds its three
        // refusals count. The row's setup names the error every request
        // kind must get.
        let breaker = RecoveryPolicy {
            max_retries: 0,
            quarantine_after: 1,
            breaker: true,
            ..supervised_policy()
        };
        let bounded = RecoveryPolicy {
            queue_capacity: 1,
            overload: OverloadPolicy::RejectNew,
            ..supervised_policy()
        };
        let rows = [
            ("unknown tile", RecoveryPolicy::default(), 0),
            ("after shutdown", RecoveryPolicy::default(), 0),
            ("quarantined tile", breaker, 3),
            ("full queue", bounded, 3),
        ];
        let mac = || AccelOp::Mac {
            a: vec![1.0],
            b: vec![1.0],
        };
        for (row, policy, sheds) in rows {
            let (mgr, tiles) = boot_with(1, policy);
            let mut tile = tiles[0];
            let mut held = None;
            let expected = match row {
                "unknown tile" => {
                    tile = TileCoord::new(9, 9);
                    Error::Soc(presp_soc::Error::NoSuchTile { coord: tile })
                }
                "after shutdown" => {
                    mgr.shutdown();
                    Error::ManagerStopped
                }
                "quarantined tile" => {
                    quarantine(&mgr, tile);
                    Error::TileQuarantined { tile }
                }
                _ => {
                    // A is claimed and B (not a reconfiguration, so
                    // nothing folds into it) fills the single slot.
                    let (a, plan) = pin_hung_claim(&mgr, tile);
                    let b = mgr.submit_execute(
                        tile,
                        AcceleratorKind::Sort,
                        AccelOp::Sort { data: vec![1.0] },
                    );
                    held = Some((a, b, plan));
                    Error::Overloaded { tile }
                }
            };
            let errors = [
                mgr.submit_reconfigure(tile, AcceleratorKind::Mac)
                    .wait()
                    .err(),
                mgr.submit_run(tile, mac()).wait().err(),
                mgr.submit_execute(tile, AcceleratorKind::Mac, mac())
                    .wait()
                    .err(),
            ];
            for (kind, err) in ["reconfigure", "run", "execute"].into_iter().zip(errors) {
                assert_eq!(err.as_ref(), Some(&expected), "{row}: {kind}");
            }
            if let Some((a, b, plan)) = held {
                drop(plan);
                a.wait().unwrap();
                b.wait().unwrap();
            }
            // Quiescent invariant: the replying worker may still be mid
            // post-commit bookkeeping when the waiter wakes, so poll.
            wait_until(|| mgr.orphaned_tickets() == 0);
            let stats = mgr.stats();
            assert_eq!(stats.shed, sheds, "{row}");
            assert!(stats.consistent(), "{row}: {stats:?}");
            mgr.shutdown();
        }
    }

    // ---- model-checked protocol (CheckSync) ---------------------------

    fn shard_core_inversion_model() {
        let (mgr, tiles) = boot_checked(MutantConfig {
            shard_core_inversion: true,
            ..MutantConfig::default()
        });
        let app = mgr.clone();
        let tile = tiles[0];
        let h = presp_check::sync::spawn_named("app", move || {
            app.reconfigure_blocking(tile, AcceleratorKind::Mac)
                .unwrap();
        });
        let _ = mgr.scrub_blocking(tile);
        h.join().unwrap();
        mgr.shutdown();
    }

    #[test]
    fn checker_catches_shard_core_inversion_mutant() {
        let report = mutant_checker().explore(shard_core_inversion_model);
        let failure = report
            .failure
            .expect("the inversion mutant must deadlock some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "expected deadlock, got: {failure}"
        );
        // The printed schedule replays the identical deadlock.
        let replay = mutant_checker().replay(&failure.schedule, shard_core_inversion_model);
        assert!(
            matches!(
                replay.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::Deadlock { .. })
            ),
            "replay must reproduce the deadlock: {replay}"
        );
    }

    fn queue_admission_inversion_model() {
        let (mgr, tiles) = boot_checked(MutantConfig {
            queue_admission_inversion: true,
            ..MutantConfig::default()
        });
        let tile = tiles[0];
        let app = mgr.clone();
        // A submitter (sched_admission → tile_queue) racing the worker's
        // mutant completion path (tile_queue → sched_admission).
        let h = presp_check::sync::spawn_named("app", move || {
            let _ = app.reconfigure_blocking(tile, AcceleratorKind::Mac);
        });
        let _ = mgr.execute_blocking(
            tile,
            AcceleratorKind::Mac,
            AccelOp::Mac {
                a: vec![1.0],
                b: vec![2.0],
            },
        );
        h.join().unwrap();
        mgr.shutdown();
    }

    #[test]
    fn checker_catches_queue_admission_inversion_mutant() {
        let report = mutant_checker().explore(queue_admission_inversion_model);
        let failure = report
            .failure
            .expect("the queue/admission inversion mutant must deadlock some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "expected deadlock, got: {failure}"
        );
        let replay = mutant_checker().replay(&failure.schedule, queue_admission_inversion_model);
        assert!(
            matches!(
                replay.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::Deadlock { .. })
            ),
            "replay must reproduce the deadlock: {replay}"
        );
    }

    fn unsynced_stats_model() {
        let (mgr, tiles) = boot_checked(MutantConfig {
            unsynced_stats: true,
            ..MutantConfig::default()
        });
        let (run, _path) = mgr
            .execute_blocking(
                tiles[0],
                AcceleratorKind::Mac,
                AccelOp::Mac {
                    a: vec![1.0],
                    b: vec![2.0],
                },
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(2.0));
        let _count = mgr.unsynced_runs();
        mgr.shutdown();
    }

    #[test]
    fn checker_catches_unsynced_stats_mutant() {
        let report = mutant_checker().explore(unsynced_stats_model);
        let failure = report.failure.expect("the unsynced-stats mutant must race");
        assert!(
            matches!(failure.kind, FailureKind::Race { .. }),
            "expected race, got: {failure}"
        );
        let replay = mutant_checker().replay(&failure.schedule, unsynced_stats_model);
        assert_eq!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(&failure.kind),
            "replay must reproduce the race: {replay}"
        );
    }

    /// Boots a supervised model-checked manager inside an exploration
    /// body: one tile, one worker, plus the supervisor thread.
    fn boot_checked_supervised(
        mutants: MutantConfig,
    ) -> (ThreadedManager<CheckSync>, Vec<TileCoord>) {
        boot_checked_with(supervised_policy(), mutants)
    }

    fn supervised_hang_model() {
        let (mgr, tiles) = boot_checked_supervised(MutantConfig::default());
        mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
        let app = mgr.clone();
        let tile = tiles[0];
        // The only worker wedges; under CheckSync the supervisor's
        // watchdog timeout fires exactly at quiescence — the wedged
        // state — so every schedule exercises the steal/redispatch path.
        let h = presp_check::sync::spawn_named("app", move || {
            app.reconfigure_blocking(tile, AcceleratorKind::Mac)
                .unwrap();
        });
        h.join().unwrap();
        // Shutdown joins the workers, so the post-commit bookkeeping is
        // quiescent and the orphan invariant must hold exactly.
        mgr.shutdown();
        assert_eq!(mgr.orphaned_tickets(), 0, "healed gate left orphans");
        let sup = mgr.supervisor_stats();
        assert_eq!(sup.injected.hangs, 1);
        assert_eq!(sup.redispatches, 1);
    }

    #[test]
    fn supervised_hang_recovery_explores_without_findings() {
        let report = Checker::new(Config {
            max_schedules: 500,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
        .explore(supervised_hang_model);
        assert!(report.ok(), "{report}");
    }

    fn supervisor_gate_inversion_model() {
        let (mgr, tiles) = boot_checked_supervised(MutantConfig {
            supervisor_gate_inversion: true,
            ..MutantConfig::default()
        });
        mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
        let app = mgr.clone();
        let tile = tiles[0];
        // The hang forces a steal, so the supervisor's scan (supervisor →
        // gate) overlaps the mutant worker's commit path (gate →
        // supervisor): the classic two-lock cycle.
        let h = presp_check::sync::spawn_named("app", move || {
            let _ = app.reconfigure_blocking(tile, AcceleratorKind::Mac);
        });
        h.join().unwrap();
        mgr.shutdown();
    }

    #[test]
    fn checker_catches_supervisor_gate_inversion_mutant() {
        let report = mutant_checker().explore(supervisor_gate_inversion_model);
        let failure = report
            .failure
            .expect("the supervisor/gate inversion mutant must deadlock some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "expected deadlock, got: {failure}"
        );
        let replay = mutant_checker().replay(&failure.schedule, supervisor_gate_inversion_model);
        assert!(
            matches!(
                replay.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::Deadlock { .. })
            ),
            "replay must reproduce the deadlock: {replay}"
        );
    }

    #[test]
    fn clean_protocol_explores_without_findings() {
        // Same protocol, mutants off: a quick bounded sweep here; the
        // 10k-schedule multi-worker sweep lives in the workspace-level
        // model_check suite.
        let report = Checker::new(Config {
            max_schedules: 500,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
        .explore(|| {
            let (mgr, tiles) = boot_checked(MutantConfig::default());
            let app = mgr.clone();
            let tile = tiles[0];
            let h = presp_check::sync::spawn_named("app", move || {
                app.reconfigure_blocking(tile, AcceleratorKind::Mac)
                    .unwrap();
            });
            h.join().unwrap();
            let stats = mgr.stats();
            assert!(stats.consistent(), "inconsistent stats: {stats:?}");
            mgr.shutdown();
        });
        assert!(report.ok(), "{report}");
    }
}
