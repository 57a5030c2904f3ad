//! The reconfiguration manager.
//!
//! Implements the protocol of Section V on virtual time: a reconfiguration
//! request (1) waits for the accelerator in the target tile to finish, (2)
//! locks the device, (3) unregisters the outgoing driver, (4) decouples the
//! tile, (5) triggers the DFXC, (6) re-couples on the completion interrupt,
//! (7) probes the incoming driver and unlocks. Work submitted through a
//! stale driver is rejected.
//!
//! Failures along the way (a corrupted bitstream failing its CRC check, a
//! stale registry read) are handled by a [`RecoveryPolicy`]: bounded
//! retries with exponential backoff in virtual time, per-tile quarantine
//! after repeated exhaustion, and graceful degradation to the CPU software
//! path so application-level work still completes. A tile whose load
//! failed is always left decoupled — a partially-written wrapper must
//! never observe NoC traffic.
//!
//! Structurally the manager is a thin deterministic facade over the
//! sharded runtime: per-tile bookkeeping lives in [`crate::tile`] shards,
//! the genuinely shared device resources in a [`crate::device::DeviceCore`],
//! and the protocol itself in `protocol` functions shared verbatim with
//! the OS-threaded [`crate::threaded::ThreadedManager`]. The facade calls them
//! single-threaded, in submission order, with the bitstream cache
//! disabled — which is what makes its trace log a pure function of
//! the seeds.

use crate::cache::{BitstreamCache, CacheStats};
use crate::device::DeviceCore;
use crate::error::Error;
use crate::protocol;
use crate::registry::BitstreamRegistry;
use crate::tile::TileState;
use presp_accel::catalog::AcceleratorKind;
use presp_accel::AccelOp;
use presp_floorplan::{FitPolicy, FragmentationStats, RegionLease};
use presp_soc::config::TileCoord;
use presp_soc::sim::{AccelRun, ReconfigRun, ScrubReport, Soc};
use std::collections::BTreeMap;
use std::ops::Range;

pub use crate::tile::TileHealth;

/// What the admission controller does when a bounded per-tile queue is
/// already at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Refuse the incoming request with [`Error::Overloaded`]; the queued
    /// backlog is untouched.
    #[default]
    RejectNew,
    /// Shed the oldest queued request (answering its waiters with
    /// [`Error::Overloaded`]) and admit the new one — freshness beats
    /// fairness.
    ShedOldest,
}

/// How the manager responds to reconfiguration failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries allowed after the first failed attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in virtual cycles.
    pub backoff_cycles: u64,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_multiplier: u64,
    /// Consecutive retry-exhausted requests on one tile before it is
    /// quarantined.
    pub quarantine_after: u32,
    /// Whether a request may degrade to the CPU software path when the
    /// accelerator path is unavailable. It governs every degrade:
    /// [`ReconfigManager::run_with_fallback_at`], the WAMI application's
    /// kernels and the threaded scheduler's execute requests.
    pub cpu_fallback: bool,
    /// Per-request deadline in virtual cycles, measured from admission to
    /// commit; 0 disables deadline accounting. A reconfiguration past its
    /// deadline is cancelled with [`Error::DeadlineExceeded`]; an execute
    /// past its deadline skips the accelerator and degrades to the CPU
    /// path. Only the threaded scheduler enforces deadlines.
    pub deadline_cycles: u64,
    /// Bound on each per-tile queue; 0 means unbounded (the pre-admission
    /// behavior). Only the threaded scheduler enforces the bound.
    pub queue_capacity: u64,
    /// What to do with a request that would overflow a bounded queue.
    pub overload: OverloadPolicy,
    /// Per-tile circuit breaker: refuse admission to quarantined tiles at
    /// the queue door instead of enqueueing work that will fail at commit.
    pub breaker: bool,
    /// Whether the threaded scheduler boots its supervisor thread:
    /// workers register their claims, dead or wedged tickets are
    /// redispatched under the same ticket, and dead workers are
    /// respawned out of [`RecoveryPolicy::restart_budget`]. Off by
    /// default — unsupervised schedulers pay zero bookkeeping.
    pub supervised: bool,
    /// How many worker respawns the supervisor may perform over the
    /// scheduler's lifetime (only meaningful with
    /// [`RecoveryPolicy::supervised`]).
    pub restart_budget: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            backoff_cycles: 64,
            backoff_multiplier: 2,
            quarantine_after: 2,
            cpu_fallback: true,
            deadline_cycles: 0,
            queue_capacity: 0,
            overload: OverloadPolicy::RejectNew,
            breaker: false,
            supervised: false,
            restart_budget: 4,
        }
    }
}

/// Which path actually executed an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The accelerator in the requested tile.
    Accelerator,
    /// The CPU software implementation (graceful degradation).
    CpuFallback,
}

/// Aggregate manager statistics.
///
/// The reconfiguration counters satisfy the bookkeeping invariant checked
/// by [`ManagerStats::consistent`]: every request is accounted exactly
/// once as a performed reconfiguration, a cache hit, a coalesced
/// duplicate, a retry-exhausted failure or a rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManagerStats {
    /// Reconfiguration requests received (including ones that failed).
    pub reconfig_requests: u64,
    /// Reconfigurations performed (cache hits excluded).
    pub reconfigurations: u64,
    /// Requests satisfied without reconfiguring (accelerator already
    /// loaded).
    pub cache_hits: u64,
    /// Requests folded into an identical in-flight or queued request and
    /// answered by its single underlying reconfiguration (the threaded
    /// scheduler's request coalescing; the deterministic manager never
    /// coalesces).
    pub coalesced: u64,
    /// Requests that failed every attempt the recovery policy allowed.
    pub retries_exhausted: u64,
    /// Requests rejected without retry (quarantined tile, unregistered
    /// bitstream, protocol violations).
    pub rejected: u64,
    /// Individual retry attempts performed across all requests.
    pub retries: u64,
    /// Tiles quarantined.
    pub quarantines: u64,
    /// Total cycles spent reconfiguring.
    pub reconfig_cycles: u64,
    /// Accelerator invocations dispatched.
    pub runs: u64,
    /// Operations that degraded to the CPU software path.
    pub fallback_runs: u64,
    /// Scrub passes performed (outside the request-accounting invariant:
    /// scrubs are maintenance, not reconfiguration requests).
    pub scrub_passes: u64,
    /// Scrub passes that found nothing to repair (a subset of
    /// [`ManagerStats::scrub_passes`]).
    pub scrub_clean_passes: u64,
    /// Frames repaired by scrub passes.
    pub frames_repaired: u64,
    /// Quarantines triggered by uncorrectable upsets (also counted in
    /// [`ManagerStats::quarantines`]).
    pub scrub_quarantines: u64,
    /// Requests cancelled (or degraded to CPU) because their virtual-time
    /// deadline elapsed before commit. Part of the request-accounting
    /// invariant: a deadline miss is the request's single outcome.
    pub deadline_misses: u64,
    /// Requests shed at the queue door by the admission controller
    /// (outside the request-accounting invariant: a shed request never
    /// reaches the reconfiguration ledger).
    pub shed: u64,
    /// Requests refused with [`Error::RegionUnavailable`] — the fabric,
    /// as fragmented at that moment, had no free span wide enough for
    /// the bitstream's column span. A subset of
    /// [`ManagerStats::rejected`], so the accounting invariant is
    /// untouched.
    pub oversized_rejected: u64,
    /// Reconfigurations that succeeded on a tile whose previous request
    /// was refused for fragmentation (a subset of
    /// [`ManagerStats::reconfigurations`]).
    pub oversized_admitted: u64,
    /// Oversized admits where at least one defragmentation move landed
    /// between the refusal and the admit — the repack is what created
    /// the span (a subset of [`ManagerStats::oversized_admitted`]).
    pub repack_admitted: u64,
    /// Defragmentation (repack) passes completed, idle ones included.
    pub repack_passes: u64,
    /// Region moves applied across all repack passes. Also the oversized
    /// watermark: an admit counts toward
    /// [`ManagerStats::repack_admitted`] when this grew since the
    /// tile's refusal.
    pub repack_moves: u64,
    /// Configuration frames physically relocated across all repack
    /// passes.
    pub frames_moved: u64,
}

impl ManagerStats {
    /// Checks the request-accounting invariant: no request is lost and
    /// none is counted twice.
    pub fn consistent(&self) -> bool {
        self.reconfig_requests
            == self.reconfigurations
                + self.cache_hits
                + self.coalesced
                + self.retries_exhausted
                + self.rejected
                + self.deadline_misses
    }
}

/// Result of one defragmentation (repack) pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepackReport {
    /// Region moves applied (allocator and fabric in lockstep).
    pub moves: u64,
    /// Frames physically relocated (bookkeeping slides of never-loaded
    /// leases move none).
    pub frames_moved: u64,
    /// Planned moves skipped: the owning tile was quarantined, vanished,
    /// or refused the move.
    pub skipped: u64,
}

/// The deterministic (virtual-time) reconfiguration manager.
///
/// See the crate-level example for usage; [`crate::threaded`] wraps the
/// same protocol in an OS-thread worker pool.
#[derive(Debug)]
pub struct ReconfigManager {
    tiles: BTreeMap<TileCoord, TileState>,
    core: DeviceCore,
    policy: RecoveryPolicy,
}

/// `tile`'s shard, created on first touch.
fn shard_of(tiles: &mut BTreeMap<TileCoord, TileState>, tile: TileCoord) -> &mut TileState {
    tiles.entry(tile).or_insert_with(|| TileState::new(tile))
}

impl ReconfigManager {
    /// Creates a manager over a booted SoC and a loaded registry, with the
    /// default [`RecoveryPolicy`].
    pub fn new(soc: Soc, registry: BitstreamRegistry) -> ReconfigManager {
        ReconfigManager::with_policy(soc, registry, RecoveryPolicy::default())
    }

    /// Creates a manager with an explicit recovery policy.
    pub fn with_policy(
        soc: Soc,
        registry: BitstreamRegistry,
        policy: RecoveryPolicy,
    ) -> ReconfigManager {
        ReconfigManager {
            tiles: BTreeMap::new(),
            core: DeviceCore::new(soc, registry, BitstreamCache::disabled()),
            policy,
        }
    }

    /// Replaces the recovery policy.
    pub fn set_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// Hit/miss counters of the bitstream cache.
    pub fn bitstream_cache_stats(&self) -> CacheStats {
        self.core.cache_stats()
    }

    /// Whether `tile` is quarantined.
    pub fn is_quarantined(&self, tile: TileCoord) -> bool {
        self.tiles.get(&tile).is_some_and(TileState::is_quarantined)
    }

    /// All quarantined tiles, in coordinate order.
    pub fn quarantined_tiles(&self) -> Vec<TileCoord> {
        self.tiles
            .values()
            .filter(|s| s.is_quarantined())
            .map(TileState::coord)
            .collect()
    }

    /// Configuration-memory health of `tile`.
    pub fn tile_health(&self, tile: TileCoord) -> TileHealth {
        self.tiles
            .get(&tile)
            .map(TileState::health)
            .unwrap_or(TileHealth::Healthy)
    }

    /// Reads back `tile`'s configuration frames through the ICAP and
    /// repairs what SECDED can, starting no earlier than `at`.
    ///
    /// The tile transitions `Scrubbing →` [`TileHealth::Healthy`] (clean
    /// pass), [`TileHealth::Degraded`] (correctable upsets repaired) or
    /// [`TileHealth::Quarantined`] (an uncorrectable upset: the driver is
    /// unloaded and requests degrade to the CPU until the tile's golden
    /// image is restored and it is released).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TileQuarantined`] for already-quarantined tiles,
    /// plus SoC-level frame errors.
    pub fn scrub_tile_at(&mut self, tile: TileCoord, at: u64) -> Result<ScrubReport, Error> {
        let shard = shard_of(&mut self.tiles, tile);
        protocol::scrub_tile_at(shard, &mut self.core, at)
    }

    /// Scrubs every tile that has been loaded at least once, in coordinate
    /// order, starting no earlier than `at`. Quarantined tiles are
    /// skipped. Returns the per-tile reports.
    ///
    /// # Errors
    ///
    /// Propagates SoC-level frame errors.
    pub fn scrub_all_at(&mut self, at: u64) -> Result<Vec<(TileCoord, ScrubReport)>, Error> {
        let mut tiles = self.core.soc().config().reconfigurable_tiles();
        tiles.sort_unstable();
        let mut reports = Vec::new();
        for tile in tiles {
            let shard = shard_of(&mut self.tiles, tile);
            if let Some(report) = protocol::sweep_tile_at(shard, &mut self.core, at)? {
                reports.push((tile, report));
            }
        }
        Ok(reports)
    }

    /// Restores `tile`'s region bit-for-bit from its golden (post-load)
    /// frame image — the recovery path for uncorrectable upsets. Returns
    /// the number of frames rewritten. The caller still re-registers the
    /// driver via a reconfiguration request (or releases the quarantine).
    ///
    /// # Errors
    ///
    /// Propagates the SoC error when no golden image exists.
    pub fn restore_golden(&mut self, tile: TileCoord) -> Result<usize, Error> {
        let shard = shard_of(&mut self.tiles, tile);
        protocol::restore_golden(shard, &mut self.core)
    }

    /// Releases `tile` from quarantine (e.g. after operator intervention),
    /// clearing its failure streak. Returns whether it was quarantined.
    pub fn release_quarantine(&mut self, tile: TileCoord) -> bool {
        let shard = shard_of(&mut self.tiles, tile);
        protocol::release_quarantine(shard, &mut self.core)
    }

    /// Switches the manager from fixed sockets to amorphous
    /// floorplanning: every subsequent load consults a
    /// [`presp_floorplan::RegionAllocator`] over the device's frame
    /// columns and relocates its bitstream into the leased span. A
    /// `window` confines the allocator to those columns — the partially
    /// reconfigurable share of the fabric, with everything outside
    /// reserved for the static system; `None` manages the whole fabric.
    ///
    /// # Errors
    ///
    /// Returns a [`presp_soc::Error::RegionConflict`] when any tile has
    /// already been loaded — regions must be enabled before the first
    /// load.
    pub fn enable_regions(
        &mut self,
        policy: FitPolicy,
        window: Option<Range<u32>>,
    ) -> Result<(), Error> {
        self.core.enable_regions(policy, window)
    }

    /// Fragmentation counters of the region allocator; `None` on the
    /// fixed-socket path.
    pub fn fragmentation(&self) -> Option<FragmentationStats> {
        self.core.fragmentation()
    }

    /// The tile's live region lease, when amorphous floorplanning is
    /// enabled and the tile has loaded at least once.
    pub fn tile_lease(&self, tile: TileCoord) -> Option<RegionLease> {
        self.core.tile_lease(tile).cloned()
    }

    /// Runs one defragmentation pass starting no earlier than `at`:
    /// plans the allocator's greedy left-slide compaction and executes
    /// each move transactionally (decouple → lockstep frame/ECC/golden
    /// move → re-couple) on the owning tile. Quarantined tiles are
    /// never moved; their planned moves (and any move a skip
    /// invalidated downstream) are counted as skipped rather than
    /// failing the pass. A no-op when regions are disabled or the
    /// fabric is already packed.
    ///
    /// # Errors
    ///
    /// Currently infallible beyond the `Result` shape shared with the
    /// threaded path; per-move refusals are folded into
    /// [`RepackReport::skipped`].
    pub fn repack_at(&mut self, at: u64) -> Result<RepackReport, Error> {
        let plan = self.core.plan_repack();
        let mut report = RepackReport::default();
        for (mv, tile) in &plan {
            let shard = shard_of(&mut self.tiles, *tile);
            protocol::repack_move(shard, &mut self.core, mv, at, &mut report);
        }
        protocol::close_repack_pass(&mut self.core, &report, at);
        Ok(report)
    }

    /// The underlying SoC (for inspection).
    pub fn soc(&self) -> &Soc {
        self.core.soc()
    }

    /// Mutable access to the underlying SoC (e.g. to arm a fault plan).
    pub fn soc_mut(&mut self) -> &mut Soc {
        self.core.soc_mut()
    }

    /// Consumes the manager, returning the SoC (e.g. for energy reports).
    pub fn into_soc(self) -> Soc {
        self.core.into_soc()
    }

    /// Manager statistics.
    pub fn stats(&self) -> ManagerStats {
        self.core.stats()
    }

    /// The driver currently bound to `tile`.
    pub fn active_driver(&self, tile: TileCoord) -> Option<AcceleratorKind> {
        self.tiles.get(&tile).and_then(TileState::active_driver)
    }

    /// Whether `tile`'s active driver services operations of `kind`.
    pub fn driver_services(&self, tile: TileCoord, kind: AcceleratorKind) -> bool {
        self.tiles.get(&tile).is_some_and(|s| s.services(kind))
    }

    /// Virtual time at which `tile` becomes idle.
    pub fn tile_idle_at(&self, tile: TileCoord) -> u64 {
        self.tiles.get(&tile).map(TileState::idle_at).unwrap_or(0)
    }

    /// Latest completion across all tiles (the application makespan).
    pub fn makespan(&self) -> u64 {
        self.core.soc().horizon()
    }

    /// Ensures `kind` is loaded in `tile`, reconfiguring if needed, with the
    /// request arriving at cycle `at`.
    ///
    /// Returns the reconfiguration timing, or `None` when the accelerator
    /// was already loaded (driver cache hit).
    ///
    /// Transient failures (a corrupted stream failing the ICAP's CRC
    /// check, a stale registry read) are retried per the
    /// [`RecoveryPolicy`], with exponential backoff in virtual time; the
    /// tile stays decoupled between attempts so the partially-written
    /// wrapper never observes NoC traffic. When every allowed attempt
    /// fails the request ends with [`Error::RetriesExhausted`], the tile
    /// is left decoupled, and repeated exhaustion quarantines it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TileQuarantined`] for quarantined tiles,
    /// [`Error::BitstreamNotRegistered`] for unknown pairs (including a
    /// pair whose corrupt stream [`BitstreamRegistry::register`] refused),
    /// [`Error::RetriesExhausted`] when recovery gives up, and SoC errors
    /// from the decouple/reconfigure sequence.
    pub fn request_reconfiguration_at(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        at: u64,
    ) -> Result<Option<ReconfigRun>, Error> {
        let shard = shard_of(&mut self.tiles, tile);
        protocol::request_reconfiguration_at(shard, &mut self.core, &self.policy, kind, at)
    }

    /// [`Self::request_reconfiguration_at`] at the tile's own idle time.
    ///
    /// # Errors
    ///
    /// See [`Self::request_reconfiguration_at`].
    pub fn request_reconfiguration(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
    ) -> Result<Option<ReconfigRun>, Error> {
        let at = self.tile_idle_at(tile);
        self.request_reconfiguration_at(tile, kind, at)
    }

    /// Runs `op` on `tile`, with the request arriving at cycle `at`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoDriver`] when the tile's active driver does not
    /// service the operation (e.g. mid-reconfiguration), plus SoC errors.
    pub fn run_at(&mut self, tile: TileCoord, op: &AccelOp, at: u64) -> Result<AccelRun, Error> {
        let shard = shard_of(&mut self.tiles, tile);
        protocol::run_at(shard, &mut self.core, op, at, protocol::evaluate(op))
    }

    /// Runs `op` on `tile` at the tile's own idle time.
    ///
    /// # Errors
    ///
    /// See [`Self::run_at`].
    pub fn run(&mut self, tile: TileCoord, op: &AccelOp) -> Result<AccelRun, Error> {
        let at = self.tile_idle_at(tile);
        self.run_at(tile, op, at)
    }

    /// Runs `op` in software on the CPU tile at cycle `at` (fallback for
    /// kernels without a tile allocation).
    ///
    /// # Errors
    ///
    /// Propagates SoC errors.
    pub fn run_on_cpu_at(&mut self, op: &AccelOp, at: u64) -> Result<AccelRun, Error> {
        Ok(self.core.soc_mut().run_on_cpu_at(op, at)?)
    }

    /// Ensures `kind` is loaded in `tile` and runs `op` there, degrading to
    /// the CPU software path when the accelerator path is unavailable
    /// (quarantined tile, exhausted retries, missing bitstream) and the
    /// policy allows it — the application-level operation completes either
    /// way.
    ///
    /// # Errors
    ///
    /// Returns non-degradable errors, and degradable ones when
    /// [`RecoveryPolicy::cpu_fallback`] is disabled.
    pub fn run_with_fallback_at(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        op: &AccelOp,
        at: u64,
    ) -> Result<(AccelRun, ExecPath), Error> {
        self.execute_at(tile, kind, op, at, at)
            .map(|(run, path, _)| (run, path))
    }

    /// [`Self::run_with_fallback_at`] with the load requested at
    /// `request_at` and the run starting from `ready`, also returning the
    /// load the request performed — the WAMI application's kernel step.
    pub(crate) fn execute_at(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        op: &AccelOp,
        request_at: u64,
        ready: u64,
    ) -> Result<(AccelRun, ExecPath, Option<ReconfigRun>), Error> {
        protocol::run_with_fallback_at(
            shard_of(&mut self.tiles, tile),
            &mut self.core,
            &self.policy,
            kind,
            op,
            (request_at, ready),
            protocol::evaluate(op),
        )
    }

    /// [`Self::run_with_fallback_at`] at the tile's own idle time.
    ///
    /// # Errors
    ///
    /// See [`Self::run_with_fallback_at`].
    pub fn run_with_fallback(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        op: &AccelOp,
    ) -> Result<(AccelRun, ExecPath), Error> {
        let at = self.tile_idle_at(tile);
        self.run_with_fallback_at(tile, kind, op, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Arc;
    use presp_accel::AccelValue;
    use presp_fpga::bitstream::Bitstream;
    use presp_soc::config::SocConfig;

    fn bitstream(soc: &Soc, col: u32, frames: u32) -> Bitstream {
        Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, frames).unwrap()
    }

    fn manager(n_tiles: usize) -> (ReconfigManager, Vec<TileCoord>) {
        let cfg = SocConfig::grid_3x3_reconf("mgr", n_tiles).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tiles = cfg.reconfigurable_tiles();
        let mut registry = BitstreamRegistry::new();
        for (i, &tile) in tiles.iter().enumerate() {
            registry
                .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2 + i as u32, 4))
                .unwrap();
            registry
                .register(
                    tile,
                    AcceleratorKind::Sort,
                    bitstream(&soc, 20 + i as u32, 8),
                )
                .unwrap();
        }
        (ReconfigManager::new(soc, registry), tiles)
    }

    #[test]
    fn reconfigure_then_run() {
        let (mut mgr, tiles) = manager(1);
        let r = mgr
            .request_reconfiguration(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        assert!(r.is_some());
        let run = mgr
            .run(
                tiles[0],
                &AccelOp::Mac {
                    a: vec![5.0],
                    b: vec![5.0],
                },
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(25.0));
        assert_eq!(mgr.stats().reconfigurations, 1);
        assert_eq!(mgr.stats().runs, 1);
    }

    #[test]
    fn second_request_is_a_cache_hit() {
        let (mut mgr, tiles) = manager(1);
        mgr.request_reconfiguration(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let again = mgr
            .request_reconfiguration(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        assert!(again.is_none());
        assert_eq!(mgr.stats().cache_hits, 1);
        assert_eq!(mgr.stats().reconfigurations, 1);
    }

    #[test]
    fn run_without_driver_fails() {
        let (mut mgr, tiles) = manager(1);
        let err = mgr.run(tiles[0], &AccelOp::Sort { data: vec![1.0] });
        assert!(matches!(err, Err(Error::NoDriver { .. })));
    }

    #[test]
    fn run_with_wrong_driver_fails() {
        let (mut mgr, tiles) = manager(1);
        mgr.request_reconfiguration(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let err = mgr.run(tiles[0], &AccelOp::Sort { data: vec![1.0] });
        assert!(matches!(err, Err(Error::NoDriver { .. })));
    }

    #[test]
    fn unregistered_bitstream_is_reported() {
        let (mut mgr, tiles) = manager(1);
        let err = mgr.request_reconfiguration(tiles[0], AcceleratorKind::Gemm);
        assert!(matches!(err, Err(Error::BitstreamNotRegistered { .. })));
    }

    #[test]
    fn swap_sequence_updates_drivers_and_time() {
        let (mut mgr, tiles) = manager(1);
        let tile = tiles[0];
        mgr.request_reconfiguration(tile, AcceleratorKind::Mac)
            .unwrap();
        let t1 = mgr.tile_idle_at(tile);
        mgr.run(
            tile,
            &AccelOp::Mac {
                a: vec![1.0; 256],
                b: vec![1.0; 256],
            },
        )
        .unwrap();
        let t2 = mgr.tile_idle_at(tile);
        assert!(t2 > t1);
        // Swap to sort: waits for the run to complete first.
        let swap = mgr
            .request_reconfiguration(tile, AcceleratorKind::Sort)
            .unwrap()
            .unwrap();
        assert!(swap.start >= t2);
        assert!(mgr.driver_services(tile, AcceleratorKind::Sort));
        let sorted = mgr
            .run(
                tile,
                &AccelOp::Sort {
                    data: vec![3.0, 1.0],
                },
            )
            .unwrap();
        assert_eq!(sorted.value, AccelValue::Vector(vec![1.0, 3.0]));
    }

    #[test]
    fn tiles_reconfigure_independently() {
        let (mut mgr, tiles) = manager(2);
        let r0 = mgr
            .request_reconfiguration_at(tiles[0], AcceleratorKind::Mac, 0)
            .unwrap()
            .unwrap();
        let r1 = mgr
            .request_reconfiguration_at(tiles[1], AcceleratorKind::Sort, 0)
            .unwrap()
            .unwrap();
        // The shared ICAP serializes the two loads.
        assert!(r1.end > r0.end || r0.end > r1.end);
        assert!(mgr.driver_services(tiles[0], AcceleratorKind::Mac));
        assert!(mgr.driver_services(tiles[1], AcceleratorKind::Sort));
        assert_eq!(mgr.stats().reconfigurations, 2);
    }

    #[test]
    fn scrub_state_machine_tracks_repairs() {
        use presp_fpga::fault::{FaultConfig, FaultPlan};
        let (mut mgr, tiles) = manager(1);
        let tile = tiles[0];
        assert_eq!(mgr.tile_health(tile), TileHealth::Healthy);
        mgr.request_reconfiguration(tile, AcceleratorKind::Mac)
            .unwrap();
        // Clean pass: back to Healthy.
        let report = mgr.scrub_tile_at(tile, mgr.makespan()).unwrap();
        assert!(report.is_clean());
        assert_eq!(mgr.tile_health(tile), TileHealth::Healthy);
        // Single-bit upset: repaired, tile marked Degraded.
        let mut plan = FaultPlan::new(5, FaultConfig::uniform(0.0));
        plan.force_seu(mgr.makespan() + 1, false);
        mgr.soc_mut().set_fault_plan(Some(plan));
        let report = mgr.scrub_tile_at(tile, mgr.makespan() + 10).unwrap();
        assert_eq!(report.corrected.len(), 1);
        assert_eq!(mgr.tile_health(tile), TileHealth::Degraded);
        let stats = mgr.stats();
        assert_eq!(stats.scrub_passes, 2);
        assert_eq!(stats.scrub_clean_passes, 1);
        assert_eq!(stats.frames_repaired, 1);
        assert_eq!(stats.scrub_quarantines, 0);
        // A successful reconfiguration rewrites the region: Healthy again.
        mgr.request_reconfiguration(tile, AcceleratorKind::Sort)
            .unwrap();
        assert_eq!(mgr.tile_health(tile), TileHealth::Healthy);
        assert!(mgr.stats().consistent());
    }

    #[test]
    fn uncorrectable_upset_quarantines_and_golden_restore_recovers() {
        use presp_fpga::fault::{FaultConfig, FaultPlan};
        let (mut mgr, tiles) = manager(1);
        let tile = tiles[0];
        mgr.request_reconfiguration(tile, AcceleratorKind::Mac)
            .unwrap();
        let mut plan = FaultPlan::new(6, FaultConfig::uniform(0.0));
        plan.force_seu(mgr.makespan() + 1, true);
        mgr.soc_mut().set_fault_plan(Some(plan));
        let report = mgr.scrub_tile_at(tile, mgr.makespan() + 10).unwrap();
        assert_eq!(report.uncorrectable.len(), 1);
        assert_eq!(mgr.tile_health(tile), TileHealth::Quarantined);
        assert!(mgr.is_quarantined(tile));
        assert_eq!(mgr.stats().scrub_quarantines, 1);
        // Work still completes — degraded to the CPU software path.
        let (run, path) = mgr
            .run_with_fallback(
                tile,
                AcceleratorKind::Mac,
                &AccelOp::Mac {
                    a: vec![2.0],
                    b: vec![3.0],
                },
            )
            .unwrap();
        assert_eq!(path, ExecPath::CpuFallback);
        assert_eq!(run.value, AccelValue::Scalar(6.0));
        // Recovery: golden restore + quarantine release → clean scrubs.
        // The restore alone leaves the tile quarantined.
        assert!(mgr.restore_golden(tile).unwrap() > 0);
        assert_eq!(mgr.tile_health(tile), TileHealth::Quarantined);
        assert!(mgr.release_quarantine(tile));
        let report = mgr.scrub_tile_at(tile, mgr.makespan()).unwrap();
        assert!(report.is_clean());
        assert_eq!(mgr.tile_health(tile), TileHealth::Healthy);
        assert!(mgr.stats().consistent());
    }

    #[test]
    fn corrupt_stream_is_refused_at_registration() {
        let cfg = SocConfig::grid_3x3_reconf("corrupt", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let good = bitstream(&soc, 2, 4);
        let mut words = good.words().to_vec();
        let idx = words.len() / 2;
        words[idx] ^= 1;
        let corrupted = good.with_words(words);
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tile, AcceleratorKind::Sort, good.clone())
            .unwrap();
        let refused = registry.register(tile, AcceleratorKind::Mac, corrupted.clone());
        assert!(matches!(refused, Err(Error::CorruptBitstream { .. })));
        assert_eq!(
            (registry.len(), registry.total_bytes()),
            (1, good.size_bytes())
        );
        let mut mgr = ReconfigManager::new(soc, registry);
        mgr.request_reconfiguration(tile, AcceleratorKind::Sort)
            .unwrap();
        let err = mgr.request_reconfiguration(tile, AcceleratorKind::Mac);
        assert!(matches!(err, Err(Error::BitstreamNotRegistered { .. })));
        assert_eq!(mgr.stats().rejected, 1);
        assert!(mgr.stats().consistent());
        // Rejected before the swap began: never decoupled, the loaded
        // driver still bound.
        let decoupled = mgr.soc().csr_read(tile, presp_soc::sim::csr::DECOUPLE);
        assert_eq!(decoupled.unwrap(), 0);
        assert_eq!(mgr.active_driver(tile), Some(AcceleratorKind::Sort));
        // Programmed directly, the stream still fails the ICAP's CRC.
        let mut soc = mgr.into_soc();
        let t = soc
            .csr_write_at(tile, presp_soc::sim::csr::DECOUPLE, 1, 0)
            .unwrap();
        let raw = soc.reconfigure_at(tile, AcceleratorKind::Mac, &Arc::new(corrupted), t);
        assert!(matches!(
            raw,
            Err(presp_soc::Error::Fpga(
                presp_fpga::Error::CrcMismatch { .. }
                    | presp_fpga::Error::MalformedBitstream { .. }
            ))
        ));
    }

    #[test]
    fn retries_reuse_the_one_registry_read() {
        use presp_fpga::fault::{FaultConfig, FaultPlan};
        let (mut mgr, tiles) = manager(1);
        let mut plan = FaultPlan::new(1, FaultConfig::default());
        plan.force_registry_miss(0);
        plan.force_registry_miss(1);
        mgr.soc_mut().set_fault_plan(Some(plan));
        let run = mgr.request_reconfiguration(tiles[0], AcceleratorKind::Mac);
        assert!(run.unwrap().is_some());
        assert_eq!(mgr.stats().retries, 2);
        // The cache is disabled, so every registry read is a miss: the
        // request read its stream once, not once per attempt.
        assert_eq!(mgr.bitstream_cache_stats().misses, 1);
        assert!(mgr.stats().consistent());
    }

    #[test]
    fn cpu_fallback_runs_without_reconfiguration() {
        let (mut mgr, _) = manager(1);
        let run = mgr
            .run_on_cpu_at(
                &AccelOp::Sort {
                    data: vec![2.0, 1.0],
                },
                0,
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Vector(vec![1.0, 2.0]));
        assert_eq!(mgr.stats().reconfigurations, 0);
    }

    #[test]
    fn each_tile_binds_the_driver_of_its_last_swap() {
        let (mut mgr, tiles) = manager(2);
        assert_eq!(mgr.active_driver(tiles[0]), None);
        mgr.request_reconfiguration(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        assert_eq!(mgr.active_driver(tiles[0]), Some(AcceleratorKind::Mac));
        assert_eq!(mgr.active_driver(tiles[1]), None);
        mgr.request_reconfiguration(tiles[1], AcceleratorKind::Sort)
            .unwrap();
        assert_eq!(mgr.active_driver(tiles[1]), Some(AcceleratorKind::Sort));
        mgr.request_reconfiguration(tiles[0], AcceleratorKind::Sort)
            .unwrap();
        assert_eq!(mgr.active_driver(tiles[0]), Some(AcceleratorKind::Sort));
        assert!(!mgr.driver_services(tiles[0], AcceleratorKind::Mac));
        assert_eq!(mgr.active_driver(tiles[1]), Some(AcceleratorKind::Sort));
    }

    #[test]
    fn exhausted_retries_leave_the_tile_decoupled_without_a_driver() {
        use presp_fpga::fault::{FaultConfig, FaultPlan};
        let (mut mgr, tiles) = manager(1);
        let tile = tiles[0];
        mgr.request_reconfiguration(tile, AcceleratorKind::Mac)
            .unwrap();
        let policy = RecoveryPolicy::default();
        let mut plan = FaultPlan::new(1, FaultConfig::uniform(0.0));
        for nth in 0..=u64::from(policy.max_retries) {
            plan.force_icap_fault(nth);
        }
        mgr.soc_mut().set_fault_plan(Some(plan));
        let err = mgr.request_reconfiguration(tile, AcceleratorKind::Sort);
        assert!(matches!(err, Err(Error::RetriesExhausted { .. })));
        // The Mac driver was unbound before the first load and nothing
        // was probed after the last failed one: the tile is isolated.
        assert_eq!(mgr.active_driver(tile), None);
        let decoupled = mgr.soc().csr_read(tile, presp_soc::sim::csr::DECOUPLE);
        assert_eq!(decoupled.unwrap(), 1);
        assert!(!mgr.is_quarantined(tile), "one exhausted request");
        assert!(mgr.stats().consistent());
    }

    #[test]
    fn enabled_regions_before_first_load_only() {
        use presp_floorplan::FitPolicy;
        let (mut mgr, tiles) = manager(1);
        mgr.request_reconfiguration(tiles[0], AcceleratorKind::Mac)
            .unwrap();
        let err = mgr.enable_regions(FitPolicy::FirstFit, None);
        assert!(matches!(
            err,
            Err(Error::Soc(presp_soc::Error::RegionConflict { .. }))
        ));
        // Repack without regions is a clean no-op.
        let report = mgr.repack_at(0).unwrap();
        assert_eq!(report, RepackReport::default());
        assert!(mgr.fragmentation().is_none());
    }
}
