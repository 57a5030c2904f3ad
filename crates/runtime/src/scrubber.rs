//! Configuration-memory scrubbing on the threaded runtime.
//!
//! Real DPR systems run a background scrubber (Xilinx SEM, or a soft SEU
//! controller) that walks configuration frames through the ICAP readback
//! port, repairs single-bit upsets with the per-frame ECC, and raises an
//! alarm on uncorrectable damage. On the simulated stack a scrub is a
//! method of [`ThreadedManager`] that runs on the calling thread, so a
//! periodic scrubber is just a caller that sweeps from its own loop. A
//! scrub pass takes the target tile's shard lock and then the device-core
//! lock — the same `tile_state` → `core` order every scheduler worker
//! commits under — so scrub passes and reconfiguration requests
//! serialize on the shared ICAP exactly like two kernel work items
//! contending for one PRC. Scrubs are maintenance, not requests: they
//! bypass the admission queue and the ticket gate.
//!
//! Lock order invariant: `tile_state` → `core`. A pass's counters —
//! passes, clean passes, frames repaired, quarantines — are the ledger's
//! [`crate::manager::ManagerStats`] fields, updated by the protocol
//! layer in the same `core` critical section as the repairs, so no
//! [`ThreadedManager::stats`] snapshot can observe a half-counted pass.

use crate::error::Error;
use crate::protocol;
use crate::scheduler::Shared;
use crate::sync::SyncFacade;
use crate::threaded::ThreadedManager;
use presp_soc::config::TileCoord;
use presp_soc::sim::ScrubReport;

impl<S: SyncFacade> ThreadedManager<S> {
    /// Scrubs `tile`'s configuration frames on the calling thread and
    /// returns the pass's report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] once shutdown has begun,
    /// [`Error::TileQuarantined`] for quarantined tiles, plus SoC errors.
    ///
    /// # Example
    ///
    /// ```no_run
    /// # use presp_runtime::threaded::ThreadedManager;
    /// # use presp_runtime::registry::BitstreamRegistry;
    /// # use presp_soc::{config::SocConfig, sim::Soc};
    /// # use presp_accel::AcceleratorKind;
    /// # fn demo() -> Result<(), presp_runtime::Error> {
    /// let config = SocConfig::grid_3x3_reconf("demo", 1)?;
    /// let soc = Soc::new(&config)?;
    /// let manager = ThreadedManager::spawn(soc, BitstreamRegistry::new());
    /// let tile = config.reconfigurable_tiles()[0];
    /// manager.reconfigure_blocking(tile, AcceleratorKind::Mac)?;
    /// let report = manager.scrub_blocking(tile)?;
    /// assert!(report.is_clean());
    /// manager.shutdown();
    /// # Ok(()) }
    /// ```
    pub fn scrub_blocking(&self, tile: TileCoord) -> Result<ScrubReport, Error> {
        if self.shared.is_stopping() {
            return Err(Error::ManagerStopped);
        }
        let result = scrub_pass(&self.shared, tile);
        // A pass may quarantine the tile: wake any thread parked in
        // `run_blocking` so it can observe that.
        if let Some(shard) = self.shared.shards.get(&tile) {
            S::notify_all(&shard.reconfig_done);
        }
        result
    }

    /// Sweeps every configured, non-quarantined tile on the calling
    /// thread and returns the per-tile reports.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] once shutdown has begun, plus
    /// SoC errors.
    pub fn scrub_all_blocking(&self) -> Result<Vec<(TileCoord, ScrubReport)>, Error> {
        if self.shared.is_stopping() {
            return Err(Error::ManagerStopped);
        }
        let result = scrub_sweep(&self.shared);
        for shard in self.shared.shards.values() {
            S::notify_all(&shard.reconfig_done);
        }
        result
    }
}

/// One pass over `tile`: shard lock → core lock → scrub → release.
fn scrub_pass<S: SyncFacade>(shared: &Shared<S>, tile: TileCoord) -> Result<ScrubReport, Error> {
    let shard = shared
        .shards
        .get(&tile)
        .ok_or(Error::Soc(presp_soc::Error::NoSuchTile { coord: tile }))?;
    let mut state = S::lock(&shard.state);
    let mut core = S::lock(&shared.core);
    let at = core.soc().horizon();
    protocol::scrub_tile_at(&mut state, &mut core, at)
}

/// A full sweep: every configured, non-quarantined tile, one at a time
/// (the shard locks are never held pairwise), all anchored at the
/// sweep's starting horizon like the deterministic manager's
/// `scrub_all_at`.
fn scrub_sweep<S: SyncFacade>(shared: &Shared<S>) -> Result<Vec<(TileCoord, ScrubReport)>, Error> {
    let at = S::lock(&shared.core).soc().horizon();
    let mut reports = Vec::new();
    for (&tile, shard) in &shared.shards {
        let mut state = S::lock(&shard.state);
        if state.is_quarantined() {
            continue;
        }
        let mut core = S::lock(&shared.core);
        if !core.soc().has_region(tile) {
            continue;
        }
        reports.push((tile, protocol::scrub_tile_at(&mut state, &mut core, at)?));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BitstreamRegistry;
    use crate::threaded::RuntimeConfig;
    use presp_accel::catalog::AcceleratorKind;
    use presp_accel::AccelOp;
    use presp_check::{CheckSync, Checker, Config};
    use presp_fpga::bitstream::Bitstream;
    use presp_fpga::fault::{FaultConfig, FaultPlan};
    use presp_soc::config::SocConfig;
    use presp_soc::sim::Soc;

    fn bitstream(soc: &Soc, col: u32) -> Bitstream {
        Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, 1).unwrap()
    }

    fn boot() -> (ThreadedManager, TileCoord) {
        let cfg = SocConfig::grid_3x3_reconf("scrub", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2))
            .unwrap();
        (ThreadedManager::spawn(soc, registry), tile)
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

    fn mac() -> AccelOp {
        AccelOp::Mac {
            a: vec![1.0],
            b: vec![2.0],
        }
    }

    #[test]
    fn scrub_repairs_a_forced_upset() {
        let (mgr, tile) = boot();
        assert_eq!(mgr.stats().scrub_passes, 0);
        mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
            .unwrap();
        let report = mgr.scrub_blocking(tile).unwrap();
        assert!(report.is_clean());
        force_seu(&mgr, false);
        let report = mgr.scrub_blocking(tile).unwrap();
        assert_eq!(report.corrected.len(), 1);
        let stats = mgr.stats();
        assert_eq!(stats.scrub_passes, 2);
        assert_eq!(stats.scrub_clean_passes, 1);
        assert_eq!(stats.frames_repaired, 1);
        assert_eq!(stats.scrub_quarantines, 0);
        mgr.shutdown();
    }

    #[test]
    fn scrub_all_quarantines_a_double_bit_upset() {
        let (mgr, tile) = boot();
        mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
            .unwrap();
        force_seu(&mgr, true);
        let reports = mgr.scrub_all_blocking().unwrap();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].1.uncorrectable.is_empty());
        assert_eq!(mgr.stats().scrub_quarantines, 1);
        // The quarantined tile refuses further scrubs …
        assert!(matches!(
            mgr.scrub_blocking(tile),
            Err(Error::TileQuarantined { .. })
        ));
        // … and a subsequent sweep skips it entirely.
        assert!(mgr.scrub_all_blocking().unwrap().is_empty());
        mgr.shutdown();
    }

    #[test]
    fn scrubbing_under_reconfiguration_load_stays_consistent() {
        let (mgr, tile) = boot();
        mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
            .unwrap();
        let swapper = {
            let mgr = mgr.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let _ = mgr.execute_blocking(tile, AcceleratorKind::Mac, mac());
                }
            })
        };
        for _ in 0..10 {
            mgr.scrub_blocking(tile).unwrap();
        }
        swapper.join().unwrap();
        assert_eq!(mgr.stats().scrub_passes, 10);
        assert!(mgr.stats().consistent());
        mgr.shutdown();
    }

    // ---- model-checked protocol (CheckSync) ---------------------------

    /// A scrubbing caller racing a snapshotting one: the pass counts
    /// under `core`, the snapshot reads under `core`.
    fn scrub_vs_snapshot() {
        let cfg = SocConfig::grid_3x3_reconf("scrub_model", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2))
            .unwrap();
        let mgr = ThreadedManager::<CheckSync>::spawn_with(soc, registry, RuntimeConfig::default());
        let caller = mgr.clone();
        let s = presp_check::sync::spawn_named("scrub_caller", move || {
            let _ = caller.scrub_blocking(tile);
        });
        let _snapshot = mgr.stats();
        s.join().unwrap();
        mgr.shutdown();
    }

    #[test]
    fn clean_scrub_protocol_explores_without_findings() {
        // Scrub pass + scheduler: a quick bounded sweep here; the
        // 10k-schedule sweep lives in the workspace-level model_check
        // suite.
        let report = Checker::new(Config {
            max_schedules: 500,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
        .explore(scrub_vs_snapshot);
        assert!(report.ok(), "{report}");
    }
}
