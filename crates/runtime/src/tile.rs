//! Per-tile shard state.
//!
//! The runtime used to keep every piece of per-tile bookkeeping — the
//! active driver, the idle horizon, the health state machine (quarantine
//! included) and the failure streak — in parallel maps inside one
//! `ReconfigManager` god object, all guarded by a single lock. This
//! module is the sharded replacement: one [`TileState`] per
//! reconfigurable tile, owning exactly the state whose consistency is
//! per-tile. Two requests to *different* tiles touch disjoint
//! `TileState`s and can proceed concurrently; only the genuinely shared
//! device resources (ICAP, configuration memory, NoC — see
//! [`crate::device`]) still serialize. A tile's region (its lease and
//! frames under amorphous floorplanning) is device state too and lives
//! only in the device core, never in a shard.
//!
//! `TileState` is pure data with no locking of its own. The deterministic
//! [`crate::manager::ReconfigManager`] owns its shards directly; the
//! OS-threaded [`crate::threaded::ThreadedManager`] wraps each one in a
//! per-tile mutex (label `"tile_state"`) and is the only doorway through
//! which shard state is mutated on the concurrent path — a boundary
//! `presp-analyze` enforces.
//!
//! ESP auto-generates one device driver per accelerator. On a DPR system
//! the driver bound to a reconfigurable tile must follow the accelerator:
//! the manager unregisters the outgoing driver before reconfiguration and
//! probes the incoming one after the DFXC interrupt. Submitting work
//! through a stale driver is the classic DPR software bug this prevents.
//! The shard's driver slot is the only record of the binding; the swaps
//! themselves show in the trace as `reconfig.attempt` records.

use presp_accel::catalog::AcceleratorKind;
use presp_soc::config::TileCoord;

/// Configuration-memory health of one reconfigurable tile, as tracked by
/// the scrubbing machinery.
///
/// `Healthy → Scrubbing → {Healthy, Degraded, Quarantined}`: a scrub pass
/// moves the tile through `Scrubbing`; a clean readback returns it to
/// `Healthy`, repaired single-bit upsets leave it `Degraded` (the fabric
/// is correct again but took hits), and an uncorrectable upset removes it
/// from service. A successful reconfiguration rewrites every frame and
/// resets the tile to `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileHealth {
    /// No known upsets.
    Healthy,
    /// A scrub pass is reading the tile's frames back.
    Scrubbing,
    /// Correctable upsets were detected and repaired by the last pass.
    Degraded,
    /// An uncorrectable upset (or repeated load failure) removed the tile
    /// from service; work degrades to the CPU until it is restored.
    Quarantined,
}

/// Everything the runtime tracks about one reconfigurable tile.
///
/// The fields mirror the old manager's per-tile maps one for one: the
/// driver slot, the virtual-time idle horizon, the health state machine
/// (whose `Quarantined` state is the quarantine flag) and the
/// consecutive-failure streak that feeds the quarantine policy.
#[derive(Debug, Clone)]
pub struct TileState {
    coord: TileCoord,
    driver: Option<AcceleratorKind>,
    idle_at: u64,
    health: TileHealth,
    failure_streak: u32,
    /// Repack-moves watermark stamped when a load was refused for lack
    /// of a free span ([`crate::error::Error::RegionUnavailable`]);
    /// cleared on the next successful load, which is then counted as an
    /// oversized admit (and a repack admit when the watermark moved).
    oversized_mark: Option<u64>,
}

impl TileState {
    /// A fresh, healthy, empty shard for `coord`.
    pub fn new(coord: TileCoord) -> TileState {
        TileState {
            coord,
            driver: None,
            idle_at: 0,
            health: TileHealth::Healthy,
            failure_streak: 0,
            oversized_mark: None,
        }
    }

    /// The tile this shard describes.
    pub fn coord(&self) -> TileCoord {
        self.coord
    }

    /// The driver currently bound to the tile.
    pub fn active_driver(&self) -> Option<AcceleratorKind> {
        self.driver
    }

    /// Whether the tile's active driver can service an operation for
    /// `kind`.
    pub fn services(&self, kind: AcceleratorKind) -> bool {
        self.driver == Some(kind)
    }

    /// Unregisters the driver (before reconfiguration). From here until
    /// the next probe, submissions fail fast instead of touching a tile
    /// that is being rewritten.
    pub fn remove_driver(&mut self) -> Option<AcceleratorKind> {
        self.driver.take()
    }

    /// Probes the driver for `kind` (after reconfiguration).
    pub fn probe_driver(&mut self, kind: AcceleratorKind) {
        self.driver = Some(kind);
    }

    /// Virtual time at which the tile becomes idle.
    pub fn idle_at(&self) -> u64 {
        self.idle_at
    }

    /// Advances the idle horizon to `at`.
    pub fn set_idle_at(&mut self, at: u64) {
        self.idle_at = at;
    }

    /// Configuration-memory health.
    pub fn health(&self) -> TileHealth {
        self.health
    }

    /// Moves the scrub state machine. Quarantine dominates: a
    /// quarantined tile stays `Quarantined` until
    /// [`TileState::release_quarantine`].
    pub fn set_health(&mut self, health: TileHealth) {
        if !self.is_quarantined() {
            self.health = health;
        }
    }

    /// Whether the tile is quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.health == TileHealth::Quarantined
    }

    /// Quarantines the tile. Returns `true` on the transition (i.e. the
    /// tile was not already quarantined).
    pub fn quarantine(&mut self) -> bool {
        let entered = !self.is_quarantined();
        self.health = TileHealth::Quarantined;
        entered
    }

    /// Releases the quarantine, clearing the failure streak and health
    /// history. Returns whether the tile was quarantined.
    pub fn release_quarantine(&mut self) -> bool {
        let released = self.is_quarantined();
        self.failure_streak = 0;
        self.health = TileHealth::Healthy;
        released
    }

    /// Consecutive retry-exhausted requests on this tile.
    pub fn failure_streak(&self) -> u32 {
        self.failure_streak
    }

    /// Records one more retry-exhausted request; returns the new streak.
    pub fn record_failure(&mut self) -> u32 {
        self.failure_streak += 1;
        self.failure_streak
    }

    /// Clears the failure streak (after a successful load).
    pub fn clear_failures(&mut self) {
        self.failure_streak = 0;
    }

    /// Stamps the oversized-rejection watermark with the ledger's current
    /// [`crate::manager::ManagerStats::repack_moves`].
    pub(crate) fn mark_oversized(&mut self, repack_moves: u64) {
        self.oversized_mark = Some(repack_moves);
    }

    /// Takes the oversized watermark (cleared on a successful load).
    pub(crate) fn take_oversized_mark(&mut self) -> Option<u64> {
        self.oversized_mark.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_slot_follows_each_swap() {
        let mut t = TileState::new(TileCoord::new(1, 0));
        assert_eq!(t.active_driver(), None);
        t.probe_driver(AcceleratorKind::Mac);
        assert!(t.services(AcceleratorKind::Mac));
        assert!(!t.services(AcceleratorKind::Sort));
        assert_eq!(t.remove_driver(), Some(AcceleratorKind::Mac));
        assert_eq!(t.active_driver(), None);
        t.probe_driver(AcceleratorKind::Sort);
        assert_eq!(t.active_driver(), Some(AcceleratorKind::Sort));
        // Removing from an empty slot removes nothing.
        let mut empty = TileState::new(TileCoord::new(2, 0));
        assert_eq!(empty.remove_driver(), None);
    }

    #[test]
    fn quarantine_dominates_health_and_release_resets() {
        let mut t = TileState::new(TileCoord::new(1, 0));
        t.set_health(TileHealth::Degraded);
        assert_eq!(t.health(), TileHealth::Degraded);
        assert!(t.quarantine());
        assert!(!t.quarantine(), "second entry is not a transition");
        assert_eq!(t.health(), TileHealth::Quarantined);
        // `restore_golden` sets the shard `Healthy`; a quarantined tile
        // stays quarantined until it is released.
        t.set_health(TileHealth::Healthy);
        assert_eq!(t.health(), TileHealth::Quarantined);
        assert!(t.is_quarantined());
        t.record_failure();
        assert!(t.release_quarantine());
        assert!(!t.release_quarantine());
        assert_eq!(t.health(), TileHealth::Healthy);
        assert_eq!(t.failure_streak(), 0);
    }

    #[test]
    fn failure_streak_counts_and_clears() {
        let mut t = TileState::new(TileCoord::new(1, 0));
        assert_eq!(t.record_failure(), 1);
        assert_eq!(t.record_failure(), 2);
        t.clear_failures();
        assert_eq!(t.failure_streak(), 0);
    }
}
