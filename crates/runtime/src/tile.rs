//! Per-tile shard state.
//!
//! One [`TileState`] per reconfigurable tile owns exactly the state whose
//! consistency is per-tile: the active driver, the idle horizon, the
//! health state machine (quarantine included) and the failure streak.
//! Two requests to *different* tiles touch disjoint `TileState`s and can
//! proceed concurrently; only the genuinely shared device resources
//! (ICAP, configuration memory, NoC — see [`crate::device`]) still
//! serialize. A tile's region (its lease and frames under amorphous
//! floorplanning) is device state too and lives only in the device core,
//! never in a shard.
//!
//! `TileState` is plain data with no locking of its own. The
//! deterministic [`crate::manager::ReconfigManager`] owns its shards
//! directly; the OS-threaded [`crate::threaded::ThreadedManager`] wraps
//! each one in a per-tile mutex (label `"tile_state"`) and is the only
//! doorway through which shard state is mutated on the concurrent path —
//! a boundary `presp-analyze` enforces.
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
/// Only `health` is private: its `Quarantined` state is the quarantine
/// flag, and the methods below keep quarantine dominant.
#[derive(Debug, Clone)]
pub(crate) struct TileState {
    pub(crate) coord: TileCoord,
    /// The driver bound to the tile. `None` from unregistering (before a
    /// reconfiguration) until the next probe, so submissions fail fast
    /// instead of touching a tile that is being rewritten.
    pub(crate) driver: Option<AcceleratorKind>,
    /// Virtual time at which the tile becomes idle.
    pub(crate) idle_at: u64,
    health: TileHealth,
    /// Consecutive retry-exhausted requests; a successful load clears it.
    pub(crate) failure_streak: u32,
    /// Repack-moves watermark stamped when a load was refused for lack
    /// of a free span ([`crate::error::Error::RegionUnavailable`]);
    /// cleared on the next successful load, which is then counted as an
    /// oversized admit (and a repack admit when the watermark moved).
    pub(crate) oversized_mark: Option<u64>,
}

impl TileState {
    /// A fresh, healthy, empty shard for `coord`.
    pub(crate) fn new(coord: TileCoord) -> TileState {
        TileState {
            coord,
            driver: None,
            idle_at: 0,
            health: TileHealth::Healthy,
            failure_streak: 0,
            oversized_mark: None,
        }
    }

    /// Configuration-memory health.
    pub(crate) fn health(&self) -> TileHealth {
        self.health
    }

    /// Moves the scrub state machine. Quarantine dominates: a
    /// quarantined tile stays `Quarantined` until
    /// [`TileState::release_quarantine`].
    pub(crate) fn set_health(&mut self, health: TileHealth) {
        if !self.is_quarantined() {
            self.health = health;
        }
    }

    /// Whether the tile is quarantined.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.health == TileHealth::Quarantined
    }

    /// Quarantines the tile. Returns `true` on the transition (i.e. the
    /// tile was not already quarantined).
    pub(crate) fn quarantine(&mut self) -> bool {
        let entered = !self.is_quarantined();
        self.health = TileHealth::Quarantined;
        entered
    }

    /// Releases the quarantine, clearing the failure streak and health
    /// history. Returns whether the tile was quarantined.
    pub(crate) fn release_quarantine(&mut self) -> bool {
        let released = self.is_quarantined();
        self.failure_streak = 0;
        self.health = TileHealth::Healthy;
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        t.failure_streak = 3;
        assert!(t.release_quarantine());
        assert!(!t.release_quarantine());
        assert_eq!(t.health(), TileHealth::Healthy);
        assert_eq!(t.failure_streak, 0);
    }
}
