//! Driver lifecycle events.
//!
//! ESP auto-generates one device driver per accelerator. On a DPR system
//! the driver bound to a reconfigurable tile must follow the accelerator:
//! the manager unregisters the outgoing driver before reconfiguration and
//! probes the incoming one after the DFXC interrupt. Submitting work
//! through a stale driver is the classic DPR software bug this prevents.
//! Each tile's driver slot lives in its shard ([`crate::tile`]), which
//! records every probe and removal as a [`DriverEvent`].

use presp_accel::catalog::AcceleratorKind;
use presp_soc::config::TileCoord;

/// Lifecycle events recorded for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverEvent {
    /// A driver was probed (bound) to a tile.
    Probed {
        /// Tile the driver bound to.
        tile: TileCoord,
        /// Accelerator the driver serves.
        kind: AcceleratorKind,
    },
    /// A driver was removed from a tile.
    Removed {
        /// Tile the driver unbound from.
        tile: TileCoord,
        /// Accelerator the driver served.
        kind: AcceleratorKind,
    },
}
