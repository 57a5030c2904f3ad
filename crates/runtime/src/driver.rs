//! The driver table.
//!
//! ESP auto-generates one device driver per accelerator. On a DPR system
//! the driver bound to a reconfigurable tile must follow the accelerator:
//! the manager unregisters the outgoing driver before reconfiguration and
//! probes the incoming one after the DFXC interrupt. Submitting work
//! through a stale driver is the classic DPR software bug this table
//! prevents.

use presp_accel::catalog::AcceleratorKind;
use presp_soc::config::TileCoord;
use std::collections::BTreeMap;

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

/// Active drivers, one slot per tile.
#[derive(Debug, Clone, Default)]
pub struct DriverTable {
    active: BTreeMap<TileCoord, AcceleratorKind>,
    events: Vec<DriverEvent>,
}

impl DriverTable {
    /// An empty table.
    pub fn new() -> DriverTable {
        DriverTable::default()
    }

    /// The driver currently bound to `tile`.
    pub fn active(&self, tile: TileCoord) -> Option<AcceleratorKind> {
        self.active.get(&tile).copied()
    }

    /// Unregisters the driver on `tile` (before reconfiguration).
    pub fn remove(&mut self, tile: TileCoord) -> Option<AcceleratorKind> {
        let removed = self.active.remove(&tile);
        if let Some(kind) = removed {
            self.events.push(DriverEvent::Removed { tile, kind });
        }
        removed
    }

    /// Probes the driver for `kind` on `tile` (after reconfiguration).
    pub fn probe(&mut self, tile: TileCoord, kind: AcceleratorKind) {
        self.active.insert(tile, kind);
        self.events.push(DriverEvent::Probed { tile, kind });
    }

    /// Whether `tile`'s active driver can service an operation for `kind`.
    pub fn services(&self, tile: TileCoord, kind: AcceleratorKind) -> bool {
        self.active(tile) == Some(kind)
    }

    /// The recorded lifecycle events.
    pub fn events(&self) -> &[DriverEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_then_remove_roundtrip() {
        let mut table = DriverTable::new();
        let tile = TileCoord::new(1, 1);
        assert_eq!(table.active(tile), None);
        table.probe(tile, AcceleratorKind::Mac);
        assert!(table.services(tile, AcceleratorKind::Mac));
        assert!(!table.services(tile, AcceleratorKind::Gemm));
        assert_eq!(table.remove(tile), Some(AcceleratorKind::Mac));
        assert_eq!(table.active(tile), None);
    }

    #[test]
    fn removing_unbound_tile_records_nothing() {
        let mut table = DriverTable::new();
        assert_eq!(table.remove(TileCoord::new(0, 0)), None);
        assert!(table.events().is_empty());
    }

    #[test]
    fn events_record_the_swap_sequence() {
        let mut table = DriverTable::new();
        let tile = TileCoord::new(2, 0);
        table.probe(tile, AcceleratorKind::Mac);
        table.remove(tile);
        table.probe(tile, AcceleratorKind::Gemm);
        assert_eq!(
            table.events(),
            &[
                DriverEvent::Probed {
                    tile,
                    kind: AcceleratorKind::Mac
                },
                DriverEvent::Removed {
                    tile,
                    kind: AcceleratorKind::Mac
                },
                DriverEvent::Probed {
                    tile,
                    kind: AcceleratorKind::Gemm
                },
            ]
        );
    }
}
