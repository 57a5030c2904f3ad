//! Tile kinds and their resource overheads.

use presp_accel::catalog::AcceleratorKind;
use presp_fpga::resources::Resources;
use std::fmt;

/// Socket overhead of a reconfigurable tile: the NoC proxies, the
/// configuration registers, the decoupling logic and the reconfigurable
/// wrapper interface (everything in Fig. 2B outside the accelerator).
pub(crate) const RECONF_SOCKET: Resources = Resources::new(4_600, 6_100, 2, 0);

/// The tile kinds of the (PR-)ESP architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileKind {
    /// Processor tile (Leon3 in the paper's evaluation).
    Cpu,
    /// Memory tile (DDR channel interface).
    Mem,
    /// Auxiliary tile, augmented with the DFX controller + ICAP.
    Aux,
    /// Shared-local-memory tile.
    Slm,
    /// A static (non-reconfigurable) accelerator tile.
    Accel(AcceleratorKind),
    /// A reconfigurable tile (initially empty; accelerators are loaded by
    /// partial reconfiguration).
    Reconfigurable,
    /// An unused grid position.
    Empty,
}

impl TileKind {
    /// Fabric resources the tile's static logic occupies.
    ///
    /// Calibrated against Table II: a CPU tile is 41,544 LUTs and the full
    /// static part of a CPU+MEM+AUX SoC is 82,267 LUTs (the remainder being
    /// the memory tile, the auxiliary tile with the DFXC, and the NoC
    /// routers / clocking accounted to [`TileKind::Mem`] and
    /// [`TileKind::Aux`] here).
    pub fn static_resources(&self) -> Resources {
        match self {
            TileKind::Cpu => Resources::new(41_544, 34_800, 64, 4),
            TileKind::Mem => Resources::new(23_500, 28_100, 48, 0),
            TileKind::Aux => Resources::new(17_223, 19_800, 12, 0),
            TileKind::Slm => Resources::new(6_400, 5_200, 128, 0),
            TileKind::Accel(kind) => kind.resources() + RECONF_SOCKET,
            // The socket stays static; the wrapper contents are reconfigured.
            TileKind::Reconfigurable => RECONF_SOCKET,
            TileKind::Empty => Resources::ZERO,
        }
    }

    /// Whether the tile belongs to the static part of a DPR design.
    pub(crate) fn is_static(&self) -> bool {
        !matches!(self, TileKind::Reconfigurable)
    }

    /// Short name used in configuration files.
    pub(crate) fn name(&self) -> String {
        match self {
            TileKind::Cpu => "cpu".into(),
            TileKind::Mem => "mem".into(),
            TileKind::Aux => "aux".into(),
            TileKind::Slm => "slm".into(),
            TileKind::Accel(kind) => format!("accel:{kind}"),
            TileKind::Reconfigurable => "reconf".into(),
            TileKind::Empty => "empty".into(),
        }
    }
}

impl fmt::Display for TileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Runtime state of a reconfigurable tile's wrapper.
#[derive(Debug)]
pub(crate) enum WrapperState {
    /// Nothing loaded (post-boot, or after loading a blanking bitstream).
    Empty,
    /// An accelerator of this kind is configured and coupled to the NoC.
    Configured(AcceleratorKind),
    /// The decoupler isolates the wrapper; reconfiguration may proceed.
    Decoupled {
        /// Kind that was loaded before decoupling, if any (its logic is
        /// still in the fabric until overwritten).
        previous: Option<AcceleratorKind>,
    },
}

impl WrapperState {
    /// The configured accelerator kind, if coupled.
    pub(crate) fn configured_kind(&self) -> Option<AcceleratorKind> {
        match self {
            WrapperState::Configured(kind) => Some(*kind),
            _ => None,
        }
    }

    /// Whether the decoupler currently isolates the wrapper.
    pub(crate) fn is_decoupled(&self) -> bool {
        matches!(self, WrapperState::Decoupled { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_part_matches_table2() {
        // CPU + MEM + AUX = 82,267 LUTs (Table II "Static").
        let total = TileKind::Cpu.static_resources()
            + TileKind::Mem.static_resources()
            + TileKind::Aux.static_resources();
        assert_eq!(total.lut, 82_267);
    }

    #[test]
    fn static_without_cpu_is_close_to_table2() {
        // Table II reports 39,254; tile accounting gives 40,723 (the paper
        // measures a slightly smaller AUX when the CPU's APB fabric is
        // absent). Keep within 5 %.
        let total = TileKind::Mem.static_resources() + TileKind::Aux.static_resources();
        let err = (total.lut as f64 - 39_254.0).abs() / 39_254.0;
        assert!(err < 0.05, "static w/o CPU = {}", total.lut);
    }

    #[test]
    fn reconfigurable_tile_only_counts_its_socket() {
        assert_eq!(TileKind::Reconfigurable.static_resources(), RECONF_SOCKET);
        assert!(!TileKind::Reconfigurable.is_static());
        assert!(TileKind::Cpu.is_static());
    }

    #[test]
    fn accel_tile_includes_socket_overhead() {
        let kind = AcceleratorKind::Conv2d;
        let tile = TileKind::Accel(kind).static_resources();
        assert_eq!(tile.lut, kind.resources().lut + RECONF_SOCKET.lut);
    }

    #[test]
    fn wrapper_state_queries() {
        let empty = WrapperState::Empty;
        assert_eq!(empty.configured_kind(), None);
        assert!(!empty.is_decoupled());
        let dec = WrapperState::Decoupled {
            previous: Some(AcceleratorKind::Mac),
        };
        assert!(dec.is_decoupled());
        let cfg = WrapperState::Configured(AcceleratorKind::Mac);
        assert_eq!(cfg.configured_kind(), Some(AcceleratorKind::Mac));
    }
}
