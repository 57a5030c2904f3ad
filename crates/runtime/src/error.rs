//! Error type for the runtime manager.

use presp_accel::catalog::AcceleratorKind;
use presp_soc::config::TileCoord;
use std::fmt;

/// Errors produced by the DPR runtime manager.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// No bitstream is registered for `(tile, accelerator)`.
    BitstreamNotRegistered {
        /// Target tile.
        tile: TileCoord,
        /// Requested accelerator.
        kind: AcceleratorKind,
    },
    /// A bitstream is already registered for `(tile, accelerator)`;
    /// re-registration must go through an explicit replacement.
    AlreadyRegistered {
        /// Target tile.
        tile: TileCoord,
        /// Requested accelerator.
        kind: AcceleratorKind,
    },
    /// The registered bitstream for `(tile, accelerator)` no longer passes
    /// its build-time integrity check — it was corrupted in storage.
    CorruptBitstream {
        /// Target tile.
        tile: TileCoord,
        /// Requested accelerator.
        kind: AcceleratorKind,
    },
    /// An operation was submitted to a tile whose active driver does not
    /// match.
    NoDriver {
        /// Target tile.
        tile: TileCoord,
        /// What the operation needed.
        needed: AcceleratorKind,
    },
    /// The manager was shut down while requests were outstanding.
    ManagerStopped,
    /// Reconfiguration of `(tile, kind)` failed every attempt the recovery
    /// policy allowed.
    RetriesExhausted {
        /// Target tile (left decoupled — isolated from the NoC).
        tile: TileCoord,
        /// Requested accelerator.
        kind: AcceleratorKind,
        /// Attempts made (first try plus retries).
        attempts: u32,
    },
    /// The tile accumulated too many failed reconfigurations and was
    /// quarantined; requests are rejected until it is released.
    TileQuarantined {
        /// The quarantined tile.
        tile: TileCoord,
    },
    /// An application kernel has no tile allocation and CPU fallback was
    /// disabled.
    Unallocated {
        /// The kernel's name.
        kernel: String,
    },
    /// The request's virtual-time deadline elapsed before its commit slot
    /// arrived and CPU fallback could not (or was not allowed to) absorb
    /// it.
    DeadlineExceeded {
        /// The tile the request targeted.
        tile: TileCoord,
    },
    /// The per-tile queue was at capacity and the admission controller
    /// refused (or shed) the request instead of growing the backlog.
    Overloaded {
        /// The tile whose queue was full.
        tile: TileCoord,
    },
    /// Amorphous floorplanning is enabled and the fabric — as currently
    /// fragmented — has no free column span wide enough for the
    /// bitstream's column span. Not transient: retrying without changing
    /// the placement (releasing leases or running the defragmenter)
    /// cannot succeed.
    RegionUnavailable {
        /// The tile whose load was refused.
        tile: TileCoord,
        /// Columns the bitstream's column span needs, holes included.
        width: u32,
    },
    /// SoC-level failure.
    Soc(presp_soc::Error),
}

impl Error {
    /// Whether CPU fallback is the sanctioned response: the accelerator
    /// path is unavailable (quarantined tile, exhausted retries, missing
    /// bitstream), but the computation itself can still run in software.
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            Error::TileQuarantined { .. }
                | Error::RetriesExhausted { .. }
                | Error::BitstreamNotRegistered { .. }
                | Error::CorruptBitstream { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BitstreamNotRegistered { tile, kind } => {
                write!(f, "no bitstream registered for {kind} on tile {tile}")
            }
            Error::AlreadyRegistered { tile, kind } => {
                write!(f, "a {kind} bitstream is already registered on tile {tile}")
            }
            Error::CorruptBitstream { tile, kind } => {
                write!(
                    f,
                    "registered {kind} bitstream for tile {tile} failed its integrity check"
                )
            }
            Error::NoDriver { tile, needed } => {
                write!(f, "tile {tile} has no active {needed} driver")
            }
            Error::ManagerStopped => write!(f, "runtime manager stopped"),
            Error::RetriesExhausted {
                tile,
                kind,
                attempts,
            } => {
                write!(
                    f,
                    "loading {kind} on tile {tile} failed after {attempts} attempts"
                )
            }
            Error::TileQuarantined { tile } => {
                write!(
                    f,
                    "tile {tile} is quarantined after repeated reconfiguration failures"
                )
            }
            Error::Unallocated { kernel } => {
                write!(f, "kernel '{kernel}' is not allocated to any tile")
            }
            Error::DeadlineExceeded { tile } => {
                write!(
                    f,
                    "request for tile {tile} missed its virtual-time deadline"
                )
            }
            Error::Overloaded { tile } => {
                write!(f, "tile {tile} queue is at capacity; request shed")
            }
            Error::RegionUnavailable { tile, width } => {
                write!(
                    f,
                    "no free region span of {width} columns for tile {tile}: \
                     fabric too fragmented"
                )
            }
            Error::Soc(e) => write!(f, "soc error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Soc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<presp_soc::Error> for Error {
    fn from(e: presp_soc::Error) -> Error {
        Error::Soc(e)
    }
}

impl From<presp_accel::Error> for Error {
    fn from(e: presp_accel::Error) -> Error {
        Error::Soc(presp_soc::Error::Accel(e))
    }
}

impl From<presp_fpga::Error> for Error {
    fn from(e: presp_fpga::Error) -> Error {
        Error::Soc(presp_soc::Error::Fpga(e))
    }
}
