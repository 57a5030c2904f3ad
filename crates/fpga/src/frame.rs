//! Configuration-frame addressing.
//!
//! A configuration frame is the smallest reconfigurable unit of the device: a
//! vertical slice of one column within one clock-region row. Frame addresses
//! are ordered (row, column, minor) so that a pblock's frame set is a set of
//! contiguous minor runs — the order Vivado's bitstream generator emits them.

use crate::fabric::ColumnKind;
use std::fmt;

/// Number of configuration frames needed to describe one column within one
/// clock-region row.
///
/// 7-series counts: 36 for CLB columns, 28 for DSP, 28 interconnect + 128
/// content frames for BRAM, and fixed small counts for the special columns.
pub fn frames_per_column(kind: ColumnKind) -> usize {
    match kind {
        ColumnKind::Clb => 36,
        ColumnKind::Dsp => 28,
        ColumnKind::Bram => 28 + 128,
        ColumnKind::Io => 42,
        ColumnKind::Clk => 30,
        ColumnKind::Cfg => 30,
    }
}

/// A frame address: (clock-region row, fabric column, minor frame index).
///
/// This is a simplified FAR — the real register packs block type, top/bottom
/// flag, row, column and minor into 32 bits; the simulation keeps the fields
/// separate and packs only when serializing into a bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameAddress {
    /// Clock-region row.
    pub row: u32,
    /// Fabric column index.
    pub column: u32,
    /// Minor frame index within the column.
    pub minor: u32,
}

impl FrameAddress {
    /// Creates a frame address.
    pub fn new(row: u32, column: u32, minor: u32) -> FrameAddress {
        FrameAddress { row, column, minor }
    }

    /// Packs the address into the 32-bit FAR register layout used by the
    /// bitstream format: `row[31:22] | column[21:8] | minor[7:0]`.
    ///
    /// # Panics
    ///
    /// Panics if a field exceeds its bit budget (rows ≥ 1024, columns ≥ 16384
    /// or minors ≥ 256 do not occur on the modeled parts).
    pub fn pack(&self) -> u32 {
        assert!(self.row < 1 << 10, "row {} exceeds FAR field", self.row);
        assert!(
            self.column < 1 << 14,
            "column {} exceeds FAR field",
            self.column
        );
        assert!(
            self.minor < 1 << 8,
            "minor {} exceeds FAR field",
            self.minor
        );
        (self.row << 22) | (self.column << 8) | self.minor
    }

    /// Unpacks a 32-bit FAR register value.
    pub fn unpack(far: u32) -> FrameAddress {
        FrameAddress {
            row: (far >> 22) & 0x3FF,
            column: (far >> 8) & 0x3FFF,
            minor: far & 0xFF,
        }
    }
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FAR(row={}, col={}, minor={})",
            self.row, self.column, self.minor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bram_columns_have_content_frames() {
        assert!(frames_per_column(ColumnKind::Bram) > frames_per_column(ColumnKind::Clb));
        assert_eq!(frames_per_column(ColumnKind::Bram), 156);
    }

    #[test]
    fn pack_unpack_roundtrip_simple() {
        let a = FrameAddress::new(6, 148, 35);
        assert_eq!(FrameAddress::unpack(a.pack()), a);
    }

    #[test]
    fn ordering_is_row_major() {
        let a = FrameAddress::new(0, 10, 5);
        let b = FrameAddress::new(0, 11, 0);
        let c = FrameAddress::new(1, 0, 0);
        assert!(a < b && b < c);
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrip(row in 0u32..1024, col in 0u32..16384, minor in 0u32..256) {
            let a = FrameAddress::new(row, col, minor);
            prop_assert_eq!(FrameAddress::unpack(a.pack()), a);
        }

        #[test]
        fn pack_preserves_order_within_row(col in 0u32..1000, m1 in 0u32..256, m2 in 0u32..256) {
            let a = FrameAddress::new(0, col, m1);
            let b = FrameAddress::new(0, col, m2);
            prop_assert_eq!(a.pack() < b.pack(), a < b);
        }
    }
}
