//! Columnar fabric model.
//!
//! Xilinx fabrics are organized as a grid of clock regions; within each
//! clock-region row the fabric is a sequence of columns, each holding a single
//! resource kind (CLB, BRAM, DSP, ...). Dynamic partial reconfiguration
//! operates at frame granularity, and a frame spans one column within one
//! clock-region row — which is why pblocks for reconfigurable partitions are
//! expressed in (column range) × (clock-region row range) coordinates here.

use crate::error::Error;
use crate::frame::{frames_per_column, FrameAddress};
use crate::part::FpgaPart;
use crate::pblock::Pblock;
use crate::resources::Resources;

/// Resource kind held by a fabric column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Configurable logic block column (LUTs + flip-flops).
    Clb,
    /// Block RAM column.
    Bram,
    /// DSP slice column.
    Dsp,
    /// I/O column — no PR resources, but pblocks may span it.
    Io,
    /// Clocking column — no PR resources, but pblocks may span it.
    Clk,
    /// Configuration column — pblocks must never cover it.
    Cfg,
}

impl ColumnKind {
    /// Resources provided by one column within one clock-region row.
    ///
    /// 7-series geometry: a CLB column holds 50 CLBs of 8 LUTs / 16 FFs, a
    /// BRAM column holds 10 RAMB36, a DSP column holds 20 DSP48 slices.
    pub fn resources_per_row(&self) -> Resources {
        match self {
            ColumnKind::Clb => Resources::new(400, 800, 0, 0),
            ColumnKind::Bram => Resources::new(0, 0, 10, 0),
            ColumnKind::Dsp => Resources::new(0, 0, 0, 20),
            ColumnKind::Io | ColumnKind::Clk | ColumnKind::Cfg => Resources::ZERO,
        }
    }

    /// Whether a reconfigurable pblock may cover this column.
    pub fn reconfigurable(&self) -> bool {
        !matches!(self, ColumnKind::Cfg)
    }
}

/// A columnar model of one FPGA device.
///
/// # Example
///
/// ```
/// use presp_fpga::part::FpgaPart;
///
/// let device = FpgaPart::Vc707.device();
/// // The model approximates the data-sheet capacity within 1%.
/// let modeled = device.total_resources();
/// let nominal = FpgaPart::Vc707.nominal_capacity();
/// let err = (modeled.lut as f64 - nominal.lut as f64).abs() / nominal.lut as f64;
/// assert!(err < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    part: FpgaPart,
    rows: usize,
    columns: Vec<ColumnKind>,
}

impl Device {
    /// Builds the fabric for a part.
    pub fn for_part(part: FpgaPart) -> Device {
        // Column counts per clock-region row chosen so that
        // rows × columns × resources_per_row ≈ the data-sheet capacity.
        let (clb, bram, dsp) = match part {
            // 7 rows: 108*400*7 = 302,400 LUT; 15*10*7 = 1,050 BRAM; 20*20*7 = 2,800 DSP.
            FpgaPart::Vc707 => (108, 15, 20),
            // 15 rows: 197*400*15 = 1,182,000 LUT; 14*10*15 = 2,100; 23*20*15 = 6,900.
            FpgaPart::Vcu118 => (197, 14, 23),
            // 15 rows: 217*400*15 = 1,302,000 LUT; 13*10*15 = 1,950; 30*20*15 = 9,000.
            FpgaPart::Vcu128 => (217, 13, 30),
        };
        let columns = interleave_columns(clb, bram, dsp);
        Device {
            part,
            rows: part.clock_region_rows(),
            columns,
        }
    }

    /// The part this device models.
    pub fn part(&self) -> FpgaPart {
        self.part
    }

    /// Number of clock-region rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of fabric columns per clock-region row.
    pub fn columns(&self) -> usize {
        self.columns.len()
    }

    /// Kind of the column at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.columns()`.
    pub fn column_kind(&self, index: usize) -> ColumnKind {
        self.columns[index]
    }

    /// Total resources of the fabric model.
    pub fn total_resources(&self) -> Resources {
        let per_row: Resources = self.columns.iter().map(|c| c.resources_per_row()).sum();
        per_row * self.rows as u64
    }

    /// Resources enclosed by a pblock.
    ///
    /// # Errors
    ///
    /// Returns an error if the pblock is out of bounds or covers a
    /// non-reconfigurable column.
    pub fn pblock_resources(&self, pblock: &Pblock) -> Result<Resources, Error> {
        self.validate_pblock(pblock)?;
        let mut per_row = Resources::ZERO;
        for col in pblock.col_range() {
            per_row += self.columns[col].resources_per_row();
        }
        Ok(per_row * pblock.row_span() as u64)
    }

    /// Checks DPR legality of a pblock on this device: inside the fabric and
    /// clear of configuration columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PblockOutOfBounds`] or [`Error::IllegalColumn`].
    pub fn validate_pblock(&self, pblock: &Pblock) -> Result<(), Error> {
        if pblock.col_end() > self.columns.len() || pblock.row_end() > self.rows {
            return Err(Error::PblockOutOfBounds {
                detail: format!(
                    "pblock cols {}..{} rows {}..{} on a {}x{} fabric",
                    pblock.col_start(),
                    pblock.col_end(),
                    pblock.row_start(),
                    pblock.row_end(),
                    self.columns.len(),
                    self.rows
                ),
            });
        }
        for col in pblock.col_range() {
            if !self.columns[col].reconfigurable() {
                return Err(Error::IllegalColumn { column: col });
            }
        }
        Ok(())
    }

    /// Enumerates the configuration frames covered by a pblock, in device
    /// address order.
    ///
    /// # Errors
    ///
    /// Returns an error if the pblock is illegal on this device.
    pub fn pblock_frames(&self, pblock: &Pblock) -> Result<Vec<FrameAddress>, Error> {
        self.validate_pblock(pblock)?;
        let mut frames = Vec::new();
        for row in pblock.row_range() {
            for col in pblock.col_range() {
                let n = frames_per_column(self.columns[col]);
                for minor in 0..n {
                    frames.push(FrameAddress::new(row as u32, col as u32, minor as u32));
                }
            }
        }
        Ok(frames)
    }

    /// Total number of configuration frames on the device.
    pub fn total_frames(&self) -> usize {
        self.rows
            * self
                .columns
                .iter()
                .map(|&c| frames_per_column(c))
                .sum::<usize>()
    }

    /// Checks that a frame address exists on this device.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] when the row, column or minor index
    /// is out of range.
    pub fn validate_frame(&self, addr: FrameAddress) -> Result<(), Error> {
        if addr.row as usize >= self.rows {
            return Err(bad_address(format_args!(
                "row {} of {}",
                addr.row, self.rows
            )));
        }
        if addr.column as usize >= self.columns.len() {
            return Err(bad_address(format_args!(
                "column {} of {}",
                addr.column,
                self.columns.len()
            )));
        }
        let minors = frames_per_column(self.columns[addr.column as usize]);
        if addr.minor as usize >= minors {
            return Err(bad_address(format_args!(
                "minor {} of {minors}",
                addr.minor
            )));
        }
        Ok(())
    }

    /// `addr` moved `col_delta` columns: the one rule a relocated stream,
    /// a shifted snapshot and a shifted golden image all follow.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] when the shifted column leaves
    /// the fabric or holds a different kind (the frame geometry would
    /// differ), or `addr` is not a frame of this device.
    pub fn shift_frame(&self, addr: FrameAddress, col_delta: i64) -> Result<FrameAddress, Error> {
        let col = i64::from(addr.column) + col_delta;
        let kind = |c: i64| usize::try_from(c).ok().and_then(|c| self.columns.get(c));
        match (kind(addr.column.into()), kind(col)) {
            (Some(&src), Some(&dst))
                if src == dst
                    && (addr.row as usize) < self.rows
                    && (addr.minor as usize) < frames_per_column(src) =>
            {
                Ok(FrameAddress::new(addr.row, col as u32, addr.minor))
            }
            _ => Err(self.shift_error(addr, col)),
        }
    }

    /// Why [`Device::shift_frame`] refused to move `addr` to column `col`.
    #[cold]
    #[inline(never)]
    fn shift_error(&self, addr: FrameAddress, col: i64) -> Error {
        if col < 0 || col as usize >= self.columns.len() {
            return bad_address(format_args!(
                "shifted column {col} outside the fabric's {} columns",
                self.columns.len()
            ));
        }
        if let Err(e) = self.validate_frame(addr) {
            return e;
        }
        let (src_kind, dst_kind) = (
            self.columns[addr.column as usize],
            self.columns[col as usize],
        );
        bad_address(format_args!(
            "shift maps {src_kind:?} column {} onto {dst_kind:?} column {col}: \
             frame geometry differs",
            addr.column
        ))
    }
}

/// A [`Error::BadFrameAddress`] with `detail`. Built out of line, so the
/// address checks that relocation runs per frame stay small enough to
/// inline.
#[cold]
#[inline(never)]
fn bad_address(detail: std::fmt::Arguments<'_>) -> Error {
    Error::BadFrameAddress {
        detail: detail.to_string(),
    }
}

/// Distributes BRAM and DSP columns evenly among CLB columns (largest-remainder
/// interleaving), with I/O at the edges and the clock + configuration column
/// pair in the middle — a simplified but structurally faithful die layout.
fn interleave_columns(clb: usize, bram: usize, dsp: usize) -> Vec<ColumnKind> {
    // Assign every column of every kind an evenly spaced fractional position
    // and merge by position; exact counts are guaranteed by construction.
    let mut slots: Vec<(f64, ColumnKind)> = Vec::with_capacity(clb + bram + dsp);
    let spread = |kind: ColumnKind, n: usize, slots: &mut Vec<(f64, ColumnKind)>| {
        for i in 0..n {
            // Distinct phase offsets per kind avoid position ties.
            let phase = match kind {
                ColumnKind::Bram => 0.31,
                ColumnKind::Dsp => 0.73,
                _ => 0.5,
            };
            slots.push(((i as f64 + phase) / n as f64, kind));
        }
    };
    spread(ColumnKind::Clb, clb, &mut slots);
    spread(ColumnKind::Bram, bram, &mut slots);
    spread(ColumnKind::Dsp, dsp, &mut slots);
    slots.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("positions are finite"));

    let body = slots.len();
    let mut cols = Vec::with_capacity(body + 4);
    cols.push(ColumnKind::Io);
    for (i, (_, kind)) in slots.into_iter().enumerate() {
        cols.push(kind);
        if i == body / 2 {
            cols.push(ColumnKind::Clk);
            cols.push(ColumnKind::Cfg);
        }
    }
    cols.push(ColumnKind::Io);
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc707_model_close_to_datasheet() {
        let device = FpgaPart::Vc707.device();
        let total = device.total_resources();
        let nominal = FpgaPart::Vc707.nominal_capacity();
        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / b as f64;
        assert!(rel(total.lut, nominal.lut) < 0.01, "lut {total:?}");
        assert!(rel(total.bram, nominal.bram) < 0.03, "bram {total:?}");
        assert!(rel(total.dsp, nominal.dsp) < 0.01, "dsp {total:?}");
    }

    #[test]
    fn all_parts_have_expected_column_mix() {
        for part in FpgaPart::ALL {
            let device = part.device();
            let kinds: Vec<ColumnKind> = (0..device.columns())
                .map(|i| device.column_kind(i))
                .collect();
            assert_eq!(kinds.iter().filter(|&&k| k == ColumnKind::Cfg).count(), 1);
            assert_eq!(kinds.iter().filter(|&&k| k == ColumnKind::Clk).count(), 1);
            assert_eq!(kinds.iter().filter(|&&k| k == ColumnKind::Io).count(), 2);
            assert!(kinds.iter().filter(|&&k| k == ColumnKind::Bram).count() > 5);
            assert!(kinds.iter().filter(|&&k| k == ColumnKind::Dsp).count() > 5);
        }
    }

    #[test]
    fn pblock_over_cfg_column_is_illegal() {
        let device = FpgaPart::Vc707.device();
        let cfg_col = (0..device.columns())
            .find(|&i| device.column_kind(i) == ColumnKind::Cfg)
            .expect("device has a cfg column");
        let pb = Pblock::new(cfg_col, cfg_col + 1, 0, 1).expect("valid rectangle");
        assert_eq!(
            device.validate_pblock(&pb),
            Err(Error::IllegalColumn { column: cfg_col })
        );
    }

    #[test]
    fn pblock_out_of_bounds_is_rejected() {
        let device = FpgaPart::Vc707.device();
        let pb = Pblock::new(0, 4, 0, device.rows() + 1).expect("valid rectangle");
        assert!(matches!(
            device.validate_pblock(&pb),
            Err(Error::PblockOutOfBounds { .. })
        ));
    }

    #[test]
    fn pblock_resources_scale_with_rows() {
        let device = FpgaPart::Vc707.device();
        let one = device
            .pblock_resources(&Pblock::new(1, 20, 0, 1).unwrap())
            .unwrap();
        let two = device
            .pblock_resources(&Pblock::new(1, 20, 0, 2).unwrap())
            .unwrap();
        assert_eq!(two, one * 2);
    }

    #[test]
    fn frame_enumeration_matches_total() {
        let device = FpgaPart::Vc707.device();
        let full = Pblock::new(0, device.columns(), 0, device.rows()).unwrap();
        // The full device rectangle covers the cfg column, so it is not a legal
        // PR pblock; count frames per-column instead.
        assert!(device.validate_pblock(&full).is_err());
        let legal = Pblock::new(0, 10, 0, device.rows()).unwrap();
        let frames = device.pblock_frames(&legal).unwrap();
        let per_row: usize = (0..10)
            .map(|c| frames_per_column(device.column_kind(c)))
            .sum();
        assert_eq!(frames.len(), per_row * device.rows());
    }

    #[test]
    fn shift_frame_keeps_row_minor_and_column_kind() {
        let device = FpgaPart::Vc707.device();
        let cols = device.columns() as u32;
        let kind = |c: u32| device.column_kind(c as usize);
        let src = (1..cols).find(|&c| kind(c) == ColumnKind::Clb).unwrap();
        let dst = (src + 1..cols)
            .find(|&c| kind(c) == ColumnKind::Clb)
            .unwrap();
        let other = (1..cols).find(|&c| kind(c) != ColumnKind::Clb).unwrap();
        let addr = FrameAddress::new(2, src, 3);
        let delta = |to: u32| i64::from(to) - i64::from(src);
        assert_eq!(
            device.shift_frame(addr, delta(dst)),
            Ok(FrameAddress::new(2, dst, 3))
        );
        for bad in [delta(other), -i64::from(src) - 1, delta(cols)] {
            assert!(matches!(
                device.shift_frame(addr, bad),
                Err(Error::BadFrameAddress { .. })
            ));
        }
        // A source off the fabric is refused, not looked up.
        let off = FrameAddress::new(0, cols + 5, 0);
        assert!(matches!(
            device.shift_frame(off, -10),
            Err(Error::BadFrameAddress { .. })
        ));
    }

    #[test]
    fn frame_validation() {
        let device = FpgaPart::Vc707.device();
        assert!(device.validate_frame(FrameAddress::new(0, 1, 0)).is_ok());
        assert!(device.validate_frame(FrameAddress::new(99, 1, 0)).is_err());
        assert!(device
            .validate_frame(FrameAddress::new(0, 9999, 0))
            .is_err());
        assert!(device
            .validate_frame(FrameAddress::new(0, 1, 9999))
            .is_err());
    }
}
