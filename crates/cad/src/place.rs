//! Analytic region placement and configuration-frame generation.
//!
//! Placement distributes a module's logic uniformly across the resource
//! columns of its target region (a pblock for a reconfigurable module, the
//! rest of the fabric for the static part). Uniform spread is what an
//! analytic placer converges to at the region granularity this simulation
//! works at, and it yields the two quantities downstream stages need: a
//! feasibility verdict and per-column fill fractions, from which the
//! configuration frames — and therefore partial bitstream sizes and
//! reconfiguration latencies — are derived.

use crate::error::Error;
use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp_fpga::fabric::Device;
use presp_fpga::frame::{frames_per_column, FrameAddress};
use presp_fpga::pblock::Pblock;
use presp_fpga::resources::Resources;

/// Fraction of a fully-utilized column's frames that carry configuration
/// content distinct from the erased background.
///
/// Real frames are sparse: LUT equations, used routing PIPs and initialized
/// BRAM occupy a minority of frame words, and Vivado's compression elides
/// both blank frames and repeated interconnect patterns via multi-frame
/// writes. This density constant calibrates compressed partial-bitstream
/// sizes to the hundreds-of-kilobytes range Table VI reports.
pub const FRAME_CONTENT_DENSITY: f64 = 0.18;

/// Per-kind fill fractions of a placed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillFractions {
    /// CLB-column fill.
    pub lut: f64,
    /// BRAM-column fill.
    pub bram: f64,
    /// DSP-column fill.
    pub dsp: f64,
}

/// A module placed into a region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionPlacement {
    /// The region rectangle.
    pub pblock: Pblock,
    /// Resources the module needed.
    pub placed: Resources,
    /// Capacity of the region.
    pub capacity: Resources,
    /// Uniform fill fractions per resource kind.
    pub fill: FillFractions,
}

impl RegionPlacement {
    /// Overall LUT utilization of the region.
    pub fn utilization(&self) -> f64 {
        self.fill.lut
    }
}

/// Places `need` into `pblock` on `device`, spreading the logic uniformly.
///
/// # Errors
///
/// Returns [`Error::RegionOverflow`] when any resource kind exceeds the
/// region's capacity, or a fabric error for an illegal pblock.
pub fn place_in_region(
    device: &Device,
    module: &str,
    pblock: Pblock,
    need: Resources,
) -> Result<RegionPlacement, Error> {
    let capacity = device.pblock_resources(&pblock)?;
    if !need.fits_in(&capacity) {
        return Err(Error::RegionOverflow {
            module: module.to_string(),
            detail: format!("need {need}, region provides {capacity}"),
        });
    }
    let frac = |n: u64, c: u64| if c == 0 { 0.0 } else { n as f64 / c as f64 };
    Ok(RegionPlacement {
        pblock,
        placed: need,
        capacity,
        fill: FillFractions {
            lut: frac(need.lut, capacity.lut),
            bram: frac(need.bram, capacity.bram),
            dsp: frac(need.dsp, capacity.dsp),
        },
    })
}

/// Deterministic frame-word generator (xorshift64*, seeded per frame):
/// fills `out` with the frame's words.
fn frame_words(seed: u64, out: &mut [u32]) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for word in out {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *word = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32;
    }
}

/// Stages the configuration frames of a placed module into `builder`.
///
/// For every column of the region, `fill × density` of its frames carry
/// deterministic pseudo-random content (seeded by `seed` and the frame
/// address — stable across runs) and the rest stay blank, which the
/// compressed bitstream mode elides. Each frame is generated into one
/// reused buffer that the builder copies.
///
/// # Errors
///
/// Propagates fabric errors for an illegal pblock.
fn stage_placement_frames(
    builder: &mut BitstreamBuilder,
    device: &Device,
    placement: &RegionPlacement,
    seed: u64,
) -> Result<(), Error> {
    let mut content = vec![0u32; device.part().family().frame_words()];
    for row in placement.pblock.row_range() {
        for col in placement.pblock.col_range() {
            let kind = device.column_kind(col);
            let total = frames_per_column(kind);
            let fill = match kind {
                presp_fpga::fabric::ColumnKind::Clb => placement.fill.lut,
                presp_fpga::fabric::ColumnKind::Bram => placement.fill.bram,
                presp_fpga::fabric::ColumnKind::Dsp => placement.fill.dsp,
                _ => 0.0,
            };
            let used = ((total as f64) * fill * FRAME_CONTENT_DENSITY).ceil() as usize;
            for minor in 0..total {
                let addr = FrameAddress::new(row as u32, col as u32, minor as u32);
                if minor < used {
                    frame_words(
                        seed ^ ((row as u64) << 40) ^ ((col as u64) << 16) ^ minor as u64,
                        &mut content,
                    );
                } else {
                    content.fill(0);
                }
                builder.add_frame(addr, &content)?;
            }
        }
    }
    Ok(())
}

/// Builds the partial bitstream of a placed reconfigurable module.
///
/// # Errors
///
/// Propagates fabric errors for an illegal pblock.
pub fn build_partial_bitstream(
    device: &Device,
    placement: &RegionPlacement,
    seed: u64,
    compressed: bool,
) -> Result<Bitstream, Error> {
    let mut builder = BitstreamBuilder::new(device, BitstreamKind::Partial);
    stage_placement_frames(&mut builder, device, placement, seed)?;
    Ok(builder.build(compressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::part::FpgaPart;

    fn device() -> Device {
        FpgaPart::Vc707.device()
    }

    fn wide_pblock(device: &Device) -> Pblock {
        // Columns 1..120 of one clock-region row, skipping the cfg column
        // area would fail; stay left of the middle.
        let _ = device;
        Pblock::new(1, 60, 0, 1).unwrap()
    }

    #[test]
    fn placement_computes_fill_fractions() {
        let d = device();
        let pb = wide_pblock(&d);
        let cap = d.pblock_resources(&pb).unwrap();
        let need = Resources::new(cap.lut / 2, cap.ff / 2, cap.bram / 2, cap.dsp / 2);
        let placement = place_in_region(&d, "m", pb, need).unwrap();
        assert!((placement.fill.lut - 0.5).abs() < 0.05);
        assert!(placement.utilization() > 0.4);
    }

    #[test]
    fn overflow_is_rejected() {
        let d = device();
        let pb = wide_pblock(&d);
        let cap = d.pblock_resources(&pb).unwrap();
        let need = Resources::new(cap.lut + 1, 0, 0, 0);
        assert!(matches!(
            place_in_region(&d, "m", pb, need),
            Err(Error::RegionOverflow { .. })
        ));
    }

    #[test]
    fn frames_cover_whole_region() {
        let d = device();
        let pb = Pblock::new(1, 10, 0, 1).unwrap();
        let placement = place_in_region(&d, "m", pb, Resources::luts(100)).unwrap();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        stage_placement_frames(&mut builder, &d, &placement, 7).unwrap();
        let expected: usize = pb
            .col_range()
            .map(|c| frames_per_column(d.column_kind(c)))
            .sum();
        assert_eq!(builder.frame_count(), expected);
    }

    #[test]
    fn fuller_modules_have_larger_compressed_bitstreams() {
        let d = device();
        let pb = wide_pblock(&d);
        let cap = d.pblock_resources(&pb).unwrap();
        let small = place_in_region(&d, "s", pb, Resources::luts(cap.lut / 10)).unwrap();
        let large = place_in_region(&d, "l", pb, Resources::luts(cap.lut * 8 / 10)).unwrap();
        let bs_small = build_partial_bitstream(&d, &small, 1, true).unwrap();
        let bs_large = build_partial_bitstream(&d, &large, 1, true).unwrap();
        assert!(bs_large.size_bytes() > bs_small.size_bytes());
    }

    #[test]
    fn compression_shrinks_partial_bitstreams() {
        let d = device();
        let pb = wide_pblock(&d);
        let placement = place_in_region(&d, "m", pb, Resources::luts(10_000)).unwrap();
        let raw = build_partial_bitstream(&d, &placement, 3, false).unwrap();
        let compressed = build_partial_bitstream(&d, &placement, 3, true).unwrap();
        assert!(compressed.size_bytes() < raw.size_bytes() / 2);
    }

    #[test]
    fn frame_content_is_deterministic() {
        let d = device();
        let pb = Pblock::new(1, 8, 0, 1).unwrap();
        let placement = place_in_region(&d, "m", pb, Resources::luts(500)).unwrap();
        let words = |seed| {
            build_partial_bitstream(&d, &placement, seed, false)
                .unwrap()
                .words()
                .to_vec()
        };
        assert_eq!(words(42), words(42));
        assert_ne!(words(42), words(43));
    }

    #[test]
    fn wami_sized_pbs_lands_in_table6_range() {
        // A Warp-sized module (34k LUTs) in a pblock provisioned at 80 % fill
        // should produce a compressed pbs in the few-hundred-KB range of
        // Table VI.
        let d = device();
        // ~42.5k LUTs of capacity: 107 CLB-ish columns over one row is the
        // whole row; use 2 rows × ~54 columns instead.
        let pb = Pblock::new(1, 60, 0, 2).unwrap();
        let cap = d.pblock_resources(&pb).unwrap();
        let need = Resources::luts((cap.lut as f64 * 0.8) as u64);
        let placement = place_in_region(&d, "warp", pb, need).unwrap();
        let pbs = build_partial_bitstream(&d, &placement, 9, true).unwrap();
        let kb = pbs.size_bytes() / 1024;
        assert!(kb > 100 && kb < 900, "pbs = {kb} KB");
    }
}
