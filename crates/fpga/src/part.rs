//! Supported FPGA parts and their headline capacities.

use crate::fabric::Device;
use crate::resources::Resources;
use std::fmt;

/// Configuration-architecture family of a part.
///
/// The family decides the ICAP primitive (ICAPE2 vs ICAPE3) and the
/// configuration frame geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Xilinx 7-series (VC707). 101-word frames, ICAPE2.
    Series7,
    /// Xilinx UltraScale+ (VCU118, VCU128). 123-word frames, ICAPE3.
    UltraScalePlus,
}

impl Family {
    /// Number of 32-bit words in one configuration frame.
    pub fn frame_words(&self) -> usize {
        match self {
            Family::Series7 => 101,
            Family::UltraScalePlus => 123,
        }
    }
}

/// The evaluation boards supported by PR-ESP (Section IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpgaPart {
    /// Xilinx VC707 (XC7VX485T, 7-series) — the paper's evaluation board.
    Vc707,
    /// Xilinx VCU118 (XCVU9P, UltraScale+).
    Vcu118,
    /// Xilinx VCU128 (XCVU37P, UltraScale+).
    Vcu128,
}

impl FpgaPart {
    /// All supported parts.
    #[cfg(test)]
    pub(crate) const ALL: [FpgaPart; 3] = [FpgaPart::Vc707, FpgaPart::Vcu118, FpgaPart::Vcu128];

    /// Silicon device name.
    pub(crate) fn device_name(&self) -> &'static str {
        match self {
            FpgaPart::Vc707 => "xc7vx485t",
            FpgaPart::Vcu118 => "xcvu9p",
            FpgaPart::Vcu128 => "xcvu37p",
        }
    }

    /// Configuration family.
    pub fn family(&self) -> Family {
        match self {
            FpgaPart::Vc707 => Family::Series7,
            FpgaPart::Vcu118 | FpgaPart::Vcu128 => Family::UltraScalePlus,
        }
    }

    /// JTAG IDCODE checked by the configuration port.
    pub fn idcode(&self) -> u32 {
        match self {
            FpgaPart::Vc707 => 0x0368_7093,
            FpgaPart::Vcu118 => 0x14B3_1093,
            FpgaPart::Vcu128 => 0x14B7_9093,
        }
    }

    /// Nominal device capacity as published in the data sheet.
    ///
    /// The columnar [`Device`] model approximates these
    /// within a fraction of a percent; `LUT_tot` in the paper's Eq. (1) is the
    /// *nominal* capacity, so κ/α_av computations use this value.
    pub fn nominal_capacity(&self) -> Resources {
        match self {
            FpgaPart::Vc707 => Resources::new(303_600, 607_200, 1_030, 2_800),
            FpgaPart::Vcu118 => Resources::new(1_182_240, 2_364_480, 2_160, 6_840),
            FpgaPart::Vcu128 => Resources::new(1_303_680, 2_607_360, 2_016, 9_024),
        }
    }

    /// Number of clock-region rows of the fabric model.
    pub(crate) fn clock_region_rows(&self) -> usize {
        match self {
            FpgaPart::Vc707 => 7,
            FpgaPart::Vcu118 | FpgaPart::Vcu128 => 15,
        }
    }

    /// Builds the columnar fabric model for this part.
    pub fn device(&self) -> Device {
        Device::for_part(*self)
    }
}

impl fmt::Display for FpgaPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let board = match self {
            FpgaPart::Vc707 => "VC707",
            FpgaPart::Vcu118 => "VCU118",
            FpgaPart::Vcu128 => "VCU128",
        };
        write!(f, "{board} ({})", self.device_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc707_matches_paper_capacity() {
        // κ = 82267 / 303600 = 27.1% is the paper's SOC_2 static fraction.
        let cap = FpgaPart::Vc707.nominal_capacity();
        assert_eq!(cap.lut, 303_600);
        let kappa = 82_267.0 / cap.lut as f64;
        assert!((kappa - 0.271).abs() < 0.001);
    }

    #[test]
    fn families_are_consistent() {
        assert_eq!(FpgaPart::Vc707.family(), Family::Series7);
        assert_eq!(FpgaPart::Vcu118.family(), Family::UltraScalePlus);
        assert_eq!(Family::Series7.frame_words(), 101);
        assert_eq!(Family::UltraScalePlus.frame_words(), 123);
    }

    #[test]
    fn idcodes_are_unique() {
        let mut codes: Vec<u32> = FpgaPart::ALL.iter().map(|p| p.idcode()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), FpgaPart::ALL.len());
    }

    #[test]
    fn display_names_mention_board() {
        assert!(format!("{}", FpgaPart::Vc707).contains("VC707"));
    }
}
