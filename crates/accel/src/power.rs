//! Power model.
//!
//! Per-accelerator dynamic power scales with the logic the accelerator
//! toggles (LUTs and DSPs dominate at a fixed clock); leakage scales with
//! the fabric area a tile occupies whether or not it computes. The Fig. 4
//! energy-efficiency trend — fewer, busier reconfigurable tiles beat many
//! idle-leaking ones — emerges from exactly these two terms.

use crate::catalog::AcceleratorKind;
use presp_fpga::resources::Resources;

/// Dynamic power density of active logic, watts per LUT at 78 MHz.
pub(crate) const DYNAMIC_W_PER_LUT: f64 = 6.0e-6;
/// Extra dynamic power per active DSP slice, watts.
pub(crate) const DYNAMIC_W_PER_DSP: f64 = 9.0e-4;
/// Leakage plus idle clock-tree power per provisioned LUT, watts. Every
/// fabric region that is clocked (static tiles and floorplanned
/// reconfigurable regions) pays this whether or not it computes — the term
/// behind Fig. 4's "fewer reconfigurable tiles are more energy-efficient".
pub(crate) const LEAKAGE_W_PER_LUT: f64 = 2.0e-5;
/// Power drawn by the configuration engine while a partial bitstream
/// streams through the ICAP, watts.
pub const RECONFIG_POWER_W: f64 = 0.35;
/// Board-level constant power (oscillators, DRAM PHY), watts.
pub const BASE_POWER_W: f64 = 0.3;

/// Dynamic power of an accelerator while computing, in watts.
pub fn dynamic_power_w(kind: AcceleratorKind) -> f64 {
    let r = kind.resources();
    let base = r.lut as f64 * DYNAMIC_W_PER_LUT + r.dsp as f64 * DYNAMIC_W_PER_DSP;
    match kind {
        // The CPU tile burns power on fetch/decode beyond its datapath.
        AcceleratorKind::Cpu => base + 0.25,
        _ => base,
    }
}

/// Leakage of a provisioned fabric region, in watts.
pub fn leakage_w(resources: &Resources) -> f64 {
    resources.lut as f64 * LEAKAGE_W_PER_LUT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_accelerators_draw_more_power() {
        assert!(dynamic_power_w(AcceleratorKind::Conv2d) > dynamic_power_w(AcceleratorKind::Mac));
    }

    #[test]
    fn power_magnitudes_are_plausible() {
        for kind in AcceleratorKind::CHARACTERIZATION {
            let p = dynamic_power_w(kind);
            assert!(p > 0.001 && p < 2.0, "{kind}: {p} W");
        }
        let cpu = dynamic_power_w(AcceleratorKind::Cpu);
        assert!(cpu > 0.3 && cpu < 2.0, "cpu: {cpu} W");
    }

    #[test]
    fn leakage_scales_with_area() {
        let small = leakage_w(&Resources::luts(10_000));
        let big = leakage_w(&Resources::luts(40_000));
        assert!((big - 4.0 * small).abs() < 1e-12);
    }
}
