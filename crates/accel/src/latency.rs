//! Invocation-latency model.
//!
//! Each accelerator has a fixed start-up cost (register programming, DMA
//! descriptor setup, pipeline fill) plus a per-work-item cost expressed as a
//! rational cycles-per-item, at the SoC clock the paper runs its systems at
//! (78 MHz on the VC707).

use crate::catalog::AcceleratorKind;
use crate::op::AccelOp;
use presp_wami::graph::WamiKernel;

pub use presp_events::SOC_CLOCK_MHZ;

/// Cycles-per-item expressed as a rational to keep the model in integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CyclesPerItem {
    /// Numerator.
    pub num: u64,
    /// Denominator.
    pub den: u64,
}

impl CyclesPerItem {
    const fn new(num: u64, den: u64) -> CyclesPerItem {
        CyclesPerItem { num, den }
    }
}

/// Fixed invocation overhead (cycles) of an accelerator: configuration
/// register writes, DMA descriptor setup and pipeline fill.
pub(crate) fn startup_cycles(kind: AcceleratorKind) -> u64 {
    match kind {
        AcceleratorKind::Mac => 400,
        AcceleratorKind::Cpu => 0,
        _ => 1_200,
    }
}

/// Steady-state initiation cost per work item.
///
/// HLS pipelines sustain close to one item per cycle for streaming kernels;
/// the mathier kernels (Hessian, matrix inversion) run several ops per item
/// in parallel DSP banks, reflected as sub-unit rationals.
pub(crate) fn cycles_per_item(kind: AcceleratorKind) -> CyclesPerItem {
    use WamiKernel::*;
    match kind {
        AcceleratorKind::Mac => CyclesPerItem::new(1, 1),
        AcceleratorKind::Conv2d => CyclesPerItem::new(1, 4),
        AcceleratorKind::Gemm => CyclesPerItem::new(1, 8),
        AcceleratorKind::Fft => CyclesPerItem::new(1, 2),
        AcceleratorKind::Sort => CyclesPerItem::new(1, 1),
        AcceleratorKind::Cpu => CyclesPerItem::new(1, 1),
        AcceleratorKind::Wami(k) => match k {
            Debayer => CyclesPerItem::new(3, 2),
            Grayscale => CyclesPerItem::new(1, 1),
            Gradient => CyclesPerItem::new(1, 1),
            Warp | WarpIwxp => CyclesPerItem::new(2, 1),
            Subtract => CyclesPerItem::new(1, 2),
            SteepestDescent => CyclesPerItem::new(1, 2),
            Hessian => CyclesPerItem::new(1, 4),
            SdUpdate => CyclesPerItem::new(1, 2),
            MatrixInvert => CyclesPerItem::new(4, 1),
            DeltaP => CyclesPerItem::new(2, 1),
            ChangeDetection => CyclesPerItem::new(3, 1),
        },
    }
}

/// Factor by which the in-order Leon3 core is slower than a dedicated
/// accelerator on the same kernel (software fallback path).
pub(crate) const SOFTWARE_SLOWDOWN: u64 = 25;

/// Compute cycles for one invocation of `op` on accelerator `kind`.
pub fn compute_cycles(kind: AcceleratorKind, op: &AccelOp) -> u64 {
    let cpi = cycles_per_item(kind);
    startup_cycles(kind) + op.work_items() * cpi.num / cpi.den
}

/// Compute cycles for running `op` in software on the CPU tile.
pub fn software_cycles(op: &AccelOp) -> u64 {
    let native = op.kind();
    let cpi = cycles_per_item(native);
    SOFTWARE_SLOWDOWN * (op.work_items() * cpi.num / cpi.den).max(1)
}

pub use presp_events::cycles_to_micros;

#[cfg(test)]
mod tests {
    use super::*;
    use presp_wami::image::GrayImage;

    fn warp_op(side: usize) -> AccelOp {
        AccelOp::Warp {
            image: GrayImage::zeroed(side, side),
            params: presp_wami::warp::AffineParams::identity(),
        }
    }

    #[test]
    fn latency_scales_with_work() {
        let kind = AcceleratorKind::Wami(WamiKernel::Warp);
        let small = compute_cycles(kind, &warp_op(16));
        let big = compute_cycles(kind, &warp_op(32));
        assert!(big > small);
        // 4x the pixels → roughly 4x the steady-state cycles.
        let steady_small = small - startup_cycles(kind);
        let steady_big = big - startup_cycles(kind);
        assert_eq!(steady_big, 4 * steady_small);
    }

    #[test]
    fn software_is_much_slower_than_hardware() {
        let op = warp_op(64);
        let hw = compute_cycles(AcceleratorKind::Wami(WamiKernel::Warp), &op);
        let sw = software_cycles(&op);
        assert!(sw > 10 * hw, "sw {sw} vs hw {hw}");
    }

    #[test]
    fn micros_conversion_uses_soc_clock() {
        assert!((cycles_to_micros(78) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_kind_has_a_latency_model() {
        for kind in AcceleratorKind::CHARACTERIZATION
            .iter()
            .chain(AcceleratorKind::wami_all().iter())
        {
            let cpi = cycles_per_item(*kind);
            assert!(cpi.num > 0 && cpi.den > 0);
        }
    }

    #[test]
    fn tiny_ops_still_cost_software_time() {
        let op = AccelOp::MatrixInvert {
            m: presp_wami::matrix::identity6(),
        };
        assert!(software_cycles(&op) >= SOFTWARE_SLOWDOWN);
    }
}
