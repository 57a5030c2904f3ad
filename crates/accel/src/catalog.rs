//! Accelerator kinds and resource profiles.

use presp_fpga::resources::Resources;
use presp_wami::graph::WamiKernel;
use std::fmt;

/// Every accelerator (and the relocatable CPU tile) known to PR-ESP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AcceleratorKind {
    /// Multiply-accumulate — the SOC_1 characterization accelerator.
    Mac,
    /// 2-D convolution (Stratus HLS, SystemC).
    Conv2d,
    /// Dense matrix multiply (Stratus HLS, SystemC).
    Gemm,
    /// Fast Fourier transform (Stratus HLS, SystemC).
    Fft,
    /// Vector sort (Stratus HLS, SystemC).
    Sort,
    /// One of the twelve WAMI-App accelerators (Fig. 3).
    Wami(WamiKernel),
    /// The Leon3 CPU tile — reconfigurable in SoC_D / SOC_4 to shrink the
    /// static region (the paper's Class 2.1 designs).
    Cpu,
}

impl AcceleratorKind {
    /// The five Table II characterization accelerators.
    pub const CHARACTERIZATION: [AcceleratorKind; 5] = [
        AcceleratorKind::Mac,
        AcceleratorKind::Conv2d,
        AcceleratorKind::Gemm,
        AcceleratorKind::Fft,
        AcceleratorKind::Sort,
    ];

    /// All twelve WAMI accelerators in Fig. 3 order.
    #[cfg(test)]
    pub(crate) fn wami_all() -> [AcceleratorKind; 12] {
        WamiKernel::ALL.map(AcceleratorKind::Wami)
    }

    /// The WAMI accelerator with 1-based Fig. 3 index `index`.
    pub fn wami(index: usize) -> Option<AcceleratorKind> {
        WamiKernel::from_index(index).map(AcceleratorKind::Wami)
    }

    /// Resource profile.
    ///
    /// LUT counts for the characterization accelerators, the CPU tile and
    /// the WAMI set come from Table II and the DESIGN.md Fig. 3 substitute
    /// (the figure's annotations are not machine-readable; the synthesized
    /// values preserve every class constraint in Tables III–VI).
    pub fn resources(&self) -> Resources {
        use WamiKernel::*;
        match self {
            AcceleratorKind::Mac => Resources::new(2_450, 3_150, 2, 5),
            AcceleratorKind::Conv2d => Resources::new(36_741, 47_800, 48, 96),
            AcceleratorKind::Gemm => Resources::new(30_617, 40_900, 64, 128),
            AcceleratorKind::Fft => Resources::new(33_690, 45_300, 72, 64),
            AcceleratorKind::Sort => Resources::new(20_468, 26_400, 36, 0),
            AcceleratorKind::Cpu => Resources::new(41_544, 34_800, 64, 4),
            AcceleratorKind::Wami(k) => match k {
                Debayer => Resources::new(9_500, 12_400, 8, 4),
                Grayscale => Resources::new(6_200, 8_000, 4, 9),
                Gradient => Resources::new(14_800, 19_200, 12, 16),
                Warp => Resources::new(34_000, 44_500, 40, 72),
                Subtract => Resources::new(5_800, 7_500, 4, 0),
                SteepestDescent => Resources::new(25_500, 33_200, 24, 48),
                Hessian => Resources::new(30_000, 39_100, 16, 84),
                SdUpdate => Resources::new(24_000, 31_300, 16, 60),
                MatrixInvert => Resources::new(21_500, 28_000, 8, 36),
                DeltaP => Resources::new(27_000, 35_200, 12, 54),
                WarpIwxp => Resources::new(20_400, 26_600, 24, 42),
                ChangeDetection => Resources::new(18_600, 24_200, 32, 24),
            },
        }
    }

    /// Short name used in reports and RTL hierarchies.
    pub fn name(&self) -> &'static str {
        match self {
            AcceleratorKind::Mac => "mac",
            AcceleratorKind::Conv2d => "conv2d",
            AcceleratorKind::Gemm => "gemm",
            AcceleratorKind::Fft => "fft",
            AcceleratorKind::Sort => "sort",
            AcceleratorKind::Cpu => "cpu",
            AcceleratorKind::Wami(k) => WAMI_NAMES[k.index() - 1],
        }
    }
}

/// The WAMI accelerator names in Fig. 3 order: `wami_` and the kernel
/// name with `-` spelled `_`.
const WAMI_NAMES: [&str; 12] = [
    "wami_debayer",
    "wami_grayscale",
    "wami_gradient",
    "wami_warp",
    "wami_subtract",
    "wami_steepest_descent",
    "wami_hessian",
    "wami_sd_update",
    "wami_matrix_invert",
    "wami_delta_p",
    "wami_warp_iwxp",
    "wami_change_detection",
];

impl fmt::Display for AcceleratorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lut_counts() {
        // The exact values reported in Table II of the paper.
        assert_eq!(AcceleratorKind::Mac.resources().lut, 2_450);
        assert_eq!(AcceleratorKind::Conv2d.resources().lut, 36_741);
        assert_eq!(AcceleratorKind::Gemm.resources().lut, 30_617);
        assert_eq!(AcceleratorKind::Fft.resources().lut, 33_690);
        assert_eq!(AcceleratorKind::Sort.resources().lut, 20_468);
        assert_eq!(AcceleratorKind::Cpu.resources().lut, 41_544);
    }

    #[test]
    fn wami_indices_round_trip() {
        for i in 1..=12 {
            let acc = AcceleratorKind::wami(i).unwrap();
            match acc {
                AcceleratorKind::Wami(k) => assert_eq!(k.index(), i),
                other => panic!("expected WAMI accelerator, got {other}"),
            }
        }
        assert_eq!(AcceleratorKind::wami(0), None);
        assert_eq!(AcceleratorKind::wami(13), None);
    }

    #[test]
    fn wami_class_constraints_hold() {
        // The synthesized WAMI LUT profile must keep the paper's Table IV
        // class memberships (γ computed against the static sizes used by
        // presp-core; here we check the raw sums that drive them).
        let sum = |idxs: &[usize]| -> u64 {
            idxs.iter()
                .map(|&i| AcceleratorKind::wami(i).unwrap().resources().lut)
                .sum()
        };
        let soc_a = sum(&[4, 8, 10, 9]); // Class 1.2: γ > 1 for static ≈ 85k
        let soc_b = sum(&[2, 3, 11, 1]); // Class 1.1: γ < 1
        let soc_c = sum(&[7, 11, 8, 2]); // Class 1.3: γ ≈ 1
        assert!(soc_a > 100_000, "SoC_A reconfigurable total {soc_a}");
        assert!(soc_b < 60_000, "SoC_B reconfigurable total {soc_b}");
        assert!(
            soc_c > 75_000 && soc_c < 90_000,
            "SoC_C reconfigurable total {soc_c}"
        );
    }

    #[test]
    fn wami_names_spell_the_kernel_names() {
        for kind in AcceleratorKind::wami_all() {
            let AcceleratorKind::Wami(k) = kind else {
                unreachable!()
            };
            assert_eq!(kind.name(), format!("wami_{}", k.name().replace('-', "_")));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = AcceleratorKind::CHARACTERIZATION
            .iter()
            .map(|a| a.name())
            .chain(AcceleratorKind::wami_all().iter().map(|a| a.name()))
            .chain(std::iter::once(AcceleratorKind::Cpu.name()))
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_accelerator_has_nonzero_logic() {
        for acc in AcceleratorKind::CHARACTERIZATION
            .iter()
            .chain(AcceleratorKind::wami_all().iter())
        {
            let r = acc.resources();
            assert!(r.lut > 0 && r.ff > 0, "{acc} has empty profile");
        }
    }
}
