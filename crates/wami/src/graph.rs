//! The WAMI-App dataflow graph (Fig. 3 of the paper).

use std::fmt;

/// The twelve WAMI accelerator kernels, numbered as in Fig. 3.
///
/// Kernels #3–#11 are the decomposition of the Lucas-Kanade registration
/// stage; the paper splits LK "into multiple accelerators to further
/// parallelize its execution".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WamiKernel {
    /// #1 — Bayer demosaic.
    Debayer,
    /// #2 — RGB → luminance.
    Grayscale,
    /// #3 — template gradients.
    Gradient,
    /// #4 — affine image warp (per LK iteration).
    Warp,
    /// #5 — residual image subtraction.
    Subtract,
    /// #6 — steepest-descent images.
    SteepestDescent,
    /// #7 — Hessian accumulation.
    Hessian,
    /// #8 — steepest-descent update vector.
    SdUpdate,
    /// #9 — 6×6 matrix inversion.
    MatrixInvert,
    /// #10 — Δp solve and parameter composition.
    DeltaP,
    /// #11 — final warp of the input with converged parameters.
    WarpIwxp,
    /// #12 — Gaussian-mixture change detection.
    ChangeDetection,
}

impl WamiKernel {
    /// All kernels, in Fig. 3 index order.
    pub const ALL: [WamiKernel; 12] = [
        WamiKernel::Debayer,
        WamiKernel::Grayscale,
        WamiKernel::Gradient,
        WamiKernel::Warp,
        WamiKernel::Subtract,
        WamiKernel::SteepestDescent,
        WamiKernel::Hessian,
        WamiKernel::SdUpdate,
        WamiKernel::MatrixInvert,
        WamiKernel::DeltaP,
        WamiKernel::WarpIwxp,
        WamiKernel::ChangeDetection,
    ];

    /// 1-based Fig. 3 index.
    pub fn index(&self) -> usize {
        WamiKernel::ALL
            .iter()
            .position(|k| k == self)
            .expect("kernel is in ALL")
            + 1
    }

    /// Kernel for a 1-based Fig. 3 index.
    pub fn from_index(index: usize) -> Option<WamiKernel> {
        WamiKernel::ALL.get(index.checked_sub(1)?).copied()
    }

    /// Short kernel name.
    pub fn name(&self) -> &'static str {
        match self {
            WamiKernel::Debayer => "debayer",
            WamiKernel::Grayscale => "grayscale",
            WamiKernel::Gradient => "gradient",
            WamiKernel::Warp => "warp",
            WamiKernel::Subtract => "subtract",
            WamiKernel::SteepestDescent => "steepest-descent",
            WamiKernel::Hessian => "hessian",
            WamiKernel::SdUpdate => "sd-update",
            WamiKernel::MatrixInvert => "matrix-invert",
            WamiKernel::DeltaP => "delta-p",
            WamiKernel::WarpIwxp => "warp-iwxp",
            WamiKernel::ChangeDetection => "change-detection",
        }
    }
}

impl fmt::Display for WamiKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.index(), self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn indices_are_one_to_twelve() {
        for (i, k) in WamiKernel::ALL.iter().enumerate() {
            assert_eq!(k.index(), i + 1);
            assert_eq!(WamiKernel::from_index(i + 1), Some(*k));
        }
        assert_eq!(WamiKernel::from_index(0), None);
        assert_eq!(WamiKernel::from_index(13), None);
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<&str> = WamiKernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 12);
    }
}
