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

    /// Whether the kernel runs once per LK iteration (the inner loop) rather
    /// than once per frame.
    pub fn per_iteration(&self) -> bool {
        matches!(
            self,
            WamiKernel::Warp | WamiKernel::Subtract | WamiKernel::SdUpdate | WamiKernel::DeltaP
        )
    }
}

impl fmt::Display for WamiKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.index(), self.name())
    }
}

/// The Fig. 3 dataflow: `(producer, consumer)` kernel dependencies.
pub fn dataflow_edges() -> Vec<(WamiKernel, WamiKernel)> {
    use WamiKernel::*;
    vec![
        (Debayer, Grayscale),
        // Template-side precomputation.
        (Grayscale, Gradient),
        (Gradient, SteepestDescent),
        (SteepestDescent, Hessian),
        (Hessian, MatrixInvert),
        // Per-iteration loop.
        (Grayscale, Warp),
        (Warp, Subtract),
        (Subtract, SdUpdate),
        (SteepestDescent, SdUpdate),
        (SdUpdate, DeltaP),
        (MatrixInvert, DeltaP),
        // Final warp + change detection.
        (DeltaP, WarpIwxp),
        (Grayscale, WarpIwxp),
        (WarpIwxp, ChangeDetection),
    ]
}

/// Returns the kernels in a topological order of [`dataflow_edges`].
///
/// # Panics
///
/// Panics if the edge list ever becomes cyclic (a programming error in this
/// crate, guarded by a test).
pub fn topological_order() -> Vec<WamiKernel> {
    let edges = dataflow_edges();
    let mut in_degree = [0usize; 12];
    for &(_, to) in &edges {
        in_degree[to.index() - 1] += 1;
    }
    let mut ready: Vec<WamiKernel> = WamiKernel::ALL
        .iter()
        .copied()
        .filter(|k| in_degree[k.index() - 1] == 0)
        .collect();
    let mut order = Vec::with_capacity(12);
    while let Some(k) = ready.pop() {
        order.push(k);
        for &(from, to) in &edges {
            if from == k {
                let d = &mut in_degree[to.index() - 1];
                *d -= 1;
                if *d == 0 {
                    ready.push(to);
                }
            }
        }
    }
    assert_eq!(order.len(), 12, "WAMI dataflow graph must be acyclic");
    order
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

    #[test]
    fn topological_order_respects_edges() {
        let order = topological_order();
        let pos = |k: WamiKernel| order.iter().position(|&o| o == k).unwrap();
        for (from, to) in dataflow_edges() {
            assert!(pos(from) < pos(to), "{from} must precede {to}");
        }
    }

    #[test]
    fn debayer_is_the_sole_source() {
        let edges = dataflow_edges();
        let consumers: HashSet<WamiKernel> = edges.iter().map(|&(_, to)| to).collect();
        let sources: Vec<WamiKernel> = WamiKernel::ALL
            .iter()
            .copied()
            .filter(|k| !consumers.contains(k))
            .collect();
        assert_eq!(sources, vec![WamiKernel::Debayer]);
    }

    #[test]
    fn change_detection_is_the_sole_sink() {
        let edges = dataflow_edges();
        let producers: HashSet<WamiKernel> = edges.iter().map(|&(from, _)| from).collect();
        let sinks: Vec<WamiKernel> = WamiKernel::ALL
            .iter()
            .copied()
            .filter(|k| !producers.contains(k))
            .collect();
        assert_eq!(sinks, vec![WamiKernel::ChangeDetection]);
    }

    #[test]
    fn inner_loop_kernels_are_marked() {
        assert!(WamiKernel::Warp.per_iteration());
        assert!(!WamiKernel::Hessian.per_iteration());
        assert_eq!(
            WamiKernel::ALL.iter().filter(|k| k.per_iteration()).count(),
            4
        );
    }
}
