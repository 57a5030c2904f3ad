//! Behavioral accelerator execution.
//!
//! Each accelerator computes *real* results: the characterization
//! accelerators implement their algorithms directly (dot product, 2-D
//! convolution, GEMM, radix-2 FFT, merge sort) and the WAMI accelerators
//! delegate to the golden kernels in [`presp_wami`]. The SoC simulator runs
//! these behaviors when an accelerator tile is started, so a full-system run
//! produces the same numbers as the software pipeline.

use crate::catalog::AcceleratorKind;
use crate::error::Error;
use presp_wami::change_detection::{changed_pixels, ChangeDetector};
use presp_wami::debayer::debayer;
use presp_wami::gradient::{gradient, Gradients};
use presp_wami::graph::WamiKernel;
use presp_wami::grayscale::grayscale;
use presp_wami::image::{BayerImage, GrayImage, RgbImage};
use presp_wami::lucas_kanade::{
    delta_p, hessian, sd_update, steepest_descent, update_params, SdImages,
};
use presp_wami::matrix::{invert6, Mat6, Vec6};
use presp_wami::warp::{subtract, warp_image, AffineParams};

/// An operation submitted to an accelerator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AccelOp {
    /// Dot product of two equal-length vectors.
    Mac {
        /// First operand.
        a: Vec<f32>,
        /// Second operand.
        b: Vec<f32>,
    },
    /// 2-D convolution of an image with a square kernel (clamped borders).
    Conv2d {
        /// Input image.
        image: GrayImage,
        /// Row-major square kernel of odd side `side`.
        kernel: Vec<f32>,
        /// Kernel side length (odd).
        side: usize,
    },
    /// Dense matrix multiply: `a` is `m×k`, `b` is `k×n`, both row-major.
    Gemm {
        /// Rows of `a`.
        m: usize,
        /// Columns of `a` / rows of `b`.
        k: usize,
        /// Columns of `b`.
        n: usize,
        /// Left operand, row-major `m×k`.
        a: Vec<f32>,
        /// Right operand, row-major `k×n`.
        b: Vec<f32>,
    },
    /// In-place radix-2 FFT (length must be a power of two).
    Fft {
        /// Real parts.
        re: Vec<f32>,
        /// Imaginary parts.
        im: Vec<f32>,
    },
    /// Ascending sort.
    Sort {
        /// Data to sort.
        data: Vec<f32>,
    },
    /// Bayer demosaic (WAMI #1).
    Debayer {
        /// Raw sensor frame.
        raw: BayerImage,
    },
    /// RGB → luminance (WAMI #2).
    Grayscale {
        /// Demosaiced frame.
        rgb: RgbImage,
    },
    /// Template gradients (WAMI #3).
    Gradient {
        /// Template image.
        image: GrayImage,
    },
    /// Affine warp (WAMI #4 / #11).
    Warp {
        /// Image to warp.
        image: GrayImage,
        /// Warp parameters.
        params: AffineParams,
    },
    /// Residual subtraction (WAMI #5).
    Subtract {
        /// Minuend.
        a: GrayImage,
        /// Subtrahend.
        b: GrayImage,
    },
    /// Steepest-descent images (WAMI #6).
    SteepestDescent {
        /// Template gradients.
        grad: Gradients,
    },
    /// Hessian accumulation (WAMI #7).
    Hessian {
        /// Steepest-descent images.
        sd: SdImages,
    },
    /// SD update vector (WAMI #8).
    SdUpdate {
        /// Steepest-descent images.
        sd: SdImages,
        /// Residual image.
        error: GrayImage,
    },
    /// 6×6 matrix inversion (WAMI #9).
    MatrixInvert {
        /// Matrix to invert.
        m: Mat6,
    },
    /// Δp solve + inverse-compositional parameter update (WAMI #10).
    DeltaP {
        /// Inverted Hessian.
        h_inv: Mat6,
        /// SD update vector.
        b: Vec6,
        /// Current parameters.
        params: AffineParams,
    },
    /// Gaussian-mixture change detection (WAMI #12).
    ///
    /// The per-pixel background model lives in DRAM and flows through the
    /// operation — the accelerator itself is stateless, so the model
    /// survives the accelerator being swapped out of its reconfigurable
    /// tile.
    ChangeDetection {
        /// Registered frame.
        frame: GrayImage,
        /// Background model (updated copy returned in the result).
        model: Box<ChangeDetector>,
    },
}

impl AccelOp {
    /// The accelerator kind that executes this operation.
    pub fn kind(&self) -> AcceleratorKind {
        use AcceleratorKind as A;
        use WamiKernel as W;
        match self {
            AccelOp::Mac { .. } => A::Mac,
            AccelOp::Conv2d { .. } => A::Conv2d,
            AccelOp::Gemm { .. } => A::Gemm,
            AccelOp::Fft { .. } => A::Fft,
            AccelOp::Sort { .. } => A::Sort,
            AccelOp::Debayer { .. } => A::Wami(W::Debayer),
            AccelOp::Grayscale { .. } => A::Wami(W::Grayscale),
            AccelOp::Gradient { .. } => A::Wami(W::Gradient),
            AccelOp::Warp { .. } => A::Wami(W::Warp),
            AccelOp::Subtract { .. } => A::Wami(W::Subtract),
            AccelOp::SteepestDescent { .. } => A::Wami(W::SteepestDescent),
            AccelOp::Hessian { .. } => A::Wami(W::Hessian),
            AccelOp::SdUpdate { .. } => A::Wami(W::SdUpdate),
            AccelOp::MatrixInvert { .. } => A::Wami(W::MatrixInvert),
            AccelOp::DeltaP { .. } => A::Wami(W::DeltaP),
            AccelOp::ChangeDetection { .. } => A::Wami(W::ChangeDetection),
        }
    }

    /// Whether `kind` can execute this operation.
    ///
    /// The warp accelerators #4 and #11 share the warp datapath, so a
    /// [`AccelOp::Warp`] runs on either.
    pub fn runs_on(&self, kind: AcceleratorKind) -> bool {
        if self.kind() == kind {
            return true;
        }
        matches!(
            (self, kind),
            (
                AccelOp::Warp { .. },
                AcceleratorKind::Wami(WamiKernel::WarpIwxp)
            )
        )
    }

    /// Abstract work size — the unit count the latency model scales with.
    pub(crate) fn work_items(&self) -> u64 {
        match self {
            AccelOp::Mac { a, .. } => a.len() as u64,
            AccelOp::Conv2d { image, side, .. } => (image.len() * side * side) as u64,
            AccelOp::Gemm { m, k, n, .. } => (m * k * n) as u64,
            AccelOp::Fft { re, .. } => {
                let n = re.len() as u64;
                n * n.max(2).ilog2() as u64
            }
            AccelOp::Sort { data } => {
                let n = data.len() as u64;
                n * n.max(2).ilog2() as u64
            }
            AccelOp::Debayer { raw } => raw.len() as u64,
            AccelOp::Grayscale { rgb } => rgb.len() as u64,
            AccelOp::Gradient { image } => image.len() as u64,
            AccelOp::Warp { image, .. } => image.len() as u64,
            AccelOp::Subtract { a, .. } => a.len() as u64,
            AccelOp::SteepestDescent { grad } => 6 * grad.dx.len() as u64,
            AccelOp::Hessian { sd } => 21 * sd.sd[0].len() as u64,
            AccelOp::SdUpdate { sd, .. } => 6 * sd.sd[0].len() as u64,
            AccelOp::MatrixInvert { .. } => 6 * 6 * 6,
            AccelOp::DeltaP { .. } => 6 * 6 + 12,
            AccelOp::ChangeDetection { frame, .. } => frame.len() as u64,
        }
    }

    /// Bytes transferred from memory into the accelerator (input DMA).
    pub fn input_bytes(&self) -> u64 {
        match self {
            AccelOp::Mac { a, b } => 4 * (a.len() + b.len()) as u64,
            AccelOp::Conv2d { image, kernel, .. } => 4 * (image.len() + kernel.len()) as u64,
            AccelOp::Gemm { a, b, .. } => 4 * (a.len() + b.len()) as u64,
            AccelOp::Fft { re, im } => 4 * (re.len() + im.len()) as u64,
            AccelOp::Sort { data } => 4 * data.len() as u64,
            AccelOp::Debayer { raw } => 2 * raw.len() as u64,
            AccelOp::Grayscale { rgb } => 12 * rgb.len() as u64,
            AccelOp::Gradient { image } => 4 * image.len() as u64,
            AccelOp::Warp { image, .. } => 4 * image.len() as u64 + 48,
            AccelOp::Subtract { a, b } => 4 * (a.len() + b.len()) as u64,
            AccelOp::SteepestDescent { grad } => 8 * grad.dx.len() as u64,
            AccelOp::Hessian { sd } => 24 * sd.sd[0].len() as u64,
            AccelOp::SdUpdate { sd, error } => (24 * sd.sd[0].len() + 4 * error.len()) as u64,
            AccelOp::MatrixInvert { .. } => 36 * 8,
            AccelOp::DeltaP { .. } => 36 * 8 + 6 * 8 + 48,
            AccelOp::ChangeDetection { frame, .. } => (4 + 36) * frame.len() as u64,
        }
    }

    /// Bytes transferred from the accelerator back to memory (output DMA).
    pub fn output_bytes(&self) -> u64 {
        match self {
            AccelOp::Mac { .. } => 4,
            AccelOp::Conv2d { image, .. } => 4 * image.len() as u64,
            AccelOp::Gemm { m, n, .. } => 4 * (m * n) as u64,
            AccelOp::Fft { re, im } => 4 * (re.len() + im.len()) as u64,
            AccelOp::Sort { data } => 4 * data.len() as u64,
            AccelOp::Debayer { raw } => 12 * raw.len() as u64,
            AccelOp::Grayscale { rgb } => 4 * rgb.len() as u64,
            AccelOp::Gradient { image } => 8 * image.len() as u64,
            AccelOp::Warp { image, .. } => 4 * image.len() as u64,
            AccelOp::Subtract { a, .. } => 4 * a.len() as u64,
            AccelOp::SteepestDescent { grad } => 24 * grad.dx.len() as u64,
            AccelOp::Hessian { .. } => 36 * 8,
            AccelOp::SdUpdate { .. } => 6 * 8,
            AccelOp::MatrixInvert { .. } => 36 * 8,
            AccelOp::DeltaP { .. } => 48,
            AccelOp::ChangeDetection { frame, .. } => 36 * frame.len() as u64 + 8,
        }
    }
}

/// A value produced by an accelerator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AccelValue {
    /// A single scalar (MAC).
    Scalar(f32),
    /// A vector (sorted data, FFT halves, GEMM output, ...).
    Vector(Vec<f32>),
    /// Two vectors (FFT real/imaginary output).
    VectorPair(Vec<f32>, Vec<f32>),
    /// A grayscale image.
    Image(GrayImage),
    /// An RGB image.
    Rgb(RgbImage),
    /// Gradient pair.
    Gradients(Gradients),
    /// Steepest-descent images.
    Sd(SdImages),
    /// A 6×6 matrix.
    Mat(Mat6),
    /// A length-6 vector.
    Vec6(Vec6),
    /// Affine parameters.
    Params(AffineParams),
    /// Change-detection result: changed-pixel count plus the updated
    /// background model (written back to DRAM).
    ChangeDetection {
        /// Pixels flagged as changed.
        changed: usize,
        /// Updated background model.
        model: Box<ChangeDetector>,
    },
}

/// An accelerator instance bound to a tile.
///
/// Instances are stateless between invocations: anything that must survive
/// a reconfiguration (like the change-detection background model) travels
/// through the operations themselves, mirroring how ESP accelerators keep
/// their working set in DRAM.
#[derive(Debug)]
pub struct AccelInstance {
    kind: AcceleratorKind,
}

impl AccelInstance {
    /// Instantiates an accelerator of `kind` (freshly configured: no state).
    pub fn new(kind: AcceleratorKind) -> AccelInstance {
        AccelInstance { kind }
    }

    /// Executes one operation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongOperation`] when the operation does not match
    /// this accelerator, [`Error::BadOperands`] on shape mismatches, and
    /// kernel errors from the underlying WAMI implementations.
    pub fn execute(&mut self, op: &AccelOp) -> Result<AccelValue, Error> {
        if !op.runs_on(self.kind) {
            return Err(Error::WrongOperation {
                accelerator: self.kind.name(),
                operation: format!("{op:?}").chars().take(32).collect(),
            });
        }
        match op {
            AccelOp::Mac { a, b } => {
                if a.len() != b.len() {
                    return Err(Error::BadOperands {
                        detail: format!("mac operands {} vs {}", a.len(), b.len()),
                    });
                }
                Ok(AccelValue::Scalar(
                    a.iter().zip(b).map(|(x, y)| x * y).sum(),
                ))
            }
            AccelOp::Conv2d {
                image,
                kernel,
                side,
            } => {
                if side % 2 == 0 || kernel.len() != side * side {
                    return Err(Error::BadOperands {
                        detail: format!("conv kernel {}x{} with {} taps", side, side, kernel.len()),
                    });
                }
                Ok(AccelValue::Image(convolve2d(image, kernel, *side)))
            }
            AccelOp::Gemm { m, k, n, a, b } => {
                if a.len() != m * k || b.len() != k * n {
                    return Err(Error::BadOperands {
                        detail: format!(
                            "gemm {}x{} · {}x{} with {}/{} elements",
                            m,
                            k,
                            k,
                            n,
                            a.len(),
                            b.len()
                        ),
                    });
                }
                Ok(AccelValue::Vector(gemm(*m, *k, *n, a, b)))
            }
            AccelOp::Fft { re, im } => {
                if re.len() != im.len() || !re.len().is_power_of_two() {
                    return Err(Error::BadOperands {
                        detail: format!(
                            "fft lengths {}/{} (need equal power of two)",
                            re.len(),
                            im.len()
                        ),
                    });
                }
                let (r, i) = fft(re.clone(), im.clone());
                Ok(AccelValue::VectorPair(r, i))
            }
            AccelOp::Sort { data } => {
                let mut out = data.clone();
                out.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                Ok(AccelValue::Vector(out))
            }
            AccelOp::Debayer { raw } => Ok(AccelValue::Rgb(debayer(raw)?)),
            AccelOp::Grayscale { rgb } => Ok(AccelValue::Image(grayscale(rgb)?)),
            AccelOp::Gradient { image } => Ok(AccelValue::Gradients(gradient(image)?)),
            AccelOp::Warp { image, params } => Ok(AccelValue::Image(warp_image(image, params)?)),
            AccelOp::Subtract { a, b } => Ok(AccelValue::Image(subtract(a, b)?)),
            AccelOp::SteepestDescent { grad } => Ok(AccelValue::Sd(steepest_descent(grad)?)),
            AccelOp::Hessian { sd } => Ok(AccelValue::Mat(hessian(sd))),
            AccelOp::SdUpdate { sd, error } => Ok(AccelValue::Vec6(sd_update(sd, error)?)),
            AccelOp::MatrixInvert { m } => Ok(AccelValue::Mat(invert6(m)?)),
            AccelOp::DeltaP { h_inv, b, params } => {
                let dp = delta_p(h_inv, b);
                Ok(AccelValue::Params(update_params(params, &dp)?))
            }
            AccelOp::ChangeDetection { frame, model } => {
                let mut model = model.clone();
                let mask = model.update(frame)?;
                Ok(AccelValue::ChangeDetection {
                    changed: changed_pixels(&mask),
                    model,
                })
            }
        }
    }
}

/// 2-D convolution with clamped borders.
fn convolve2d(image: &GrayImage, kernel: &[f32], side: usize) -> GrayImage {
    let (w, h) = image.dims();
    let r = (side / 2) as isize;
    let mut out = GrayImage::zeroed(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0f32;
            for ky in 0..side {
                for kx in 0..side {
                    let sx = x as isize + kx as isize - r;
                    let sy = y as isize + ky as isize - r;
                    acc += kernel[ky * side + kx] * image.get_clamped(sx, sy);
                }
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Row-major dense matrix multiply.
fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += aik * b[kk * n + j];
            }
        }
    }
    out
}

/// Iterative radix-2 decimation-in-time FFT.
fn fft(mut re: Vec<f32>, mut im: Vec<f32>) -> (Vec<f32>, Vec<f32>) {
    let n = re.len();
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f32::consts::PI / len as f32;
        for start in (0..n).step_by(len) {
            for off in 0..len / 2 {
                let w_re = (ang * off as f32).cos();
                let w_im = (ang * off as f32).sin();
                let (i, j) = (start + off, start + off + len / 2);
                let t_re = re[j] * w_re - im[j] * w_im;
                let t_im = re[j] * w_im + im[j] * w_re;
                re[j] = re[i] - t_re;
                im[j] = im[i] - t_im;
                re[i] += t_re;
                im[i] += t_im;
            }
        }
        len <<= 1;
    }
    (re, im)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mac_computes_dot_product() {
        let mut acc = AccelInstance::new(AcceleratorKind::Mac);
        let v = acc
            .execute(&AccelOp::Mac {
                a: vec![1.0, 2.0, 3.0],
                b: vec![4.0, 5.0, 6.0],
            })
            .unwrap();
        assert_eq!(v, AccelValue::Scalar(32.0));
    }

    #[test]
    fn mac_rejects_length_mismatch() {
        let mut acc = AccelInstance::new(AcceleratorKind::Mac);
        assert!(matches!(
            acc.execute(&AccelOp::Mac {
                a: vec![1.0],
                b: vec![1.0, 2.0]
            }),
            Err(Error::BadOperands { .. })
        ));
    }

    #[test]
    fn wrong_operation_is_rejected() {
        let mut acc = AccelInstance::new(AcceleratorKind::Sort);
        assert!(matches!(
            acc.execute(&AccelOp::Mac {
                a: vec![],
                b: vec![]
            }),
            Err(Error::WrongOperation { .. })
        ));
    }

    #[test]
    fn warp_op_runs_on_both_warp_accelerators() {
        let img = GrayImage::zeroed(4, 4);
        let op = AccelOp::Warp {
            image: img,
            params: AffineParams::identity(),
        };
        assert!(op.runs_on(AcceleratorKind::Wami(WamiKernel::Warp)));
        assert!(op.runs_on(AcceleratorKind::Wami(WamiKernel::WarpIwxp)));
        assert!(!op.runs_on(AcceleratorKind::Wami(WamiKernel::Debayer)));
    }

    #[test]
    fn identity_conv_preserves_image() {
        let mut img = GrayImage::zeroed(6, 6);
        img.set(3, 2, 5.0);
        let mut acc = AccelInstance::new(AcceleratorKind::Conv2d);
        let kernel = vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        match acc
            .execute(&AccelOp::Conv2d {
                image: img.clone(),
                kernel,
                side: 3,
            })
            .unwrap()
        {
            AccelValue::Image(out) => assert_eq!(out, img),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn box_blur_conserves_mass_in_interior() {
        let mut img = GrayImage::zeroed(9, 9);
        img.set(4, 4, 9.0);
        let mut acc = AccelInstance::new(AcceleratorKind::Conv2d);
        let kernel = vec![1.0 / 9.0; 9];
        match acc
            .execute(&AccelOp::Conv2d {
                image: img,
                kernel,
                side: 3,
            })
            .unwrap()
        {
            AccelValue::Image(out) => {
                let total: f32 = out.pixels().iter().sum();
                assert!((total - 9.0).abs() < 1e-4);
                assert!((out.get(4, 4) - 1.0).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gemm_identity() {
        let mut acc = AccelInstance::new(AcceleratorKind::Gemm);
        let a = vec![1.0, 0.0, 0.0, 1.0]; // 2x2 identity
        let b = vec![3.0, 4.0, 5.0, 6.0];
        match acc
            .execute(&AccelOp::Gemm {
                m: 2,
                k: 2,
                n: 2,
                a,
                b: b.clone(),
            })
            .unwrap()
        {
            AccelValue::Vector(out) => assert_eq!(out, b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut acc = AccelInstance::new(AcceleratorKind::Fft);
        let mut re = vec![0.0f32; 8];
        re[0] = 1.0;
        match acc
            .execute(&AccelOp::Fft {
                re,
                im: vec![0.0; 8],
            })
            .unwrap()
        {
            AccelValue::VectorPair(r, i) => {
                for k in 0..8 {
                    assert!((r[k] - 1.0).abs() < 1e-5);
                    assert!(i[k].abs() < 1e-5);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fft_parseval() {
        let mut acc = AccelInstance::new(AcceleratorKind::Fft);
        let re: Vec<f32> = (0..16).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let time_energy: f32 = re.iter().map(|v| v * v).sum();
        match acc
            .execute(&AccelOp::Fft {
                re,
                im: vec![0.0; 16],
            })
            .unwrap()
        {
            AccelValue::VectorPair(r, i) => {
                let freq_energy: f32 = r.iter().zip(&i).map(|(a, b)| a * a + b * b).sum();
                assert!((freq_energy / 16.0 - time_energy).abs() < 1e-3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut acc = AccelInstance::new(AcceleratorKind::Fft);
        assert!(acc
            .execute(&AccelOp::Fft {
                re: vec![0.0; 6],
                im: vec![0.0; 6]
            })
            .is_err());
    }

    #[test]
    fn sort_orders_data() {
        let mut acc = AccelInstance::new(AcceleratorKind::Sort);
        match acc
            .execute(&AccelOp::Sort {
                data: vec![3.0, 1.0, 2.0],
            })
            .unwrap()
        {
            AccelValue::Vector(out) => assert_eq!(out, vec![1.0, 2.0, 3.0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn change_detection_model_flows_through_the_op() {
        use presp_wami::change_detection::{ChangeDetector, GmmConfig};
        let kind = AcceleratorKind::Wami(WamiKernel::ChangeDetection);
        let mut acc = AccelInstance::new(kind);
        let mut frame = GrayImage::zeroed(8, 8);
        for p in frame.pixels_mut() {
            *p = 50.0;
        }
        // First frame trains the model (no changes reported).
        let model = Box::new(ChangeDetector::new(8, 8, GmmConfig::default()));
        let trained = match acc
            .execute(&AccelOp::ChangeDetection {
                frame: frame.clone(),
                model,
            })
            .unwrap()
        {
            AccelValue::ChangeDetection { changed, model } => {
                assert_eq!(changed, 0);
                model
            }
            other => panic!("unexpected {other:?}"),
        };
        let mut bright = frame.clone();
        bright.set(2, 2, 250.0);
        // The trained model (fetched back from DRAM — even across a
        // reconfiguration of the tile) flags the new bright pixel.
        let mut fresh_instance = AccelInstance::new(kind);
        match fresh_instance
            .execute(&AccelOp::ChangeDetection {
                frame: bright.clone(),
                model: trained,
            })
            .unwrap()
        {
            AccelValue::ChangeDetection { changed, .. } => assert_eq!(changed, 1),
            other => panic!("unexpected {other:?}"),
        }
        // A fresh model only initializes on its first frame.
        let fresh_model = Box::new(ChangeDetector::new(8, 8, GmmConfig::default()));
        match fresh_instance
            .execute(&AccelOp::ChangeDetection {
                frame: bright,
                model: fresh_model,
            })
            .unwrap()
        {
            AccelValue::ChangeDetection { changed, .. } => assert_eq!(changed, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn work_and_dma_sizes_are_positive() {
        let ops = [
            AccelOp::Mac {
                a: vec![0.0; 8],
                b: vec![0.0; 8],
            },
            AccelOp::Sort { data: vec![0.0; 8] },
            AccelOp::Debayer {
                raw: BayerImage::zeroed(4, 4),
            },
            AccelOp::MatrixInvert {
                m: presp_wami::matrix::identity6(),
            },
        ];
        for op in &ops {
            assert!(op.work_items() > 0, "{op:?}");
            assert!(op.input_bytes() > 0, "{op:?}");
            assert!(op.output_bytes() > 0, "{op:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn sort_output_is_sorted_permutation(data in proptest::collection::vec(-100.0f32..100.0, 0..64)) {
            let mut acc = AccelInstance::new(AcceleratorKind::Sort);
            match acc.execute(&AccelOp::Sort { data: data.clone() }).unwrap() {
                AccelValue::Vector(out) => {
                    prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
                    let mut expect = data;
                    expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    prop_assert_eq!(out, expect);
                }
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }

        #[test]
        fn gemm_matches_naive_reference(
            m in 1usize..5, k in 1usize..5, n in 1usize..5,
            seed in proptest::collection::vec(-2.0f32..2.0, 50),
        ) {
            let a: Vec<f32> = seed.iter().cycle().take(m * k).copied().collect();
            let b: Vec<f32> = seed.iter().rev().cycle().take(k * n).copied().collect();
            let mut acc = AccelInstance::new(AcceleratorKind::Gemm);
            match acc.execute(&AccelOp::Gemm { m, k, n, a: a.clone(), b: b.clone() }).unwrap() {
                AccelValue::Vector(out) => {
                    for i in 0..m {
                        for j in 0..n {
                            let expect: f32 = (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum();
                            prop_assert!((out[i * n + j] - expect).abs() < 1e-4);
                        }
                    }
                }
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }
}
