//! Inverse-compositional Lucas-Kanade registration — WAMI accelerators #6–#10.
//!
//! The solver is decomposed into the exact kernels the paper maps to
//! separate accelerators: steepest-descent images ([`steepest_descent`]),
//! Hessian accumulation ([`hessian`]), the per-iteration SD update
//! ([`sd_update`]), 6×6 Hessian inversion ([`crate::matrix::invert6`]) and
//! the Δp computation + inverse-compositional parameter update
//! ([`delta_p`], [`update_params`]).

use crate::error::Error;
use crate::gradient::{gradient, Gradients};
use crate::image::GrayImage;
use crate::matrix::{invert6, matvec6, Mat6, Vec6};
use crate::warp::{subtract, warp_image, AffineParams};

/// The six steepest-descent images `SD_j = ∇T · ∂W/∂p_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct SdImages {
    /// One image per affine parameter.
    pub sd: [GrayImage; 6],
}

/// Computes steepest-descent images from template gradients — accelerator #6.
///
/// For the affine parameterization, `∂W/∂p = [(x,0),(0,x),(y,0),(0,y),(1,0),(0,1)]`,
/// so `SD = [dx·x, dy·x, dx·y, dy·y, dx, dy]`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] when `dx` and `dy` differ in size.
pub fn steepest_descent(grad: &Gradients) -> Result<SdImages, Error> {
    grad.dx.check_same_dims(&grad.dy)?;
    let (w, h) = grad.dx.dims();
    let mut sd: [GrayImage; 6] = std::array::from_fn(|_| GrayImage::zeroed(w, h));
    for y in 0..h {
        for x in 0..w {
            let dx = grad.dx.get(x, y);
            let dy = grad.dy.get(x, y);
            let xf = x as f32;
            let yf = y as f32;
            sd[0].set(x, y, dx * xf);
            sd[1].set(x, y, dy * xf);
            sd[2].set(x, y, dx * yf);
            sd[3].set(x, y, dy * yf);
            sd[4].set(x, y, dx);
            sd[5].set(x, y, dy);
        }
    }
    Ok(SdImages { sd })
}

/// Accumulates the Gauss-Newton Hessian `H = Σ SDᵀ·SD` — accelerator #7.
pub fn hessian(sd: &SdImages) -> Mat6 {
    let mut h = [[0.0; 6]; 6];
    let n = sd.sd[0].len();
    for idx in 0..n {
        let row: [f64; 6] = std::array::from_fn(|j| sd.sd[j].pixels()[idx] as f64);
        for (i, &ri) in row.iter().enumerate() {
            for (j, &rj) in row.iter().enumerate().skip(i) {
                h[i][j] += ri * rj;
            }
        }
    }
    // Mirror the upper triangle (indices alias across rows, so no iterator).
    #[allow(clippy::needless_range_loop)]
    for i in 0..6 {
        for j in 0..i {
            h[i][j] = h[j][i];
        }
    }
    h
}

/// Accumulates the steepest-descent update `b = Σ SDᵀ·error` — accelerator #8.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] when the error image's size differs
/// from the steepest-descent images'.
pub fn sd_update(sd: &SdImages, error: &GrayImage) -> Result<Vec6, Error> {
    sd.sd[0].check_same_dims(error)?;
    let mut b = [0.0; 6];
    for (idx, &e) in error.pixels().iter().enumerate() {
        for (j, bj) in b.iter_mut().enumerate() {
            *bj += sd.sd[j].pixels()[idx] as f64 * e as f64;
        }
    }
    Ok(b)
}

/// Solves `Δp = H⁻¹ · b` — accelerator #10 (using accelerator #9's inverse).
pub fn delta_p(h_inv: &Mat6, b: &Vec6) -> AffineParams {
    AffineParams {
        p: matvec6(h_inv, b),
    }
}

/// Inverse-compositional parameter update: `p ← p ∘ W(Δp)⁻¹`.
///
/// # Errors
///
/// Returns [`Error::SingularMatrix`] when `Δp` is not invertible (does not
/// happen for converging solves; it indicates divergence).
pub fn update_params(params: &AffineParams, dp: &AffineParams) -> Result<AffineParams, Error> {
    Ok(params.compose(&dp.invert()?))
}

/// Mean absolute value over the interior of an image (excluding a `margin`
/// border band); falls back to the full image when the margin swallows it.
fn interior_mean_abs(img: &GrayImage, margin: usize) -> f64 {
    let (w, h) = img.dims();
    if w <= 2 * margin || h <= 2 * margin {
        return img.pixels().iter().map(|&e| e.abs() as f64).sum::<f64>() / img.len() as f64;
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for y in margin..h - margin {
        for x in margin..w - margin {
            sum += img.get(x, y).abs() as f64;
            n += 1;
        }
    }
    sum / n as f64
}

/// Configuration of the registration solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LkConfig {
    /// Maximum Gauss-Newton iterations.
    pub max_iterations: usize,
    /// Convergence threshold on `‖Δp‖`.
    pub epsilon: f64,
    /// Border band (pixels) excluded from the solve. Warping samples with
    /// clamped borders, which fabricates gradients there; excluding a small
    /// band removes that bias.
    pub border_margin: usize,
}

impl Default for LkConfig {
    fn default() -> LkConfig {
        LkConfig {
            max_iterations: 30,
            epsilon: 1e-4,
            border_margin: 4,
        }
    }
}

/// Zeroes the steepest-descent images within `margin` pixels of the border,
/// removing border-clamping bias from the solve.
fn mask_border(sd: &mut SdImages, margin: usize) {
    if margin == 0 {
        return;
    }
    let (w, h) = sd.sd[0].dims();
    for img in sd.sd.iter_mut() {
        for y in 0..h {
            for x in 0..w {
                if x < margin || y < margin || x >= w - margin.min(w) || y >= h - margin.min(h) {
                    img.set(x, y, 0.0);
                }
            }
        }
    }
}

/// Result of registering an input frame against a template.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// Warp taking template coordinates into the input frame.
    pub params: AffineParams,
    /// Iterations performed.
    pub iterations: usize,
    /// Mean absolute error of the final residual image.
    pub final_error: f64,
}

/// Registers `input` against `template` with inverse-compositional LK.
///
/// The returned warp `W(x; p)` maps template coordinates to input
/// coordinates; `warp_image(input, p)` aligns the input onto the template.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] for mismatched images,
/// [`Error::SingularMatrix`] when the Hessian is singular (featureless
/// template), and [`Error::RegistrationDiverged`] when the update stops
/// being finite.
pub(crate) fn register(
    template: &GrayImage,
    input: &GrayImage,
    config: &LkConfig,
) -> Result<Registration, Error> {
    template.check_same_dims(input)?;
    // Template-side precomputation (once per template — the reason the
    // decomposition pays off on hardware).
    let grad = gradient(template)?;
    let mut sd = steepest_descent(&grad)?;
    mask_border(&mut sd, config.border_margin);
    let h = hessian(&sd);
    let h_inv = invert6(&h)?;

    let mut params = AffineParams::identity();
    let mut iterations = 0;
    let mut final_error = f64::INFINITY;
    for it in 0..config.max_iterations {
        iterations = it + 1;
        let warped = warp_image(input, &params)?;
        let error = subtract(&warped, template)?;
        final_error = interior_mean_abs(&error, config.border_margin);
        let b = sd_update(&sd, &error)?;
        let dp = delta_p(&h_inv, &b);
        if !dp.p.iter().all(|v| v.is_finite()) {
            return Err(Error::RegistrationDiverged { iterations });
        }
        params = update_params(&params, &dp)?;
        if dp.norm() < config.epsilon {
            break;
        }
    }
    Ok(Registration {
        params,
        iterations,
        final_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Smooth test pattern: a sum of Gaussian blobs (plenty of gradient
    /// information everywhere, band-limited enough for bilinear sampling).
    fn blobs(w: usize, h: usize) -> GrayImage {
        let centers = [
            (0.3, 0.25, 8.0),
            (0.7, 0.6, 6.0),
            (0.45, 0.8, 10.0),
            (0.15, 0.7, 7.0),
        ];
        let mut img = GrayImage::zeroed(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut v = 0.0f32;
                for &(cx, cy, sigma) in &centers {
                    let dx = x as f32 - cx * w as f32;
                    let dy = y as f32 - cy * h as f32;
                    v += 100.0 * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
                }
                img.set(x, y, v);
            }
        }
        img
    }

    #[test]
    fn sd_images_match_definition() {
        let img = blobs(16, 16);
        let grad = gradient(&img).unwrap();
        let sd = steepest_descent(&grad).unwrap();
        let (x, y) = (5, 9);
        assert_eq!(sd.sd[0].get(x, y), grad.dx.get(x, y) * x as f32);
        assert_eq!(sd.sd[3].get(x, y), grad.dy.get(x, y) * y as f32);
        assert_eq!(sd.sd[4].get(x, y), grad.dx.get(x, y));
    }

    #[test]
    fn hessian_is_symmetric_psd_diagonal() {
        let img = blobs(24, 24);
        let sd = steepest_descent(&gradient(&img).unwrap()).unwrap();
        let h = hessian(&sd);
        #[allow(clippy::needless_range_loop)]
        for i in 0..6 {
            assert!(h[i][i] >= 0.0);
            for j in 0..6 {
                assert!((h[i][j] - h[j][i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn recovers_known_translation() {
        let template = blobs(48, 48);
        let true_warp = AffineParams::translation(1.5, -2.25);
        // input(x,y) = template(W(x,y)) means the input is the template
        // shifted; registration must recover W.
        let input = warp_image(&template, &true_warp.invert().unwrap()).unwrap();
        let reg = register(&template, &input, &LkConfig::default()).unwrap();
        assert!(
            (reg.params.p[4] - 1.5).abs() < 0.05 && (reg.params.p[5] + 2.25).abs() < 0.05,
            "recovered {:?}",
            reg.params
        );
        assert!(reg.final_error < 0.5);
    }

    #[test]
    fn identity_input_converges_immediately() {
        let template = blobs(32, 32);
        let reg = register(&template, &template, &LkConfig::default()).unwrap();
        assert!(reg.params.norm() < 1e-3);
        assert!(reg.iterations <= 2);
    }

    #[test]
    fn featureless_template_is_singular() {
        let flat = GrayImage::zeroed(16, 16);
        let result = register(&flat, &flat, &LkConfig::default());
        assert_eq!(result, Err(Error::SingularMatrix));
    }

    #[test]
    fn mismatched_dims_are_rejected() {
        let a = blobs(16, 16);
        let b = blobs(17, 16);
        assert!(matches!(
            register(&a, &b, &LkConfig::default()),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn recovers_random_small_translations(tx in -2.0f64..2.0, ty in -2.0f64..2.0) {
            let template = blobs(40, 40);
            let true_warp = AffineParams::translation(tx, ty);
            let input = warp_image(&template, &true_warp.invert().unwrap()).unwrap();
            let reg = register(&template, &input, &LkConfig::default()).unwrap();
            prop_assert!((reg.params.p[4] - tx).abs() < 0.1, "tx: {} vs {}", reg.params.p[4], tx);
            prop_assert!((reg.params.p[5] - ty).abs() < 0.1, "ty: {} vs {}", reg.params.p[5], ty);
        }
    }
}
