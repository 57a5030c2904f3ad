//! Affine warp kernel — WAMI accelerators #4 (warp) and #11 (warp-IWxP).

use crate::error::Error;
use crate::image::GrayImage;
use std::fmt;

/// A 6-parameter affine warp in the Lucas-Kanade parameterization:
///
/// ```text
/// W(x, y; p) = [ (1+p1)·x +  p3·y   + p5 ]
///              [  p2·x    + (1+p4)·y + p6 ]
/// ```
///
/// `p = 0` is the identity warp.
///
/// # Example
///
/// ```
/// use presp_wami::warp::AffineParams;
///
/// let t = AffineParams::translation(2.0, -1.0);
/// assert_eq!(t.apply(10.0, 10.0), (12.0, 9.0));
/// let back = t.invert()?;
/// let roundtrip = t.compose(&back);
/// let (x, y) = roundtrip.apply(5.0, 5.0);
/// assert!((x - 5.0).abs() < 1e-6 && (y - 5.0).abs() < 1e-6);
/// # Ok::<(), presp_wami::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AffineParams {
    /// The six parameters `[p1, p2, p3, p4, p5, p6]`.
    pub p: [f64; 6],
}

impl AffineParams {
    /// The identity warp.
    pub fn identity() -> AffineParams {
        AffineParams::default()
    }

    /// A pure translation by `(tx, ty)`.
    pub fn translation(tx: f64, ty: f64) -> AffineParams {
        AffineParams {
            p: [0.0, 0.0, 0.0, 0.0, tx, ty],
        }
    }

    /// Applies the warp to a point.
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        let [p1, p2, p3, p4, p5, p6] = self.p;
        ((1.0 + p1) * x + p3 * y + p5, p2 * x + (1.0 + p4) * y + p6)
    }

    /// The 2×3 matrix form `[[a, c, e], [b, d, f]]`.
    pub(crate) fn matrix(&self) -> [[f64; 3]; 2] {
        let [p1, p2, p3, p4, p5, p6] = self.p;
        [[1.0 + p1, p3, p5], [p2, 1.0 + p4, p6]]
    }

    /// Composition `self ∘ other`: applies `other` first, then `self`.
    pub fn compose(&self, other: &AffineParams) -> AffineParams {
        let a = self.matrix();
        let b = other.matrix();
        // Row-by-row 2x3 · (2x3 extended with [0 0 1]).
        let m = [
            [
                a[0][0] * b[0][0] + a[0][1] * b[1][0],
                a[0][0] * b[0][1] + a[0][1] * b[1][1],
                a[0][0] * b[0][2] + a[0][1] * b[1][2] + a[0][2],
            ],
            [
                a[1][0] * b[0][0] + a[1][1] * b[1][0],
                a[1][0] * b[0][1] + a[1][1] * b[1][1],
                a[1][0] * b[0][2] + a[1][1] * b[1][2] + a[1][2],
            ],
        ];
        AffineParams {
            p: [
                m[0][0] - 1.0,
                m[1][0],
                m[0][1],
                m[1][1] - 1.0,
                m[0][2],
                m[1][2],
            ],
        }
    }

    /// Inverse warp.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when the linear part is singular.
    pub fn invert(&self) -> Result<AffineParams, Error> {
        let m = self.matrix();
        let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
        if det.abs() < 1e-12 {
            return Err(Error::SingularMatrix);
        }
        let ia = m[1][1] / det;
        let ic = -m[0][1] / det;
        let ib = -m[1][0] / det;
        let id = m[0][0] / det;
        let ie = -(ia * m[0][2] + ic * m[1][2]);
        let if_ = -(ib * m[0][2] + id * m[1][2]);
        Ok(AffineParams {
            p: [ia - 1.0, ib, ic, id - 1.0, ie, if_],
        })
    }

    /// Euclidean norm of the parameter vector (convergence measure).
    pub(crate) fn norm(&self) -> f64 {
        self.p.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl fmt::Display for AffineParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "affine[{:.4} {:.4} {:.4} {:.4} | t=({:.3}, {:.3})]",
            self.p[0], self.p[1], self.p[2], self.p[3], self.p[4], self.p[5]
        )
    }
}

/// Warps `img` by `params`: `out(x, y) = img(W(x, y; p))`, sampling
/// bilinearly with clamped borders.
///
/// # Errors
///
/// Currently infallible; the `Result` keeps the kernel signature uniform
/// with the rest of the pipeline.
pub fn warp_image(img: &GrayImage, params: &AffineParams) -> Result<GrayImage, Error> {
    let (w, h) = img.dims();
    let mut out = GrayImage::zeroed(w, h);
    for y in 0..h {
        for x in 0..w {
            let (sx, sy) = params.apply(x as f64, y as f64);
            out.set(x, y, img.sample_bilinear(sx as f32, sy as f32));
        }
    }
    Ok(out)
}

/// Pixel-wise subtraction `a - b` — WAMI accelerator #5.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] when dimensions differ.
pub fn subtract(a: &GrayImage, b: &GrayImage) -> Result<GrayImage, Error> {
    a.check_same_dims(b)?;
    let (w, h) = a.dims();
    let mut out = GrayImage::zeroed(w, h);
    for (o, (&pa, &pb)) in out
        .pixels_mut()
        .iter_mut()
        .zip(a.pixels().iter().zip(b.pixels()))
    {
        *o = pa - pb;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_warp_is_noop() {
        let mut img = GrayImage::zeroed(8, 8);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            *p = i as f32;
        }
        let out = warp_image(&img, &AffineParams::identity()).unwrap();
        assert_eq!(out, img);
    }

    #[test]
    fn integer_translation_shifts_pixels() {
        let mut img = GrayImage::zeroed(8, 8);
        img.set(5, 5, 1.0);
        // out(x,y) = img(x+2, y+1) → the bright pixel appears at (3, 4).
        let out = warp_image(&img, &AffineParams::translation(2.0, 1.0)).unwrap();
        assert_eq!(out.get(3, 4), 1.0);
        assert_eq!(out.get(5, 5), 0.0);
    }

    #[test]
    fn compose_of_translations_adds() {
        let a = AffineParams::translation(1.0, 2.0);
        let b = AffineParams::translation(3.0, -1.0);
        let c = a.compose(&b);
        assert_eq!(c.apply(0.0, 0.0), (4.0, 1.0));
    }

    #[test]
    fn singular_warp_has_no_inverse() {
        // Collapse everything onto a line: linear part rank 1.
        let degenerate = AffineParams {
            p: [-1.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        };
        assert_eq!(degenerate.invert(), Err(Error::SingularMatrix));
    }

    #[test]
    fn subtract_of_self_is_zero() {
        let mut img = GrayImage::zeroed(4, 4);
        img.set(1, 1, 9.0);
        let d = subtract(&img, &img).unwrap();
        assert!(d.pixels().iter().all(|&p| p == 0.0));
    }

    fn arb_params() -> impl Strategy<Value = AffineParams> {
        // Small linear distortions and moderate translations keep the warp
        // invertible and well-conditioned.
        (
            -0.2f64..0.2,
            -0.2f64..0.2,
            -0.2f64..0.2,
            -0.2f64..0.2,
            -5.0f64..5.0,
            -5.0f64..5.0,
        )
            .prop_map(|(p1, p2, p3, p4, p5, p6)| AffineParams {
                p: [p1, p2, p3, p4, p5, p6],
            })
    }

    proptest! {
        #[test]
        fn invert_compose_is_identity(params in arb_params()) {
            let inv = params.invert().unwrap();
            let id = params.compose(&inv);
            prop_assert!(id.norm() < 1e-9, "norm {}", id.norm());
        }

        #[test]
        fn compose_is_associative(a in arb_params(), b in arb_params(), c in arb_params()) {
            let left = a.compose(&b).compose(&c);
            let right = a.compose(&b.compose(&c));
            for i in 0..6 {
                prop_assert!((left.p[i] - right.p[i]).abs() < 1e-9);
            }
        }

        #[test]
        fn apply_matches_matrix_form(params in arb_params(), x in -10.0f64..10.0, y in -10.0f64..10.0) {
            let (ax, ay) = params.apply(x, y);
            let m = params.matrix();
            prop_assert!((ax - (m[0][0]*x + m[0][1]*y + m[0][2])).abs() < 1e-12);
            prop_assert!((ay - (m[1][0]*x + m[1][1]*y + m[1][2])).abs() < 1e-12);
        }
    }
}
