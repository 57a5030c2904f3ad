//! Debayer (demosaic) kernel — WAMI accelerator #1.
//!
//! Converts a raw RGGB Bayer mosaic into an RGB image using bilinear
//! interpolation of the missing color samples, the same interpolation class
//! the PERFECT WAMI-App reference uses.

use crate::error::Error;
use crate::image::{BayerImage, RgbImage};

/// Position of a pixel within the 2×2 RGGB Bayer tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BayerSite {
    Red,
    GreenOnRedRow,
    GreenOnBlueRow,
    Blue,
}

fn site(x: usize, y: usize) -> BayerSite {
    match (y % 2, x % 2) {
        (0, 0) => BayerSite::Red,
        (0, _) => BayerSite::GreenOnRedRow,
        (_, 0) => BayerSite::GreenOnBlueRow,
        _ => BayerSite::Blue,
    }
}

/// Demosaics an RGGB Bayer image into RGB (bilinear interpolation).
///
/// Output pixels are `f32` in the input's numeric range.
///
/// # Errors
///
/// Currently infallible for any well-formed [`BayerImage`]; the `Result`
/// keeps the kernel signature uniform with the rest of the pipeline.
///
/// # Example
///
/// ```
/// use presp_wami::debayer::debayer;
/// use presp_wami::image::BayerImage;
///
/// // A constant sensor reading demosaics to a constant RGB image.
/// let mut raw = BayerImage::zeroed(8, 8);
/// for p in raw.pixels_mut() { *p = 100; }
/// let rgb = debayer(&raw)?;
/// let [r, g, b] = rgb.get(4, 4);
/// assert_eq!((r, g, b), (100.0, 100.0, 100.0));
/// # Ok::<(), presp_wami::Error>(())
/// ```
pub fn debayer(raw: &BayerImage) -> Result<RgbImage, Error> {
    let (w, h) = raw.dims();
    let mut out = RgbImage::zeroed(w, h);
    let px = |x: isize, y: isize| raw.get_clamped(x, y) as f32;

    for y in 0..h {
        for x in 0..w {
            let xi = x as isize;
            let yi = y as isize;
            let cross_g = (px(xi - 1, yi) + px(xi + 1, yi) + px(xi, yi - 1) + px(xi, yi + 1)) / 4.0;
            let diag =
                (px(xi - 1, yi - 1) + px(xi + 1, yi - 1) + px(xi - 1, yi + 1) + px(xi + 1, yi + 1))
                    / 4.0;
            let horiz = (px(xi - 1, yi) + px(xi + 1, yi)) / 2.0;
            let vert = (px(xi, yi - 1) + px(xi, yi + 1)) / 2.0;
            let rgb = match site(x, y) {
                BayerSite::Red => [px(xi, yi), cross_g, diag],
                BayerSite::GreenOnRedRow => [horiz, px(xi, yi), vert],
                BayerSite::GreenOnBlueRow => [vert, px(xi, yi), horiz],
                BayerSite::Blue => [diag, cross_g, px(xi, yi)],
            };
            out.set(x, y, rgb);
        }
    }
    Ok(out)
}

/// Re-mosaics an RGB image back into RGGB Bayer — used by the synthetic
/// scene generator to produce sensor-domain input.
pub(crate) fn mosaic(rgb: &RgbImage) -> BayerImage {
    let (w, h) = rgb.dims();
    let mut out = BayerImage::zeroed(w, h);
    for y in 0..h {
        for x in 0..w {
            let [r, g, b] = rgb.get(x, y);
            let v = match site(x, y) {
                BayerSite::Red => r,
                BayerSite::GreenOnRedRow | BayerSite::GreenOnBlueRow => g,
                BayerSite::Blue => b,
            };
            out.set(x, y, v.clamp(0.0, u16::MAX as f32) as u16);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::RgbImage;
    use proptest::prelude::*;

    #[test]
    fn constant_raw_gives_constant_rgb() {
        let mut raw = BayerImage::zeroed(16, 16);
        for p in raw.pixels_mut() {
            *p = 500;
        }
        let rgb = debayer(&raw).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(rgb.get(x, y), [500.0, 500.0, 500.0]);
            }
        }
    }

    #[test]
    fn pure_red_scene_roundtrips_on_red_sites() {
        let mut rgb = RgbImage::zeroed(8, 8);
        for p in rgb.pixels_mut() {
            *p = [900.0, 0.0, 0.0];
        }
        let raw = mosaic(&rgb);
        // Red sites carry the red value, green/blue sites read zero.
        assert_eq!(raw.get(0, 0), 900);
        assert_eq!(raw.get(1, 0), 0);
        assert_eq!(raw.get(1, 1), 0);
        let back = debayer(&raw).unwrap();
        // Interior red estimate on a red site is exact.
        assert_eq!(back.get(4, 4)[0], 900.0);
    }

    #[test]
    fn rggb_site_pattern() {
        assert_eq!(site(0, 0), BayerSite::Red);
        assert_eq!(site(1, 0), BayerSite::GreenOnRedRow);
        assert_eq!(site(0, 1), BayerSite::GreenOnBlueRow);
        assert_eq!(site(1, 1), BayerSite::Blue);
        assert_eq!(site(2, 2), BayerSite::Red);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn gray_world_roundtrip(v in 0u16..4096) {
            // A gray (R=G=B) scene survives mosaic→demosaic exactly.
            let mut rgb = RgbImage::zeroed(10, 10);
            for p in rgb.pixels_mut() { *p = [v as f32, v as f32, v as f32]; }
            let back = debayer(&mosaic(&rgb)).unwrap();
            for y in 0..10 {
                for x in 0..10 {
                    let [r, g, b] = back.get(x, y);
                    prop_assert_eq!(r, v as f32);
                    prop_assert_eq!(g, v as f32);
                    prop_assert_eq!(b, v as f32);
                }
            }
        }

        #[test]
        fn output_within_input_range(pixels in proptest::collection::vec(0u16..1024, 64)) {
            let raw = BayerImage::from_vec(8, 8, pixels.clone()).unwrap();
            let rgb = debayer(&raw).unwrap();
            let max = *pixels.iter().max().unwrap() as f32;
            let min = *pixels.iter().min().unwrap() as f32;
            for p in rgb.pixels() {
                for &c in p {
                    prop_assert!(c >= min && c <= max);
                }
            }
        }
    }
}
