//! Image containers shared by all WAMI kernels.

use crate::error::Error;

/// A row-major 2D image.
///
/// # Example
///
/// ```
/// use presp_wami::image::Image;
///
/// let mut img = Image::<f32>::zeroed(4, 3);
/// img.set(2, 1, 0.5);
/// assert_eq!(img.get(2, 1), 0.5);
/// assert_eq!(img.width(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

/// Grayscale (luminance) image, `f32` pixels.
pub type GrayImage = Image<f32>;
/// Raw Bayer-mosaiced sensor image (RGGB pattern), `u16` pixels.
pub type BayerImage = Image<u16>;
/// Demosaiced RGB image.
pub type RgbImage = Image<[f32; 3]>;

impl<T: Copy + Default> Image<T> {
    /// Creates an image filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeroed(width: usize, height: usize) -> Image<T> {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Image {
            width,
            height,
            data: vec![T::default(); width * height],
        }
    }

    /// Creates an image from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadDimensions`] when `data.len() != width * height`
    /// or a dimension is zero.
    pub(crate) fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Image<T>, Error> {
        if width == 0 || height == 0 {
            return Err(Error::BadDimensions {
                detail: format!("{width}x{height}"),
            });
        }
        if data.len() != width * height {
            return Err(Error::BadDimensions {
                detail: format!("{} pixels for a {width}x{height} image", data.len()),
            });
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(width, height)` pair.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Pixel count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image holds zero pixels (never true: constructors reject
    /// empty dimensions).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Reads pixel `(x, y)` with coordinates clamped into bounds — the
    /// border handling used by the stencil kernels.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.get(cx, cy)
    }

    /// Row-major pixel slice.
    pub fn pixels(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major pixel slice.
    pub fn pixels_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Checks that `self` and `other` share dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when they do not.
    pub(crate) fn check_same_dims<U: Copy + Default>(&self, other: &Image<U>) -> Result<(), Error> {
        if self.dims() != other.dims() {
            return Err(Error::DimensionMismatch {
                a: self.dims(),
                b: other.dims(),
            });
        }
        Ok(())
    }

    /// Applies `f` to every pixel, producing a new image.
    pub(crate) fn map<U: Copy + Default, F: FnMut(T) -> U>(&self, mut f: F) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| f(p)).collect(),
        }
    }
}

impl GrayImage {
    /// Mean pixel value.
    pub(crate) fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Bilinear sample at a fractional coordinate, clamped at the borders.
    #[inline]
    pub(crate) fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let x0 = x0 as isize;
        let y0 = y0 as isize;
        let p00 = self.get_clamped(x0, y0);
        let p10 = self.get_clamped(x0 + 1, y0);
        let p01 = self.get_clamped(x0, y0 + 1);
        let p11 = self.get_clamped(x0 + 1, y0 + 1);
        (p00 * (1.0 - fx) + p10 * fx) * (1.0 - fy) + (p01 * (1.0 - fx) + p11 * fx) * fy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Image::<f32>::from_vec(2, 2, vec![0.0; 4]).is_ok());
        assert!(Image::<f32>::from_vec(2, 2, vec![0.0; 5]).is_err());
        assert!(Image::<f32>::from_vec(0, 2, vec![]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = GrayImage::zeroed(5, 4);
        img.set(4, 3, 7.0);
        assert_eq!(img.get(4, 3), 7.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn clamped_reads_extend_borders() {
        let mut img = GrayImage::zeroed(3, 3);
        img.set(0, 0, 1.0);
        img.set(2, 2, 9.0);
        assert_eq!(img.get_clamped(-5, -5), 1.0);
        assert_eq!(img.get_clamped(10, 10), 9.0);
    }

    #[test]
    fn bilinear_interpolates_midpoints() {
        let mut img = GrayImage::zeroed(2, 1);
        img.set(0, 0, 0.0);
        img.set(1, 0, 10.0);
        assert!((img.sample_bilinear(0.5, 0.0) - 5.0).abs() < 1e-6);
        assert!((img.sample_bilinear(0.25, 0.0) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn bilinear_at_integer_coords_is_exact() {
        let mut img = GrayImage::zeroed(3, 3);
        img.set(1, 2, 4.25);
        assert_eq!(img.sample_bilinear(1.0, 2.0), 4.25);
    }

    #[test]
    fn map_changes_type() {
        let img = GrayImage::zeroed(2, 2);
        let ints: Image<u16> = img.map(|p| (p as u16) + 3);
        assert_eq!(ints.get(1, 1), 3);
    }

    #[test]
    fn mean_of_constant_image() {
        let mut img = GrayImage::zeroed(4, 4);
        for p in img.pixels_mut() {
            *p = 2.5;
        }
        assert!((img.mean() - 2.5).abs() < 1e-6);
    }
}
