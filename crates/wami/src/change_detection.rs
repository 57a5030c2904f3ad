//! Gaussian-mixture change detection — WAMI accelerator #12.
//!
//! A per-pixel Stauffer-Grimson mixture of `K` Gaussians, as used by the
//! PERFECT WAMI-App: each registered frame updates the background model and
//! pixels that match no high-weight component are flagged as changed.

use crate::error::Error;
use crate::image::{GrayImage, Image};

/// Number of Gaussians per pixel.
pub(crate) const K: usize = 3;

/// One Gaussian component of a pixel's background mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Mixture weight.
    pub weight: f32,
    /// Mean intensity.
    pub mean: f32,
    /// Intensity variance.
    pub var: f32,
}

impl Default for Component {
    fn default() -> Component {
        Component {
            weight: 0.0,
            mean: 0.0,
            var: 1.0,
        }
    }
}

/// Tuning parameters of the mixture model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmConfig {
    /// Learning rate for weights and matched components.
    pub alpha: f32,
    /// Match threshold in standard deviations.
    pub match_sigma: f32,
    /// Initial variance of a newly spawned component.
    pub initial_var: f32,
    /// Minimum cumulative weight for a component to count as background.
    pub background_threshold: f32,
}

impl Default for GmmConfig {
    fn default() -> GmmConfig {
        GmmConfig {
            alpha: 0.05,
            match_sigma: 2.5,
            initial_var: 36.0,
            background_threshold: 0.7,
        }
    }
}

/// Per-pixel Gaussian-mixture background model.
///
/// # Example
///
/// ```
/// use presp_wami::change_detection::{ChangeDetector, GmmConfig};
/// use presp_wami::image::GrayImage;
///
/// let mut detector = ChangeDetector::new(8, 8, GmmConfig::default());
/// let frame = GrayImage::zeroed(8, 8);
/// // The very first frame initializes the model: nothing is "changed".
/// let mask = detector.update(&frame)?;
/// assert_eq!(mask.pixels().iter().filter(|&&c| c).count(), 0);
/// # Ok::<(), presp_wami::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeDetector {
    width: usize,
    height: usize,
    config: GmmConfig,
    model: Vec<[Component; K]>,
    initialized: bool,
}

impl ChangeDetector {
    /// Creates a detector for `width` × `height` frames.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, config: GmmConfig) -> ChangeDetector {
        assert!(
            width > 0 && height > 0,
            "detector dimensions must be non-zero"
        );
        ChangeDetector {
            width,
            height,
            config,
            model: vec![[Component::default(); K]; width * height],
            initialized: false,
        }
    }

    /// Updates the model with a registered frame and returns the change mask.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the frame size differs from
    /// the detector's.
    pub fn update(&mut self, frame: &GrayImage) -> Result<Image<bool>, Error> {
        if frame.dims() != (self.width, self.height) {
            return Err(Error::DimensionMismatch {
                a: frame.dims(),
                b: (self.width, self.height),
            });
        }
        let mut mask = Image::<bool>::zeroed(self.width, self.height);
        if !self.initialized {
            for (pixel, mix) in frame.pixels().iter().zip(self.model.iter_mut()) {
                mix[0] = Component {
                    weight: 1.0,
                    mean: *pixel,
                    var: self.config.initial_var,
                };
            }
            self.initialized = true;
            return Ok(mask);
        }
        let cfg = self.config;
        for (idx, (&x, mix)) in frame.pixels().iter().zip(self.model.iter_mut()).enumerate() {
            let changed = update_pixel(mix, x, &cfg);
            if changed {
                mask.pixels_mut()[idx] = true;
            }
        }
        Ok(mask)
    }
}

/// Updates one pixel's mixture; returns `true` when the pixel is foreground.
fn update_pixel(mix: &mut [Component; K], x: f32, cfg: &GmmConfig) -> bool {
    // Sort components by weight/σ (dominant background first).
    mix.sort_by(|a, b| {
        let ka = a.weight / a.var.sqrt().max(1e-6);
        let kb = b.weight / b.var.sqrt().max(1e-6);
        kb.partial_cmp(&ka).expect("finite fitness")
    });

    // Find the first matching component.
    let matched = mix
        .iter()
        .position(|c| c.weight > 0.0 && (x - c.mean).abs() <= cfg.match_sigma * c.var.sqrt());

    // Background test: does x match a component within the cumulative
    // background_threshold prefix?
    let mut is_background = false;
    if let Some(m) = matched {
        let mut cum = 0.0;
        for (i, c) in mix.iter().enumerate() {
            cum += c.weight;
            if i == m {
                is_background = cum <= cfg.background_threshold || i == 0;
                break;
            }
            if cum > cfg.background_threshold {
                break;
            }
        }
    }

    match matched {
        Some(m) => {
            for (i, c) in mix.iter_mut().enumerate() {
                let hit = if i == m { 1.0 } else { 0.0 };
                c.weight += cfg.alpha * (hit - c.weight);
            }
            let c = &mut mix[m];
            let rho = cfg.alpha;
            let d = x - c.mean;
            c.mean += rho * d;
            c.var += rho * (d * d - c.var);
            c.var = c.var.max(1.0);
        }
        None => {
            // Replace the weakest component with a new Gaussian centred at x.
            let weakest = (0..K)
                .min_by(|&i, &j| {
                    mix[i]
                        .weight
                        .partial_cmp(&mix[j].weight)
                        .expect("finite weight")
                })
                .expect("K > 0");
            mix[weakest] = Component {
                weight: cfg.alpha,
                mean: x,
                var: cfg.initial_var,
            };
        }
    }

    // Renormalize weights.
    let total: f32 = mix.iter().map(|c| c.weight).sum();
    if total > 0.0 {
        for c in mix.iter_mut() {
            c.weight /= total;
        }
    }

    !is_background
}

/// Counts set pixels in a change mask.
pub fn changed_pixels(mask: &Image<bool>) -> usize {
    mask.pixels().iter().filter(|&&c| c).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_frame(w: usize, h: usize, v: f32) -> GrayImage {
        let mut img = GrayImage::zeroed(w, h);
        for p in img.pixels_mut() {
            *p = v;
        }
        img
    }

    #[test]
    fn stable_background_is_never_flagged() {
        let mut det = ChangeDetector::new(8, 8, GmmConfig::default());
        for _ in 0..20 {
            let mask = det.update(&constant_frame(8, 8, 50.0)).unwrap();
            assert_eq!(changed_pixels(&mask), 0);
        }
    }

    #[test]
    fn appearing_object_is_flagged() {
        let mut det = ChangeDetector::new(8, 8, GmmConfig::default());
        for _ in 0..10 {
            det.update(&constant_frame(8, 8, 50.0)).unwrap();
        }
        let mut frame = constant_frame(8, 8, 50.0);
        frame.set(3, 3, 250.0);
        frame.set(4, 3, 250.0);
        let mask = det.update(&frame).unwrap();
        assert_eq!(changed_pixels(&mask), 2);
        assert!(mask.get(3, 3) && mask.get(4, 3));
        assert!(!mask.get(0, 0));
    }

    #[test]
    fn persistent_object_is_absorbed_into_background() {
        let cfg = GmmConfig {
            alpha: 0.2,
            ..GmmConfig::default()
        };
        let mut det = ChangeDetector::new(4, 4, cfg);
        for _ in 0..10 {
            det.update(&constant_frame(4, 4, 50.0)).unwrap();
        }
        let new_scene = constant_frame(4, 4, 200.0);
        // First appearance: flagged.
        assert!(changed_pixels(&det.update(&new_scene).unwrap()) > 0);
        // After many frames the new intensity becomes the dominant mode.
        for _ in 0..40 {
            det.update(&new_scene).unwrap();
        }
        assert_eq!(changed_pixels(&det.update(&new_scene).unwrap()), 0);
    }

    #[test]
    fn noise_within_sigma_is_background() {
        let mut det = ChangeDetector::new(4, 4, GmmConfig::default());
        det.update(&constant_frame(4, 4, 100.0)).unwrap();
        // initial_var = 36 → σ = 6 → ±2.5σ = ±15 tolerated.
        let mask = det.update(&constant_frame(4, 4, 110.0)).unwrap();
        assert_eq!(changed_pixels(&mask), 0);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut det = ChangeDetector::new(4, 4, GmmConfig::default());
        assert!(det.update(&constant_frame(5, 4, 0.0)).is_err());
    }

    #[test]
    fn weights_stay_normalized() {
        let mut det = ChangeDetector::new(2, 2, GmmConfig::default());
        for i in 0..30 {
            det.update(&constant_frame(2, 2, (i * 37 % 256) as f32))
                .unwrap();
        }
        let total: f32 = det.model[0].iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-4);
    }
}
