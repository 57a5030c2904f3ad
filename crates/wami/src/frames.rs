//! Synthetic WAMI frame generation.
//!
//! The PERFECT suite's aerial imagery is not redistributable, so the
//! reproduction generates an equivalent sensor-domain workload: a smooth
//! textured background drifting with a global translation (platform motion),
//! a handful of independently moving bright objects (vehicles), sensor noise,
//! and an RGGB Bayer mosaic on top — exercising exactly the kernel chain of
//! Fig. 3 (debayer → grayscale → registration → change detection).
//!
//! The background is a sum of twelve cosine waves over a texture twice the
//! frame's size, of which a frame samples a window about the frame's size.
//! A generator evaluates a texel the first time a frame's bilinear samples
//! read it, and keeps it: a short sequence evaluates about a quarter of the
//! texture, and every frame is bit-identical to one sampled from the whole
//! texture evaluated up front.

use crate::debayer::mosaic;
use crate::image::{BayerImage, GrayImage, RgbImage};
use crate::warp::AffineParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A moving foreground object (a "vehicle" blob).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MovingObject {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    sigma: f64,
    intensity: f64,
}

/// Deterministic synthetic scene generator.
///
/// # Example
///
/// ```
/// use presp_wami::frames::SceneGenerator;
///
/// let mut scene = SceneGenerator::new(64, 64, 42);
/// let f0 = scene.next_frame();
/// let f1 = scene.next_frame();
/// assert_eq!(f0.dims(), (64, 64));
/// assert_ne!(f0.pixels(), f1.pixels()); // the scene moves
/// ```
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    width: usize,
    height: usize,
    rng: StdRng,
    /// The background's cosine waves, `(fx, fy, phase, amplitude)`.
    waves: [(f64, f64, f64, f64); 12],
    /// The `2 × width` by `2 × height` background texture. A texel no
    /// frame has read yet holds NaN, which no evaluated texel is: texels
    /// are clamped to the sensor range.
    background: GrayImage,
    objects: Vec<MovingObject>,
    /// Platform drift per frame, in pixels.
    drift: (f64, f64),
    frame_index: usize,
    noise_sigma: f64,
}

impl SceneGenerator {
    /// Creates a generator for `width` × `height` frames with a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, seed: u64) -> SceneGenerator {
        assert!(width > 0 && height > 0, "scene dimensions must be non-zero");
        let mut rng = StdRng::seed_from_u64(seed);
        let waves = std::array::from_fn(|_| {
            (
                rng.gen_range(0.02..0.15),                 // fx
                rng.gen_range(0.02..0.15),                 // fy
                rng.gen_range(0.0..std::f64::consts::TAU), // phase
                rng.gen_range(10.0..30.0),                 // amplitude
            )
        });
        let texels = vec![f32::NAN; width * 2 * height * 2];
        let background = GrayImage::from_vec(width * 2, height * 2, texels)
            .expect("non-zero dimensions, one texel each");
        let n_objects = 2 + (seed as usize % 3);
        let objects = (0..n_objects)
            .map(|_| MovingObject {
                x: rng.gen_range(0.2..0.8) * width as f64,
                y: rng.gen_range(0.2..0.8) * height as f64,
                vx: rng.gen_range(-1.5..1.5),
                vy: rng.gen_range(-1.5..1.5),
                sigma: rng.gen_range(1.5..3.0),
                intensity: rng.gen_range(150.0..250.0),
            })
            .collect();
        let drift = (rng.gen_range(-0.8..0.8), rng.gen_range(-0.8..0.8));
        SceneGenerator {
            width,
            height,
            rng,
            waves,
            background,
            objects,
            drift,
            frame_index: 0,
            noise_sigma: 1.0,
        }
    }

    /// Removes the moving foreground objects, leaving pure platform motion —
    /// useful for registration tests that need an unambiguous global warp.
    pub fn without_objects(mut self) -> SceneGenerator {
        self.objects.clear();
        self
    }

    /// The per-frame platform drift (ground truth for registration tests).
    #[cfg(test)]
    pub(crate) fn drift(&self) -> (f64, f64) {
        self.drift
    }

    /// Renders the next raw Bayer frame.
    pub fn next_frame(&mut self) -> BayerImage {
        let gray = self.next_frame_gray();
        // A lightly tinted RGB rendition of the luminance scene.
        let mut rgb = RgbImage::zeroed(self.width, self.height);
        for (out, &v) in rgb.pixels_mut().iter_mut().zip(gray.pixels()) {
            *out = [v * 0.95, v, v * 0.9];
        }
        mosaic(&rgb)
    }

    /// Renders the next frame directly in luminance (for kernel-level tests
    /// that skip the sensor front-end).
    pub fn next_frame_gray(&mut self) -> GrayImage {
        let t = self.frame_index as f64;
        self.frame_index += 1;
        // Sample the oversized background at an offset growing with t; start
        // from the center so drift never runs off the texture for the
        // sequence lengths the benchmarks use.
        let ox = self.width as f64 / 2.0 + t * self.drift.0;
        let oy = self.height as f64 / 2.0 + t * self.drift.1;
        let shift = AffineParams::translation(ox, oy);
        // A translation's sample coordinates grow with x and y, so this
        // frame's bilinear samples read the texels from the first sample's
        // floor to one past the last sample's, clamped at the borders.
        let (x0, y0) = shift.apply(0.0, 0.0);
        let (x1, y1) = shift.apply((self.width - 1) as f64, (self.height - 1) as f64);
        let (tw, th) = self.background.dims();
        let texels = |from: f64, to: f64, len: usize| {
            let floor = |t: f64| (t as f32).floor() as isize;
            let clamp = |t: isize| t.clamp(0, len as isize - 1) as usize;
            clamp(floor(from))..=clamp(floor(to).saturating_add(1))
        };
        for ty in texels(y0, y1, th) {
            for tx in texels(x0, x1, tw) {
                if self.background.get(tx, ty).is_nan() {
                    self.background.set(tx, ty, texel(&self.waves, tx, ty));
                }
            }
        }
        let mut img = GrayImage::zeroed(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let (sx, sy) = shift.apply(x as f64, y as f64);
                img.set(x, y, self.background.sample_bilinear(sx as f32, sy as f32));
            }
        }
        // Foreground objects move in scene coordinates.
        for obj in &self.objects {
            let cx = obj.x + t * obj.vx;
            let cy = obj.y + t * obj.vy;
            splat(&mut img, cx, cy, obj.sigma, obj.intensity);
        }
        // Sensor noise.
        for p in img.pixels_mut() {
            let noise: f64 = self.rng.gen_range(-1.0..1.0) * self.noise_sigma;
            *p = (*p + noise as f32).clamp(0.0, 1023.0);
        }
        img
    }
}

/// Adds a Gaussian blob to an image.
fn splat(img: &mut GrayImage, cx: f64, cy: f64, sigma: f64, intensity: f64) {
    let r = (3.0 * sigma).ceil() as isize;
    let (w, h) = img.dims();
    for dy in -r..=r {
        for dx in -r..=r {
            let x = cx.round() as isize + dx;
            let y = cy.round() as isize + dy;
            if x >= 0 && y >= 0 && (x as usize) < w && (y as usize) < h {
                let fx = x as f64 - cx;
                let fy = y as f64 - cy;
                let g = intensity * (-(fx * fx + fy * fy) / (2.0 * sigma * sigma)).exp();
                let old = img.get(x as usize, y as usize);
                img.set(x as usize, y as usize, (old + g as f32).min(1023.0));
            }
        }
    }
}

/// One texel of the background texture at `(x, y)`: low-frequency cosine
/// waves summed over a mid-gray level.
fn texel(waves: &[(f64, f64, f64, f64)], x: usize, y: usize) -> f32 {
    let mut v = 120.0f64;
    for &(fx, fy, phase, amp) in waves {
        v += amp * (fx * x as f64 + fy * y as f64 + phase).cos();
    }
    v.clamp(0.0, 1023.0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debayer::debayer;
    use crate::grayscale::grayscale;
    use crate::lucas_kanade::{register, LkConfig};

    /// The reference texture: every texel evaluated up front, from waves
    /// drawn first from the generator's seeded RNG.
    fn smooth_texture(width: usize, height: usize, rng: &mut StdRng) -> GrayImage {
        let waves: Vec<(f64, f64, f64, f64)> = (0..12)
            .map(|_| {
                (
                    rng.gen_range(0.02..0.15),                 // fx
                    rng.gen_range(0.02..0.15),                 // fy
                    rng.gen_range(0.0..std::f64::consts::TAU), // phase
                    rng.gen_range(10.0..30.0),                 // amplitude
                )
            })
            .collect();
        let mut img = GrayImage::zeroed(width, height);
        for y in 0..height {
            for x in 0..width {
                let mut v = 120.0f64;
                for &(fx, fy, phase, amp) in &waves {
                    v += amp * (fx * x as f64 + fy * y as f64 + phase).cos();
                }
                img.set(x, y, v.clamp(0.0, 1023.0) as f32);
            }
        }
        img
    }

    /// A generator whose whole background is the reference texture, so no
    /// frame evaluates a texel.
    fn eager(width: usize, height: usize, seed: u64) -> SceneGenerator {
        let mut scene = SceneGenerator::new(width, height, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        scene.background = smooth_texture(width * 2, height * 2, &mut rng);
        scene
    }

    /// Frame `i` of both generators, raw on even frames and luminance on
    /// odd ones.
    fn assert_same_frame(lazy: &mut SceneGenerator, eager: &mut SceneGenerator, label: &str) {
        let i = lazy.frame_index;
        if i.is_multiple_of(2) {
            assert_eq!(lazy.next_frame(), eager.next_frame(), "{label} frame {i}");
        } else {
            let (a, b) = (lazy.next_frame_gray(), eager.next_frame_gray());
            assert!(a.pixels().iter().all(|p| !p.is_nan()), "{label} frame {i}");
            assert_eq!(a, b, "{label} frame {i}");
        }
    }

    #[test]
    fn texels_evaluated_on_first_read_render_the_eager_frames() {
        for (width, height) in [(1, 1), (7, 3), (64, 64)] {
            for seed in 0..=6 {
                for objects in [true, false] {
                    let label = format!("{width}x{height} seed {seed} objects {objects}");
                    let (mut lazy, mut reference) = (
                        SceneGenerator::new(width, height, seed),
                        eager(width, height, seed),
                    );
                    if !objects {
                        lazy = lazy.without_objects();
                        reference = reference.without_objects();
                    }
                    let mut clone = None;
                    for i in 0..64 {
                        if i == 23 {
                            clone = Some((lazy.clone(), reference.clone()));
                        }
                        assert_same_frame(&mut lazy, &mut reference, &label);
                    }
                    // A clone taken mid-sequence continues as the original.
                    let (mut lazy, mut reference) = clone.unwrap();
                    for _ in 23..64 {
                        assert_same_frame(&mut lazy, &mut reference, &format!("{label} clone"));
                    }
                }
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = SceneGenerator::new(32, 32, 9);
        let mut b = SceneGenerator::new(32, 32, 9);
        assert_eq!(a.next_frame(), b.next_frame());
        assert_eq!(a.next_frame(), b.next_frame());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SceneGenerator::new(32, 32, 1);
        let mut b = SceneGenerator::new(32, 32, 2);
        assert_ne!(a.next_frame(), b.next_frame());
    }

    #[test]
    fn frames_stay_in_sensor_range() {
        let mut scene = SceneGenerator::new(48, 48, 5);
        for _ in 0..5 {
            let f = scene.next_frame();
            assert!(f.pixels().iter().all(|&p| p <= 1023));
        }
    }

    #[test]
    fn registration_recovers_platform_drift() {
        let mut scene = SceneGenerator::new(64, 64, 11).without_objects();
        let f0 = scene.next_frame_gray();
        let f1 = scene.next_frame_gray();
        let (dx, dy) = scene.drift();
        let reg = register(&f0, &f1, &LkConfig::default()).unwrap();
        // frame1(x) = frame0(x + drift), so the warp aligning frame1 onto
        // frame0 translates by -drift.
        assert!(
            (reg.params.p[4] + dx).abs() < 0.15,
            "dx {} vs {}",
            reg.params.p[4],
            -dx
        );
        assert!(
            (reg.params.p[5] + dy).abs() < 0.15,
            "dy {} vs {}",
            reg.params.p[5],
            -dy
        );
    }

    #[test]
    fn full_front_end_runs_on_generated_frames() {
        let mut scene = SceneGenerator::new(32, 32, 3);
        let raw = scene.next_frame();
        let rgb = debayer(&raw).unwrap();
        let gray = grayscale(&rgb).unwrap();
        assert_eq!(gray.dims(), (32, 32));
        assert!(gray.mean() > 10.0);
    }
}
