//! The golden software WAMI pipeline.
//!
//! Runs the full Fig. 3 dataflow in software: debayer → grayscale →
//! inverse-compositional Lucas-Kanade registration against the previous
//! frame → warp with the converged parameters → Gaussian-mixture change
//! detection. Accelerated SoC runs in `presp-soc`/`presp-runtime` are
//! validated against this reference.

use crate::change_detection::{changed_pixels, ChangeDetector, GmmConfig};
use crate::debayer::debayer;
use crate::error::Error;
use crate::grayscale::grayscale;
use crate::image::{BayerImage, GrayImage};
use crate::lucas_kanade::{register, LkConfig, Registration};
use crate::warp::warp_image;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineConfig {
    /// Lucas-Kanade solver settings.
    pub lk: LkConfig,
    /// Change-detection mixture settings.
    pub gmm: GmmConfig,
}

/// Per-frame pipeline output.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutput {
    /// Registration against the previous frame (`None` for the first frame).
    pub registration: Option<Registration>,
    /// Number of pixels flagged as changed.
    pub changed_pixels: usize,
    /// Mean luminance of the frame (sanity signal).
    pub luma_mean: f32,
}

/// Stateful software WAMI pipeline.
///
/// # Example
///
/// ```
/// use presp_wami::frames::SceneGenerator;
/// use presp_wami::pipeline::{Pipeline, PipelineConfig};
///
/// let mut scene = SceneGenerator::new(48, 48, 1);
/// let mut pipeline = Pipeline::new(PipelineConfig::default());
/// for _ in 0..3 {
///     let out = pipeline.process(&scene.next_frame())?;
///     assert!(out.luma_mean > 0.0);
/// }
/// # Ok::<(), presp_wami::Error>(())
/// ```
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    previous: Option<GrayImage>,
    detector: Option<ChangeDetector>,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline {
            config,
            previous: None,
            detector: None,
        }
    }

    /// Processes one raw Bayer frame through the full dataflow.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (dimension mismatches, singular Hessians on
    /// featureless frames, diverged registration).
    pub fn process(&mut self, raw: &BayerImage) -> Result<FrameOutput, Error> {
        let rgb = debayer(raw)?;
        let gray = grayscale(&rgb)?;
        let luma_mean = gray.mean();
        let (w, h) = gray.dims();

        let registration = match &self.previous {
            None => None,
            Some(template) => Some(register(template, &gray, &self.config.lk)?),
        };

        // Align the frame onto the template coordinate system before change
        // detection so camera motion does not register as change.
        let aligned = match &registration {
            Some(reg) => warp_image(&gray, &reg.params)?,
            None => gray.clone(),
        };

        let detector = self
            .detector
            .get_or_insert_with(|| ChangeDetector::new(w, h, self.config.gmm));
        let mask = detector.update(&aligned)?;
        let changed = changed_pixels(&mask);

        self.previous = Some(gray);
        Ok(FrameOutput {
            registration,
            changed_pixels: changed,
            luma_mean,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::SceneGenerator;

    #[test]
    fn first_frame_has_no_registration() {
        let mut scene = SceneGenerator::new(48, 48, 2);
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let out = pipe.process(&scene.next_frame()).unwrap();
        assert!(out.registration.is_none());
        assert_eq!(out.changed_pixels, 0);
    }

    #[test]
    fn subsequent_frames_register_platform_motion() {
        let mut scene = SceneGenerator::new(64, 64, 17).without_objects();
        let mut pipe = Pipeline::new(PipelineConfig::default());
        pipe.process(&scene.next_frame()).unwrap();
        let out = pipe.process(&scene.next_frame()).unwrap();
        let reg = out.registration.expect("second frame registers");
        let (dx, dy) = scene.drift();
        // The warp aligning the new frame onto the previous one undoes the
        // platform drift (Bayer mosaic + demosaic add a little blur noise).
        assert!(
            (reg.params.p[4] + dx).abs() < 0.3,
            "dx {} vs {}",
            reg.params.p[4],
            -dx
        );
        assert!(
            (reg.params.p[5] + dy).abs() < 0.3,
            "dy {} vs {}",
            reg.params.p[5],
            -dy
        );
    }

    #[test]
    fn moving_objects_eventually_flag_changes() {
        let mut scene = SceneGenerator::new(64, 64, 23);
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut total_changed = 0usize;
        for _ in 0..6 {
            total_changed += pipe.process(&scene.next_frame()).unwrap().changed_pixels;
        }
        // Moving blobs leave + enter pixels every frame; the detector must
        // notice at least some of that after warm-up.
        assert!(total_changed > 0, "no change detected across 6 frames");
    }

    #[test]
    fn change_fraction_is_small() {
        // Registration compensates platform motion, so only the small moving
        // objects (not the whole frame) should be flagged.
        let mut scene = SceneGenerator::new(64, 64, 23);
        let mut pipe = Pipeline::new(PipelineConfig::default());
        for _ in 0..3 {
            pipe.process(&scene.next_frame()).unwrap();
        }
        let out = pipe.process(&scene.next_frame()).unwrap();
        let frac = out.changed_pixels as f64 / (64.0 * 64.0);
        assert!(
            frac < 0.2,
            "changed fraction {frac} too large: registration failed?"
        );
    }
}
