//! `presp-wami`: the frame source, the software reference pipeline and a
//! probe over the WAMI kernels.
//!
//! The kernels only run nested inside `process_frame`, so the probe calls
//! each one directly on the frame the workload just processed.

use crate::spans::Spans;
use presp_wami::change_detection::{ChangeDetector, GmmConfig};
use presp_wami::frames::SceneGenerator;
use presp_wami::lucas_kanade::{hessian, sd_update, steepest_descent, LkConfig};
use presp_wami::pipeline::{Pipeline, PipelineConfig};
pub use presp_wami::warp::AffineParams;
use presp_wami::warp::{subtract, warp_image};
pub use presp_wami::{BayerImage, GrayImage};

/// Seeded synthetic aerial scene of `size`×`size` raw frames.
pub fn scene(size: usize, seed: u64) -> SceneGenerator {
    SceneGenerator::new(size, size, seed)
}

/// What the software pipeline computes for one frame.
#[derive(Debug, Clone)]
pub struct Reference {
    pub changed_pixels: usize,
    pub registration: Option<AffineParams>,
    pub gray: GrayImage,
}

/// The software reference with the app's fixed-iteration solver settings
/// (`epsilon = 0` runs exactly `lk_iterations` Gauss-Newton steps).
pub struct ReferencePipeline(Pipeline);

impl ReferencePipeline {
    pub fn new(lk_iterations: usize) -> ReferencePipeline {
        ReferencePipeline(Pipeline::new(PipelineConfig {
            lk: LkConfig {
                max_iterations: lk_iterations,
                epsilon: 0.0,
                border_margin: 4,
            },
            gmm: GmmConfig::default(),
        }))
    }

    pub fn process(&mut self, raw: &BayerImage) -> Reference {
        let out = self.0.process(raw).expect("scene frames are textured");
        let gray = presp_wami::grayscale::grayscale(
            &presp_wami::debayer::debayer(raw).expect("scene frames debayer"),
        )
        .expect("debayered frames convert");
        Reference {
            changed_pixels: out.changed_pixels,
            registration: out.registration.map(|r| r.params),
            gray,
        }
    }
}

/// Times every WAMI kernel once on `raw`, registering it against
/// `template` with `params`.
pub struct KernelProbe {
    detector: Option<ChangeDetector>,
}

impl KernelProbe {
    pub fn new() -> KernelProbe {
        KernelProbe { detector: None }
    }

    pub fn run(
        &mut self,
        spans: &mut Spans,
        raw: &BayerImage,
        template: &GrayImage,
        params: &AffineParams,
        id: u64,
    ) {
        let rgb = spans.time("wami.debayer", id, |_| presp_wami::debayer::debayer(raw));
        let rgb = rgb.expect("scene frames debayer");
        let gray = spans.time("wami.grayscale", id, |_| {
            presp_wami::grayscale::grayscale(&rgb)
        });
        let gray = gray.expect("debayered frames convert");
        let grads = spans.time("wami.gradient", id, |_| {
            presp_wami::gradient::gradient(template)
        });
        let grads = grads.expect("templates have gradients");
        let sd = spans.time("wami.steepest_descent", id, |_| steepest_descent(&grads));
        let sd = sd.expect("steepest descent of a gradient pair");
        spans.time("wami.hessian", id, |_| std::hint::black_box(hessian(&sd)));
        let warped = spans.time("wami.warp", id, |_| warp_image(&gray, params));
        let warped = warped.expect("affine warps stay in bounds");
        let error = subtract(&warped, template).expect("same-size frames");
        let b = spans.time("wami.sd_update", id, |_| sd_update(&sd, &error));
        std::hint::black_box(b.expect("same-size images"));
        let (w, h) = gray.dims();
        let detector = self
            .detector
            .get_or_insert_with(|| ChangeDetector::new(w, h, GmmConfig::default()));
        let mask = spans.time("wami.change_detection", id, |_| detector.update(&warped));
        std::hint::black_box(mask.expect("same-size frames"));
    }
}
