//! The WAMI-App benchmark: the application workload of the PR-ESP paper.
//!
//! Wide Area Motion Imagery processing, after the PERFECT benchmark suite:
//! a Bayer-mosaiced aerial frame is demosaiced ([`debayer`]), converted to
//! luminance ([`grayscale`]), registered against the previous frame with
//! inverse-compositional Lucas-Kanade ([`lucas_kanade`]) and finally passed
//! through Gaussian-mixture change detection ([`change_detection`]).
//!
//! The Lucas-Kanade solver is deliberately decomposed into the individual
//! kernels ([`gradient`], [`warp`], steepest-descent, Hessian, SD-update,
//! 6×6 matrix inversion, parameter update) because the paper splits the
//! accelerator the same way "to further parallelize its execution"
//! (Section VI); each decomposed kernel maps to one accelerator in
//! `presp-accel`.
//!
//! [`frames`] generates synthetic input sequences (the PERFECT input data is
//! not redistributable); [`graph`] captures the Fig. 3 dataflow; and
//! [`pipeline`] is the golden software reference the accelerated SoCs are
//! validated against.
//!
//! # Example
//!
//! ```
//! use presp_wami::frames::SceneGenerator;
//! use presp_wami::pipeline::{Pipeline, PipelineConfig};
//!
//! let mut scene = SceneGenerator::new(64, 64, 7);
//! let mut pipeline = Pipeline::new(PipelineConfig::default());
//! let frame = scene.next_frame();
//! let out = pipeline.process(&frame)?;
//! assert_eq!(out.changed_pixels, 0); // first frame: everything is background
//! # Ok::<(), presp_wami::Error>(())
//! ```

#![warn(unreachable_pub)]

pub mod change_detection;
pub mod debayer;
mod error;
pub mod frames;
pub mod gradient;
pub mod graph;
pub mod grayscale;
pub mod image;
pub mod lucas_kanade;
pub mod matrix;
pub mod pipeline;
pub mod warp;

pub use error::Error;
pub use image::{BayerImage, GrayImage, RgbImage};
