//! The WAMI application scheduler.
//!
//! Maps the Fig. 3 dataflow onto a partially reconfigurable SoC given a
//! kernel→tile allocation (Table VI). Kernels without an allocation run in
//! software on the CPU tile (the only consistent reading of the paper's
//! SoC_X/SoC_Y rows, which omit some kernel indices). Each frame executes
//! the full pipeline: sensor-front-end, template-side Lucas-Kanade
//! precomputation, a fixed number of Gauss-Newton iterations, the final
//! warp and Gaussian-mixture change detection — with real image data, so
//! outputs are bit-identical to [`presp_wami::pipeline`] under the same
//! solver settings.
//!
//! Reconfigurations are *prefetched*: a tile's next accelerator is
//! requested as soon as the tile goes idle, not when the input data is
//! ready, letting SoCs with more tiles hide reconfiguration latency behind
//! other tiles' compute — the paper's "interleaved" reconfiguration.

use crate::error::Error;
use crate::manager::{ExecPath, ReconfigManager};
use presp_accel::catalog::AcceleratorKind;
use presp_accel::{AccelOp, AccelValue};
use presp_events::trace::ClockDomain;
use presp_events::TraceEvent;
use presp_soc::config::TileCoord;
use presp_wami::change_detection::{ChangeDetector, GmmConfig};
use presp_wami::graph::WamiKernel;
use presp_wami::image::{BayerImage, GrayImage};
use presp_wami::warp::AffineParams;
use std::collections::BTreeMap;

/// A kernel→tile allocation (one Table VI column).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WamiAllocation {
    map: BTreeMap<WamiKernel, TileCoord>,
}

impl WamiAllocation {
    /// Builds an allocation from `(tile, kernel indices)` rows, e.g.
    /// Table VI's SoC_Y: `[(rt1, &[1, 3, 7, 12]), (rt2, &[2, 6, 8]), (rt3, &[4, 9, 10])]`.
    ///
    /// # Panics
    ///
    /// Panics on kernel indices outside `1..=12` or an index allocated to
    /// two tiles.
    pub fn from_rows(rows: &[(TileCoord, &[usize])]) -> WamiAllocation {
        let mut map = BTreeMap::new();
        for (tile, indices) in rows {
            for &i in *indices {
                let kernel =
                    WamiKernel::from_index(i).unwrap_or_else(|| panic!("bad kernel index {i}"));
                assert!(
                    map.insert(kernel, *tile).is_none(),
                    "kernel #{i} allocated twice"
                );
            }
        }
        WamiAllocation { map }
    }

    /// The tile a kernel is allocated to (`None` → CPU fallback).
    pub fn tile_for(&self, kernel: WamiKernel) -> Option<TileCoord> {
        self.map.get(&kernel).copied()
    }

    /// All kernels allocated to `tile`.
    pub fn kernels_on(&self, tile: TileCoord) -> Vec<WamiKernel> {
        self.map
            .iter()
            .filter(|(_, t)| **t == tile)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Kernels with no tile (CPU fallback).
    pub fn unallocated(&self) -> Vec<WamiKernel> {
        WamiKernel::ALL
            .iter()
            .copied()
            .filter(|k| !self.map.contains_key(k))
            .collect()
    }

    /// Distinct tiles used by this allocation.
    pub fn tiles(&self) -> Vec<TileCoord> {
        let mut tiles: Vec<TileCoord> = self.map.values().copied().collect();
        tiles.sort_unstable();
        tiles.dedup();
        tiles
    }
}

/// Per-frame report of an accelerated WAMI run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Pixels flagged as changed.
    pub changed_pixels: usize,
    /// Registration warp for this frame (`None` for the first frame).
    pub registration: Option<AffineParams>,
    /// Cycle the frame's processing started.
    pub start: u64,
    /// Cycle the frame's processing finished.
    pub end: u64,
    /// Reconfigurations triggered while processing this frame.
    pub reconfigurations: u64,
    /// Cycles spent in those reconfigurations (tile-blocking time).
    pub reconfig_cycles: u64,
    /// Allocated kernels that degraded to the CPU software path this frame
    /// (quarantined tile, exhausted retries, or missing bitstream).
    pub cpu_fallbacks: u64,
}

impl FrameReport {
    /// Frame latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-frame accounting accumulated across `exec` calls.
#[derive(Debug, Default)]
struct FrameStats {
    reconfigurations: u64,
    reconfig_cycles: u64,
    cpu_fallbacks: u64,
}

/// A deployed WAMI application: SoC + manager + allocation + LK settings.
#[derive(Debug)]
pub struct WamiApp {
    manager: ReconfigManager,
    allocation: WamiAllocation,
    lk_iterations: usize,
    border_margin: usize,
    prefetch: bool,
    template: Option<GrayImage>,
    detector: Option<Box<ChangeDetector>>,
    frames: usize,
}

impl WamiApp {
    /// Deploys the application.
    ///
    /// `lk_iterations` fixes the Gauss-Newton iteration count per frame
    /// (fixed for timing comparability across SoCs).
    pub fn new(
        manager: ReconfigManager,
        allocation: WamiAllocation,
        lk_iterations: usize,
    ) -> WamiApp {
        WamiApp {
            manager,
            allocation,
            lk_iterations,
            border_margin: 4,
            prefetch: true,
            template: None,
            detector: None,
            frames: 0,
        }
    }

    /// Enables or disables prefetch reconfiguration (enabled by default).
    ///
    /// With prefetch off, a tile's reconfiguration is requested only when
    /// the kernel's input data is ready — the paper's "non-interleaved"
    /// reconfiguration, which exposes the full DPR latency on the critical
    /// path. The ablation benches compare both modes.
    pub fn with_prefetch(mut self, prefetch: bool) -> WamiApp {
        self.prefetch = prefetch;
        self
    }

    /// The underlying manager (for stats inspection).
    pub fn manager(&self) -> &ReconfigManager {
        &self.manager
    }

    /// Mutable access to the manager (e.g. to arm a fault plan on the SoC
    /// or swap the recovery policy).
    pub fn manager_mut(&mut self) -> &mut ReconfigManager {
        &mut self.manager
    }

    /// Consumes the app, returning the manager (and through it the SoC).
    pub fn into_manager(self) -> ReconfigManager {
        self.manager
    }

    /// Frames processed so far.
    pub fn frames_processed(&self) -> usize {
        self.frames
    }

    /// Executes `kernel`'s `op` with inputs ready at `ready`; returns the
    /// value and completion cycle.
    ///
    /// If the accelerator path is unavailable for a degradable reason
    /// (quarantined tile, exhausted reconfiguration retries, missing
    /// bitstream) and [`crate::manager::RecoveryPolicy::cpu_fallback`]
    /// allows it, the kernel degrades to the CPU software path so the
    /// frame still completes; the software kernels are bit-identical,
    /// only timing changes.
    fn exec(
        &mut self,
        kernel: WamiKernel,
        op: AccelOp,
        ready: u64,
        frame_stats: &mut FrameStats,
    ) -> Result<(AccelValue, u64), Error> {
        let run = match self.allocation.tile_for(kernel) {
            Some(tile) => {
                // Prefetch: the reconfiguration request is issued at the
                // tile's idle time, independent of `ready`; non-interleaved
                // mode waits for the data to be ready first.
                let idle = self.manager.tile_idle_at(tile);
                let request_at = if self.prefetch { idle } else { ready.max(idle) };
                let kind = AcceleratorKind::Wami(kernel);
                let (run, path, reconf) = self
                    .manager
                    .execute_at(tile, kind, &op, request_at, ready)?;
                if let Some(reconf) = reconf {
                    frame_stats.reconfigurations += 1;
                    frame_stats.reconfig_cycles += reconf.latency();
                }
                if path == ExecPath::CpuFallback {
                    frame_stats.cpu_fallbacks += 1;
                }
                run
            }
            None => self.manager.run_on_cpu_at(&op, ready)?,
        };
        let frame = self.frames as u64;
        self.manager.soc_mut().tracer_mut().emit(
            ClockDomain::SocCycles,
            ready,
            run.end.saturating_sub(ready),
            || TraceEvent::FrameStage {
                frame,
                stage: kernel.name().to_string(),
            },
        );
        Ok((run.value, run.end))
    }

    /// Processes one raw Bayer frame through the full accelerated dataflow.
    ///
    /// # Errors
    ///
    /// Propagates manager and kernel errors (e.g. a singular Hessian on a
    /// featureless frame).
    pub fn process_frame(&mut self, raw: &BayerImage) -> Result<FrameReport, Error> {
        use WamiKernel::*;
        let start = self.manager.makespan();
        let mut stats = FrameStats::default();

        // Sensor front-end: #1 debayer → #2 grayscale.
        let (rgb, t_rgb) = match self.exec(
            Debayer,
            AccelOp::Debayer { raw: raw.clone() },
            start,
            &mut stats,
        )? {
            (AccelValue::Rgb(rgb), t) => (rgb, t),
            (other, _) => unreachable!("debayer returned {other:?}"),
        };
        let (gray, t_gray) =
            match self.exec(Grayscale, AccelOp::Grayscale { rgb }, t_rgb, &mut stats)? {
                (AccelValue::Image(g), t) => (g, t),
                (other, _) => unreachable!("grayscale returned {other:?}"),
            };
        let (w, h) = gray.dims();

        let mut registration = None;
        let mut aligned = gray.clone();
        let mut t_aligned = t_gray;

        if let Some(template) = self.template.clone() {
            // Template-side precomputation (#3, #6, #7, #9) — independent of
            // the current frame's front-end, so it starts at frame start.
            let (grads, t3) = match self.exec(
                Gradient,
                AccelOp::Gradient {
                    image: template.clone(),
                },
                start,
                &mut stats,
            )? {
                (AccelValue::Gradients(g), t) => (g, t),
                (other, _) => unreachable!("gradient returned {other:?}"),
            };
            // Driver-side border masking (see presp_wami::lucas_kanade):
            // warping samples clamped borders, so the solve excludes a band.
            let mut grads = grads;
            mask_border(&mut grads.dx, self.border_margin);
            mask_border(&mut grads.dy, self.border_margin);
            let (sd, t6) = match self.exec(
                SteepestDescent,
                AccelOp::SteepestDescent { grad: grads },
                t3,
                &mut stats,
            )? {
                (AccelValue::Sd(sd), t) => (sd, t),
                (other, _) => unreachable!("steepest-descent returned {other:?}"),
            };
            let (hess, t7) =
                match self.exec(Hessian, AccelOp::Hessian { sd: sd.clone() }, t6, &mut stats)? {
                    (AccelValue::Mat(m), t) => (m, t),
                    (other, _) => unreachable!("hessian returned {other:?}"),
                };
            let (h_inv, t9) = match self.exec(
                MatrixInvert,
                AccelOp::MatrixInvert { m: hess },
                t7,
                &mut stats,
            )? {
                (AccelValue::Mat(m), t) => (m, t),
                (other, _) => unreachable!("matrix-invert returned {other:?}"),
            };

            // Gauss-Newton loop (#4, #5, #8, #10).
            let mut params = AffineParams::identity();
            let mut t_loop = t9.max(t_gray);
            for _ in 0..self.lk_iterations {
                let (warped, t4) = match self.exec(
                    Warp,
                    AccelOp::Warp {
                        image: gray.clone(),
                        params,
                    },
                    t_loop,
                    &mut stats,
                )? {
                    (AccelValue::Image(img), t) => (img, t),
                    (other, _) => unreachable!("warp returned {other:?}"),
                };
                let (error, t5) = match self.exec(
                    Subtract,
                    AccelOp::Subtract {
                        a: warped,
                        b: template.clone(),
                    },
                    t4,
                    &mut stats,
                )? {
                    (AccelValue::Image(img), t) => (img, t),
                    (other, _) => unreachable!("subtract returned {other:?}"),
                };
                let (b, t8) = match self.exec(
                    SdUpdate,
                    AccelOp::SdUpdate {
                        sd: sd.clone(),
                        error,
                    },
                    t5,
                    &mut stats,
                )? {
                    (AccelValue::Vec6(v), t) => (v, t),
                    (other, _) => unreachable!("sd-update returned {other:?}"),
                };
                let (new_params, t10) = match self.exec(
                    DeltaP,
                    AccelOp::DeltaP { h_inv, b, params },
                    t8,
                    &mut stats,
                )? {
                    (AccelValue::Params(p), t) => (p, t),
                    (other, _) => unreachable!("delta-p returned {other:?}"),
                };
                params = new_params;
                t_loop = t10;
            }

            // Final warp (#11) with the converged parameters.
            let (final_warp, t11) = match self.exec(
                WarpIwxp,
                AccelOp::Warp {
                    image: gray.clone(),
                    params,
                },
                t_loop,
                &mut stats,
            )? {
                (AccelValue::Image(img), t) => (img, t),
                (other, _) => unreachable!("warp-iwxp returned {other:?}"),
            };
            aligned = final_warp;
            t_aligned = t11;
            registration = Some(params);
        }

        // Change detection (#12) against the DRAM-resident model.
        let model = self
            .detector
            .take()
            .unwrap_or_else(|| Box::new(ChangeDetector::new(w, h, GmmConfig::default())));
        let (changed, t12) = match self.exec(
            ChangeDetection,
            AccelOp::ChangeDetection {
                frame: aligned,
                model,
            },
            t_aligned,
            &mut stats,
        )? {
            (AccelValue::ChangeDetection { changed, model }, t) => {
                self.detector = Some(model);
                (changed, t)
            }
            (other, _) => unreachable!("change-detection returned {other:?}"),
        };

        let frame = self.frames as u64;
        self.manager.soc_mut().tracer_mut().emit(
            ClockDomain::SocCycles,
            start,
            t12.saturating_sub(start),
            || TraceEvent::FrameDone {
                frame,
                reconfigurations: stats.reconfigurations,
            },
        );

        self.template = Some(gray);
        self.frames += 1;
        Ok(FrameReport {
            changed_pixels: changed,
            registration,
            start,
            end: t12,
            reconfigurations: stats.reconfigurations,
            reconfig_cycles: stats.reconfig_cycles,
            cpu_fallbacks: stats.cpu_fallbacks,
        })
    }
}

/// Zeroes a `margin`-pixel border band of an image.
fn mask_border(img: &mut GrayImage, margin: usize) {
    let (w, h) = img.dims();
    if margin == 0 || w <= 2 * margin || h <= 2 * margin {
        return;
    }
    for y in 0..h {
        for x in 0..w {
            if x < margin || y < margin || x >= w - margin || y >= h - margin {
                img.set(x, y, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BitstreamRegistry;
    use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
    use presp_fpga::frame::FrameAddress;
    use presp_soc::config::SocConfig;
    use presp_soc::sim::Soc;
    use presp_wami::frames::SceneGenerator;

    fn bitstream(soc: &Soc, seed: u32) -> Bitstream {
        let device = soc.part().device();
        let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        let words = device.part().family().frame_words();
        for minor in 0..6 {
            b.add_frame(
                FrameAddress::new((seed / 64) % 7, 1 + seed % 64, minor),
                vec![seed + minor; words],
            )
            .unwrap();
        }
        b.build(true)
    }

    /// A two-reconfigurable-tile deployment shaped like the paper's SoC_X.
    fn soc_x_app(lk_iterations: usize) -> WamiApp {
        let cfg = SocConfig::grid_3x3_reconf("soc_x", 2).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let rts = cfg.reconfigurable_tiles();
        let allocation = WamiAllocation::from_rows(&[
            (rts[0], &[1, 4, 9, 10, 8][..]),
            (rts[1], &[2, 3, 6, 7, 11][..]),
        ]);
        let mut registry = BitstreamRegistry::new();
        let mut seed = 1u32;
        for (tile, kernels) in [(rts[0], [1usize, 4, 9, 10, 8]), (rts[1], [2, 3, 6, 7, 11])] {
            for k in kernels {
                registry
                    .register(
                        tile,
                        AcceleratorKind::wami(k).unwrap(),
                        bitstream(&soc, seed),
                    )
                    .unwrap();
                seed += 97;
            }
        }
        WamiApp::new(
            ReconfigManager::new(soc, registry),
            allocation,
            lk_iterations,
        )
    }

    #[test]
    fn allocation_bookkeeping() {
        let rt1 = TileCoord::new(1, 0);
        let rt2 = TileCoord::new(1, 1);
        let alloc = WamiAllocation::from_rows(&[(rt1, &[1, 4][..]), (rt2, &[2][..])]);
        assert_eq!(alloc.tile_for(WamiKernel::Debayer), Some(rt1));
        assert_eq!(alloc.tile_for(WamiKernel::Grayscale), Some(rt2));
        assert_eq!(alloc.tile_for(WamiKernel::ChangeDetection), None);
        assert_eq!(alloc.kernels_on(rt1).len(), 2);
        assert_eq!(alloc.unallocated().len(), 9);
        assert_eq!(alloc.tiles(), vec![rt1, rt2]);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn duplicate_allocation_panics() {
        let t = TileCoord::new(0, 0);
        WamiAllocation::from_rows(&[(t, &[1][..]), (t, &[1][..])]);
    }

    #[test]
    fn first_frame_runs_front_end_and_cd_only() {
        let mut app = soc_x_app(2);
        let mut scene = SceneGenerator::new(32, 32, 5);
        let report = app.process_frame(&scene.next_frame()).unwrap();
        assert!(report.registration.is_none());
        assert_eq!(report.changed_pixels, 0);
        // Debayer + grayscale were reconfigured in (CD runs on the CPU).
        assert!(report.reconfigurations >= 2);
        assert!(report.end > report.start);
    }

    #[test]
    fn accelerated_app_matches_software_pipeline() {
        use presp_wami::lucas_kanade::LkConfig;
        use presp_wami::pipeline::{Pipeline, PipelineConfig};
        let iterations = 3;
        let mut app = soc_x_app(iterations);
        // epsilon = 0 forces the software solver to run exactly
        // `iterations` Gauss-Newton steps, like the fixed-count app.
        let mut sw = Pipeline::new(PipelineConfig {
            lk: LkConfig {
                max_iterations: iterations,
                epsilon: 0.0,
                border_margin: 4,
            },
            gmm: GmmConfig::default(),
        });
        let mut scene = SceneGenerator::new(32, 32, 9);
        for _ in 0..4 {
            let frame = scene.next_frame();
            let hw = app.process_frame(&frame).unwrap();
            let sw_out = sw.process(&frame).unwrap();
            assert_eq!(
                hw.changed_pixels, sw_out.changed_pixels,
                "CD outputs diverged"
            );
            match (&hw.registration, &sw_out.registration) {
                (None, None) => {}
                (Some(p), Some(reg)) => {
                    for i in 0..6 {
                        assert!(
                            (p.p[i] - reg.params.p[i]).abs() < 1e-9,
                            "param {i}: {} vs {}",
                            p.p[i],
                            reg.params.p[i]
                        );
                    }
                }
                other => panic!("registration presence diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn prefetch_never_slows_a_frame_down() {
        let run = |prefetch: bool| -> u64 {
            let mut app = soc_x_app(2).with_prefetch(prefetch);
            let mut scene = SceneGenerator::new(32, 32, 13);
            let mut total = 0;
            for _ in 0..3 {
                total += app.process_frame(&scene.next_frame()).unwrap().latency();
            }
            total
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with <= without,
            "prefetch {with} vs non-interleaved {without}"
        );
    }

    #[test]
    fn frames_progress_in_time_and_reconfigure() {
        let mut app = soc_x_app(1);
        let mut scene = SceneGenerator::new(32, 32, 3);
        let r1 = app.process_frame(&scene.next_frame()).unwrap();
        let r2 = app.process_frame(&scene.next_frame()).unwrap();
        assert!(r2.start >= r1.end, "no frame pipelining");
        // Frame 2 exercises the full LK chain: many swaps on two tiles.
        assert!(r2.reconfigurations > r1.reconfigurations);
        assert_eq!(app.frames_processed(), 2);
    }
}
