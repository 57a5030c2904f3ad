//! The automated PR-ESP FPGA flow (Fig. 1): parse → parallel synthesis →
//! floorplan → size-driven strategy → scheduled P&R → bitstream generation.

use crate::design::{region_name, SocDesign};
use crate::error::Error;
use crate::strategy::{choose_strategy, SizeClass};
use presp_accel::catalog::AcceleratorKind;
use presp_cad::flow::{CadFlow, FullFlowReport, MonolithicReport, Strategy};
use presp_cad::place::{build_partial_bitstream, place_in_region, FRAME_CONTENT_DENSITY};
use presp_events::trace::ClockDomain;
use presp_events::trace::{BitstreamArgs, FlowStageArgs};
use presp_events::{milliminutes, TraceEvent, Tracer};
use presp_floorplan::{Floorplan, Floorplanner, RegionRequest};
use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp_fpga::fabric::{ColumnKind, Device};
use presp_fpga::frame::{frames_per_column, FrameAddress};
use presp_fpga::part::FpgaPart;
use presp_fpga::resources::Resources;
use presp_soc::config::TileCoord;

/// One generated partial bitstream.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialBitstreamInfo {
    /// Reconfigurable-region name.
    pub region: String,
    /// Target tile (`None` for the relocated CPU module).
    pub tile: Option<TileCoord>,
    /// Accelerator (or CPU) the bitstream loads.
    pub kind: AcceleratorKind,
    /// The bitstream itself.
    pub bitstream: Bitstream,
}

/// Everything the flow produces for one design. The full-device boot
/// bitstream is built on demand by [`FlowOutput::full_bitstream`]: the
/// evaluation reads only the reports, the partials and the full stream's
/// size, which [`PrEspFlow::run_traced`] traces without building it.
#[derive(Debug, Clone)]
pub struct FlowOutput {
    /// Size class of the design (Section IV).
    pub class: SizeClass,
    /// Strategy the size-driven algorithm selected.
    pub strategy: Strategy,
    /// PR-ESP flow report (parallel synthesis + scheduled P&R).
    pub report: FullFlowReport,
    /// The standard Xilinx DPR flow baseline for the same design.
    pub monolithic: MonolithicReport,
    /// The floorplan of the reconfigurable regions.
    pub floorplan: Floorplan,
    /// One partial bitstream per (region, loadable accelerator) pair.
    pub partial_bitstreams: Vec<PartialBitstreamInfo>,
    /// The target part, for building the full bitstream.
    part: FpgaPart,
    /// The static part's resources, which the full bitstream spreads
    /// over the fabric outside the pblocks.
    static_resources: Resources,
}

impl FlowOutput {
    /// Builds the full-device boot bitstream: static content outside the
    /// reconfigurable pblocks, blank frames inside them. It is always
    /// compressed, whatever the flow's partial-bitstream setting, and is
    /// rebuilt on every call.
    ///
    /// # Errors
    ///
    /// Propagates bitstream-builder errors.
    pub fn full_bitstream(&self) -> Result<Bitstream, Error> {
        let builder =
            stage_full_frames(&self.part.device(), &self.floorplan, self.static_resources)?;
        Ok(builder.build(true))
    }

    /// Mean compressed pbs size per region, in KB (Table VI's `pbs (KB)`).
    pub fn mean_pbs_kb(&self, region: &str) -> Option<f64> {
        let sizes: Vec<usize> = self
            .partial_bitstreams
            .iter()
            .filter(|p| p.region == region)
            .map(|p| p.bitstream.size_bytes())
            .collect();
        if sizes.is_empty() {
            None
        } else {
            Some(sizes.iter().sum::<usize>() as f64 / sizes.len() as f64 / 1024.0)
        }
    }
}

/// The PR-ESP flow driver: the analogue of the paper's "single make
/// target" that takes an SoC configuration to its CAD reports, floorplan
/// and partial bitstreams; the full bitstream is built on demand from the
/// output ([`FlowOutput::full_bitstream`]).
#[derive(Debug, Clone)]
pub struct PrEspFlow {
    cad: CadFlow,
    compressed: bool,
}

impl Default for PrEspFlow {
    fn default() -> PrEspFlow {
        PrEspFlow {
            cad: CadFlow::new(),
            compressed: true,
        }
    }
}

impl PrEspFlow {
    /// A flow with default settings (compressed bitstreams, 16-core host).
    pub fn new() -> PrEspFlow {
        PrEspFlow::default()
    }

    /// Selects compressed or raw partial-bitstream generation (the paper
    /// uses Vivado's compression "to reduce the memory access latency
    /// during reconfiguration").
    pub fn with_compression(mut self, compressed: bool) -> PrEspFlow {
        self.compressed = compressed;
        self
    }

    /// Runs the complete flow on a design.
    ///
    /// # Errors
    ///
    /// Propagates design, classification, floorplanning, CAD and bitstream
    /// errors.
    pub fn run(&self, design: &SocDesign) -> Result<FlowOutput, Error> {
        self.run_traced(design, &mut Tracer::disabled())
    }

    /// Like [`PrEspFlow::run`], emitting the flow's structured trace
    /// through `tracer`: [`TraceEvent::FlowStage`] spans for synthesis and
    /// every P&R step (PR-ESP and monolithic baseline, both from 0 on the
    /// CAD milliminute timeline) and one [`TraceEvent::BitstreamGenerated`]
    /// instant per emitted bitstream — Table V and Table VI's `pbs (KB)`
    /// column are both derivable from the trace alone. When a sink is
    /// attached, the full bitstream's frames are staged for its `static`
    /// event's size, which the builder computes without emitting the
    /// stream.
    ///
    /// # Errors
    ///
    /// Same as [`PrEspFlow::run`].
    pub fn run_traced(&self, design: &SocDesign, tracer: &mut Tracer) -> Result<FlowOutput, Error> {
        let spec = design.to_spec()?;
        let device = design.part.device();

        // Floorplan every reconfigurable region.
        let requests: Vec<RegionRequest> = spec
            .reconfigurable()
            .iter()
            .map(|rm| RegionRequest::new(rm.name.clone(), rm.resources))
            .collect();
        let floorplan = Floorplanner::new(&device).floorplan(&requests)?;
        tracer.instant(ClockDomain::CadMilliMinutes, 0, || TraceEvent::FlowStage {
            flow: Box::new(FlowStageArgs {
                design: spec.name().to_string(),
                stage: "floorplan".to_string(),
                region: String::new(),
            }),
        });

        // Size-driven strategy selection (Table I) and scheduled P&R.
        let (class, strategy) = choose_strategy(&spec)?;
        let report = self.cad.run_full_flow_traced(&spec, strategy, tracer)?;
        let monolithic = self.cad.run_monolithic_traced(&spec, tracer);

        // Partial bitstreams: one per (region, loadable accelerator).
        let mut partial_bitstreams = Vec::new();
        for (coord, accels) in &design.tile_accels {
            let region = region_name(*coord);
            let pblock = *floorplan
                .pblock(&region)
                .expect("floorplan covers every spec region");
            for (i, kind) in accels.iter().enumerate() {
                let placement = place_in_region(&device, &region, pblock, kind.resources())?;
                let seed = seed_for(&region, i);
                let bitstream =
                    build_partial_bitstream(&device, &placement, seed, self.compressed)?;
                partial_bitstreams.push(PartialBitstreamInfo {
                    region: region.clone(),
                    tile: Some(*coord),
                    kind: *kind,
                    bitstream,
                });
            }
        }
        if design.cpu_reconfigurable {
            let region = "rt_cpu".to_string();
            let pblock = *floorplan.pblock(&region).expect("cpu region floorplanned");
            let placement =
                place_in_region(&device, &region, pblock, AcceleratorKind::Cpu.resources())?;
            let bitstream = build_partial_bitstream(
                &device,
                &placement,
                seed_for(&region, 0),
                self.compressed,
            )?;
            partial_bitstreams.push(PartialBitstreamInfo {
                region,
                tile: None,
                kind: AcceleratorKind::Cpu,
                bitstream,
            });
        }

        // Bitstream generation happens at the end of the PR-ESP flow.
        let done = milliminutes(report.total.value());
        for info in &partial_bitstreams {
            tracer.instant(ClockDomain::CadMilliMinutes, done, || {
                TraceEvent::BitstreamGenerated {
                    bitstream: Box::new(BitstreamArgs {
                        design: spec.name().to_string(),
                        region: info.region.clone(),
                        kind: info.kind.name(),
                        bytes: info.bitstream.size_bytes() as u64,
                    }),
                }
            });
        }
        let output = FlowOutput {
            class,
            strategy,
            report,
            monolithic,
            floorplan,
            partial_bitstreams,
            part: design.part,
            static_resources: spec.static_resources(),
        };
        if tracer.is_enabled() {
            let bytes = stage_full_frames(&device, &output.floorplan, output.static_resources)?
                .size_bytes(true) as u64;
            tracer.instant(ClockDomain::CadMilliMinutes, done, || {
                TraceEvent::BitstreamGenerated {
                    bitstream: Box::new(BitstreamArgs {
                        design: spec.name().to_string(),
                        region: "static".to_string(),
                        kind: "full",
                        bytes,
                    }),
                }
            });
        }
        Ok(output)
    }
}

/// Deterministic per-module seed for frame-content generation.
fn seed_for(region: &str, index: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in region.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ (index as u64) << 32
}

/// Stages the full-device boot bitstream's frames: static content spread
/// over every column outside the reconfigurable pblocks, blank frames
/// inside them (the regions boot empty and are loaded by DPR afterwards).
/// Each column's content frames come first and its blank minors are
/// staged as one run.
fn stage_full_frames(
    device: &Device,
    floorplan: &Floorplan,
    static_resources: Resources,
) -> Result<BitstreamBuilder, Error> {
    let total = device.total_resources();
    let blocked: Resources = floorplan
        .pblocks()
        .values()
        .map(|pb| {
            device
                .pblock_resources(pb)
                .expect("floorplanned pblocks are legal")
        })
        .sum();
    let available = total.saturating_sub(&blocked);
    let fill = if available.lut == 0 {
        0.0
    } else {
        (static_resources.lut as f64 / available.lut as f64).min(1.0)
    };
    let mut builder = BitstreamBuilder::new(device, BitstreamKind::Full);
    // Every frame is generated into this one buffer, which the builder copies.
    let mut content = vec![0u32; device.part().family().frame_words()];
    for row in 0..device.rows() {
        for col in 0..device.columns() {
            let kind = device.column_kind(col);
            let in_region = floorplan
                .pblocks()
                .values()
                .any(|pb| pb.col_range().contains(&col) && pb.row_range().contains(&row));
            let n = frames_per_column(kind);
            let used = if in_region
                || !matches!(kind, ColumnKind::Clb | ColumnKind::Bram | ColumnKind::Dsp)
            {
                0
            } else {
                (((n as f64) * fill * FRAME_CONTENT_DENSITY).ceil() as usize).min(n)
            };
            for minor in 0..used {
                // Deterministic pseudo-content, distinct per frame.
                let mut state = (row as u64) << 40 ^ (col as u64) << 20 ^ minor as u64 | 1;
                for word in &mut content {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    *word = (state >> 16) as u32;
                }
                builder.add_frame(
                    FrameAddress::new(row as u32, col as u32, minor as u32),
                    &content,
                )?;
            }
            builder.add_blank_frames(
                FrameAddress::new(row as u32, col as u32, used as u32),
                (n - used) as u32,
            )?;
        }
    }
    Ok(builder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SocDesign;

    #[test]
    fn soc_b_runs_serially_and_emits_four_pbs() {
        let design = SocDesign::builtin("soc_b").unwrap();
        let out = PrEspFlow::new().run(&design).unwrap();
        assert_eq!(out.class, SizeClass::Class1_1);
        assert_eq!(out.strategy, Strategy::Serial);
        assert_eq!(out.partial_bitstreams.len(), 4);
        assert!(out.report.total.value() > 0.0);
    }

    #[test]
    fn soc_a_goes_fully_parallel_and_beats_monolithic() {
        let design = SocDesign::builtin("soc_a").unwrap();
        let out = PrEspFlow::new().run(&design).unwrap();
        assert_eq!(out.class, SizeClass::Class1_2);
        assert_eq!(out.strategy, Strategy::FullyParallel);
        // Table V: PR-ESP improves SoC_A by ~19 % over the monolithic flow.
        assert!(
            out.report.total.value() < out.monolithic.total.value(),
            "PR-ESP {} vs monolithic {}",
            out.report.total,
            out.monolithic.total
        );
    }

    #[test]
    fn soc_d_emits_a_cpu_bitstream() {
        let design = SocDesign::builtin("soc_d").unwrap();
        let out = PrEspFlow::new().run(&design).unwrap();
        assert_eq!(out.class, SizeClass::Class2_1);
        assert_eq!(out.partial_bitstreams.len(), 5);
        assert!(out
            .partial_bitstreams
            .iter()
            .any(|p| p.kind == AcceleratorKind::Cpu && p.tile.is_none()));
    }

    #[test]
    fn table6_pbs_sizes_are_in_the_hundreds_of_kb() {
        let design = SocDesign::wami_soc_y().unwrap();
        let out = PrEspFlow::new().run(&design).unwrap();
        // Table VI reports 247–397 KB per tile for SoC_Y.
        for coord in design.tile_accels.keys() {
            let kb = out.mean_pbs_kb(&region_name(*coord)).unwrap();
            assert!(
                kb > 80.0 && kb < 900.0,
                "{}: {kb:.0} KB",
                region_name(*coord)
            );
        }
    }

    #[test]
    fn compression_flag_changes_pbs_sizes() {
        let design = SocDesign::builtin("soc_b").unwrap();
        let compressed = PrEspFlow::new().run(&design).unwrap();
        let raw = PrEspFlow::new()
            .with_compression(false)
            .run(&design)
            .unwrap();
        let sum = |o: &FlowOutput| -> usize {
            o.partial_bitstreams
                .iter()
                .map(|p| p.bitstream.size_bytes())
                .sum()
        };
        assert!(sum(&compressed) < sum(&raw) / 2);
    }

    #[test]
    fn full_bitstream_covers_the_static_fabric() {
        let design = SocDesign::builtin("soc_b").unwrap();
        let out = PrEspFlow::new().run(&design).unwrap();
        let full = out.full_bitstream().unwrap();
        assert!(full.frame_count() > 10_000);
        assert!(full.size_bytes() > 100_000);
    }

    #[test]
    fn full_bitstream_is_rebuilt_identically_on_every_call() {
        let design = SocDesign::builtin("soc_a").unwrap();
        let out = PrEspFlow::new().run(&design).unwrap();
        let first = out.full_bitstream().unwrap();
        let second = out.full_bitstream().unwrap();
        assert_eq!(first, second);
        assert!(first.verify_integrity());
    }

    #[test]
    fn full_bitstream_size_is_the_traced_static_event() {
        use presp_events::MemorySink;
        for design in SocDesign::builtins() {
            for compressed in [true, false] {
                let sink = MemorySink::shared();
                let out = PrEspFlow::new()
                    .with_compression(compressed)
                    .run_traced(&design, &mut Tracer::to_sink(sink.clone()))
                    .unwrap();
                let traced: Vec<u64> = presp_events::sink::drain(&sink)
                    .into_iter()
                    .filter_map(|r| match r.event {
                        TraceEvent::BitstreamGenerated { bitstream }
                            if bitstream.region == "static" =>
                        {
                            Some(bitstream.bytes)
                        }
                        _ => None,
                    })
                    .collect();
                let full = out.full_bitstream().unwrap();
                assert_eq!(
                    traced,
                    [full.size_bytes() as u64],
                    "{} compressed={compressed}",
                    design.name
                );
            }
        }
    }

    #[test]
    fn full_bitstream_does_not_depend_on_partial_compression() {
        let design = SocDesign::builtin("soc_b").unwrap();
        let compressed = PrEspFlow::new().run(&design).unwrap();
        let raw = PrEspFlow::new()
            .with_compression(false)
            .run(&design)
            .unwrap();
        assert_eq!(
            compressed.full_bitstream().unwrap(),
            raw.full_bitstream().unwrap()
        );
    }

    #[test]
    fn pbs_loads_through_the_icap() {
        use presp_fpga::icap::Icap;
        let design = SocDesign::builtin("soc_c").unwrap();
        let out = PrEspFlow::new().run(&design).unwrap();
        let device = design.part.device();
        let mut icap = Icap::new(&device);
        for info in &out.partial_bitstreams {
            let report = icap.load(&info.bitstream).expect("pbs loads cleanly");
            assert!(report.frames_written > 0);
        }
    }
}
