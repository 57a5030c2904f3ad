//! The experiment implementations, one function per paper table/figure.

use presp_accel::catalog::AcceleratorKind;
use presp_accel::latency::cycles_to_micros;
use presp_accel::AccelOp;
use presp_cad::flow::{CadFlow, Strategy};
use presp_core::design::{region_name, SocDesign, TABLE4_SOCS};
use presp_core::flow::{FlowOutput, PrEspFlow};
use presp_core::platform::deploy_wami;
use presp_core::strategy::{choose_strategy, SizeClass};
use presp_events::{MemorySink, TraceEvent, Tracer};
use presp_soc::config::SocConfig;
use presp_soc::sim::Soc;
use presp_wami::frames::SceneGenerator;
use presp_wami::gradient::gradient;
use presp_wami::graph::WamiKernel;
use presp_wami::lucas_kanade::{hessian, steepest_descent};
use presp_wami::matrix::invert6;
use presp_wami::warp::AffineParams;

/// Table I: the strategy matrix as (row label, γ<1, γ≈1, γ>1) cells.
pub fn table1() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    vec![
        ("κ ≈ α_av", "-", "serial", "fully-parallel"),
        ("κ ≫ α_av", "serial", "semi-parallel", "semi/fully-parallel"),
        ("κ ≪ α_av", "-", "serial", "fully-parallel"),
    ]
}

/// Table II row: a component and its LUT count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Component name.
    pub name: String,
    /// LUT count.
    pub luts: u64,
}

/// Table II: resource utilization of the characterization accelerators,
/// the CPU tile and the static part.
pub fn table2() -> Vec<Table2Row> {
    use presp_soc::tile::TileKind;
    let mut rows: Vec<Table2Row> = AcceleratorKind::CHARACTERIZATION
        .iter()
        .map(|a| Table2Row {
            name: a.name().to_string(),
            luts: a.resources().lut,
        })
        .collect();
    rows.push(Table2Row {
        name: "cpu".into(),
        luts: AcceleratorKind::Cpu.resources().lut,
    });
    let static_full = TileKind::Cpu.static_resources()
        + TileKind::Mem.static_resources()
        + TileKind::Aux.static_resources();
    rows.push(Table2Row {
        name: "static".into(),
        luts: static_full.lut,
    });
    rows.push(Table2Row {
        name: "static (w/o cpu)".into(),
        luts: static_full.lut - TileKind::Cpu.static_resources().lut,
    });
    rows
}

/// One parallelism configuration of a Table III sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TauPoint {
    /// Number of concurrent P&R instances.
    pub tau: usize,
    /// Static-only pre-route minutes (`None` for serial).
    pub t_static: Option<f64>,
    /// `max{Ω}` minutes (`None` for serial).
    pub max_omega: Option<f64>,
    /// Total P&R minutes.
    pub total: f64,
}

/// One Table III row: a characterization SoC swept over τ.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// SoC name.
    pub soc: String,
    /// α_av in percent.
    pub alpha_av: f64,
    /// κ in percent.
    pub kappa: f64,
    /// γ.
    pub gamma: f64,
    /// The swept parallelism points.
    pub points: Vec<TauPoint>,
}

impl Table3Row {
    /// The τ with the smallest total time.
    pub fn best_tau(&self) -> usize {
        self.points
            .iter()
            .min_by(|a, b| a.total.partial_cmp(&b.total).expect("finite minutes"))
            .expect("non-empty sweep")
            .tau
    }
}

fn sweep(design: &SocDesign, taus: &[usize]) -> Table3Row {
    let spec = design.to_spec().expect("paper designs are valid");
    let (kappa, alpha, gamma) = spec.size_metrics();
    let cad = CadFlow::new();
    let n = spec.reconfigurable().len();
    let points = taus
        .iter()
        .map(|&tau| {
            let strategy = Strategy::from_tau(tau, n).expect("tau from the paper's sweep");
            let report = cad.run_pnr(&spec, strategy).expect("pnr runs");
            TauPoint {
                tau,
                t_static: report.t_static.map(|m| m.value()),
                max_omega: report.max_omega.map(|m| m.value()),
                total: report.wall.value(),
            }
        })
        .collect();
    Table3Row {
        soc: design.name.clone(),
        alpha_av: alpha * 100.0,
        kappa: kappa * 100.0,
        gamma,
        points,
    }
}

/// Table III: the Vivado characterization — the four SoCs under different
/// parallelism levels (simulated minutes from the calibrated CAD model).
pub fn table3() -> Vec<Table3Row> {
    vec![
        sweep(
            &SocDesign::characterization_soc1().unwrap(),
            &[1, 2, 3, 4, 5, 16],
        ),
        sweep(&SocDesign::characterization_soc2().unwrap(), &[1, 2, 3, 4]),
        sweep(&SocDesign::characterization_soc3().unwrap(), &[1, 2, 3]),
        sweep(
            &SocDesign::characterization_soc4().unwrap(),
            &[1, 2, 3, 4, 5],
        ),
    ]
}

/// One Table IV row: a WAMI SoC's P&R time per strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// SoC name.
    pub soc: String,
    /// Fig. 3 indices of the accelerators.
    pub accels: Vec<usize>,
    /// Size class.
    pub class: SizeClass,
    /// α_av (%), κ (%), γ.
    pub metrics: (f64, f64, f64),
    /// Strategy chosen by PR-ESP.
    pub chosen: Strategy,
    /// Fully-parallel (t_static, max Ω, total).
    pub fully: (f64, f64, f64),
    /// Semi-parallel τ=2 (t_static, max Ω, total).
    pub semi: (f64, f64, f64),
    /// Serial total.
    pub serial: f64,
}

impl Table4Row {
    /// Wall minutes of the strategy PR-ESP chose.
    pub fn chosen_total(&self) -> f64 {
        match self.chosen {
            Strategy::Serial => self.serial,
            Strategy::SemiParallel { .. } => self.semi.2,
            Strategy::FullyParallel => self.fully.2,
        }
    }

    /// The smallest total over the three strategies.
    pub fn best_total(&self) -> f64 {
        self.serial.min(self.semi.2).min(self.fully.2)
    }
}

/// The four Table IV WAMI SoCs ([`TABLE4_SOCS`]) with their Fig. 3
/// kernel indices.
pub fn table4_designs() -> Vec<(SocDesign, Vec<usize>)> {
    TABLE4_SOCS
        .iter()
        .map(|(name, indices)| {
            let design = SocDesign::wami_table4(*name, indices).expect("Table IV SoCs are valid");
            (design, indices.to_vec())
        })
        .collect()
}

/// Table IV: P&R parallelism evaluation on the WAMI SoCs.
pub fn table4() -> Vec<Table4Row> {
    let cad = CadFlow::new();
    table4_designs()
        .into_iter()
        .map(|(design, accels)| {
            let spec = design.to_spec().unwrap();
            let n = spec.reconfigurable().len();
            let (kappa, alpha, gamma) = spec.size_metrics();
            let (class, chosen) = choose_strategy(&spec).unwrap();
            let run = |strategy: Strategy| {
                let r = cad.run_pnr(&spec, strategy).expect("pnr runs");
                (
                    r.t_static.map(|m| m.value()).unwrap_or(0.0),
                    r.max_omega.map(|m| m.value()).unwrap_or(0.0),
                    r.wall.value(),
                )
            };
            let fully = run(Strategy::FullyParallel);
            let semi = run(Strategy::from_tau(2, n).unwrap());
            let serial = run(Strategy::Serial).2;
            Table4Row {
                soc: design.name.clone(),
                accels,
                class,
                metrics: (alpha * 100.0, kappa * 100.0, gamma),
                chosen,
                fully,
                semi,
                serial,
            }
        })
        .collect()
}

/// One Table V row: PR-ESP full flow vs the monolithic baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// SoC name.
    pub soc: String,
    /// PR-ESP synthesis wall minutes.
    pub synth: f64,
    /// Static-only P&R minutes (0 for serial).
    pub t_static: f64,
    /// `max{Ω}` minutes (0 for serial).
    pub max_omega: f64,
    /// PR-ESP end-to-end minutes.
    pub total: f64,
    /// Chosen strategy.
    pub strategy: Strategy,
    /// Monolithic synthesis minutes.
    pub mono_synth: f64,
    /// Monolithic P&R minutes.
    pub mono_pnr: f64,
    /// Monolithic end-to-end minutes.
    pub mono_total: f64,
}

impl Table5Row {
    /// Improvement of PR-ESP over the monolithic flow, percent (negative
    /// when PR-ESP is slower).
    pub fn improvement_pct(&self) -> f64 {
        (self.mono_total - self.total) / self.mono_total * 100.0
    }
}

/// Table V: compile-time comparison of PR-ESP against the standard
/// (monolithic) Xilinx DPR flow on SoC_A–SoC_D. Like Table IV it reads the
/// CAD model alone: the strategy [`PrEspFlow`] would choose, its full-flow
/// report and the monolithic baseline, with no floorplan or bitstreams.
pub fn table5() -> Vec<Table5Row> {
    let cad = CadFlow::new();
    table4_designs()
        .into_iter()
        .map(|(design, _)| {
            let spec = design.to_spec().unwrap();
            let (_, strategy) = choose_strategy(&spec).unwrap();
            let report = cad.run_full_flow(&spec, strategy).expect("flow runs");
            let monolithic = cad.run_monolithic(&spec);
            Table5Row {
                soc: design.name.clone(),
                synth: report.synth.wall.value(),
                t_static: report.pnr.t_static.map(|m| m.value()).unwrap_or(0.0),
                max_omega: report.pnr.max_omega.map(|m| m.value()).unwrap_or(0.0),
                total: report.total.value(),
                strategy,
                mono_synth: monolithic.synth.value(),
                mono_pnr: monolithic.pnr.value(),
                mono_total: monolithic.total.value(),
            }
        })
        .collect()
}

/// One Table VI row: a reconfigurable tile's kernels and pbs size.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6Row {
    /// SoC name.
    pub soc: String,
    /// Tile label (RT_1, RT_2, ...).
    pub tile: String,
    /// Fig. 3 kernel indices allocated to the tile.
    pub kernels: Vec<usize>,
    /// Mean compressed partial-bitstream size, KB.
    pub pbs_kb: f64,
}

/// One Table VI and Fig. 4 deployment with its flow output.
pub(crate) type WamiFlow = (SocDesign, FlowOutput);

/// SoC_X, SoC_Y and SoC_Z: the deployments of Table VI and Fig. 4.
fn wami_designs() -> [SocDesign; 3] {
    [
        SocDesign::wami_soc_x().expect("SoC_X is valid"),
        SocDesign::wami_soc_y().expect("SoC_Y is valid"),
        SocDesign::wami_soc_z().expect("SoC_Z is valid"),
    ]
}

/// Table VI: accelerator partitioning and partial bitstream sizes for
/// SoC_X, SoC_Y and SoC_Z.
///
/// The `pbs (KB)` column is cross-checked against the flow's structured
/// trace: the mean of the [`TraceEvent::BitstreamGenerated`] sizes per
/// region must reproduce [`presp_core::flow::FlowOutput::mean_pbs_kb`]
/// exactly.
pub fn table6() -> Vec<Table6Row> {
    table6_and_flows().0
}

/// [`table6`]'s rows and the flow outputs they were read from, which
/// [`fig4_of`] deploys.
pub(crate) fn table6_and_flows() -> (Vec<Table6Row>, Vec<WamiFlow>) {
    let flow = PrEspFlow::new();
    let mut rows = Vec::new();
    let mut flows = Vec::new();
    for design in wami_designs() {
        let sink = MemorySink::shared();
        let mut tracer = Tracer::to_sink(sink.clone());
        let out = flow.run_traced(&design, &mut tracer).expect("flow runs");
        let records = presp_events::sink::drain(&sink);
        for (i, (coord, accels)) in design.tile_accels.iter().enumerate() {
            let region = region_name(*coord);
            let pbs_kb = out.mean_pbs_kb(&region).expect("region has bitstreams");
            let traced: Vec<f64> = records
                .iter()
                .filter_map(|r| match &r.event {
                    TraceEvent::BitstreamGenerated { bitstream } if bitstream.region == region => {
                        Some(bitstream.bytes as f64)
                    }
                    _ => None,
                })
                .collect();
            let traced_kb = traced.iter().sum::<f64>() / traced.len() as f64 / 1024.0;
            assert!(
                (traced_kb - pbs_kb).abs() < 1e-9,
                "{region}: trace says {traced_kb} KB, flow says {pbs_kb} KB"
            );
            rows.push(Table6Row {
                soc: design.name.clone(),
                tile: format!("RT_{}", i + 1),
                kernels: accels
                    .iter()
                    .filter_map(|a| match a {
                        AcceleratorKind::Wami(k) => Some(k.index()),
                        _ => None,
                    })
                    .collect(),
                pbs_kb,
            });
        }
        flows.push((design, out));
    }
    (rows, flows)
}

/// One Fig. 3 annotation: a WAMI accelerator's LUTs and execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Fig. 3 index.
    pub index: usize,
    /// Kernel name.
    pub name: &'static str,
    /// LUT count.
    pub luts: u64,
    /// Execution time on the 2×2 profiling SoC, microseconds.
    pub micros: f64,
}

/// Fig. 3: profiles every WAMI accelerator (LUTs + execution time) on a
/// 2×2 SoC with a single accelerator tile, frame size `size`×`size`.
pub fn fig3(size: usize) -> Vec<Fig3Row> {
    let mut scene = SceneGenerator::new(size, size, 42);
    let raw = scene.next_frame();
    let gray_prev = scene.next_frame_gray();
    let gray = scene.next_frame_gray();
    let rgb = presp_wami::debayer::debayer(&raw).expect("debayer");
    let grads = gradient(&gray_prev).expect("gradient");
    let sd = steepest_descent(&grads).expect("sd");
    let hess = hessian(&sd);
    let h_inv = invert6(&hess).expect("wami scenes are textured");
    let b = presp_wami::lucas_kanade::sd_update(&sd, &gray).expect("sd update");
    let params = AffineParams::translation(0.4, -0.3);
    let model = Box::new(presp_wami::change_detection::ChangeDetector::new(
        size,
        size,
        presp_wami::change_detection::GmmConfig::default(),
    ));

    WamiKernel::ALL
        .iter()
        .map(|kernel| {
            let op = match kernel {
                WamiKernel::Debayer => AccelOp::Debayer { raw: raw.clone() },
                WamiKernel::Grayscale => AccelOp::Grayscale { rgb: rgb.clone() },
                WamiKernel::Gradient => AccelOp::Gradient {
                    image: gray_prev.clone(),
                },
                WamiKernel::Warp => AccelOp::Warp {
                    image: gray.clone(),
                    params,
                },
                WamiKernel::Subtract => AccelOp::Subtract {
                    a: gray.clone(),
                    b: gray_prev.clone(),
                },
                WamiKernel::SteepestDescent => AccelOp::SteepestDescent {
                    grad: grads.clone(),
                },
                WamiKernel::Hessian => AccelOp::Hessian { sd: sd.clone() },
                WamiKernel::SdUpdate => AccelOp::SdUpdate {
                    sd: sd.clone(),
                    error: gray.clone(),
                },
                WamiKernel::MatrixInvert => AccelOp::MatrixInvert { m: hess },
                WamiKernel::DeltaP => AccelOp::DeltaP { h_inv, b, params },
                WamiKernel::WarpIwxp => AccelOp::Warp {
                    image: gray.clone(),
                    params,
                },
                WamiKernel::ChangeDetection => AccelOp::ChangeDetection {
                    frame: gray.clone(),
                    model: model.clone(),
                },
            };
            let kind = AcceleratorKind::Wami(*kernel);
            let config = SocConfig::grid_2x2_single(kind).expect("2x2 profile soc");
            let mut soc = Soc::new(&config).expect("soc boots");
            let tile = soc.accelerator_tiles()[0];
            let run = soc.run_accelerator(tile, &op).expect("profiling run");
            Fig3Row {
                index: kernel.index(),
                name: kernel.name(),
                luts: kind.resources().lut,
                micros: cycles_to_micros(run.latency()),
            }
        })
        .collect()
}

/// One prefetch-ablation row: the same deployment with interleaved vs
/// non-interleaved reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PrefetchAblationRow {
    /// SoC name.
    pub soc: String,
    /// ms/frame with prefetch (interleaved reconfiguration).
    pub prefetch_ms: f64,
    /// ms/frame without prefetch (non-interleaved).
    pub no_prefetch_ms: f64,
}

impl PrefetchAblationRow {
    /// Speedup of interleaved over non-interleaved reconfiguration.
    pub(crate) fn speedup(&self) -> f64 {
        self.no_prefetch_ms / self.prefetch_ms
    }
}

/// Ablation: interleaved (prefetch) vs non-interleaved reconfiguration on
/// the Table VI deployments — quantifies the paper's observation that
/// SoC_X suffers "a higher non-interleaved reconfiguration".
pub(crate) fn prefetch_ablation(
    frames: usize,
    size: usize,
    lk_iterations: usize,
) -> Vec<PrefetchAblationRow> {
    let flow = PrEspFlow::new();
    [
        SocDesign::wami_soc_x().unwrap(),
        SocDesign::wami_soc_z().unwrap(),
    ]
    .into_iter()
    .map(|design| {
        let out = flow.run(&design).expect("flow runs");
        let run = |prefetch: bool| -> f64 {
            let mut app = deploy_wami(&design, &out, lk_iterations)
                .expect("deploys")
                .with_prefetch(prefetch);
            let mut scene = SceneGenerator::new(size, size, 5);
            let mut cycles = 0;
            for i in 0..frames {
                let r = app.process_frame(&scene.next_frame()).expect("frame");
                if i > 0 {
                    cycles += r.latency();
                }
            }
            cycles_to_micros(cycles) / 1000.0 / (frames - 1) as f64
        };
        PrefetchAblationRow {
            soc: design.name.clone(),
            prefetch_ms: run(true),
            no_prefetch_ms: run(false),
        }
    })
    .collect()
}

/// One compression-ablation row: a partial bitstream raw vs compressed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompressionAblationRow {
    /// Region + accelerator label.
    pub module: String,
    /// Raw pbs size, KB.
    pub raw_kb: f64,
    /// Compressed pbs size, KB.
    pub compressed_kb: f64,
    /// Raw ICAP load time, ms.
    pub raw_ms: f64,
    /// Compressed ICAP load time, ms.
    pub compressed_ms: f64,
}

/// Ablation: Vivado-style bitstream compression on vs off, measured as pbs
/// size and ICAP streaming latency for every SoC_Y module — the mechanism
/// behind the paper's choice "to reduce the memory access latency during
/// reconfiguration".
pub(crate) fn compression_ablation() -> Vec<CompressionAblationRow> {
    use presp_fpga::icap::Icap;
    let design = SocDesign::wami_soc_y().unwrap();
    let raw_out = PrEspFlow::new()
        .with_compression(false)
        .run(&design)
        .expect("raw flow");
    let comp_out = PrEspFlow::new().run(&design).expect("compressed flow");
    let device = design.part.device();
    raw_out
        .partial_bitstreams
        .iter()
        .zip(&comp_out.partial_bitstreams)
        .map(|(raw, comp)| {
            assert_eq!(raw.kind, comp.kind);
            let mut icap = Icap::new(&device);
            let raw_report = icap.load(&raw.bitstream).expect("raw pbs loads");
            let comp_report = icap.load(&comp.bitstream).expect("compressed pbs loads");
            CompressionAblationRow {
                module: format!("{}/{}", raw.region, raw.kind.name()),
                raw_kb: raw.bitstream.size_bytes() as f64 / 1024.0,
                compressed_kb: comp.bitstream.size_bytes() as f64 / 1024.0,
                raw_ms: raw_report.micros / 1000.0,
                compressed_ms: comp_report.micros / 1000.0,
            }
        })
        .collect()
}

/// One Fig. 4 bar pair: a deployed WAMI SoC's latency and energy.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// SoC name.
    pub soc: String,
    /// Reconfigurable tile count.
    pub tiles: usize,
    /// Steady-state execution time per frame, milliseconds.
    pub ms_per_frame: f64,
    /// Energy per frame, millijoules.
    pub mj_per_frame: f64,
    /// Reconfigurations per frame (steady state).
    pub reconfigs_per_frame: f64,
    /// Average change-detection output over the run (sanity signal).
    pub mean_changed_pixels: f64,
    /// Readback-scrub overhead per frame, milliseconds: one full sweep of
    /// every configured region after each frame, SEU-free, so the number
    /// is the pure cost of the integrity protection.
    pub scrub_ms_per_frame: f64,
    /// Cycles per frame the scrub sweeps spent waiting on the shared ICAP
    /// (contention between scrubbing and reconfiguration).
    pub scrub_wait_cycles_per_frame: f64,
}

/// Fig. 4: total execution time and energy efficiency of the WAMI
/// deployments SoC_X, SoC_Y and SoC_Z.
///
/// `frames` raw frames of `size`×`size` pixels are processed without
/// pipelining; per-frame numbers average over the steady-state frames
/// (the first frame only trains the pipeline).
pub fn fig4(frames: usize, size: usize, lk_iterations: usize) -> Vec<Fig4Row> {
    let flow = PrEspFlow::new();
    let flows: Vec<WamiFlow> = wami_designs()
        .into_iter()
        .map(|design| {
            let out = flow.run(&design).expect("flow runs");
            (design, out)
        })
        .collect();
    fig4_of(&flows, frames, size, lk_iterations)
}

/// [`fig4`] on flow outputs already built for SoC_X, SoC_Y and SoC_Z.
pub(crate) fn fig4_of(
    flows: &[WamiFlow],
    frames: usize,
    size: usize,
    lk_iterations: usize,
) -> Vec<Fig4Row> {
    assert!(
        frames >= 3,
        "need at least 3 frames for a steady-state window"
    );
    flows
        .iter()
        .map(|(design, out)| {
            let mut app = deploy_wami(design, out, lk_iterations).expect("deploys");
            let mut scene = SceneGenerator::new(size, size, 2023);
            let mut reports = Vec::new();
            let mut scrub_cycles = 0u64;
            let mut scrub_waited = 0u64;
            for _ in 0..frames {
                reports.push(app.process_frame(&scene.next_frame()).expect("frame runs"));
                // Scrub-overhead accounting: a full readback sweep after
                // every frame, like a background scrubber on a per-frame
                // period.
                let mgr = app.manager_mut();
                let at = mgr.makespan();
                for (_, scrub) in mgr.scrub_all_at(at).expect("scrub sweeps") {
                    scrub_cycles += scrub.end - scrub.start;
                    scrub_waited += scrub.waited;
                }
            }
            let steady = &reports[1..];
            let cycles: u64 = steady.iter().map(|r| r.latency()).sum();
            let reconfigs: u64 = steady.iter().map(|r| r.reconfigurations).sum();
            let changed: usize = steady.iter().map(|r| r.changed_pixels).sum();
            let manager = app.into_manager();
            let energy = manager.soc().energy_report();
            let n = steady.len() as f64;
            Fig4Row {
                soc: design.name.clone(),
                tiles: design.tile_accels.len(),
                ms_per_frame: cycles_to_micros(cycles) / 1000.0 / n,
                mj_per_frame: energy.total_j() * 1000.0 / (reports.len() as f64),
                reconfigs_per_frame: reconfigs as f64 / n,
                mean_changed_pixels: changed as f64 / n,
                scrub_ms_per_frame: cycles_to_micros(scrub_cycles)
                    / 1000.0
                    / (reports.len() as f64),
                scrub_wait_cycles_per_frame: scrub_waited as f64 / (reports.len() as f64),
            }
        })
        .collect()
}
