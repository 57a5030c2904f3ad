//! End-to-end flow integration: every paper design compiles through the
//! full PR-ESP flow, its bitstreams are ICAP-loadable, and the deployed
//! system executes real work.

use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::core::platform::{deploy, deploy_wami};
use presp::core::strategy::SizeClass;
use presp::fpga::icap::Icap;
use presp::wami::frames::SceneGenerator;

#[test]
fn every_paper_design_compiles_end_to_end() {
    let flow = PrEspFlow::new();
    for design in SocDesign::builtins() {
        let out = flow
            .run(&design)
            .unwrap_or_else(|e| panic!("{} failed: {e}", design.name));
        assert!(out.report.total.value() > 0.0, "{}", design.name);
        assert!(!out.partial_bitstreams.is_empty(), "{}", design.name);
        // A design's pbs count equals Σ per-tile accelerators (+1 for a
        // reconfigurable CPU).
        let expected: usize = design.tile_accels.values().map(|v| v.len()).sum::<usize>()
            + usize::from(design.cpu_reconfigurable);
        assert_eq!(out.partial_bitstreams.len(), expected, "{}", design.name);
    }
}

#[test]
fn every_generated_bitstream_loads_through_a_fresh_icap() {
    let flow = PrEspFlow::new();
    for design in [
        SocDesign::wami_soc_x().unwrap(),
        SocDesign::characterization_soc2().unwrap(),
    ] {
        let out = flow.run(&design).unwrap();
        let device = design.part.device();
        let mut icap = Icap::new(&device);
        // Full bitstream first (boot), then every partial.
        let boot = icap
            .load(&out.full_bitstream().unwrap())
            .expect("full bitstream loads");
        assert!(boot.frames_written > 0);
        for info in &out.partial_bitstreams {
            let report = icap
                .load(&info.bitstream)
                .unwrap_or_else(|e| panic!("{}: pbs for {} failed: {e}", design.name, info.kind));
            assert!(report.frames_written > 0);
            assert!(report.micros > 0.0);
        }
    }
}

#[test]
fn strategy_choices_match_paper_classes() {
    let flow = PrEspFlow::new();
    let expect = [
        ("soc_1", SizeClass::Class1_1),
        ("soc_2", SizeClass::Class1_2),
        ("soc_3", SizeClass::Class1_3),
        ("soc_4", SizeClass::Class2_1),
        ("soc_a", SizeClass::Class1_2),
        ("soc_b", SizeClass::Class1_1),
        ("soc_c", SizeClass::Class1_3),
        ("soc_d", SizeClass::Class2_1),
    ];
    for design in SocDesign::builtins() {
        if let Some((_, class)) = expect.iter().find(|(n, _)| *n == design.name) {
            let out = flow.run(&design).unwrap();
            assert_eq!(out.class, *class, "{}", design.name);
        }
    }
}

#[test]
fn deployed_characterization_soc_runs_its_accelerators() {
    use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
    let design = SocDesign::characterization_soc2().unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let mut manager = deploy(&design, &out).unwrap();
    // Load each accelerator into its tile and run it.
    for (coord, accels) in &design.tile_accels {
        for kind in accels {
            manager.request_reconfiguration(*coord, *kind).unwrap();
            let op = match kind {
                AcceleratorKind::Conv2d => AccelOp::Conv2d {
                    image: presp::wami::image::GrayImage::zeroed(8, 8),
                    kernel: vec![1.0 / 9.0; 9],
                    side: 3,
                },
                AcceleratorKind::Gemm => AccelOp::Gemm {
                    m: 2,
                    k: 2,
                    n: 2,
                    a: vec![1.0, 0.0, 0.0, 1.0],
                    b: vec![5.0, 6.0, 7.0, 8.0],
                },
                AcceleratorKind::Fft => AccelOp::Fft {
                    re: vec![0.0; 8],
                    im: vec![0.0; 8],
                },
                AcceleratorKind::Sort => AccelOp::Sort {
                    data: vec![2.0, 1.0, 3.0],
                },
                other => panic!("unexpected accelerator {other}"),
            };
            let run = manager.run(*coord, &op).unwrap();
            if let AccelValue::Vector(v) = &run.value {
                assert!(!v.is_empty());
            }
        }
    }
    assert_eq!(manager.stats().reconfigurations, 4);
    assert_eq!(manager.stats().runs, 4);
}

#[test]
fn flow_supports_the_other_evaluation_boards() {
    // The paper targets VC707, VCU118 and VCU128; the flow must run on all
    // three (floorplanning, classification and bitstreams are per-part).
    use presp::fpga::part::FpgaPart;
    let flow = PrEspFlow::new();
    for part in [FpgaPart::Vcu118, FpgaPart::Vcu128] {
        let mut design = SocDesign::builtin("soc_a").unwrap();
        design.part = part;
        let out = flow.run(&design).unwrap_or_else(|e| panic!("{part}: {e}"));
        assert_eq!(out.partial_bitstreams.len(), 4, "{part}");
        // The big UltraScale parts make the same design relatively smaller:
        // γ is part-independent but κ and α_av shrink, and every pbs still
        // loads on its own device.
        let device = part.device();
        let mut icap = Icap::new(&device);
        for info in &out.partial_bitstreams {
            icap.load(&info.bitstream)
                .unwrap_or_else(|e| panic!("{part}: {e}"));
        }
    }
}

#[test]
fn bitstreams_from_one_part_do_not_load_on_another() {
    use presp::fpga::part::FpgaPart;
    let design = SocDesign::builtin("soc_b").unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let wrong_device = FpgaPart::Vcu118.device();
    let mut icap = Icap::new(&wrong_device);
    let err = icap.load(&out.partial_bitstreams[0].bitstream);
    assert!(
        matches!(err, Err(presp::fpga::Error::IdcodeMismatch { .. })),
        "IDCODE check must reject cross-part bitstreams: {err:?}"
    );
}

#[test]
fn deployed_wami_soc_detects_motion() {
    let design = SocDesign::wami_soc_z().unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let mut app = deploy_wami(&design, &out, 2).unwrap();
    let mut scene = SceneGenerator::new(48, 48, 77);
    let mut total_changed = 0;
    for _ in 0..5 {
        total_changed += app
            .process_frame(&scene.next_frame())
            .unwrap()
            .changed_pixels;
    }
    assert!(total_changed > 0, "moving objects must register as change");
    let stats = app.manager().stats();
    assert!(
        stats.reconfigurations > 10,
        "the dataflow swaps accelerators continuously"
    );
}
