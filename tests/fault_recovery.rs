//! Fault injection and recovery: injected ICAP/CRC corruption is retried
//! with backoff, persistent failure quarantines the tile, and application
//! work still completes through the CPU fallback path.

use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
use presp::core::design::SocDesign;
use presp::core::flow::{FlowOutput, PrEspFlow};
use presp::core::platform::{deploy, deploy_wami, deploy_with_faults};
use presp::fpga::fault::FaultConfig;
use presp::runtime::manager::{ExecPath, ReconfigManager, RecoveryPolicy};
use presp::runtime::Error as RuntimeError;
use presp::soc::Error as SocError;
use presp::wami::frames::SceneGenerator;

fn mac_design() -> (SocDesign, FlowOutput) {
    let design = SocDesign::grid_3x3(
        "faulty",
        vec![vec![AcceleratorKind::Mac, AcceleratorKind::Sort]],
        false,
    )
    .unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    (design, out)
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 2,
        backoff_cycles: 64,
        backoff_multiplier: 2,
        quarantine_after: 2,
        cpu_fallback: true,
        ..RecoveryPolicy::default()
    }
}

fn faulty_manager(design: &SocDesign, out: &FlowOutput, seed: u64) -> ReconfigManager {
    deploy_with_faults(design, out, seed, FaultConfig::default(), policy()).unwrap()
}

#[test]
fn icap_corruption_is_retried_with_backoff_and_recovers() {
    let (design, out) = mac_design();
    let tile = design.config.reconfigurable_tiles()[0];

    // Fault-free baseline for the latency comparison.
    let mut clean = deploy(&design, &out).unwrap();
    let clean_end = clean
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap()
        .expect("reconfigures")
        .end;

    // Same deployment, but the first ICAP load is handed a corrupted
    // stream: the embedded CRC rejects it, the manager backs off and the
    // retry succeeds.
    let mut manager = faulty_manager(&design, &out, 11);
    manager
        .soc_mut()
        .fault_plan_mut()
        .unwrap()
        .force_icap_fault(0);
    let reconf = manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap()
        .expect("recovers on retry");

    let stats = manager.stats();
    assert_eq!(stats.retries, 1, "exactly one retry");
    assert_eq!(stats.reconfigurations, 1);
    assert_eq!(stats.retries_exhausted, 0);
    assert!(stats.consistent(), "request accounting: {stats:?}");
    assert_eq!(
        manager
            .soc()
            .fault_plan()
            .unwrap()
            .injected()
            .icap_corruptions,
        1
    );
    assert!(
        reconf.end > clean_end + policy().backoff_cycles,
        "recovered load pays the wasted attempt plus backoff: {} vs clean {clean_end}",
        reconf.end
    );

    // The tile is fully functional after recovery.
    let run = manager
        .run(
            tile,
            &AccelOp::Mac {
                a: vec![3.0],
                b: vec![4.0],
            },
        )
        .unwrap();
    assert_eq!(run.value, AccelValue::Scalar(12.0));
}

#[test]
fn backoff_grows_exponentially_across_retries() {
    let (design, out) = mac_design();
    let tile = design.config.reconfigurable_tiles()[0];

    // One forced corruption → one backoff of 64; two forced corruptions →
    // backoffs of 64 + 128. The second recovery must be later by more than
    // one extra wasted-load + base backoff would explain alone is hard to
    // bound tightly, so compare against the single-fault run directly.
    let end_after = |faults: u64| {
        let mut manager = faulty_manager(&design, &out, 11);
        for n in 0..faults {
            manager
                .soc_mut()
                .fault_plan_mut()
                .unwrap()
                .force_icap_fault(n);
        }
        manager
            .request_reconfiguration(tile, AcceleratorKind::Mac)
            .unwrap()
            .expect("recovers")
            .end
    };
    let one = end_after(1);
    let two = end_after(2);
    assert!(
        two >= one + 128,
        "second retry adds a doubled backoff: {two} vs {one}"
    );
}

#[test]
fn stale_registry_read_is_transient_and_retried() {
    let (design, out) = mac_design();
    let tile = design.config.reconfigurable_tiles()[0];
    let mut manager = faulty_manager(&design, &out, 5);
    manager
        .soc_mut()
        .fault_plan_mut()
        .unwrap()
        .force_registry_miss(0);
    let reconf = manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap();
    assert!(reconf.is_some());
    let stats = manager.stats();
    assert_eq!(stats.retries, 1);
    assert!(stats.consistent());
    assert_eq!(
        manager
            .soc()
            .fault_plan()
            .unwrap()
            .injected()
            .registry_misses,
        1
    );
}

#[test]
fn dfxc_stall_and_decoupler_delay_add_latency_without_failing() {
    let (design, out) = mac_design();
    let tile = design.config.reconfigurable_tiles()[0];

    let mut clean = deploy(&design, &out).unwrap();
    let clean_end = clean
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap()
        .unwrap()
        .end;

    let mut manager = faulty_manager(&design, &out, 21);
    {
        let plan = manager.soc_mut().fault_plan_mut().unwrap();
        plan.force_dfxc_stall(0);
        plan.force_decoupler_delay(0);
    }
    let reconf = manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap()
        .unwrap();
    let stats = manager.stats();
    assert_eq!(stats.retries, 0, "latency faults are not failures");
    assert_eq!(stats.reconfigurations, 1);
    let injected = manager.soc().fault_plan().unwrap().injected();
    assert_eq!(injected.dfxc_stalls, 1);
    assert_eq!(injected.decoupler_delays, 1);
    let added = injected.dfxc_stall_cycles + injected.decoupler_delay_cycles;
    assert!(
        reconf.end >= clean_end + added,
        "stall + ack delay push completion: {} vs {clean_end} (+{added})",
        reconf.end
    );
}

#[test]
fn persistent_corruption_exhausts_retries_then_quarantines_and_isolates() {
    let (design, out) = mac_design();
    let tile = design.config.reconfigurable_tiles()[0];
    let mut manager = faulty_manager(&design, &out, 31);
    // Corrupt every load this test will ever attempt.
    for n in 0..32 {
        manager
            .soc_mut()
            .fault_plan_mut()
            .unwrap()
            .force_icap_fault(n);
    }

    // Request 1: first try + 2 retries all fail → RetriesExhausted.
    let err = manager.request_reconfiguration(tile, AcceleratorKind::Mac);
    assert!(
        matches!(err, Err(RuntimeError::RetriesExhausted { attempts: 3, .. })),
        "got {err:?}"
    );
    assert!(
        !manager.is_quarantined(tile),
        "one exhaustion is not yet a quarantine"
    );

    // Request 2: exhausts again → the failure streak hits the quarantine
    // threshold.
    let err = manager.request_reconfiguration(tile, AcceleratorKind::Mac);
    assert!(matches!(err, Err(RuntimeError::RetriesExhausted { .. })));
    assert!(manager.is_quarantined(tile));
    assert_eq!(manager.quarantined_tiles(), vec![tile]);

    // Request 3: rejected outright.
    let err = manager.request_reconfiguration(tile, AcceleratorKind::Mac);
    assert!(matches!(err, Err(RuntimeError::TileQuarantined { .. })));

    let stats = manager.stats();
    assert_eq!(stats.retries_exhausted, 2);
    assert_eq!(stats.retries, 4);
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.rejected, 1);
    assert!(stats.consistent(), "{stats:?}");

    // Graceful degradation: the operation still completes, in software.
    let op = AccelOp::Mac {
        a: vec![2.0, 2.0],
        b: vec![5.0, 5.0],
    };
    let (run, path) = manager
        .run_with_fallback(tile, AcceleratorKind::Mac, &op)
        .unwrap();
    assert_eq!(path, ExecPath::CpuFallback);
    assert_eq!(run.value, AccelValue::Scalar(20.0));
    assert_eq!(manager.stats().fallback_runs, 1);

    // Isolation: the tile was left decoupled, so the wrapper rejects
    // traffic before any NoC transfer happens.
    let mut soc = manager.into_soc();
    let noc_before = soc.noc_transfers();
    let rejections_before = soc.decoupled_rejections();
    let horizon = soc.horizon();
    let err = soc.run_accelerator_at(tile, &op, horizon);
    assert!(
        matches!(err, Err(SocError::DecouplerProtocol { .. })),
        "decoupled tile must reject execution, got {err:?}"
    );
    assert_eq!(soc.decoupled_rejections(), rejections_before + 1);
    assert_eq!(
        soc.noc_transfers(),
        noc_before,
        "a decoupled tile must never observe NoC traffic"
    );
}

#[test]
fn release_quarantine_restores_the_accelerator_path() {
    let (design, out) = mac_design();
    let tile = design.config.reconfigurable_tiles()[0];
    let mut manager = faulty_manager(&design, &out, 43);
    // Fail the first two requests' every attempt (3 loads each), then stop
    // injecting.
    for n in 0..6 {
        manager
            .soc_mut()
            .fault_plan_mut()
            .unwrap()
            .force_icap_fault(n);
    }
    for _ in 0..2 {
        let _ = manager.request_reconfiguration(tile, AcceleratorKind::Mac);
    }
    assert!(manager.is_quarantined(tile));
    assert!(manager.release_quarantine(tile));
    let reconf = manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap();
    assert!(reconf.is_some(), "released tile reconfigures again");
    let (_, path) = manager
        .run_with_fallback(
            tile,
            AcceleratorKind::Mac,
            &AccelOp::Mac {
                a: vec![1.0],
                b: vec![1.0],
            },
        )
        .unwrap();
    assert_eq!(path, ExecPath::Accelerator);
}

/// A WAMI app on `wami_soc_x` whose every ICAP load is corrupted, so no
/// accelerator ever comes up and every tile quarantines.
fn all_loads_corrupted_wami(cpu_fallback: bool) -> presp::runtime::app::WamiApp {
    let design = SocDesign::wami_soc_x().unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let mut app = deploy_wami(&design, &out, 2).unwrap();
    let manager = app.manager_mut();
    manager.set_policy(RecoveryPolicy {
        max_retries: 1,
        backoff_cycles: 16,
        backoff_multiplier: 2,
        quarantine_after: 1,
        cpu_fallback,
        ..RecoveryPolicy::default()
    });
    manager
        .soc_mut()
        .set_fault_plan(Some(presp::fpga::fault::FaultPlan::new(
            99,
            FaultConfig {
                icap_flip_rate: 1.0,
                ..FaultConfig::default()
            },
        )));
    app
}

#[test]
fn wami_frame_completes_on_cpu_after_tiles_quarantine() {
    // The full WAMI frame still completes — each kernel degrading to the
    // bit-identical software path.
    let mut app = all_loads_corrupted_wami(true);

    let mut scene = SceneGenerator::new(32, 32, 7);
    let r1 = app.process_frame(&scene.next_frame()).unwrap();
    let r2 = app.process_frame(&scene.next_frame()).unwrap();
    assert!(r1.cpu_fallbacks > 0, "frame 1 degraded: {r1:?}");
    assert!(r2.cpu_fallbacks > 0, "frame 2 degraded: {r2:?}");
    assert!(r2.registration.is_some(), "the LK solve still ran");

    let stats = app.manager().stats();
    assert!(stats.consistent(), "{stats:?}");
    assert_eq!(
        stats.fallback_runs,
        r1.cpu_fallbacks + r2.cpu_fallbacks,
        "every kernel degrade is counted once"
    );
    assert!(stats.quarantines > 0, "persistent faults quarantined tiles");
    assert_eq!(
        stats.reconfigurations, 0,
        "no corrupted load ever succeeded"
    );
    assert!(!app.manager().quarantined_tiles().is_empty());

    // CPU fallback is bit-identical to the software pipeline.
    use presp::wami::change_detection::GmmConfig;
    use presp::wami::lucas_kanade::LkConfig;
    use presp::wami::pipeline::{Pipeline, PipelineConfig};
    let mut sw = Pipeline::new(PipelineConfig {
        lk: LkConfig {
            max_iterations: 2,
            epsilon: 0.0,
            border_margin: 4,
        },
        gmm: GmmConfig::default(),
    });
    let mut scene = SceneGenerator::new(32, 32, 7);
    sw.process(&scene.next_frame()).unwrap();
    let sw2 = sw.process(&scene.next_frame()).unwrap();
    assert_eq!(r2.changed_pixels, sw2.changed_pixels);
}

#[test]
fn wami_frame_fails_when_cpu_fallback_is_off() {
    let mut app = all_loads_corrupted_wami(false);
    let mut scene = SceneGenerator::new(32, 32, 7);
    let e = app.process_frame(&scene.next_frame()).unwrap_err();
    assert!(
        e.is_degradable(),
        "the reconfiguration failure surfaces: {e}"
    );
    assert_eq!(app.manager().stats().fallback_runs, 0);
}
