//! End-to-end configuration-memory integrity: seeded SEU injection, ECC
//! scrub repair, quarantine with bit-identical CPU fallback, and
//! transactional rollback of a faulted ICAP write — the acceptance
//! scenarios for the scrubbing subsystem, driven through the full
//! flow → deploy → runtime stack.

use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::core::platform;
use presp::events::trace::TraceEvent;
use presp::events::MemorySink;
use presp::fpga::fault::{FaultConfig, FaultPlan};
use presp::runtime::manager::{ReconfigManager, RecoveryPolicy};
use presp::runtime::Error as RuntimeError;
use presp::runtime::TileHealth;
use presp::soc::config::TileCoord;
use presp::wami::frames::SceneGenerator;

fn deployment() -> (SocDesign, ReconfigManager, Vec<TileCoord>) {
    let design = SocDesign::grid_3x3(
        "integrity",
        vec![vec![AcceleratorKind::Mac, AcceleratorKind::Sort]],
        false,
    )
    .unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let manager = platform::deploy(&design, &out).unwrap();
    let tiles = design.config.reconfigurable_tiles();
    (design, manager, tiles)
}

/// Arms a fault plan whose only content is one forced SEU at `cycle`.
fn force_seu(manager: &mut ReconfigManager, cycle: u64, double_bit: bool) {
    let mut plan = FaultPlan::new(17, FaultConfig::uniform(0.0));
    plan.force_seu(cycle, double_bit);
    manager.soc_mut().set_fault_plan(Some(plan));
}

#[test]
fn single_bit_upset_is_detected_corrected_and_traced() {
    let (_design, mut manager, tiles) = deployment();
    let tile = tiles[0];
    let sink = MemorySink::shared();
    manager.soc_mut().attach_tracer(sink.clone());
    manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap();
    let strike_at = manager.makespan();
    force_seu(&mut manager, strike_at, false);

    let report = manager.scrub_tile_at(tile, manager.makespan()).unwrap();
    assert_eq!(report.corrected.len(), 1, "one frame ECC-corrected");
    assert!(report.uncorrectable.is_empty());
    assert_eq!(manager.tile_health(tile), TileHealth::Degraded);

    // The accelerator still computes correctly after the repair.
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

    // Injection, the scrub pass, and the repair are all in the trace.
    let records = presp::events::sink::snapshot(&sink);
    let injected: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SeuInjected {
                frame, double_bit, ..
            } => Some((frame, double_bit)),
            _ => None,
        })
        .collect();
    assert_eq!(injected.len(), 1);
    assert!(!injected[0].1, "single-bit upset");
    let repaired: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FrameRepaired { frame, words } => Some((frame, words)),
            _ => None,
        })
        .collect();
    assert_eq!(repaired.len(), 1);
    assert_eq!(
        repaired[0].0, injected[0].0,
        "the struck frame was repaired"
    );
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::ScrubPass { corrected: 1, .. })));
}

#[test]
fn double_bit_upset_quarantines_and_wami_stays_bit_identical() {
    // Two identical deployments fed the same scene: one healthy, one with
    // a double-bit upset that quarantines a tile mid-sequence. The WAMI
    // outputs must not diverge — quarantined kernels fall back to the CPU
    // and produce bit-identical results.
    let design = SocDesign::wami_soc_x().unwrap();
    let output = PrEspFlow::new().run(&design).unwrap();
    let mut healthy = platform::deploy_wami(&design, &output, 2).unwrap();
    let mut struck = platform::deploy_wami(&design, &output, 2).unwrap();
    let mut scene_a = SceneGenerator::new(32, 32, 4);
    let mut scene_b = SceneGenerator::new(32, 32, 4);

    let frame = scene_a.next_frame();
    let h1 = healthy.process_frame(&frame).unwrap();
    let s1 = struck.process_frame(&scene_b.next_frame()).unwrap();
    assert_eq!(h1.changed_pixels, s1.changed_pixels);

    // Strike a configured frame with a double-bit upset, then sweep: the
    // owning tile must quarantine.
    let mgr = struck.manager_mut();
    let strike_at = mgr.makespan();
    force_seu(mgr, strike_at, true);
    let sweep_at = mgr.makespan();
    let reports = mgr.scrub_all_at(sweep_at).unwrap();
    let quarantined: Vec<TileCoord> = reports
        .iter()
        .filter(|(_, r)| !r.uncorrectable.is_empty())
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly one tile took the hit");
    assert_eq!(mgr.tile_health(quarantined[0]), TileHealth::Quarantined);
    assert!(mgr.is_quarantined(quarantined[0]));

    // Same scene, next frame: outputs stay bit-identical, but the struck
    // SoC visibly degraded to the CPU for the quarantined tile's kernels.
    let h2 = healthy.process_frame(&scene_a.next_frame()).unwrap();
    let s2 = struck.process_frame(&scene_b.next_frame()).unwrap();
    assert_eq!(h2.changed_pixels, s2.changed_pixels, "pixel-exact output");
    assert_eq!(h2.registration, s2.registration, "bit-identical warp");
    assert!(
        s2.cpu_fallbacks > h2.cpu_fallbacks,
        "the struck run degraded to the CPU: {s2:?} vs {h2:?}"
    );
}

#[test]
fn faulted_icap_write_rolls_back_to_the_pre_transaction_image() {
    let (_design, mut manager, tiles) = deployment();
    let tile = tiles[0];
    // One attempt, no retries: a faulted write must fail the transaction.
    manager.set_policy(RecoveryPolicy {
        max_retries: 0,
        backoff_cycles: 16,
        backoff_multiplier: 2,
        quarantine_after: 8,
        cpu_fallback: false,
        ..RecoveryPolicy::default()
    });
    let sink = MemorySink::shared();
    manager.soc_mut().attach_tracer(sink.clone());
    manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap();
    let before = manager.soc().config_memory().clone();

    let mut plan = FaultPlan::new(23, FaultConfig::uniform(0.0));
    plan.force_icap_fault(0);
    manager.soc_mut().set_fault_plan(Some(plan));
    let err = manager.request_reconfiguration(tile, AcceleratorKind::Sort);
    assert!(
        matches!(err, Err(RuntimeError::RetriesExhausted { .. })),
        "the faulted load must fail: {err:?}"
    );

    // Transactional: the fabric is bit-for-bit the pre-transaction image —
    // no half-written Sort frames, the Mac region intact.
    assert!(
        before.diff(manager.soc().config_memory()).is_empty(),
        "fabric state equals the pre-transaction snapshot"
    );
    let records = presp::events::sink::snapshot(&sink);
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::RollbackCompleted { frames, .. } if frames > 0)),
        "the rollback is visible in the trace"
    );
    // The driver was unbound when the swap started, so the tile needs a
    // (clean) re-request; the rolled-back fabric then serves Mac again.
    manager.soc_mut().set_fault_plan(None);
    manager
        .request_reconfiguration(tile, AcceleratorKind::Mac)
        .unwrap();
    let run = manager
        .run(
            tile,
            &AccelOp::Mac {
                a: vec![2.0],
                b: vec![5.0],
            },
        )
        .unwrap();
    assert_eq!(run.value, AccelValue::Scalar(10.0));
}
