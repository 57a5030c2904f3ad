//! Configuration-memory scrubbing demo: seeded SEUs strike the frames of
//! a live partial region, a readback scrub pass repairs the single-bit
//! upsets through the per-frame SECDED ECC, a double-bit upset forces a
//! quarantine, and a faulted ICAP write rolls the fabric back to the
//! golden pre-transaction image — all of it visible in the trace.
//!
//! Run with: `cargo run --release --example scrubber [seed]`
//! The same seed reproduces the same run bit for bit.

use presp::accel::{AccelOp, AcceleratorKind};
use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::core::platform::deploy;
use presp::events::trace::TraceEvent;
use presp::events::MemorySink;
use presp::fpga::fault::{FaultConfig, FaultPlan};
use presp::runtime::manager::RecoveryPolicy;
use presp::runtime::TileHealth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(7);

    let design = SocDesign::grid_3x3(
        "scrub_demo",
        vec![vec![AcceleratorKind::Mac, AcceleratorKind::Sort]],
        false,
    )?;
    let output = PrEspFlow::new().run(&design)?;
    let mut manager = deploy(&design, &output)?;
    let tile = design.config.reconfigurable_tiles()[0];
    let sink = MemorySink::shared();
    manager.soc_mut().attach_tracer(sink.clone());

    // Load the region, then arm a seeded SEU stream over its frames.
    manager.request_reconfiguration(tile, AcceleratorKind::Mac)?;
    println!(
        "tile {tile}: {} configuration frames under scrub protection",
        manager.soc().tile_region(tile).len()
    );
    let mut plan = FaultPlan::new(seed, FaultConfig::uniform(0.0).with_seu(250.0, 0.0));
    plan.force_seu(manager.makespan(), false);
    manager.soc_mut().set_fault_plan(Some(plan));

    // Compute for a while (virtual time passes, upsets accumulate), then
    // run a scrub pass — the DPR-era equivalent of the SEM controller
    // waking up.
    for i in 0..6 {
        manager.run(
            tile,
            &AccelOp::Mac {
                a: vec![i as f32; 64],
                b: vec![2.0; 64],
            },
        )?;
    }
    let at = manager.makespan();
    let report = manager.scrub_tile_at(tile, at)?;
    println!(
        "scrub pass: {} frame(s) ECC-corrected, {} uncorrectable, waited {} cycles on the ICAP",
        report.corrected.len(),
        report.uncorrectable.len(),
        report.waited
    );
    println!("tile health after repair: {:?}", manager.tile_health(tile));

    // A double-bit upset is beyond SECDED: the scrubber quarantines.
    let mut plan = FaultPlan::new(seed ^ 0xD0, FaultConfig::uniform(0.0));
    plan.force_seu(manager.makespan(), true);
    manager.soc_mut().set_fault_plan(Some(plan));
    let at = manager.makespan();
    let report = manager.scrub_tile_at(tile, at)?;
    println!(
        "double-bit strike: {} uncorrectable frame(s) → health {:?}",
        report.uncorrectable.len(),
        manager.tile_health(tile)
    );

    // Recovery: restore the golden frames and release the quarantine.
    let frames = manager.restore_golden(tile)?;
    manager.release_quarantine(tile);
    println!(
        "golden restore rewrote {frames} frame(s); health {:?}",
        manager.tile_health(tile)
    );

    // Transactional reconfiguration: a fault mid-ICAP-write rolls the
    // fabric back to the pre-transaction image instead of leaving a
    // half-written region.
    manager.set_policy(RecoveryPolicy {
        max_retries: 0,
        cpu_fallback: false,
        ..RecoveryPolicy::default()
    });
    let before = manager.soc().config_memory().clone();
    let mut plan = FaultPlan::new(seed ^ 0xB0, FaultConfig::uniform(0.0));
    plan.force_icap_fault(0);
    manager.soc_mut().set_fault_plan(Some(plan));
    let err = manager.request_reconfiguration(tile, AcceleratorKind::Sort);
    println!("faulted swap: {}", err.unwrap_err());
    println!(
        "fabric diff vs pre-transaction image: {} frame(s)",
        before.diff(manager.soc().config_memory()).len()
    );
    assert_eq!(manager.tile_health(tile), TileHealth::Healthy);

    // Everything above is in the trace.
    let records = presp::events::sink::snapshot(&sink);
    let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count();
    println!(
        "trace: {} SEU injections, {} scrub passes, {} frame repairs, {} rollbacks",
        count(|e| matches!(e, TraceEvent::SeuInjected { .. })),
        count(|e| matches!(e, TraceEvent::ScrubPass { .. })),
        count(|e| matches!(e, TraceEvent::FrameRepaired { .. })),
        count(|e| matches!(e, TraceEvent::RollbackCompleted { .. })),
    );
    Ok(())
}
