//! Model-checking demo: explore the DPR runtime's workqueue protocol,
//! then catch — and deterministically replay — a seeded lock-order bug.
//!
//! Part 1 runs the *production* `ThreadedManager` protocol (instantiated
//! with the `CheckSync` facade instead of `StdSync`) under the bounded
//! schedule explorer and prints the clean report.
//!
//! Part 2 models the classic DPR driver bug the checker exists for: one
//! code path takes the ICAP lock then the driver-table lock, another
//! takes them in the opposite order. The explorer finds the deadlocking
//! interleaving, prints its schedule string, and replays it — the same
//! failure, every time.
//!
//! Run with: `cargo run --release --example model_check -- [--max-schedules N]`

use presp::accel::catalog::AcceleratorKind;
use presp::accel::{AccelOp, AccelValue};
use presp::check::sync::{spawn_named, Arc, Mutex};
use presp::check::{CheckSync, Checker, Config};
use presp::fpga::bitstream::{BitstreamBuilder, BitstreamKind};
use presp::fpga::frame::FrameAddress;
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp::soc::config::SocConfig;
use presp::soc::sim::Soc;

fn max_schedules() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--max-schedules" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        }
    }
    2_000
}

/// The production workqueue protocol under the checking facade.
fn dpr_protocol_model() {
    let cfg = SocConfig::grid_3x3_reconf("demo", 1).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tile = cfg.reconfigurable_tiles()[0];
    let mut registry = BitstreamRegistry::new();
    let device = soc.part().device();
    let words = device.part().family().frame_words();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    b.add_frame(FrameAddress::new(0, 2, 0), vec![2; words])
        .unwrap();
    registry
        .register(tile, AcceleratorKind::Mac, b.build(true))
        .expect("fresh registry");

    let mgr = ThreadedManager::<CheckSync>::spawn_with(soc, registry, RuntimeConfig::default());
    let app = mgr.clone();
    let worker = spawn_named("app", move || {
        app.reconfigure_blocking(tile, AcceleratorKind::Mac)
            .unwrap();
        let run = app
            .run_blocking(
                tile,
                AccelOp::Mac {
                    a: vec![2.0],
                    b: vec![3.0],
                },
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(6.0));
    });
    worker.join().unwrap();
    assert!(mgr.stats().consistent());
    mgr.shutdown();
}

/// A seeded lock-order inversion: the bug class `presp-check` catches.
fn inverted_lock_model() {
    let icap = Arc::new(Mutex::labeled("icap", ()));
    let drivers = Arc::new(Mutex::labeled("driver_table", ()));
    let (icap2, drivers2) = (Arc::clone(&icap), Arc::clone(&drivers));
    // Reconfiguration path: ICAP first, then the driver table.
    let reconfig = spawn_named("reconfig", move || {
        let _icap = icap2.lock();
        let _drivers = drivers2.lock();
    });
    // Probe path: driver table first, then the ICAP — the inversion.
    {
        let _drivers = drivers.lock();
        let _icap = icap.lock();
    }
    reconfig.join().unwrap();
}

fn main() {
    let budget = max_schedules();
    let checker = || {
        Checker::new(Config {
            max_schedules: budget,
            preemption_bound: Some(2),
            max_steps: 50_000,
        })
    };

    println!("=== 1. production DPR protocol under CheckSync ===");
    let report = checker().explore(dpr_protocol_model);
    println!("{report}\n");
    assert!(report.ok(), "the shipped protocol must explore clean");

    println!("=== 2. seeded ICAP/driver-table lock inversion ===");
    let report = checker().explore(inverted_lock_model);
    println!("{report}\n");
    let failure = report
        .failure
        .expect("the explorer must find the deadlocking interleaving");

    println!("=== 3. deterministic replay of that schedule ===");
    let replay = checker().replay(&failure.schedule, inverted_lock_model);
    println!("{replay}\n");
    assert!(
        replay.failure.is_some(),
        "replaying the schedule must reproduce the deadlock"
    );
    println!(
        "replayed schedule `{}` reproduced the deadlock deterministically",
        failure.schedule
    );
}
