//! DPR runtime demo: OS threads sharing a reconfigurable SoC through the
//! workqueue manager, swapping accelerators under contention.
//!
//! One thread per reconfigurable tile (the structure of the paper's
//! multi-threaded Linux control software) runs a compute loop while a
//! competing thread keeps requesting accelerator swaps; the manager's
//! locking and driver-swap protocol keeps every result correct.
//!
//! Run with: `cargo run --release --example dpr_runtime`

use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::ThreadedManager;
use presp::soc::sim::Soc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Reuse the flow to get real (compressed) bitstreams for a 2-tile SoC.
    let design = SocDesign::grid_3x3(
        "runtime_demo",
        vec![
            vec![AcceleratorKind::Mac, AcceleratorKind::Sort],
            vec![AcceleratorKind::Fft, AcceleratorKind::Gemm],
        ],
        false,
    )?;
    let output = PrEspFlow::new().run(&design)?;
    let soc = Soc::with_part(&design.config, design.part)?;
    let mut registry = BitstreamRegistry::new();
    for info in &output.partial_bitstreams {
        if let Some(tile) = info.tile {
            registry.register(tile, info.kind, info.bitstream.clone())?;
        }
    }
    println!(
        "registered {} partial bitstreams ({} KB pinned)",
        registry.len(),
        registry.total_bytes() / 1024
    );

    let manager = ThreadedManager::spawn(soc, registry);
    let tiles = design.config.reconfigurable_tiles();

    // Thread 0: alternate MAC and SORT on tile 0.
    let t0 = {
        let mgr = manager.clone();
        let tile = tiles[0];
        std::thread::spawn(move || {
            for round in 0..6 {
                if round % 2 == 0 {
                    mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
                        .unwrap();
                    let run = mgr
                        .run_blocking(
                            tile,
                            AccelOp::Mac {
                                a: vec![2.0; 128],
                                b: vec![3.0; 128],
                            },
                        )
                        .unwrap();
                    assert_eq!(run.value, AccelValue::Scalar(768.0));
                } else {
                    mgr.reconfigure_blocking(tile, AcceleratorKind::Sort)
                        .unwrap();
                    let run = mgr
                        .run_blocking(
                            tile,
                            AccelOp::Sort {
                                data: (0..64).rev().map(|i| i as f32).collect(),
                            },
                        )
                        .unwrap();
                    match run.value {
                        AccelValue::Vector(v) => assert!(v.windows(2).all(|w| w[0] <= w[1])),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        })
    };

    // Thread 1: FFT then GEMM on tile 1, concurrently.
    let t1 = {
        let mgr = manager.clone();
        let tile = tiles[1];
        std::thread::spawn(move || {
            for round in 0..6 {
                if round % 2 == 0 {
                    mgr.reconfigure_blocking(tile, AcceleratorKind::Fft)
                        .unwrap();
                    let mut re = vec![0.0f32; 256];
                    re[1] = 1.0;
                    mgr.run_blocking(
                        tile,
                        AccelOp::Fft {
                            re,
                            im: vec![0.0; 256],
                        },
                    )
                    .unwrap();
                } else {
                    mgr.reconfigure_blocking(tile, AcceleratorKind::Gemm)
                        .unwrap();
                    let a = vec![1.0f32; 16];
                    let b = vec![2.0f32; 16];
                    mgr.run_blocking(
                        tile,
                        AccelOp::Gemm {
                            m: 4,
                            k: 4,
                            n: 4,
                            a,
                            b,
                        },
                    )
                    .unwrap();
                }
            }
        })
    };

    t0.join().expect("tile-0 thread");
    t1.join().expect("tile-1 thread");

    // The reconfiguration cycle total is left out: it depends on the
    // wall-clock order in which the two clients are admitted, and these
    // counts do not.
    let stats = manager.stats();
    println!(
        "done: {} reconfigurations, {} cache hits, {} accelerator runs",
        stats.reconfigurations, stats.cache_hits, stats.runs
    );
    manager.shutdown();
    Ok(())
}
