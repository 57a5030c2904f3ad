//! Static-vs-dynamic lock-graph cross-validation.
//!
//! `presp-analyze` derives a lock-acquisition graph from the source text
//! alone; `presp-check` observes one at runtime while exploring bounded
//! schedules of the production protocol. On every schedule the explorer
//! covers, the static graph must be a superset of the dynamic one — a
//! nesting the checker witnessed but the analyzer missed would mean the
//! static pass has a soundness hole on exactly the code paths we model
//! check.
//!
//! The budget here is deliberately modest (the exhaustive sweeps live in
//! `model_check.rs`); this test is about graph agreement, not coverage.

use presp::accel::catalog::AcceleratorKind;
use presp::accel::{AccelOp, AccelValue};
use presp::analyze::manifest::Manifest;
use presp::analyze::{analyze, Options};
use presp::check::{CheckSync, Checker, Config};
use presp::fpga::bitstream::Bitstream;
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp::soc::config::SocConfig;
use presp::soc::sim::Soc;
use std::collections::BTreeSet;
use std::path::Path;

fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, 1).unwrap()
}

/// Sharded multi-worker fan-out: exercises the admission, queue, gate,
/// tile-shard and device-core locks.
fn sharded_model() {
    let cfg = SocConfig::grid_3x3_reconf("xchk", 4).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    for (i, &tile) in tiles.iter().enumerate() {
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2 + i as u32))
            .unwrap();
    }
    let mgr = ThreadedManager::<CheckSync>::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            workers: Some(2),
            ..RuntimeConfig::default()
        },
    );
    let pendings: Vec<_> = tiles
        .iter()
        .take(2)
        .map(|&tile| mgr.submit_reconfigure(tile, AcceleratorKind::Mac))
        .collect();
    for pending in pendings {
        pending.wait().unwrap();
    }
    let run = mgr
        .run_blocking(
            tiles[0],
            AccelOp::Mac {
                a: vec![2.0],
                b: vec![3.0],
            },
        )
        .unwrap();
    assert_eq!(run.value, AccelValue::Scalar(6.0));
    mgr.shutdown();
}

/// A scrub pass and a ledger snapshot: the pass nests `tile_state ->
/// core` and counts under `core`, where the snapshot reads.
fn scrubbed_model() {
    let cfg = SocConfig::grid_3x3_reconf("xchk2", 2).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    let mgr = ThreadedManager::<CheckSync>::spawn_with(soc, registry, RuntimeConfig::default());
    let report = mgr.scrub_blocking(tiles[0]).unwrap();
    assert!(report.uncorrectable.is_empty());
    let snapshot = mgr.stats();
    assert_eq!(snapshot.scrub_passes, 1);
    mgr.shutdown();
}

#[test]
fn static_lock_graph_covers_every_dynamically_observed_edge() {
    // Dynamic side: union of lock edges over every explored schedule of
    // both models.
    let checker = Checker::new(Config {
        max_schedules: 400,
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let mut dynamic: BTreeSet<(String, String)> = BTreeSet::new();
    for model in [sharded_model as fn(), scrubbed_model as fn()] {
        let report = checker.explore(model);
        assert!(report.ok(), "{report}");
        dynamic.extend(report.lock_edges.iter().cloned());
    }
    assert!(
        dynamic.contains(&("tile_state".to_string(), "core".to_string())),
        "models too small: the checker never nested tile_state -> core \
         ({dynamic:?})"
    );

    // Static side: whole-workspace analysis with the shipped manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = Manifest::load(&root.join("analyze.json")).unwrap();
    let analysis = analyze(root, &manifest, &Options::default());
    assert!(
        analysis.is_clean(),
        "workspace not clean:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let static_edges: BTreeSet<(String, String)> =
        analysis.graph.edge_pairs().into_iter().collect();

    let missed: Vec<_> = dynamic.difference(&static_edges).collect();
    assert!(
        missed.is_empty(),
        "dynamically observed lock edges missing from the static graph \
         (soundness hole): {missed:?}\nstatic: {static_edges:?}"
    );
}
