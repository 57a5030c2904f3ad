//! Trace determinism: the structured trace of a faulty, retrying,
//! quarantining WAMI deployment is a pure function of the seed. Two runs
//! with the same seed must serialize to byte-identical event logs, and the
//! Chrome trace export must stay parseable JSON.

use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::core::platform::deploy_wami;
use presp::events::trace::{chrome_trace_json, log_lines};
use presp::events::{json, MemorySink, TraceRecord};
use presp::fpga::fault::{FaultConfig, FaultPlan};
use presp::runtime::cache::CacheStats;
use presp::runtime::manager::{ManagerStats, RecoveryPolicy};
use presp::runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp::wami::frames::SceneGenerator;

/// Runs a seeded WAMI deployment under injected ICAP faults with tracing
/// on, and returns every record the SoC, manager and app emitted.
///
/// Uses the deterministic in-process [`presp::runtime::manager::ReconfigManager`]
/// (not the OS-threaded runtime): virtual time makes the whole run, faults
/// included, a function of the seeds alone.
fn traced_run(fault_seed: u64, scene_seed: u64, frames: usize) -> Vec<TraceRecord> {
    let design = SocDesign::wami_soc_x().unwrap();
    let out = PrEspFlow::new().run(&design).unwrap();
    let mut app = deploy_wami(&design, &out, 2).unwrap();

    let sink = MemorySink::shared();
    {
        let manager = app.manager_mut();
        manager.set_policy(RecoveryPolicy {
            max_retries: 2,
            backoff_cycles: 64,
            backoff_multiplier: 2,
            quarantine_after: 2,
            cpu_fallback: true,
            ..RecoveryPolicy::default()
        });
        manager.soc_mut().set_fault_plan(Some(FaultPlan::new(
            fault_seed,
            FaultConfig {
                icap_flip_rate: 0.35,
                ..FaultConfig::default()
            },
        )));
        manager.soc_mut().attach_tracer(sink.clone());
    }

    let mut scene = SceneGenerator::new(32, 32, scene_seed);
    for _ in 0..frames {
        app.process_frame(&scene.next_frame())
            .expect("frame completes");
    }

    let records = presp::events::sink::drain(&sink);
    assert!(!records.is_empty(), "traced run emitted nothing");
    records
}

#[test]
fn same_seed_runs_serialize_byte_identically() {
    let a = log_lines(&traced_run(17, 3, 3));
    let b = log_lines(&traced_run(17, 3, 3));
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed trace logs diverged");
}

#[test]
fn faulty_run_traces_the_recovery_machinery() {
    let records = traced_run(29, 5, 3);
    let log = log_lines(&records);
    for needle in [
        "reconfig.attempt",
        "retry.backoff",
        "icap.write",
        "dma.burst",
        "noc.transfer",
        "frame.stage",
        "frame ",
    ] {
        assert!(log.contains(needle), "missing {needle:?} in trace log");
    }
    // At least one failed attempt given a 35 % flip rate over 3 frames.
    assert!(log.contains("ok=false"), "no injected failure was traced");
}

#[test]
fn chrome_export_of_a_faulty_run_stays_valid_json() {
    let records = traced_run(17, 3, 2);
    let doc = chrome_trace_json(&records);
    let parsed = json::parse(&doc).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() > records.len(), "payload plus metadata events");
}

#[test]
fn sequence_numbers_are_dense_and_ordered() {
    let records = traced_run(17, 3, 2);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "gap in trace sequence at {i}");
    }
}

/// Drives the OS-threaded scheduler with `workers` workers and a sharded
/// trace sink (one shard per worker), fanning out batches of asynchronous
/// requests from a single submitter thread, and returns the merged trace,
/// the virtual-time makespan and the final counters.
///
/// A single submitter makes the admission order — and therefore the
/// global ticket order — deterministic; the commit-order gate then
/// serializes every traced critical section by ticket, so the merged log
/// must be identical for any worker count even though 16 workers overlap
/// their lock-free prepare stages.
///
/// `None` boots with [`ThreadedManager::spawn`], `Some` with
/// [`ThreadedManager::spawn_with`].
fn sharded_threaded_run(config: Option<RuntimeConfig>) -> ShardedRun {
    use presp::accel::{AccelOp, AcceleratorKind};
    use presp::events::ShardedSink;
    use presp::fpga::bitstream::Bitstream;
    use presp::runtime::registry::BitstreamRegistry;
    use presp::soc::config::SocConfig;
    use presp::soc::sim::Soc;

    fn bitstream(soc: &Soc, col: u32) -> Bitstream {
        Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, 1).unwrap()
    }

    let cfg = SocConfig::grid_3x3_reconf("shard-trace", 4).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    for (i, &tile) in tiles.iter().enumerate() {
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2 + i as u32))
            .unwrap();
        registry
            .register(tile, AcceleratorKind::Sort, bitstream(&soc, 30 + i as u32))
            .unwrap();
    }
    let workers = config
        .as_ref()
        .and_then(|c| c.workers)
        .unwrap_or(tiles.len());
    let mgr: ThreadedManager = match config {
        None => ThreadedManager::spawn(soc, registry),
        Some(config) => ThreadedManager::spawn_with(soc, registry, config),
    };
    let sink = ShardedSink::new(workers);
    mgr.attach_sharded_tracer(&sink);

    for round in 0..4u32 {
        let kind = if round % 2 == 0 {
            AcceleratorKind::Mac
        } else {
            AcceleratorKind::Sort
        };
        // One reconfiguration per tile, all admitted before any wait, so
        // the workers genuinely overlap; one tile per (tile, kind) pair
        // per batch keeps the run coalescing-free.
        let pendings: Vec<_> = tiles
            .iter()
            .map(|&tile| mgr.submit_reconfigure(tile, kind))
            .collect();
        for pending in pendings {
            pending.wait().expect("reconfigure completes");
        }
        let pendings: Vec<_> = tiles
            .iter()
            .map(|&tile| {
                let op = match kind {
                    AcceleratorKind::Sort => AccelOp::Sort {
                        data: vec![3.0, 1.0 + round as f32, 2.0],
                    },
                    _ => AccelOp::Mac {
                        a: vec![1.0 + round as f32; 4],
                        b: vec![2.0; 4],
                    },
                };
                mgr.submit_execute(tile, kind, op)
            })
            .collect();
        for pending in pendings {
            pending.wait().expect("execute completes");
        }
    }

    let makespan = mgr.makespan();
    mgr.shutdown();
    let records = sink.drain_merged();
    assert!(!records.is_empty(), "sharded run emitted nothing");
    ShardedRun {
        records,
        makespan,
        stats: mgr.stats(),
        cache: mgr.cache_stats(),
    }
}

/// What one [`sharded_threaded_run`] observed.
struct ShardedRun {
    records: Vec<TraceRecord>,
    makespan: u64,
    stats: ManagerStats,
    cache: CacheStats,
}

fn with_workers(workers: usize) -> Option<RuntimeConfig> {
    Some(RuntimeConfig {
        workers: Some(workers),
        ..RuntimeConfig::default()
    })
}

#[test]
fn sharded_trace_merge_is_byte_identical_across_worker_counts() {
    let one = sharded_threaded_run(with_workers(1));
    let sixteen = sharded_threaded_run(with_workers(16));
    assert_eq!(
        one.makespan, sixteen.makespan,
        "virtual-time makespan diverged across worker counts"
    );
    assert_eq!(
        log_lines(&one.records),
        log_lines(&sixteen.records),
        "merged trace logs diverged between 1 and 16 workers"
    );
}

/// `spawn` boots exactly what `spawn_with(.., RuntimeConfig::default())`
/// boots: same counters, same cache behaviour, same merged trace.
#[test]
fn spawn_boots_the_default_runtime_config() {
    let spawned = sharded_threaded_run(None);
    let configured = sharded_threaded_run(Some(RuntimeConfig::default()));
    assert_eq!(spawned.stats, configured.stats);
    assert_eq!(spawned.cache, configured.cache);
    assert!(spawned.cache.hits > 0, "the default cache never hit");
    assert_eq!(
        log_lines(&spawned.records),
        log_lines(&configured.records),
        "merged trace logs diverged between spawn and the default config"
    );
}

#[test]
fn sharded_trace_merge_has_dense_ordered_sequence_numbers() {
    let records = sharded_threaded_run(with_workers(16)).records;
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "gap in merged trace sequence at {i}");
    }
}

/// A seeded single-tile DPR session on the deterministic manager:
/// reconfigurations, swaps, runs, retries under injected CRC faults, scrub
/// passes under injected SEUs and CPU fallbacks. The trace log is a pure
/// function of the seeds, so it doubles as a semantics-preservation oracle
/// across runtime refactors.
fn golden_single_tile_run() -> String {
    use presp::accel::{AccelOp, AcceleratorKind};
    use presp::fpga::bitstream::Bitstream;
    use presp::runtime::manager::ReconfigManager;
    use presp::runtime::registry::BitstreamRegistry;
    use presp::soc::config::SocConfig;
    use presp::soc::sim::Soc;

    fn bitstream(soc: &Soc, col: u32, frames: u32) -> Bitstream {
        Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, frames).unwrap()
    }

    let cfg = SocConfig::grid_3x3_reconf("golden-dpr", 1).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    soc.set_fault_plan(Some(FaultPlan::new(
        42,
        FaultConfig::uniform(0.2).with_seu(400.0, 0.25),
    )));
    let sink = MemorySink::shared();
    soc.attach_tracer(sink.clone());
    let tile = cfg.reconfigurable_tiles()[0];
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2, 4))
        .unwrap();
    registry
        .register(tile, AcceleratorKind::Sort, bitstream(&soc, 20, 8))
        .unwrap();
    let mut manager = ReconfigManager::new(soc, registry);
    manager.set_policy(RecoveryPolicy {
        max_retries: 2,
        backoff_cycles: 32,
        backoff_multiplier: 2,
        quarantine_after: 2,
        cpu_fallback: true,
        ..RecoveryPolicy::default()
    });

    for j in 0..12u32 {
        let (kind, op) = if j % 2 == 0 {
            (
                AcceleratorKind::Mac,
                AccelOp::Mac {
                    a: vec![1.0 + j as f32; 8],
                    b: vec![2.0; 8],
                },
            )
        } else {
            (
                AcceleratorKind::Sort,
                AccelOp::Sort {
                    data: vec![3.0, 1.0 + j as f32, 2.0],
                },
            )
        };
        manager
            .run_with_fallback(tile, kind, &op)
            .expect("operation completes, possibly degraded");
        if j % 4 == 3 && !manager.is_quarantined(tile) {
            let at = manager.makespan();
            manager.scrub_all_at(at).expect("scrub sweep completes");
        }
    }

    let records = presp::events::sink::drain(&sink);
    assert!(!records.is_empty(), "golden run emitted nothing");
    log_lines(&records)
}

#[test]
fn single_tile_dpr_trace_matches_committed_golden() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dpr_single_tile.trace");
    let rendered = golden_single_tile_run();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "the single-tile DPR trace drifted from the pre-refactor golden \
         log; the runtime's virtual-time semantics changed. If that is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
