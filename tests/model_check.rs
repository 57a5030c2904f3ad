//! Workspace-level model checking of the DPR runtime.
//!
//! The flagship test runs the *production* `ThreadedManager` protocol —
//! the same source that ships, instantiated with `CheckSync` instead of
//! `StdSync` — under `presp-check`'s bounded schedule explorer: two
//! application threads contend over two reconfigurable tiles, swapping
//! accelerators and dispatching work through the workqueue, and every
//! explored terminal state must be race-free, deadlock-free, lock-order
//! acyclic, and leave `ManagerStats` consistent.
//!
//! The sharded sweep does the same with the full multi-worker scheduler:
//! four workers × four tiles, overlapped asynchronous submissions, and a
//! committed lock-inversion mutant the checker must catch *and* replay
//! deterministically from its printed schedule.
//!
//! The schedule budget defaults to 10 000 and can be turned up or down
//! with `PRESP_CHECK_MAX_SCHEDULES` (CI uses it as a wall-clock knob).

use presp::accel::catalog::AcceleratorKind;
use presp::accel::{AccelOp, AccelValue};
use presp::check::{CheckSync, Checker, Config};
use presp::events::timeline::ResourceTimeline;
use presp::fpga::bitstream::Bitstream;
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp::runtime::RecoveryPolicy;
use presp::soc::config::{SocConfig, TileCoord};
use presp::soc::sim::Soc;

fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, 1).unwrap()
}

/// Boots the production protocol under the checking facade. Everything is
/// constructed inside the exploration body: model state must be fresh and
/// deterministic per schedule.
fn boot_checked() -> (ThreadedManager<CheckSync>, Vec<TileCoord>) {
    let cfg = SocConfig::grid_3x3_reconf("model", 2).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    registry
        .register(tiles[0], AcceleratorKind::Sort, bitstream(&soc, 30))
        .unwrap();
    registry
        .register(tiles[1], AcceleratorKind::Mac, bitstream(&soc, 3))
        .unwrap();
    let mgr = ThreadedManager::<CheckSync>::spawn_with(soc, registry, RuntimeConfig::default());
    (mgr, tiles)
}

/// Two app threads × two tiles over the full request surface:
/// reconfigure (with an accelerator swap racing the caller), the
/// `run_blocking` NoDriver wait/retry loop, `execute_blocking`'s
/// ensure-loaded path, and shutdown.
fn contended_dpr_model() {
    let (mgr, tiles) = boot_checked();
    let (tile_a, tile_b) = (tiles[0], tiles[1]);

    // Swapper thread: takes tile A through SORT and back to MAC, so the
    // main thread's MAC work can observe a mid-swap NoDriver and must
    // wait on the reconfig_done condvar.
    let swapper = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("swapper", move || {
            mgr.reconfigure_blocking(tile_a, AcceleratorKind::Sort)
                .unwrap();
            mgr.reconfigure_blocking(tile_a, AcceleratorKind::Mac)
                .unwrap();
        })
    };

    // Main thread: MAC work on tile A (racing the swap) and an
    // ensure-loaded execute on tile B.
    mgr.reconfigure_blocking(tile_a, AcceleratorKind::Mac)
        .unwrap();
    for _ in 0..2 {
        let run = mgr
            .run_blocking(
                tile_a,
                AccelOp::Mac {
                    a: vec![2.0],
                    b: vec![3.0],
                },
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(6.0));
    }
    let (run, _path) = mgr
        .execute_blocking(
            tile_b,
            AcceleratorKind::Mac,
            AccelOp::Mac {
                a: vec![1.0],
                b: vec![4.0],
            },
        )
        .unwrap();
    assert_eq!(run.value, AccelValue::Scalar(4.0));

    swapper.join().unwrap();

    // Terminal-state invariant, checked in every explored schedule.
    let stats = mgr.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    assert!(stats.reconfigurations + stats.cache_hits >= 3);
    mgr.shutdown();
}

fn schedule_budget() -> usize {
    std::env::var("PRESP_CHECK_MAX_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

#[test]
fn dpr_runtime_protocol_is_clean_across_schedules() {
    let budget = schedule_budget();
    let checker = Checker::new(Config {
        max_schedules: budget,
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(contended_dpr_model);
    assert!(report.ok(), "{report}");
    assert!(
        report.exhausted || report.schedules >= budget,
        "explorer stopped early: {report}"
    );
    assert!(
        report.schedules > 100,
        "scenario too small to be meaningful: {report}"
    );
}

/// Scrub passes + manager: a scrubbing caller shares the device lock
/// with the reconfiguration worker, so its readback passes interleave
/// with swaps and stats snapshots. Every explored schedule must stay
/// race-free, deadlock-free, and lock-order acyclic; the pass counts
/// itself in the ledger under `core`, so no snapshot sees half a pass.
fn scrubbed_dpr_model() {
    let (mgr, tiles) = boot_checked();
    let tile = tiles[0];

    let swapper = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("swapper", move || {
            mgr.reconfigure_blocking(tile, AcceleratorKind::Sort)
                .unwrap();
        })
    };
    let scrub_caller = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("scrub_caller", move || {
            let report = mgr.scrub_blocking(tile).unwrap();
            assert!(report.uncorrectable.is_empty());
        })
    };

    // Main thread races a ledger snapshot against both callers and the
    // worker.
    let snapshot = mgr.stats();
    assert!(snapshot.scrub_passes <= 1, "{snapshot:?}");
    swapper.join().unwrap();
    scrub_caller.join().unwrap();

    let stats = mgr.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    mgr.shutdown();
}

#[test]
fn scrubber_protocol_is_clean_across_schedules() {
    let budget = schedule_budget();
    let checker = Checker::new(Config {
        max_schedules: budget,
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(scrubbed_dpr_model);
    assert!(report.ok(), "{report}");
    assert!(
        report.exhausted || report.schedules >= budget,
        "explorer stopped early: {report}"
    );
    assert!(
        report.schedules > 100,
        "scenario too small to be meaningful: {report}"
    );
}

// ---- sharded multi-worker protocol ----------------------------------

/// Four workers × four tiles over the sharded scheduler: asynchronous
/// reconfigurations fan out to every tile while a second app thread
/// drives the ensure-loaded blocking path on tile 0. All four workers
/// race over the queue, the ticket gate, the tile shards and the device
/// core, so every edge of the `gate` → `tile_state` → `core` lock-order
/// graph is exercised in every schedule.
fn sharded_multi_worker_model() {
    let cfg = SocConfig::grid_3x3_reconf("model4", 4).unwrap();
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
            workers: Some(4),
            ..RuntimeConfig::default()
        },
    );
    // Sharded tracing in the model: every worker commits through its own
    // shard, so the per-commit re-attach is explored. The shard mutexes
    // are `std::sync`, outside the checker's facade, and are taken only
    // with `core` held, so the sink locks themselves are not explored.
    let sink = presp::events::ShardedSink::new(4);
    mgr.attach_sharded_tracer(&sink);

    // Fan out: one asynchronous reconfiguration per tile, all admitted
    // before any completion is awaited, so the four workers can overlap.
    let pendings: Vec<_> = tiles
        .iter()
        .map(|&tile| mgr.submit_reconfigure(tile, AcceleratorKind::Mac))
        .collect();

    // A second app thread exercises the blocking ensure-loaded path on
    // tile 0 concurrently with the fan-out.
    let runner = {
        let mgr = mgr.clone();
        let tile = tiles[0];
        presp::check::sync::spawn_named("runner", move || {
            let (run, _path) = mgr
                .execute_blocking(
                    tile,
                    AcceleratorKind::Mac,
                    AccelOp::Mac {
                        a: vec![2.0],
                        b: vec![3.0],
                    },
                )
                .unwrap();
            assert_eq!(run.value, AccelValue::Scalar(6.0));
        })
    };

    for pending in pendings {
        pending.wait().unwrap();
    }
    runner.join().unwrap();

    let stats = mgr.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    // Four tiles each loaded MAC at least once (the execute may add a
    // fifth load or coalesce, depending on the schedule).
    assert!(
        stats.reconfigurations + stats.cache_hits >= 4,
        "missing loads: {stats:?}"
    );
    mgr.shutdown();

    // The merged shard drain is a dense, strictly ordered seq sequence in
    // every explored schedule — the invariant byte-identical logs rest on.
    let merged = sink.drain_merged();
    assert!(!merged.is_empty(), "sharded commits must trace");
    for (i, record) in merged.iter().enumerate() {
        assert_eq!(record.seq, i as u64, "merged seq must be dense");
    }
}

#[test]
fn sharded_multi_worker_protocol_is_clean_across_schedules() {
    let budget = schedule_budget();
    let checker = Checker::new(Config {
        max_schedules: budget,
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(sharded_multi_worker_model);
    assert!(report.ok(), "{report}");
    assert!(
        report.exhausted || report.schedules >= budget,
        "explorer stopped early: {report}"
    );
    assert!(
        report.schedules > 100,
        "scenario too small to be meaningful: {report}"
    );
}

/// The committed shard↔core lock-inversion mutant: the worker commits
/// reconfigurations acquiring `core` → `tile_state`, the reverse of the
/// scrub pass's (and every other path's) `tile_state` → `core`. Racing a
/// reconfiguration against a scrub pass must deadlock some schedule.
fn sharded_inversion_model() {
    use presp::runtime::scheduler::MutantConfig;

    let cfg = SocConfig::grid_3x3_reconf("mutant", 1).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    // One worker: the inversion is a two-party cycle (worker vs
    // scrubbing caller); extra workers only dilute the bounded
    // exploration.
    let mgr = ThreadedManager::<CheckSync>::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            workers: Some(1),
            mutants: MutantConfig {
                shard_core_inversion: true,
                ..MutantConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let tile = tiles[0];
    let app = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("app", move || {
            mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
                .unwrap();
        })
    };
    let _ = mgr.scrub_blocking(tile);
    app.join().unwrap();
    mgr.shutdown();
}

#[test]
fn sweep_catches_and_replays_the_shard_core_inversion_mutant() {
    use presp::check::FailureKind;
    let checker = Checker::new(Config {
        max_schedules: schedule_budget(),
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(sharded_inversion_model);
    let failure = report
        .failure
        .expect("the inversion mutant must deadlock some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got: {failure}"
    );
    // The printed schedule replays the identical deadlock: the bug report
    // is a reproducer, not a coin flip.
    let replay = checker.replay(&failure.schedule, sharded_inversion_model);
    assert!(
        matches!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Deadlock { .. })
        ),
        "replay must reproduce the deadlock: {replay}"
    );
}

/// The supervised protocol under exploration: the only worker hangs on
/// ticket 0 (scripted), the watchdog's quiescence timeout steals the
/// claim blocking the gate and the released worker redoes the job under
/// its original ticket, while a second request sits admitted behind it.
/// Every schedule must end with the gate healed — no orphaned tickets,
/// no lost requests — and the supervisor's steal scan exercises the
/// `supervisor` → `gate` lock-order edge throughout.
fn supervised_recovery_model() {
    use presp::runtime::{WorkerFault, WorkerFaultPlan};
    let cfg = SocConfig::grid_3x3_reconf("sup", 1).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    let policy = RecoveryPolicy {
        supervised: true,
        ..RecoveryPolicy::default()
    };
    let mgr = ThreadedManager::<CheckSync>::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            policy,
            workers: Some(1),
            ..RuntimeConfig::default()
        },
    );
    mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
    let tile = tiles[0];
    let app = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("app", move || {
            mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
                .unwrap();
        })
    };
    // Whichever request draws ticket 0 hangs; the other is admitted
    // behind it and must still commit in ticket order after the steal.
    let (run, _path) = mgr
        .execute_blocking(
            tile,
            AcceleratorKind::Mac,
            AccelOp::Mac {
                a: vec![2.0],
                b: vec![3.0],
            },
        )
        .unwrap();
    assert_eq!(run.value, AccelValue::Scalar(6.0));
    app.join().unwrap();
    // Shutdown joins the workers, so the orphan invariant is quiescent.
    mgr.shutdown();
    assert_eq!(mgr.orphaned_tickets(), 0, "healed gate left orphans");
    let stats = mgr.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    let sup = mgr.supervisor_stats();
    assert_eq!(sup.injected.hangs, 1, "scripted hang must fire: {sup:?}");
    assert!(sup.redispatches >= 1, "steal must redispatch: {sup:?}");
}

#[test]
fn supervised_protocol_is_clean_across_schedules() {
    let budget = schedule_budget();
    let checker = Checker::new(Config {
        max_schedules: budget,
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(supervised_recovery_model);
    assert!(report.ok(), "{report}");
    assert!(
        report.exhausted || report.schedules >= budget,
        "explorer stopped early: {report}"
    );
    assert!(
        report.schedules > 100,
        "scenario too small to be meaningful: {report}"
    );
}

/// The committed supervisor↔gate lock-inversion mutant: the worker's
/// commit path flags its claim as committing while already holding the
/// gate (`gate` → `supervisor`), the reverse of the watchdog's steal
/// scan (`supervisor` → `gate`). A forced steal racing the redispatched
/// commit must deadlock some schedule.
fn supervisor_gate_inversion_model() {
    use presp::runtime::scheduler::MutantConfig;
    use presp::runtime::{WorkerFault, WorkerFaultPlan};

    let cfg = SocConfig::grid_3x3_reconf("mutants", 1).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    let policy = RecoveryPolicy {
        supervised: true,
        ..RecoveryPolicy::default()
    };
    let mgr = ThreadedManager::<CheckSync>::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            policy,
            workers: Some(1),
            mutants: MutantConfig {
                supervisor_gate_inversion: true,
                ..MutantConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    mgr.set_worker_fault_plan(Some(WorkerFaultPlan::scripted(&[(0, WorkerFault::Hang)])));
    let tile = tiles[0];
    let app = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("app", move || {
            let _ = mgr.reconfigure_blocking(tile, AcceleratorKind::Mac);
        })
    };
    app.join().unwrap();
    mgr.shutdown();
}

#[test]
fn sweep_catches_and_replays_the_supervisor_gate_inversion_mutant() {
    use presp::check::FailureKind;
    let checker = Checker::new(Config {
        max_schedules: schedule_budget(),
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(supervisor_gate_inversion_model);
    let failure = report
        .failure
        .expect("the supervisor/gate inversion mutant must deadlock some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got: {failure}"
    );
    let replay = checker.replay(&failure.schedule, supervisor_gate_inversion_model);
    assert!(
        matches!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Deadlock { .. })
        ),
        "replay must reproduce the deadlock: {replay}"
    );
}

/// The committed queue↔admission lock-inversion mutant: the worker's
/// completion path acquires `tile_queue` → `sched_admission`, the reverse
/// of every admission path's `sched_admission` → `tile_queue`. A
/// submitter racing a completing worker must deadlock some schedule.
fn queue_admission_inversion_model() {
    use presp::runtime::scheduler::MutantConfig;

    let cfg = SocConfig::grid_3x3_reconf("mutantq", 1).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    let mgr = ThreadedManager::<CheckSync>::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            workers: Some(1),
            mutants: MutantConfig {
                queue_admission_inversion: true,
                ..MutantConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let tile = tiles[0];
    let app = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("app", move || {
            let _ = mgr.reconfigure_blocking(tile, AcceleratorKind::Mac);
        })
    };
    // Main thread submits to the same tile while the worker completes the
    // app thread's job: admission-side vs completion-side lock orders.
    let _ = mgr.execute_blocking(
        tile,
        AcceleratorKind::Mac,
        AccelOp::Mac {
            a: vec![1.0],
            b: vec![2.0],
        },
    );
    app.join().unwrap();
    mgr.shutdown();
}

#[test]
fn sweep_catches_and_replays_the_queue_admission_inversion_mutant() {
    use presp::check::FailureKind;
    let checker = Checker::new(Config {
        max_schedules: schedule_budget(),
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(queue_admission_inversion_model);
    let failure = report
        .failure
        .expect("the queue/admission inversion mutant must deadlock some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got: {failure}"
    );
    let replay = checker.replay(&failure.schedule, queue_admission_inversion_model);
    assert!(
        matches!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Deadlock { .. })
        ),
        "replay must reproduce the deadlock: {replay}"
    );
}

// ---- ResourceTimeline edge cases ------------------------------------
//
// The timeline arbitrates every shared resource the model-checked worker
// dispatches onto; these edges (zero-length holds, back-to-back
// contention) are exactly where off-by-one accounting would skew the
// contention numbers the paper's Fig. 4 comparison rests on.

/// The amorphous-floorplanning protocol under exploration: regions
/// enabled on the only tile, one app thread swapping the accelerator
/// (region allocate/release through the scheduler) racing the main
/// thread's gate-quiesced repack pass. Every schedule must leave the
/// stats consistent and the `gate` → `tile_state` → `core` lock order
/// acyclic.
fn defrag_model() {
    use presp::floorplan::FitPolicy;

    let cfg = SocConfig::grid_3x3_reconf("defrag_ws", 1).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    let mgr = ThreadedManager::<CheckSync>::spawn_with(soc, registry, RuntimeConfig::default());
    mgr.enable_regions(FitPolicy::FirstFit, None).unwrap();
    let tile = tiles[0];
    let app = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("app", move || {
            mgr.reconfigure_blocking(tile, AcceleratorKind::Mac)
                .unwrap();
        })
    };
    mgr.repack_blocking().unwrap();
    app.join().unwrap();
    let stats = mgr.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    mgr.shutdown();
}

#[test]
fn defrag_protocol_is_clean_across_schedules() {
    let budget = schedule_budget();
    let checker = Checker::new(Config {
        max_schedules: budget,
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(defrag_model);
    assert!(report.ok(), "{report}");
    assert!(
        report.exhausted || report.schedules >= budget,
        "explorer stopped early: {report}"
    );
    assert!(
        report.schedules > 100,
        "scenario too small to be meaningful: {report}"
    );
}

/// The committed defrag gate-inversion mutant: the repack pass probes
/// every shard's `tile_state` *before* taking the commit gate — the
/// reverse of each worker's `gate` → `tile_state` commit acquisition —
/// so a worker inside its commit slot and the pass deadlock in some
/// schedule.
fn defrag_inversion_model() {
    use presp::runtime::scheduler::MutantConfig;

    let cfg = SocConfig::grid_3x3_reconf("defrag_mutant", 1).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    registry
        .register(tiles[0], AcceleratorKind::Mac, bitstream(&soc, 2))
        .unwrap();
    let mgr = ThreadedManager::<CheckSync>::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            mutants: MutantConfig {
                defrag_gate_inversion: true,
                ..MutantConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let tile = tiles[0];
    let app = {
        let mgr = mgr.clone();
        presp::check::sync::spawn_named("app", move || {
            let _ = mgr.reconfigure_blocking(tile, AcceleratorKind::Mac);
        })
    };
    let _ = mgr.repack_blocking();
    app.join().unwrap();
    mgr.shutdown();
}

#[test]
fn sweep_catches_and_replays_the_defrag_gate_inversion_mutant() {
    use presp::check::FailureKind;
    let checker = Checker::new(Config {
        max_schedules: schedule_budget(),
        preemption_bound: Some(2),
        max_steps: 50_000,
    });
    let report = checker.explore(defrag_inversion_model);
    let failure = report
        .failure
        .expect("the defrag gate-inversion mutant must deadlock some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got: {failure}"
    );
    let replay = checker.replay(&failure.schedule, defrag_inversion_model);
    assert!(
        matches!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Deadlock { .. })
        ),
        "replay must reproduce the deadlock: {replay}"
    );
}

#[test]
fn zero_length_reservation_holds_nothing_but_counts() {
    let mut tl = ResourceTimeline::new();
    let r = tl.reserve(7, 0);
    assert_eq!((r.start, r.end, r.waited), (7, 7, 0));
    assert_eq!(r.duration(), 0);
    assert_eq!(tl.free_at(), 7, "a zero-length hold still moves free_at");
    assert_eq!(tl.reservations(), 1);
    assert_eq!(tl.busy_cycles(), 0, "zero-length holds add no busy time");
    assert_eq!(tl.contention_cycles(), 0);

    // A zero-length reservation behind a busy period still waits.
    tl.reserve(7, 10);
    let r = tl.reserve(7, 0);
    assert_eq!((r.start, r.end, r.waited), (17, 17, 10));
    assert_eq!(tl.contention_cycles(), 10);
}

#[test]
fn back_to_back_contention_accumulates_exactly() {
    let mut tl = ResourceTimeline::new();
    // Three requests all issued at cycle 0, each holding 5 cycles: they
    // serialize 0–5, 5–10, 10–15 and wait 0, 5, 10 respectively.
    let waits: Vec<u64> = (0..3).map(|_| tl.reserve(0, 5).waited).collect();
    assert_eq!(waits, vec![0, 5, 10]);
    assert_eq!(tl.free_at(), 15);
    assert_eq!(tl.busy_cycles(), 15);
    assert_eq!(tl.contention_cycles(), 15);

    // A request issued exactly at free_at is back-to-back, not contended.
    let r = tl.reserve(15, 5);
    assert_eq!(r.waited, 0);
    assert_eq!(tl.contention_cycles(), 15);
}
