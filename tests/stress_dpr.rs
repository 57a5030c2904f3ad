//! Deterministic DPR stress harness: seeded schedule permutations of many
//! logical application threads over multiple reconfigurable tiles, with
//! fault injection on, checked against the runtime's safety invariants —
//! plus a real-OS-thread run through the workqueue manager.
//!
//! Per seed, the harness replays a seeded interleaving of requests and
//! asserts:
//!   * no lost requests — every submitted operation completes (on the
//!     accelerator or via CPU fallback) and is counted exactly once;
//!   * stats consistency — `ManagerStats::consistent()` holds;
//!   * tile availability — every non-quarantined tile still accepts work
//!     after the storm (no lock left held);
//!   * isolation — quarantined tiles stay decoupled and never observe NoC
//!     traffic;
//!   * determinism — replaying a seed reproduces the run bit-for-bit.

use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
use presp::fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp::fpga::fault::{FaultConfig, FaultPlan, InjectedFaults, SplitMix64};
use presp::fpga::frame::FrameAddress;
use presp::runtime::manager::{ExecPath, ManagerStats, ReconfigManager, RecoveryPolicy};
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp::runtime::Error as RuntimeError;
use presp::soc::config::{SocConfig, TileCoord};
use presp::soc::sim::{csr, Soc};
use presp::soc::Error as SocError;
use std::collections::VecDeque;

const SEEDS: u64 = 200;
const APP_THREADS: usize = 4;
const OPS_PER_THREAD: usize = 6;
const TILES: usize = 2;

fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    b.add_frame(FrameAddress::new(0, 1 + col % 60, 0), vec![col; words])
        .unwrap();
    b.build(true)
}

fn stress_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 2,
        backoff_cycles: 32,
        backoff_multiplier: 2,
        quarantine_after: 2,
        cpu_fallback: true,
        ..RecoveryPolicy::default()
    }
}

/// The threaded runtime under [`stress_policy`]; `workers: None` starts
/// one worker per reconfigurable tile.
fn stress_runtime(
    soc: Soc,
    registry: BitstreamRegistry,
    workers: Option<usize>,
) -> ThreadedManager {
    ThreadedManager::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            policy: stress_policy(),
            workers,
            ..RuntimeConfig::default()
        },
    )
}

fn boot(seed: u64, rate: f64) -> (ReconfigManager, Vec<TileCoord>) {
    let cfg = SocConfig::grid_3x3_reconf("stress", TILES).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    soc.set_fault_plan(Some(FaultPlan::new(seed, FaultConfig::uniform(rate))));
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
    let mut manager = ReconfigManager::new(soc, registry);
    manager.set_policy(stress_policy());
    (manager, tiles)
}

/// One operation of a logical application thread's script.
fn job_op(thread: usize, j: usize) -> (AcceleratorKind, AccelOp, AccelValue) {
    if (thread + j).is_multiple_of(2) {
        let a = (1 + thread) as f32;
        let b = (1 + j) as f32;
        (
            AcceleratorKind::Mac,
            AccelOp::Mac {
                a: vec![a; 4],
                b: vec![b; 4],
            },
            AccelValue::Scalar(4.0 * a * b),
        )
    } else {
        let data = vec![3.0, 1.0 + thread as f32, 2.0 + j as f32];
        let mut sorted = data.clone();
        sorted.sort_by(f32::total_cmp);
        (
            AcceleratorKind::Sort,
            AccelOp::Sort { data },
            AccelValue::Vector(sorted),
        )
    }
}

/// Everything observable about one seeded run; two runs of the same seed
/// must produce equal outcomes.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: ManagerStats,
    injected: InjectedFaults,
    makespan: u64,
    noc_transfers: u64,
    decoupled_rejections: u64,
    quarantined: Vec<TileCoord>,
    completions: Vec<(u64, bool)>,
}

/// Replays the seeded interleaving of `APP_THREADS` logical threads and
/// checks the per-run invariants.
fn run_schedule(seed: u64, rate: f64) -> Outcome {
    let (mut manager, tiles) = boot(seed, rate);
    // Each logical thread has a fixed script of (tile, kind, op) jobs; the
    // seeded scheduler draws which thread issues its next job, permuting
    // the interleaving across seeds while staying reproducible.
    let mut queues: Vec<VecDeque<(TileCoord, AcceleratorKind, AccelOp, AccelValue)>> = (0
        ..APP_THREADS)
        .map(|t| {
            (0..OPS_PER_THREAD)
                .map(|j| {
                    let (kind, op, expected) = job_op(t, j);
                    (tiles[(t + j) % tiles.len()], kind, op, expected)
                })
                .collect()
        })
        .collect();

    let mut sched = SplitMix64::new(seed ^ 0x5EED_5EED_5EED_5EED);
    let mut submitted = 0u64;
    let mut completions = Vec::new();
    loop {
        let alive: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if alive.is_empty() {
            break;
        }
        let pick = alive[sched.below(alive.len() as u64) as usize];
        let (tile, kind, op, expected) = queues[pick].pop_front().unwrap();
        submitted += 1;
        // Invariant: no lost requests. With CPU fallback on, every
        // operation must complete one way or the other.
        let (run, path) = manager
            .run_with_fallback(tile, kind, &op)
            .unwrap_or_else(|e| panic!("seed {seed}: lost request on {tile}: {e}"));
        assert_eq!(
            run.value, expected,
            "seed {seed}: wrong result via {path:?}"
        );
        completions.push((run.end, path == ExecPath::CpuFallback));
    }

    let stats = manager.stats();
    assert!(
        stats.consistent(),
        "seed {seed}: inconsistent stats {stats:?}"
    );
    assert_eq!(
        stats.runs + stats.fallback_runs,
        submitted,
        "seed {seed}: completions double- or under-counted: {stats:?}"
    );
    assert_eq!(submitted, (APP_THREADS * OPS_PER_THREAD) as u64);

    // Invariant: no lock left held — every non-quarantined tile still
    // accepts a request after the storm (possibly degraded, never stuck).
    let quarantined = manager.quarantined_tiles();
    for &tile in tiles.iter().filter(|t| !quarantined.contains(t)) {
        let (_, _) = manager
            .run_with_fallback(
                tile,
                AcceleratorKind::Mac,
                &AccelOp::Mac {
                    a: vec![1.0],
                    b: vec![1.0],
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: tile {tile} wedged after storm: {e}"));
    }
    // Invariant: quarantined tiles reject new work at the manager level.
    for &tile in &quarantined {
        let err = manager.request_reconfiguration(tile, AcceleratorKind::Mac);
        assert!(
            matches!(err, Err(RuntimeError::TileQuarantined { .. })),
            "seed {seed}: quarantined {tile} accepted a request: {err:?}"
        );
    }
    let stats = manager.stats();
    assert!(
        stats.consistent(),
        "seed {seed}: inconsistent stats {stats:?}"
    );
    let makespan = manager.makespan();

    // Invariant: a tile whose load failed in hardware stays decoupled —
    // the wrapper rejects execution before any NoC transfer. (Exhaustion
    // caused purely by software-level registry misses never touches the
    // fabric, so such a tile may legitimately still be coupled; the
    // manager-level quarantine above is the guard there.)
    let mut soc = manager.into_soc();
    let noc_before = soc.noc_transfers();
    let mut rejections = soc.decoupled_rejections();
    for &tile in &quarantined {
        if soc.csr_read(tile, csr::DECOUPLE).unwrap() != 1 {
            continue;
        }
        let horizon = soc.horizon();
        let err = soc.run_accelerator_at(
            tile,
            &AccelOp::Mac {
                a: vec![1.0],
                b: vec![1.0],
            },
            horizon,
        );
        assert!(
            matches!(err, Err(SocError::DecouplerProtocol { .. })),
            "seed {seed}: decoupled {tile} accepted traffic: {err:?}"
        );
        rejections += 1;
        assert_eq!(soc.decoupled_rejections(), rejections);
    }
    assert_eq!(
        soc.noc_transfers(),
        noc_before,
        "seed {seed}: NoC traffic reached a decoupled tile"
    );

    Outcome {
        stats,
        injected: soc.fault_plan().unwrap().injected(),
        makespan,
        noc_transfers: noc_before,
        decoupled_rejections: soc.decoupled_rejections(),
        quarantined,
        completions,
    }
}

#[test]
fn two_hundred_seeded_interleavings_hold_all_invariants() {
    let mut total_faults = 0u64;
    let mut total_retries = 0u64;
    let mut total_fallbacks = 0u64;
    for seed in 0..SEEDS {
        let outcome = run_schedule(seed, 0.15);
        total_faults += outcome.injected.total();
        total_retries += outcome.stats.retries;
        total_fallbacks += outcome.stats.fallback_runs;
    }
    // The harness must actually exercise the recovery machinery, not just
    // pass vacuously on fault-free runs.
    assert!(
        total_faults > 100,
        "faults were injected across seeds: {total_faults}"
    );
    assert!(total_retries > 0, "some runs retried");
    assert!(total_fallbacks > 0, "some runs degraded to the CPU");
}

#[test]
fn heavy_fault_schedules_quarantine_and_still_complete() {
    // At an 0.85 per-hook rate nearly every load fails, so requests
    // exhaust their retries back-to-back and tiles quarantine — the
    // invariants (checked inside `run_schedule`) must survive the worst
    // case, with every operation finishing on the CPU path.
    let mut any_quarantine = false;
    for seed in 0..20 {
        let outcome = run_schedule(seed, 0.85);
        any_quarantine |= !outcome.quarantined.is_empty();
        assert!(
            outcome.stats.retries_exhausted > 0,
            "seed {seed}: {:?}",
            outcome.stats
        );
    }
    assert!(any_quarantine, "heavy faults quarantined at least one tile");
}

#[test]
fn same_seed_reproduces_the_run_bit_for_bit() {
    for seed in [0, 7, 42, 99, 143, 199] {
        let first = run_schedule(seed, 0.2);
        let second = run_schedule(seed, 0.2);
        assert_eq!(first, second, "seed {seed} diverged between runs");
    }
}

#[test]
fn fault_free_schedules_never_degrade() {
    for seed in 0..20 {
        let outcome = run_schedule(seed, 0.0);
        assert_eq!(outcome.injected.total(), 0);
        assert_eq!(outcome.stats.retries, 0);
        assert_eq!(outcome.stats.fallback_runs, 0);
        assert!(outcome.quarantined.is_empty());
        assert!(outcome.completions.iter().all(|&(_, fell_back)| !fell_back));
    }
}

// ---- scrubber-enabled seed matrix ---------------------------------------

/// Everything observable about one scrubbed run; same-seed runs must be
/// byte-identical down to the trace log.
struct ScrubOutcome {
    stats: ManagerStats,
    quarantined: Vec<TileCoord>,
    seu_events: usize,
    repaired_events: usize,
    trace: String,
}

/// Replays a seeded interleaving with SEUs striking configuration memory
/// and a periodic scrub sweep interleaved with the request storm.
fn run_scrubbed_schedule(seed: u64) -> ScrubOutcome {
    use presp::events::trace::{log_lines, TraceEvent};
    use presp::events::MemorySink;

    let cfg = SocConfig::grid_3x3_reconf("scrub-stress", TILES).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    // CRC faults exercise retry/fallback; SEUs (some double-bit) exercise
    // the ECC repair and quarantine paths.
    soc.set_fault_plan(Some(FaultPlan::new(
        seed,
        FaultConfig::uniform(0.08).with_seu(200.0, 0.15),
    )));
    let sink = MemorySink::shared();
    soc.attach_tracer(sink.clone());
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
    let mut manager = ReconfigManager::new(soc, registry);
    manager.set_policy(stress_policy());

    let mut queues: Vec<VecDeque<(TileCoord, AcceleratorKind, AccelOp, AccelValue)>> = (0
        ..APP_THREADS)
        .map(|t| {
            (0..OPS_PER_THREAD)
                .map(|j| {
                    let (kind, op, expected) = job_op(t, j);
                    (tiles[(t + j) % tiles.len()], kind, op, expected)
                })
                .collect()
        })
        .collect();
    let mut sched = SplitMix64::new(seed ^ 0x5C7B_5C7B_5C7B_5C7B);
    let mut submitted = 0u64;
    loop {
        let alive: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if alive.is_empty() {
            break;
        }
        let pick = alive[sched.below(alive.len() as u64) as usize];
        let (tile, kind, op, expected) = queues[pick].pop_front().unwrap();
        submitted += 1;
        // Invariant: no lost requests, even with the scrubber interleaved.
        let (run, path) = manager
            .run_with_fallback(tile, kind, &op)
            .unwrap_or_else(|e| panic!("seed {seed}: lost request on {tile}: {e}"));
        assert_eq!(
            run.value, expected,
            "seed {seed}: wrong result via {path:?}"
        );
        // Periodic scrub sweep, like a background scrubber waking up.
        if submitted.is_multiple_of(4) {
            let at = manager.makespan();
            manager.scrub_all_at(at).unwrap();
        }
    }
    assert_eq!(submitted, (APP_THREADS * OPS_PER_THREAD) as u64);

    // Drain whatever struck during the storm, disarm the SEU source, and
    // confirm: a final sweep over every non-quarantined tile must come
    // back clean — every upset was repaired, or its tile quarantined.
    let at = manager.makespan();
    manager.scrub_all_at(at).unwrap();
    manager.soc_mut().set_fault_plan(None);
    let confirm = manager.scrub_all_at(manager.makespan()).unwrap();
    for (tile, report) in &confirm {
        assert!(
            report.is_clean(),
            "seed {seed}: latent damage on {tile} survived the final sweep"
        );
    }

    let stats = manager.stats();
    assert!(
        stats.consistent(),
        "seed {seed}: inconsistent stats {stats:?}"
    );
    let quarantined = manager.quarantined_tiles();
    let records = presp::events::sink::snapshot(&sink);
    let seu_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::SeuInjected { .. }))
        .count();
    let repaired_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::FrameRepaired { .. }))
        .count();
    // Every repair the manager counted is visible in the trace.
    assert_eq!(
        repaired_events as u64, stats.frames_repaired,
        "seed {seed}: trace and stats disagree on repairs"
    );
    // Every quarantine decision is visible in the trace.
    let quarantine_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Quarantine { entered: true, .. }))
        .count() as u64;
    assert!(
        quarantine_events >= stats.scrub_quarantines,
        "seed {seed}: scrub quarantines missing from the trace"
    );
    ScrubOutcome {
        stats,
        quarantined,
        seu_events,
        repaired_events,
        trace: log_lines(&records),
    }
}

#[test]
fn scrubbed_seed_matrix_repairs_or_quarantines_every_upset() {
    let mut total_seus = 0usize;
    let mut total_repairs = 0usize;
    let mut total_quarantines = 0u64;
    for seed in 0..30 {
        let outcome = run_scrubbed_schedule(seed);
        total_seus += outcome.seu_events;
        total_repairs += outcome.repaired_events;
        total_quarantines += outcome.stats.scrub_quarantines;
        assert_eq!(
            !outcome.quarantined.is_empty(),
            outcome.stats.quarantines >= 1
        );
    }
    // The matrix must actually exercise both outcomes, not pass vacuously.
    assert!(
        total_seus > 50,
        "SEUs were injected across seeds: {total_seus}"
    );
    assert!(total_repairs > 0, "some upsets were ECC-repaired");
    assert!(
        total_quarantines > 0,
        "some double-bit upsets forced a quarantine"
    );
}

#[test]
fn scrubbed_runs_are_trace_identical_per_seed() {
    for seed in [3, 11, 27] {
        let first = run_scrubbed_schedule(seed);
        let second = run_scrubbed_schedule(seed);
        assert_eq!(first.stats, second.stats, "seed {seed} stats diverged");
        assert_eq!(
            first.trace, second.trace,
            "seed {seed}: trace logs are not byte-identical"
        );
    }
}

// ---- multi-worker determinism -------------------------------------------

/// Replays a seeded blocking script through the sharded worker pool and
/// captures everything virtual-time observable: stats, makespan and the
/// full trace log. The ticket gate commits critical sections in strict
/// admission order, so the triple must be *identical for any worker
/// count* — `workers = 4` must replay `workers = 1` byte for byte.
fn run_threaded_schedule(seed: u64, workers: usize) -> (ManagerStats, u64, String) {
    use presp::events::trace::log_lines;
    use presp::events::MemorySink;

    let cfg = SocConfig::grid_3x3_reconf("mw-stress", 4).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    soc.set_fault_plan(Some(FaultPlan::new(seed, FaultConfig::uniform(0.1))));
    let sink = MemorySink::shared();
    soc.attach_tracer(sink.clone());
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
    let manager = stress_runtime(soc, registry, Some(workers));

    // Single blocking submitter: each request completes before the next
    // is admitted, so the submission order — and therefore the ticket
    // order the gate commits in — is a pure function of the seed.
    let mut queues: Vec<VecDeque<(TileCoord, AcceleratorKind, AccelOp, AccelValue)>> = (0
        ..APP_THREADS)
        .map(|t| {
            (0..OPS_PER_THREAD)
                .map(|j| {
                    let (kind, op, expected) = job_op(t, j);
                    (tiles[(t + j) % tiles.len()], kind, op, expected)
                })
                .collect()
        })
        .collect();
    let mut sched = SplitMix64::new(seed ^ 0xD47E_D47E_D47E_D47E);
    loop {
        let alive: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if alive.is_empty() {
            break;
        }
        let pick = alive[sched.below(alive.len() as u64) as usize];
        let (tile, kind, op, expected) = queues[pick].pop_front().unwrap();
        let (run, path) = manager
            .execute_blocking(tile, kind, op)
            .unwrap_or_else(|e| panic!("seed {seed}: lost request on {tile}: {e}"));
        assert_eq!(
            run.value, expected,
            "seed {seed}: wrong result via {path:?}"
        );
    }

    let stats = manager.stats();
    assert!(
        stats.consistent(),
        "seed {seed}: inconsistent stats {stats:?}"
    );
    let makespan = manager.makespan();
    manager.shutdown();
    let trace = log_lines(&presp::events::sink::snapshot(&sink));
    (stats, makespan, trace)
}

#[test]
fn worker_count_does_not_change_the_virtual_world() {
    for seed in [1, 13, 77] {
        let (stats_1, makespan_1, trace_1) = run_threaded_schedule(seed, 1);
        let (stats_4, makespan_4, trace_4) = run_threaded_schedule(seed, 4);
        assert_eq!(stats_1, stats_4, "seed {seed}: stats diverged");
        assert_eq!(makespan_1, makespan_4, "seed {seed}: makespan diverged");
        assert_eq!(
            trace_1, trace_4,
            "seed {seed}: trace logs are not byte-identical across worker counts"
        );
    }
}

/// Asynchronous flavor: the whole seeded script is admitted before any
/// completion is awaited, so with four workers the behavioral
/// evaluations genuinely overlap — yet the ticket gate keeps every
/// virtual-time outcome (values, stats, makespan) equal to the
/// single-worker run. (`Execute` jobs never coalesce, so the comparison
/// is exact; queue-depth trace fields are wall-clock shaped and excluded
/// by comparing outcomes, not logs.)
fn run_async_burst(seed: u64, workers: usize) -> (ManagerStats, u64) {
    let cfg = SocConfig::grid_3x3_reconf("mw-async", 4).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    soc.set_fault_plan(Some(FaultPlan::new(seed, FaultConfig::uniform(0.1))));
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
    let manager = stress_runtime(soc, registry, Some(workers));

    let mut queues: Vec<VecDeque<(TileCoord, AcceleratorKind, AccelOp, AccelValue)>> = (0
        ..APP_THREADS)
        .map(|t| {
            (0..OPS_PER_THREAD)
                .map(|j| {
                    let (kind, op, expected) = job_op(t, j);
                    (tiles[(t + j) % tiles.len()], kind, op, expected)
                })
                .collect()
        })
        .collect();
    let mut sched = SplitMix64::new(seed ^ 0xA5F0_A5F0_A5F0_A5F0);
    let mut pendings = Vec::new();
    loop {
        let alive: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if alive.is_empty() {
            break;
        }
        let pick = alive[sched.below(alive.len() as u64) as usize];
        let (tile, kind, op, expected) = queues[pick].pop_front().unwrap();
        pendings.push((manager.submit_execute(tile, kind, op), expected, tile));
    }
    for (pending, expected, tile) in pendings {
        let (run, path) = pending
            .wait()
            .unwrap_or_else(|e| panic!("seed {seed}: lost request on {tile}: {e}"));
        assert_eq!(
            run.value, expected,
            "seed {seed}: wrong result via {path:?}"
        );
    }

    let stats = manager.stats();
    assert!(
        stats.consistent(),
        "seed {seed}: inconsistent stats {stats:?}"
    );
    let makespan = manager.makespan();
    manager.shutdown();
    (stats, makespan)
}

#[test]
fn async_overlap_still_replays_the_single_worker_outcome() {
    for seed in [5, 21, 143] {
        let (stats_1, makespan_1) = run_async_burst(seed, 1);
        let (stats_4, makespan_4) = run_async_burst(seed, 4);
        assert_eq!(stats_1, stats_4, "seed {seed}: stats diverged");
        assert_eq!(makespan_1, makespan_4, "seed {seed}: makespan diverged");
    }
}

#[test]
fn coalesced_reconfigure_burst_loads_once_and_answers_everyone() {
    let cfg = SocConfig::grid_3x3_reconf("coalesce", 2).unwrap();
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
    let manager = stress_runtime(soc, registry, Some(1));

    // Occupy the single worker: its lock-free behavioral evaluation of a
    // two-million-element sort takes real wall time, during which it
    // cannot claim anything else.
    let big: Vec<f32> = (0..2_000_000).rev().map(|i| i as f32).collect();
    let busy = manager.submit_execute(tiles[1], AcceleratorKind::Sort, AccelOp::Sort { data: big });

    // Burst: ten identical reconfigurations on the other tile. The first
    // is enqueued behind the busy worker; the other nine tail-fold into
    // it — deterministically, because claim order follows the global
    // ticket order and the only worker is pinned on the sort.
    let burst: Vec<_> = (0..10)
        .map(|_| manager.submit_reconfigure(tiles[0], AcceleratorKind::Mac))
        .collect();
    for pending in burst {
        pending.wait().expect("every coalesced waiter is answered");
    }
    let (run, _path) = busy.wait().unwrap();
    match run.value {
        AccelValue::Vector(v) => {
            assert_eq!(v.len(), 2_000_000);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "sort came back wrong");
        }
        other => panic!("unexpected result {other:?}"),
    }

    let stats = manager.stats();
    // 10 burst requests + 1 ensure-load inside the execute; one physical
    // load each for the burst and the execute.
    assert_eq!(stats.coalesced, 9, "{stats:?}");
    assert_eq!(stats.reconfig_requests, 11, "{stats:?}");
    assert_eq!(stats.reconfigurations, 2, "{stats:?}");
    assert!(stats.consistent(), "{stats:?}");
    let sched_stats = manager.scheduler_stats();
    assert_eq!(sched_stats.coalesced, 9);
    // Two real jobs reached a worker: the execute and the folded load.
    assert_eq!(sched_stats.admitted, 2);
    assert_eq!(sched_stats.completed, 2);
    assert!(sched_stats.wait_samples() >= 2);
    manager.shutdown();
}

#[test]
fn os_thread_stress_with_faults_completes_and_shuts_down_cleanly() {
    let cfg = SocConfig::grid_3x3_reconf("os-stress", TILES).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    soc.set_fault_plan(Some(FaultPlan::new(77, FaultConfig::uniform(0.1))));
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
    let manager = stress_runtime(soc, registry, None);

    let handles: Vec<_> = (0..APP_THREADS)
        .map(|t| {
            let manager = manager.clone();
            let tiles = tiles.clone();
            std::thread::spawn(move || {
                let mut fallbacks = 0u64;
                for j in 0..OPS_PER_THREAD {
                    let (kind, op, expected) = job_op(t, j);
                    let tile = tiles[(t + j) % tiles.len()];
                    let (run, path) = manager
                        .execute_blocking(tile, kind, op)
                        .unwrap_or_else(|e| panic!("thread {t}: lost request: {e}"));
                    assert_eq!(run.value, expected);
                    if path == ExecPath::CpuFallback {
                        fallbacks += 1;
                    }
                }
                fallbacks
            })
        })
        .collect();
    let fallbacks: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .sum();

    let stats = manager.stats();
    assert!(stats.consistent(), "{stats:?}");
    assert_eq!(
        stats.runs + stats.fallback_runs,
        (APP_THREADS * OPS_PER_THREAD) as u64
    );
    assert_eq!(stats.fallback_runs, fallbacks);

    // Clean shutdown: joins the worker (a hang here fails the test), and
    // later submissions are answered, not dropped.
    manager.shutdown();
    let err = manager.execute_blocking(
        tiles[0],
        AcceleratorKind::Mac,
        AccelOp::Mac {
            a: vec![1.0],
            b: vec![1.0],
        },
    );
    assert!(matches!(err, Err(RuntimeError::ManagerStopped)));
}
