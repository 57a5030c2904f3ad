//! Supervised-scheduler stress: seeded interleavings of worker panics,
//! hangs and slow-worker stalls — with SEU scrubbing running in the same
//! storm — through the sharded worker pool.
//!
//! Per seed, the harness replays a seeded interleaving of blocking
//! requests while a [`WorkerFaultPlan`] kills and wedges workers
//! mid-claim, and asserts:
//!   * no lost requests — every submitted operation is answered (on the
//!     accelerator or via CPU fallback), even when its worker died while
//!     holding the claim;
//!   * no orphaned tickets — after shutdown the commit-order gate has
//!     passed every admitted ticket (nothing leaked into the claim table);
//!   * supervision accounting — every injected panic is one worker death,
//!     every death within budget is one respawn, every healed claim is a
//!     redispatch;
//!   * scrub convergence — with the fault source disarmed, a final sweep
//!     reads every frame back clean;
//!   * determinism — same seed, same everything: stats, supervisor
//!     counters and the full trace log are byte-identical across runs and
//!     across worker counts.

use presp::accel::{AccelOp, AccelValue, AcceleratorKind};
use presp::events::trace::log_lines;
use presp::events::MemorySink;
use presp::fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp::fpga::fault::{FaultConfig, FaultPlan, SplitMix64};
use presp::fpga::frame::FrameAddress;
use presp::runtime::manager::{ManagerStats, RecoveryPolicy};
use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp::runtime::{
    install_quiet_panic_hook, SupervisorStats, WorkerFaultConfig, WorkerFaultPlan,
};
use presp::soc::config::{SocConfig, TileCoord};
use presp::soc::sim::Soc;
use std::collections::VecDeque;

const SEEDS: u64 = 200;
const APP_THREADS: usize = 4;
const OPS_PER_THREAD: usize = 6;
const TILES: usize = 2;
const WORKERS: usize = 2;

fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    b.add_frame(FrameAddress::new(0, 1 + col % 60, 0), vec![col; words])
        .unwrap();
    b.build(true)
}

fn supervised_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 2,
        backoff_cycles: 32,
        backoff_multiplier: 2,
        quarantine_after: 2,
        cpu_fallback: true,
        supervised: true,
        restart_budget: 8,
        ..RecoveryPolicy::default()
    }
}

fn worker_faults() -> WorkerFaultConfig {
    WorkerFaultConfig {
        panic_rate: 0.2,
        hang_rate: 0.1,
        stall_rate: 0.2,
        stall_max_micros: 40,
        max_panics: 4,
        max_hangs: 3,
    }
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

/// Everything observable about one supervised run; same-seed runs must be
/// equal down to the trace log, whatever the worker count.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: ManagerStats,
    sup: SupervisorStats,
    orphaned: u64,
    makespan: u64,
    quarantined: Vec<TileCoord>,
    trace: String,
}

/// Replays one seeded storm: blocking requests interleaved with scrub
/// sweeps while the fault plan kills/wedges/stalls workers mid-claim.
fn run_supervised(seed: u64, workers: usize) -> Outcome {
    install_quiet_panic_hook();
    let cfg = SocConfig::grid_3x3_reconf("sup-stress", TILES).unwrap();
    let mut soc = Soc::new(&cfg).unwrap();
    // CRC faults exercise retry/fallback underneath the healed claims;
    // SEUs keep the scrub sweeps busy during the storm.
    soc.set_fault_plan(Some(FaultPlan::new(
        seed,
        FaultConfig::uniform(0.05).with_seu(200.0, 0.15),
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
    let manager: ThreadedManager = ThreadedManager::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            policy: supervised_policy(),
            workers: Some(workers),
            ..RuntimeConfig::default()
        },
    );
    manager.set_worker_fault_plan(Some(WorkerFaultPlan::seeded(seed, worker_faults())));

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
    let mut sched = SplitMix64::new(seed ^ 0x5AFE_5AFE_5AFE_5AFE);
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
        // Invariant: no lost requests. A worker may die or wedge while
        // holding this very claim; the supervisor must redispatch it
        // under the same ticket and the reply must still arrive.
        let (run, path) = manager
            .execute_blocking(tile, kind, op)
            .unwrap_or_else(|e| panic!("seed {seed}: lost request on {tile}: {e}"));
        assert_eq!(
            run.value, expected,
            "seed {seed}: wrong result via {path:?}"
        );
        // Periodic scrub sweep interleaved with the crash storm.
        if submitted.is_multiple_of(4) {
            let _ = manager.scrub_all_blocking();
        }
    }
    assert_eq!(submitted, (APP_THREADS * OPS_PER_THREAD) as u64);

    // Drain whatever struck during the storm, disarm the fault source,
    // and confirm the fabric converged: every frame clean on the final
    // sweep, even though workers were dying while upsets landed.
    let _ = manager.scrub_all_blocking();
    manager.set_fault_plan(None);
    if let Ok(confirm) = manager.scrub_all_blocking() {
        for (tile, report) in &confirm {
            assert!(
                report.is_clean(),
                "seed {seed}: latent damage on {tile} survived the final sweep"
            );
        }
    }

    // Snapshot only after shutdown joins the workers and the supervisor:
    // supervision counters (and the orphaned-ticket gauge) are quiescent
    // only once every thread is gone.
    manager.shutdown();
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
    let sup = manager.supervisor_stats();
    // Every injected panic killed exactly one worker; every death within
    // the restart budget bought exactly one respawn; every healed claim
    // (dead or wedged) was redispatched under its original ticket.
    assert_eq!(
        sup.worker_deaths, sup.injected.panics,
        "seed {seed}: deaths and injected panics disagree: {sup:?}"
    );
    assert_eq!(
        sup.worker_respawns,
        sup.worker_deaths.min(8),
        "seed {seed}: respawns are not min(deaths, budget): {sup:?}"
    );
    assert!(
        sup.redispatches >= sup.worker_deaths + sup.injected.hangs,
        "seed {seed}: a healed claim was never redispatched: {sup:?}"
    );
    let orphaned = manager.orphaned_tickets();
    assert_eq!(
        orphaned, 0,
        "seed {seed}: tickets leaked into the claim table: {sup:?}"
    );
    let makespan = manager.makespan();
    let quarantined = manager.quarantined_tiles();
    let trace = log_lines(&presp::events::sink::snapshot(&sink));
    Outcome {
        stats,
        sup,
        orphaned,
        makespan,
        quarantined,
        trace,
    }
}

#[test]
fn two_hundred_seeded_crash_storms_lose_nothing() {
    let mut total_panics = 0u64;
    let mut total_hangs = 0u64;
    let mut total_stalls = 0u64;
    let mut total_respawns = 0u64;
    let mut total_repairs = 0u64;
    for seed in 0..SEEDS {
        let outcome = run_supervised(seed, WORKERS);
        total_panics += outcome.sup.injected.panics;
        total_hangs += outcome.sup.injected.hangs;
        total_stalls += outcome.sup.injected.stalls;
        total_respawns += outcome.sup.worker_respawns;
        total_repairs += outcome.stats.frames_repaired;
    }
    // The matrix must actually exercise the supervision machinery, not
    // pass vacuously on fault-free runs.
    assert!(total_panics > 100, "panics were injected: {total_panics}");
    assert!(total_hangs > 50, "hangs were injected: {total_hangs}");
    assert!(total_stalls > 100, "stalls were injected: {total_stalls}");
    assert!(
        total_respawns > 100,
        "workers were respawned: {total_respawns}"
    );
    assert!(
        total_repairs > 0,
        "the scrubber repaired upsets: {total_repairs}"
    );
}

#[test]
fn same_seed_supervised_runs_are_byte_identical() {
    for seed in [2, 19, 83, 147] {
        let first = run_supervised(seed, WORKERS);
        let second = run_supervised(seed, WORKERS);
        assert_eq!(
            first.stats, second.stats,
            "seed {seed}: stats diverged between runs"
        );
        assert_eq!(
            first.sup, second.sup,
            "seed {seed}: supervisor counters diverged between runs"
        );
        assert_eq!(
            first.trace, second.trace,
            "seed {seed}: trace logs are not byte-identical"
        );
        assert_eq!(first, second, "seed {seed}: outcome diverged");
    }
}

#[test]
fn worker_count_does_not_change_the_supervised_world() {
    // Fault assignment is a pure function of (seed, ticket) and healing
    // is recorded at the victim ticket's own commit slot, so the whole
    // observable world — including which workers died and when, in
    // death-ordinal terms — is independent of the pool size.
    for seed in [5, 42, 121] {
        let two = run_supervised(seed, 2);
        let four = run_supervised(seed, 4);
        assert_eq!(two.stats, four.stats, "seed {seed}: stats diverged");
        assert_eq!(two.sup, four.sup, "seed {seed}: supervision diverged");
        assert_eq!(
            two.trace, four.trace,
            "seed {seed}: trace logs diverged across worker counts"
        );
    }
}

#[test]
fn unsupervised_fault_free_storms_still_hold() {
    // Control arm: the same harness with supervision off and no worker
    // faults must behave exactly like the plain threaded stress — the
    // supervision machinery charges nothing when disabled.
    for seed in 0..10 {
        install_quiet_panic_hook();
        let cfg = SocConfig::grid_3x3_reconf("sup-off", TILES).unwrap();
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
        let policy = RecoveryPolicy {
            cpu_fallback: true,
            ..RecoveryPolicy::default()
        };
        let manager: ThreadedManager = ThreadedManager::spawn_with(
            soc,
            registry,
            RuntimeConfig {
                policy,
                workers: Some(WORKERS),
                ..RuntimeConfig::default()
            },
        );
        for t in 0..APP_THREADS {
            for j in 0..OPS_PER_THREAD {
                let (kind, op, expected) = job_op(t, j);
                let tile = tiles[(t + j) % tiles.len()];
                let (run, _) = manager
                    .execute_blocking(tile, kind, op)
                    .unwrap_or_else(|e| panic!("seed {seed}: lost request: {e}"));
                assert_eq!(run.value, expected);
            }
        }
        manager.shutdown();
        let sup = manager.supervisor_stats();
        assert_eq!(
            sup,
            SupervisorStats::default(),
            "supervision charged: {sup:?}"
        );
        assert_eq!(manager.orphaned_tickets(), 0);
        assert!(manager.stats().consistent());
    }
}
