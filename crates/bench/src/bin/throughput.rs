//! Runtime throughput of the sharded DPR scheduler: a mixed open-loop
//! workload (reconfigure bursts, ensure-loaded executes, plain runs)
//! from sixteen client threads over a 64-tile reconfigurable fabric,
//! replayed against one-, four- and sixteen-worker pools with sharded
//! per-worker tracing attached.
//!
//! The ticket gate makes the virtual-time outcomes identical for any
//! worker count; what the worker pool buys is wall-clock overlap of the
//! lock-free prepare stage (behavioral evaluation + bitstream
//! pre-fetch), measured here as requests/s, queue-wait percentiles, the
//! coalesce / bitstream-cache hit rates, and the per-stage wall-clock
//! breakdown (prepare / gate wait / commit / trace drain). Writes
//! `BENCH_runtime.json` (schema `presp-bench-runtime/v2`); `--json`
//! prints the same document; `--smoke` shrinks the workload for CI;
//! `--check` re-runs only the 16-worker cell and fails when its
//! requests/s regressed more than 20 % against the committed
//! `BENCH_runtime.json`.
//!
//! Evaluation latency is emulated (`PRESP_BENCH_EVAL_DELAY_MICROS`, set
//! below): each run/execute's lock-free prepare stage blocks for a fixed
//! wall-clock delay, standing in for the device/RTL evaluation a real
//! deployment would wait on. Blocking time overlaps across workers
//! regardless of the host's core count, so the reported speedup measures
//! the scheduler's lock structure, not the benchmark machine. On a
//! multi-core host the CPU-bound sort payload parallelizes on top.

use presp_accel::{AccelOp, AcceleratorKind};
use presp_bench::export::{self, OverloadRun, RuntimeRun, RuntimeWorkload};
use presp_bench::render;
use presp_events::ShardedSink;
use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp_fpga::frame::FrameAddress;
use presp_runtime::error::Error;
use presp_runtime::manager::OverloadPolicy;
use presp_runtime::registry::BitstreamRegistry;
use presp_runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp_runtime::RecoveryPolicy;
use presp_soc::config::{SocConfig, TileCoord};
use presp_soc::sim::Soc;
use std::time::Instant;

const TILES: usize = 64;
const CLIENTS: usize = 16;
const WORKER_MATRIX: [usize; 3] = [1, 4, 16];
/// Allowed requests/s regression in `--check` mode before failing.
const CHECK_TOLERANCE: f64 = 0.20;

struct Workload {
    rounds: usize,
    sort_len: usize,
}

fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    b.add_frame(FrameAddress::new(0, 1 + col % 60, 0), vec![col; words])
        .unwrap();
    b.build(true)
}

fn boot(workers: usize) -> (ThreadedManager, Vec<TileCoord>) {
    let cfg = SocConfig::grid_reconf("throughput", TILES).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    for (i, &tile) in tiles.iter().enumerate() {
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2 + i as u32))
            .unwrap();
        registry
            .register(tile, AcceleratorKind::Sort, bitstream(&soc, 130 + i as u32))
            .unwrap();
    }
    let manager = ThreadedManager::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            workers: Some(workers),
            ..RuntimeConfig::default()
        },
    );
    (manager, tiles)
}

/// One client's round: a coalescible reconfigure burst and a heavy
/// ensure-loaded sort on one tile (the behavioral evaluation dominates
/// and is what the worker pool overlaps), a MAC execute on an
/// *independent* second tile (so the two evaluation chains overlap
/// rather than serializing through one tile's FIFO), and a tile rotation
/// between rounds so the whole 64-tile fabric — and the bitstream cache
/// behind it — stays under pressure. Submissions are open-loop within
/// the round: all admitted before any completion is awaited.
///
/// The barriers phase-align the clients' submissions: the ticket gate
/// commits in strict global admission order, so a heavy job blocks every
/// *later-admitted* commit. Batching the thirty-two independent
/// evaluations of a round into adjacent tickets (the pattern a parallel
/// application naturally produces) is what lets the pool overlap them;
/// unaligned submission degenerates to the single-worker schedule by
/// design.
///
/// Returns the number of requests submitted.
fn client_round(
    manager: &ThreadedManager,
    barrier: &std::sync::Barrier,
    tile: TileCoord,
    mac_tile: TileCoord,
    round: usize,
    sort_len: usize,
) -> u64 {
    let burst: Vec<_> = (0..3)
        .map(|_| manager.submit_reconfigure(tile, AcceleratorKind::Mac))
        .collect();
    barrier.wait();
    let data: Vec<f32> = (0..sort_len)
        .map(|i| ((i * 2_654_435_761 + round * 40_503) % 1_000_003) as f32)
        .collect();
    let heavy = manager.submit_execute(tile, AcceleratorKind::Sort, AccelOp::Sort { data });
    let mac = manager.submit_execute(
        mac_tile,
        AcceleratorKind::Mac,
        AccelOp::Mac {
            a: vec![round as f32; 8],
            b: vec![2.0; 8],
        },
    );
    for pending in burst {
        pending.wait().unwrap();
    }
    let (run, _path) = heavy.wait().unwrap();
    assert!(run.end > 0);
    mac.wait().unwrap();
    barrier.wait();
    5
}

fn run_workload(workers: usize, wl: &Workload) -> RuntimeRun {
    let (manager, tiles) = boot(workers);
    let sink = ShardedSink::new(workers);
    manager.attach_sharded_tracer(&sink);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let manager = manager.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            let tiles = tiles.clone();
            let rounds = wl.rounds;
            let sort_len = wl.sort_len;
            std::thread::spawn(move || {
                (0..rounds)
                    .map(|round| {
                        // Rotate through the fabric: every tile sees
                        // traffic, and the 128-entry (tile, kind) working
                        // set overflows the 16-entry bitstream cache. The
                        // MAC tile is offset half the fabric away, so no
                        // two in-flight chains share a tile in any round.
                        let tile = tiles[(c + round * CLIENTS) % TILES];
                        let mac_tile = tiles[(c + round * CLIENTS + TILES / 2) % TILES];
                        client_round(&manager, &barrier, tile, mac_tile, round, sort_len)
                    })
                    .sum::<u64>()
            })
        })
        .collect();
    let requests: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed_secs = start.elapsed().as_secs_f64();

    let stats = manager.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    let sched = manager.scheduler_stats();
    let cache = manager.cache_stats();
    let makespan = manager.makespan();
    manager.shutdown();
    let drain_started = Instant::now();
    let merged = sink.drain_merged();
    let stage_trace_drain_nanos = drain_started.elapsed().as_nanos() as u64;
    assert!(!merged.is_empty(), "traced workload emitted nothing");

    let submitted = sched.admitted + sched.coalesced;
    RuntimeRun {
        workers: workers as u64,
        requests,
        elapsed_secs,
        p50_wait_micros: sched.wait_percentile_micros(50.0),
        p99_wait_micros: sched.wait_percentile_micros(99.0),
        coalesce_rate: if submitted == 0 {
            0.0
        } else {
            sched.coalesced as f64 / submitted as f64
        },
        cache_hit_rate: cache.hit_rate(),
        reconfigurations: stats.reconfigurations,
        makespan,
        stage_prepare_nanos: sched.stage_prepare_nanos,
        stage_gate_wait_nanos: sched.stage_gate_wait_nanos,
        stage_commit_nanos: sched.stage_commit_nanos,
        stage_trace_drain_nanos,
    }
}

/// The overload cell: bounded per-tile queues and virtual-time deadlines
/// under an open-loop burst that deliberately outruns the fabric — the
/// regime the throughput matrix never enters. Sixteen clients hammer four
/// tiles whose queues hold four requests each; the admission controller
/// sheds the overflow at the door and the deadline watchdog degrades
/// late commits to the CPU path. Reports the shed and deadline-miss
/// rates; every submission is still answered (shed requests get an
/// `Overloaded` verdict, not silence).
fn run_overload(workers: usize, smoke: bool) -> OverloadRun {
    const OVERLOAD_TILES: usize = 4;
    let queue_capacity = 4u64;
    let deadline_cycles = 30_000u64;
    let sort_len = if smoke { 8_000 } else { 20_000 };
    let rounds = if smoke { 2 } else { 8 };
    let burst = 6usize;

    let cfg = SocConfig::grid_3x3_reconf("overload", OVERLOAD_TILES).unwrap();
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
        queue_capacity,
        deadline_cycles,
        overload: OverloadPolicy::RejectNew,
        ..RecoveryPolicy::default()
    };
    let manager: ThreadedManager = ThreadedManager::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            policy,
            workers: Some(workers),
            ..RuntimeConfig::default()
        },
    );

    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let manager = manager.clone();
            let tiles = tiles.clone();
            std::thread::spawn(move || {
                let mut submitted = 0u64;
                let mut completed = 0u64;
                for round in 0..rounds {
                    let tile = tiles[(c + round) % OVERLOAD_TILES];
                    let mut pendings = Vec::with_capacity(burst + 1);
                    pendings.push(manager.submit_execute(
                        tile,
                        AcceleratorKind::Sort,
                        AccelOp::Sort {
                            data: (0..sort_len).rev().map(|i| i as f32).collect(),
                        },
                    ));
                    for j in 0..burst {
                        pendings.push(manager.submit_execute(
                            tile,
                            AcceleratorKind::Mac,
                            AccelOp::Mac {
                                a: vec![(1 + c + j) as f32; 8],
                                b: vec![2.0; 8],
                            },
                        ));
                    }
                    submitted += pendings.len() as u64;
                    for pending in pendings {
                        match pending.wait() {
                            Ok(_) => completed += 1,
                            Err(Error::Overloaded { .. }) => {}
                            Err(e) => panic!("overload cell lost a request: {e}"),
                        }
                    }
                }
                (submitted, completed)
            })
        })
        .collect();
    let (submitted, completed) = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold((0u64, 0u64), |(s, c), (ds, dc)| (s + ds, c + dc));
    let elapsed_secs = start.elapsed().as_secs_f64();

    let stats = manager.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    manager.shutdown();
    assert_eq!(
        completed + stats.shed,
        submitted,
        "shed accounting does not close: {stats:?}"
    );
    OverloadRun {
        workers: workers as u64,
        queue_capacity,
        deadline_cycles,
        submitted,
        completed,
        shed: stats.shed,
        deadline_misses: stats.deadline_misses,
        elapsed_secs,
    }
}

/// `--overload` entry: run the overload cell and merge its rates into
/// the committed `BENCH_runtime.json` without touching the throughput
/// `runs` the `--check` gate reads.
fn run_overload_mode(smoke: bool) -> ! {
    let run = run_overload(4, smoke);
    let doc = std::fs::read_to_string("BENCH_runtime.json")
        .ok()
        .and_then(|text| presp_events::json::parse(&text).ok())
        .unwrap_or(presp_events::json::JsonValue::Null);
    let merged = export::merge_overload(doc, &run);
    export::write_json("BENCH_runtime.json", &merged).expect("write BENCH_runtime.json");
    println!(
        "overload cell — {} workers, queue capacity {}, deadline {} cycles",
        run.workers, run.queue_capacity, run.deadline_cycles
    );
    println!(
        "  submitted {} / completed {} / shed {} ({:.1}%) / deadline misses {} ({:.1}%)",
        run.submitted,
        run.completed,
        run.shed,
        100.0 * run.shed_rate(),
        run.deadline_misses,
        100.0 * run.deadline_miss_rate()
    );
    if run.shed == 0 {
        eprintln!("FAIL: the overload burst never filled a queue");
        std::process::exit(1);
    }
    println!("wrote BENCH_runtime.json (overload object)");
    std::process::exit(0);
}

/// The committed 16-worker requests/s figure from `BENCH_runtime.json`.
fn committed_requests_per_sec(workers: u64) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_runtime.json").ok()?;
    let doc = presp_events::json::parse(&text).ok()?;
    doc.get("runs")?.as_array()?.iter().find_map(|run| {
        if run.get("workers")?.as_usize()? as u64 != workers {
            return None;
        }
        match run.get("requests_per_sec")? {
            presp_events::json::JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    })
}

/// Perf-smoke gate: re-measure only the 16-worker cell on the full
/// workload and fail when it regressed more than [`CHECK_TOLERANCE`]
/// against the committed document. Exits the process with the verdict.
fn run_check(wl: &Workload) -> ! {
    let workers = *WORKER_MATRIX.last().unwrap() as u64;
    let Some(committed) = committed_requests_per_sec(workers) else {
        eprintln!("BENCH_runtime.json has no committed {workers}-worker requests_per_sec");
        std::process::exit(1);
    };
    let fresh = run_workload(workers as usize, wl).requests_per_sec();
    let floor = committed * (1.0 - CHECK_TOLERANCE);
    println!(
        "perf check: fresh {workers}-worker run {fresh:.0} req/s vs committed {committed:.0} \
         req/s (floor {floor:.0})"
    );
    if fresh < floor {
        eprintln!(
            "FAIL: requests/s regressed more than {:.0} %",
            100.0 * CHECK_TOLERANCE
        );
        std::process::exit(1);
    }
    println!("OK");
    std::process::exit(0);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");
    if std::env::args().any(|a| a == "--overload") {
        run_overload_mode(smoke);
    }
    let wl = if smoke {
        Workload {
            rounds: 3,
            sort_len: 2_000,
        }
    } else {
        Workload {
            rounds: 20,
            sort_len: 4_000,
        }
    };
    // Emulated per-evaluation device latency (see module docs). Respect an
    // externally-set value so the knob stays scriptable.
    if std::env::var("PRESP_BENCH_EVAL_DELAY_MICROS").is_err() {
        std::env::set_var(
            "PRESP_BENCH_EVAL_DELAY_MICROS",
            if smoke { "500" } else { "2000" },
        );
    }
    if check {
        // The gate compares against the committed full-workload figures.
        run_check(&Workload {
            rounds: 20,
            sort_len: 4_000,
        });
    }

    let runs: Vec<RuntimeRun> = WORKER_MATRIX
        .iter()
        .map(|&workers| run_workload(workers, &wl))
        .collect();
    // (The gate's worker-count invariance holds per submission order;
    // racing clients produce a fresh order each run, so the makespans
    // here are near-equal, not identical — the byte-identical claim is
    // proven by the deterministic stress suite and the scenario matrix.)
    let workload = RuntimeWorkload {
        clients: CLIENTS as u64,
        tiles: TILES as u64,
        rounds: wl.rounds as u64,
        sort_len: wl.sort_len as u64,
    };
    let doc = export::runtime_document(&workload, &runs);
    export::write_json("BENCH_runtime.json", &doc).expect("write BENCH_runtime.json");

    if std::env::args().any(|a| a == "--json") {
        println!("{}", doc.pretty());
        return;
    }

    println!(
        "Runtime throughput — sharded scheduler, {TILES} tiles x {CLIENTS} clients, \
         workers {WORKER_MATRIX:?}\n"
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                format!("{:.0}", r.requests_per_sec()),
                format!("{}", r.p50_wait_micros),
                format!("{}", r.p99_wait_micros),
                format!("{:.1}%", 100.0 * r.coalesce_rate),
                format!("{:.1}%", 100.0 * r.cache_hit_rate),
                format!("{:.1}", r.stage_prepare_nanos as f64 / 1e6),
                format!("{:.1}", r.stage_gate_wait_nanos as f64 / 1e6),
                format!("{:.1}", r.stage_commit_nanos as f64 / 1e6),
                format!("{:.2}", r.stage_trace_drain_nanos as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            &[
                "workers",
                "req/s",
                "p50 wait us",
                "p99 wait us",
                "coalesced",
                "cache hits",
                "prepare ms",
                "gate ms",
                "commit ms",
                "drain ms",
            ],
            &rows
        )
    );
    let base = runs[0].requests_per_sec();
    for r in &runs[1..] {
        println!(
            "speedup ({} workers / 1 worker): {:.2}x",
            r.workers,
            r.requests_per_sec() / base
        );
    }
    println!("wrote BENCH_runtime.json");
}
