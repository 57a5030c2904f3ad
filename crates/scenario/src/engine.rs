//! The scenario engine: a [`ScenarioSpec`] in, deterministic
//! observations and assertion verdicts out.
//!
//! Per `(seed, worker-count)` cell of the matrix the engine boots a
//! fresh `Soc` + [`ThreadedManager`], arms a seeded [`FaultPlan`], drives
//! the declared workload through a *single blocking submitter* (which
//! also runs the scrub sweeps and repack passes the spec enables on the
//! same thread), and snapshots every
//! virtual-time observable. Blocking submission makes the admission
//! order — and therefore the ticket order the scheduler's gate commits
//! in — a pure function of the seed, so the stats, makespan and trace
//! log of a run are byte-identical across repeats and across worker
//! counts. Wall-clock quantities (queue-wait percentiles, backlog
//! high-water marks) are deliberately *not* observed.
//!
//! The submitter interleaving mirrors the `stress_dpr` harness exactly:
//! each logical client has a fixed script of operations cycling through
//! the catalog, and a seeded [`SplitMix64`] draws which client issues
//! next. Porting a storm from that harness into a scenario file keeps
//! the schedule — and the invariants it exercises — intact.

use crate::spec::{Assertion, CatalogKind, ScenarioSpec, WorkloadSpec};
use presp_accel::{AccelOp, AccelValue, AcceleratorKind};
use presp_events::trace::{chrome_trace_json, log_lines};
use presp_events::MemorySink;
use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp_fpga::fault::{FaultPlan, InjectedFaults, SplitMix64};
use presp_fpga::frame::FrameAddress;
use presp_runtime::cache::CacheStats;
use presp_runtime::error::Error;
use presp_runtime::manager::{ExecPath, ManagerStats};
use presp_runtime::registry::BitstreamRegistry;
use presp_runtime::scheduler::SchedulerStats;
use presp_runtime::supervisor::{install_quiet_panic_hook, SupervisorStats, WorkerFaultPlan};
use presp_runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp_soc::config::{SocConfig, TileCoord};
use presp_soc::sim::Soc;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Domain-separation constant for the submitter's interleaving draw —
/// the same one the `stress_dpr` threaded harness uses, so ported
/// scenarios replay the identical schedule.
const INTERLEAVE_SALT: u64 = 0xD47E_D47E_D47E_D47E;

/// Domain-separation constant for the fragment-churn kind draw, so the
/// churn stream is independent of the submitter interleaving stream.
const CHURN_SALT: u64 = 0xF4A6_F4A6_F4A6_F4A6;

/// Everything deterministic observed from one `(seed, workers)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunObservation {
    /// The seed this run was driven under.
    pub seed: u64,
    /// The worker count it ran with.
    pub workers: usize,
    /// Deterministic totals, one per [`STATS`] row.
    pub stats: BTreeMap<&'static str, u64>,
    /// Whether `ManagerStats::consistent()` held.
    pub stats_consistent: bool,
    /// Latest completion cycle on the virtual clock.
    pub makespan: u64,
    /// The full trace log (`log_lines` rendering, virtual-time only).
    pub trace_log: String,
    /// Event-name → occurrence-count index over the trace.
    pub event_counts: BTreeMap<String, u64>,
    /// Tiles left quarantined after the run.
    pub quarantined: Vec<TileCoord>,
}

/// A scenario's complete observation set plus the Chrome trace of its
/// first run (for `--trace-dir` artifacts).
#[derive(Debug, Clone)]
pub struct ScenarioObservations {
    /// One entry per `(seed, workers)` cell, seeds outer, workers inner.
    pub runs: Vec<RunObservation>,
    /// Chrome-trace JSON of the first cell's run.
    pub first_chrome_trace: String,
}

/// One assertion's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionResult {
    /// The check token (e.g. `"stats_consistent"`, `"stat_min"`).
    pub check: String,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable explanation (always set; on failure it names the
    /// observed value and the bound).
    pub detail: String,
    /// The seed that reproduces the failure (first failing run's seed;
    /// the scenario's first seed when the check is aggregate).
    pub replay_seed: u64,
}

/// A scenario's verdict: observations plus per-assertion results.
#[derive(Debug, Clone)]
pub struct ScenarioVerdict {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// What the engine observed.
    pub observations: ScenarioObservations,
    /// One result per declared assertion, in declaration order.
    pub results: Vec<AssertionResult>,
}

impl ScenarioVerdict {
    /// Whether every assertion held.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }
}

fn kind_of(kind: CatalogKind) -> AcceleratorKind {
    match kind {
        CatalogKind::Mac => AcceleratorKind::Mac,
        CatalogKind::Sort => AcceleratorKind::Sort,
    }
}

/// The canonical partial bitstream for column `col` — identical to the
/// stress harness's so registry contents (and therefore cache and ICAP
/// behavior) match ported scenarios.
fn bitstream(soc: &Soc, col: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    b.add_frame(FrameAddress::new(0, 1 + col % 60, 0), vec![col; words])
        .expect("canonical frame address is in range");
    b.build(true)
}

/// Registry column base per accelerator kind (mirrors `stress_dpr`).
fn column_base(kind: CatalogKind) -> u32 {
    match kind {
        CatalogKind::Mac => 2,
        CatalogKind::Sort => 30,
    }
}

/// A region workload's partial bitstream: `frames` minor frames in each
/// of `cols`. Multi-frame footprints make relocation move a measurable
/// number of frames; the wide (multi-column) GEMM footprint provokes
/// fragmentation refusals.
fn region_bitstream(soc: &Soc, cols: std::ops::Range<u32>, frames: u32) -> Bitstream {
    Bitstream::synthetic_partial(&soc.part().device(), cols, frames)
        .expect("canonical frame address is in range")
}

/// Operation `j` of logical client `t`'s script: cycles through the
/// catalog, with CPU-recomputable expected values. With the full
/// `[mac, sort]` catalog and the `(t + j) % 2` selector this is exactly
/// `stress_dpr::job_op`.
fn job_op(catalog: &[CatalogKind], t: usize, j: usize) -> (AcceleratorKind, AccelOp, AccelValue) {
    match catalog[(t + j) % catalog.len()] {
        CatalogKind::Mac => {
            let a = (1 + t) as f32;
            let b = (1 + j) as f32;
            (
                AcceleratorKind::Mac,
                AccelOp::Mac {
                    a: vec![a; 4],
                    b: vec![b; 4],
                },
                AccelValue::Scalar(4.0 * a * b),
            )
        }
        CatalogKind::Sort => {
            let data = vec![3.0, 1.0 + t as f32, 2.0 + j as f32];
            let mut sorted = data.clone();
            sorted.sort_by(f32::total_cmp);
            (
                AcceleratorKind::Sort,
                AccelOp::Sort { data },
                AccelValue::Vector(sorted),
            )
        }
    }
}

/// Engine-side accounting the drive loop accumulates.
#[derive(Debug, Default)]
struct DriveTally {
    submitted: u64,
    completed_ok: u64,
    cpu_fallbacks: u64,
    value_mismatches: u64,
    lost_requests: u64,
    overloaded: u64,
    deadline_missed: u64,
    final_sweep_dirty: u64,
    region_rejections: u64,
}

impl DriveTally {
    /// Folds an error verdict in: admission refusals, deadline
    /// cancellations and fragmentation refusals are *answered* requests,
    /// not lost ones.
    fn record_error(&mut self, e: &Error) {
        match e {
            Error::Overloaded { .. } => self.overloaded += 1,
            Error::DeadlineExceeded { .. } => self.deadline_missed += 1,
            Error::RegionUnavailable { .. } => self.region_rejections += 1,
            _ => self.lost_requests += 1,
        }
    }
}

/// The post-shutdown snapshot of one run that every [`STATS`] row
/// reads.
#[derive(Debug)]
pub struct Observed {
    manager: ManagerStats,
    scheduler: SchedulerStats,
    cache: CacheStats,
    injected: InjectedFaults,
    supervisor: SupervisorStats,
    orphaned_tickets: u64,
    quarantined: u64,
    tally: DriveTally,
}

/// One [`STATS`] row: the key and how to read it from a run.
pub type Stat = (&'static str, fn(&Observed) -> u64);

/// Every stat key the `stat_min`/`stat_max`/`stat_eq` assertions accept,
/// each with the one place its value is read from. A run's `stats` map,
/// the report's `totals` and the parser's key check all iterate this
/// table. Totals are summed across all runs of the scenario.
pub const STATS: &[Stat] = &[
    // ManagerStats
    ("reconfig_requests", |o| o.manager.reconfig_requests),
    ("reconfigurations", |o| o.manager.reconfigurations),
    ("driver_cache_hits", |o| o.manager.cache_hits),
    ("coalesced", |o| o.manager.coalesced),
    ("retries_exhausted", |o| o.manager.retries_exhausted),
    ("rejected", |o| o.manager.rejected),
    ("retries", |o| o.manager.retries),
    ("quarantines", |o| o.manager.quarantines),
    ("reconfig_cycles", |o| o.manager.reconfig_cycles),
    ("runs", |o| o.manager.runs),
    ("fallback_runs", |o| o.manager.fallback_runs),
    ("scrub_passes", |o| o.manager.scrub_passes),
    ("frames_repaired", |o| o.manager.frames_repaired),
    ("scrub_quarantines", |o| o.manager.scrub_quarantines),
    ("deadline_misses", |o| o.manager.deadline_misses),
    ("shed", |o| o.manager.shed),
    // Amorphous-floorplanning accounting (ManagerStats)
    ("oversized_rejected", |o| o.manager.oversized_rejected),
    ("oversized_admitted", |o| o.manager.oversized_admitted),
    ("repack_admitted", |o| o.manager.repack_admitted),
    // Repack counters under their historical names
    ("defrag_passes", |o| o.manager.repack_passes),
    ("defrag_moves", |o| o.manager.repack_moves),
    ("frames_moved", |o| o.manager.frames_moved),
    // SupervisorStats
    ("worker_deaths", |o| o.supervisor.worker_deaths),
    ("worker_respawns", |o| o.supervisor.worker_respawns),
    ("redispatches", |o| o.supervisor.redispatches),
    ("injected_worker_panics", |o| o.supervisor.injected.panics),
    ("injected_worker_hangs", |o| o.supervisor.injected.hangs),
    ("injected_worker_stalls", |o| o.supervisor.injected.stalls),
    ("orphaned_tickets", |o| o.orphaned_tickets),
    // SchedulerStats (the deterministic subset)
    ("sched_admitted", |o| o.scheduler.admitted),
    ("sched_completed", |o| o.scheduler.completed),
    ("sched_coalesced", |o| o.scheduler.coalesced),
    // Verified-bitstream cache
    ("bitstream_cache_hits", |o| o.cache.hits),
    ("bitstream_cache_misses", |o| o.cache.misses),
    ("bitstream_cache_evictions", |o| o.cache.evictions),
    // Scrub counters under their historical names
    ("scrubber_passes", |o| o.manager.scrub_passes),
    ("scrubber_clean_passes", |o| o.manager.scrub_clean_passes),
    ("scrubber_frames_repaired", |o| o.manager.frames_repaired),
    ("scrubber_quarantines", |o| o.manager.scrub_quarantines),
    // Injected faults
    ("injected_total", |o| o.injected.total()),
    ("injected_icap_corruptions", |o| o.injected.icap_corruptions),
    ("injected_dfxc_stalls", |o| o.injected.dfxc_stalls),
    ("injected_registry_misses", |o| o.injected.registry_misses),
    ("injected_decoupler_delays", |o| o.injected.decoupler_delays),
    ("injected_seu_upsets", |o| o.injected.seu_upsets),
    ("injected_seu_double_bits", |o| o.injected.seu_double_bits),
    // Engine-level accounting
    ("submitted", |o| o.tally.submitted),
    ("completed_ok", |o| o.tally.completed_ok),
    ("cpu_fallback_completions", |o| o.tally.cpu_fallbacks),
    ("value_mismatches", |o| o.tally.value_mismatches),
    ("lost_requests", |o| o.tally.lost_requests),
    ("overloaded_rejections", |o| o.tally.overloaded),
    ("deadline_cancellations", |o| o.tally.deadline_missed),
    ("quarantined_tiles", |o| o.quarantined),
    ("final_sweep_dirty", |o| o.tally.final_sweep_dirty),
    ("region_rejections", |o| o.tally.region_rejections),
];

fn any_fault_configured(spec: &ScenarioSpec) -> bool {
    let f = &spec.faults;
    f.icap_flip_rate > 0.0
        || f.dfxc_stall_rate > 0.0
        || f.registry_miss_rate > 0.0
        || f.decoupler_delay_rate > 0.0
        || f.seu_per_mcycle > 0.0
}

fn any_worker_fault_configured(spec: &ScenarioSpec) -> bool {
    let w = &spec.worker_faults;
    w.panic_rate > 0.0 || w.hang_rate > 0.0 || w.stall_rate > 0.0
}

/// Runs one `(seed, workers)` cell and returns its observation plus the
/// raw trace records (for the Chrome export of the first cell).
fn run_cell(
    spec: &ScenarioSpec,
    seed: u64,
    workers: usize,
) -> (RunObservation, Vec<presp_events::trace::TraceRecord>) {
    // Up to 6 tiles keep the canonical 3x3 grid (existing scenario
    // reports stay byte-identical); larger fabrics boot the scaled
    // near-square grid.
    let cfg = if spec.fabric.reconf_tiles <= 6 {
        SocConfig::grid_3x3_reconf(&spec.fabric.soc_name, spec.fabric.reconf_tiles)
            .expect("reconf_tiles validated at parse (1..=64)")
    } else {
        SocConfig::grid_reconf(&spec.fabric.soc_name, spec.fabric.reconf_tiles)
            .expect("reconf_tiles validated at parse (1..=64)")
    };
    let mut soc = Soc::new(&cfg).expect("a validated grid config boots");
    if any_fault_configured(spec) {
        soc.set_fault_plan(Some(FaultPlan::new(seed, spec.faults)));
    }
    let sink = MemorySink::shared();
    soc.attach_tracer(sink.clone());
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    let region_workload = matches!(
        spec.workload,
        WorkloadSpec::DefragProbe | WorkloadSpec::FragmentChurn { .. }
    );
    if region_workload {
        // The amorphous recipe: 1-column MAC (CLB), 1-column sort (BRAM)
        // and the 3-column GEMM span, four frames deep, identical on
        // every tile — with regions enabled the allocator relocates each
        // load to its leased base, so the registered columns only fix
        // the footprint shape.
        for &tile in &tiles {
            registry
                .register(tile, AcceleratorKind::Mac, region_bitstream(&soc, 1..2, 4))
                .expect("tile/kind pairs are unique");
            registry
                .register(tile, AcceleratorKind::Sort, region_bitstream(&soc, 3..4, 4))
                .expect("tile/kind pairs are unique");
            registry
                .register(
                    tile,
                    AcceleratorKind::Gemm,
                    region_bitstream(&soc, 7..10, 4),
                )
                .expect("tile/kind pairs are unique");
        }
    } else {
        for (i, &tile) in tiles.iter().enumerate() {
            for &kind in &spec.catalog {
                registry
                    .register(
                        tile,
                        kind_of(kind),
                        bitstream(&soc, column_base(kind) + i as u32),
                    )
                    .expect("tile/kind pairs are unique");
            }
        }
    }
    let manager: ThreadedManager = ThreadedManager::spawn_with(
        soc,
        registry,
        RuntimeConfig {
            policy: spec.policy,
            workers: Some(workers),
            cache_capacity: spec.cache_capacity,
            ..RuntimeConfig::default()
        },
    );
    if spec.regions.enabled {
        let window = spec.regions.window.map(|(lo, hi)| lo..hi);
        manager
            .enable_regions(spec.regions.policy, window)
            .expect("region window validated at parse names managed columns");
    }
    if any_worker_fault_configured(spec) {
        if spec.worker_faults.panic_rate > 0.0 {
            install_quiet_panic_hook();
        }
        manager.set_worker_fault_plan(Some(WorkerFaultPlan::seeded(seed, spec.worker_faults)));
    }

    let mut tally = DriveTally::default();
    match spec.workload {
        WorkloadSpec::Blocking {
            clients,
            ops_per_client,
        } => drive_blocking(
            spec,
            seed,
            &manager,
            &tiles,
            clients,
            ops_per_client,
            &mut tally,
        ),
        WorkloadSpec::CoalesceBurst { burst } => {
            drive_coalesce_burst(&manager, &tiles, burst, &mut tally)
        }
        WorkloadSpec::OverloadBurst { burst } => {
            drive_overload_burst(&manager, &tiles, burst, &mut tally)
        }
        WorkloadSpec::DefragProbe => {
            drive_defrag_probe(&manager, spec.regions.defrag, &tiles, &mut tally)
        }
        WorkloadSpec::FragmentChurn { rounds } => drive_fragment_churn(
            seed,
            &manager,
            spec.regions.defrag,
            &tiles,
            rounds,
            &mut tally,
        ),
    }

    // Final sweep: drain whatever struck during the storm, disarm the
    // fault source, and confirm every tile reads back clean.
    if spec.scrubber.enabled && spec.scrubber.final_sweep {
        let _ = manager.scrub_all_blocking();
        manager.set_fault_plan(None);
        if let Ok(confirm) = manager.scrub_all_blocking() {
            tally.final_sweep_dirty += confirm.iter().filter(|(_, r)| !r.is_clean()).count() as u64;
        }
    }

    // Snapshot only after shutdown joins the workers: a blocking
    // submitter's reply can land while the worker is still mid
    // post-commit bookkeeping, so pre-shutdown counters (and the
    // orphaned-ticket gauge) are not yet quiescent.
    manager.shutdown();
    let quarantined = manager.quarantined_tiles();
    let observed = Observed {
        manager: manager.stats(),
        scheduler: manager.scheduler_stats(),
        cache: manager.cache_stats(),
        injected: manager.injected_faults(),
        supervisor: manager.supervisor_stats(),
        orphaned_tickets: manager.orphaned_tickets(),
        quarantined: quarantined.len() as u64,
        tally,
    };
    let records = presp_events::sink::snapshot(&sink);
    let trace_log = log_lines(&records);
    let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();
    for record in &records {
        *event_counts
            .entry(record.event.name().to_string())
            .or_insert(0) += 1;
    }

    (
        RunObservation {
            seed,
            workers,
            stats: STATS
                .iter()
                .map(|&(key, read)| (key, read(&observed)))
                .collect(),
            stats_consistent: observed.manager.consistent(),
            makespan: manager.makespan(),
            trace_log,
            event_counts,
            quarantined,
        },
        records,
    )
}

/// The seeded blocking submitter: fixed per-client scripts, a seeded
/// draw picking which client issues next, every operation awaited before
/// the next is admitted.
fn drive_blocking(
    spec: &ScenarioSpec,
    seed: u64,
    manager: &ThreadedManager,
    tiles: &[TileCoord],
    clients: usize,
    ops_per_client: usize,
    tally: &mut DriveTally,
) {
    let mut queues: Vec<VecDeque<(TileCoord, AcceleratorKind, AccelOp, AccelValue)>> = (0..clients)
        .map(|t| {
            (0..ops_per_client)
                .map(|j| {
                    let (kind, op, expected) = job_op(&spec.catalog, t, j);
                    (tiles[(t + j) % tiles.len()], kind, op, expected)
                })
                .collect()
        })
        .collect();
    let mut sched = SplitMix64::new(seed ^ INTERLEAVE_SALT);
    loop {
        let alive: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if alive.is_empty() {
            break;
        }
        let pick = alive[sched.below(alive.len() as u64) as usize];
        let (tile, kind, op, expected) = queues[pick].pop_front().expect("alive queue");
        tally.submitted += 1;
        match manager.execute_blocking(tile, kind, op) {
            Ok((run, path)) => {
                tally.completed_ok += 1;
                if path == ExecPath::CpuFallback {
                    tally.cpu_fallbacks += 1;
                }
                if run.value != expected {
                    tally.value_mismatches += 1;
                }
            }
            Err(e) => tally.record_error(&e),
        }
        let every = spec.scrubber.sweep_every_ops;
        if spec.scrubber.enabled && every > 0 && tally.submitted.is_multiple_of(every) {
            let _ = manager.scrub_all_blocking();
        }
    }
}

/// The coalescing probe: with claims held, burst identical
/// reconfigurations at the first tile; every one meets the first still
/// queued, so all but the first tail-fold into one physical load.
fn drive_coalesce_burst(
    manager: &ThreadedManager,
    tiles: &[TileCoord],
    burst: usize,
    tally: &mut DriveTally,
) {
    let hold = manager.hold_claims();
    let pending: Vec<_> = (0..burst)
        .map(|_| manager.submit_reconfigure(tiles[0], AcceleratorKind::Mac))
        .collect();
    drop(hold);
    tally.submitted = burst as u64;
    for p in pending {
        match p.wait() {
            Ok(()) => tally.completed_ok += 1,
            Err(e) => tally.record_error(&e),
        }
    }
}

/// The open-loop overload probe: with claims held, fire `burst`
/// *distinct* MAC executions (distinct operands, so nothing coalesces)
/// at the first tile without awaiting; the admission controller's
/// verdicts are folded into the tally as answered — not lost —
/// requests. No worker drains the queue until every MAC has met the
/// bound, so the shed count depends on the queue bound alone, not on how
/// the host schedules threads.
fn drive_overload_burst(
    manager: &ThreadedManager,
    tiles: &[TileCoord],
    burst: usize,
    tally: &mut DriveTally,
) {
    let hold = manager.hold_claims();
    let pending: Vec<_> = (0..burst)
        .map(|j| {
            let a = 1.0 + j as f32;
            (
                4.0 * a * 2.0,
                manager.submit_execute(
                    tiles[0],
                    AcceleratorKind::Mac,
                    AccelOp::Mac {
                        a: vec![a; 4],
                        b: vec![2.0; 4],
                    },
                ),
            )
        })
        .collect();
    drop(hold);
    tally.submitted = burst as u64;
    for (expected, p) in pending {
        match p.wait() {
            Ok((run, path)) => {
                tally.completed_ok += 1;
                if path == ExecPath::CpuFallback {
                    tally.cpu_fallbacks += 1;
                }
                if run.value != AccelValue::Scalar(expected) {
                    tally.value_mismatches += 1;
                }
            }
            Err(e) => tally.record_error(&e),
        }
    }
}

/// The deterministic fragmentation probe — the amorphous floorplanning
/// recipe driven end to end through the threaded scheduler. Seven
/// 1-column MAC loads pack the region window, one BRAM-sort swap opens
/// two non-adjacent holes, and the 3-column GEMM request is refused for
/// fragmentation (`region_rejections` and the manager's
/// `oversized_rejected` both record it). With `defrag` on, one repack
/// pass slides the fragmented leases left and the retry must be
/// admitted (`repack_admitted`); with it off the request stays refused —
/// the same spec with `regions.defrag` toggled proves both directions.
fn drive_defrag_probe(
    manager: &ThreadedManager,
    defrag: bool,
    tiles: &[TileCoord],
    tally: &mut DriveTally,
) {
    let reconfigure = |tile, kind, tally: &mut DriveTally| {
        tally.submitted += 1;
        match manager.reconfigure_blocking(tile, kind) {
            Ok(()) => tally.completed_ok += 1,
            Err(e) => tally.record_error(&e),
        }
    };
    for &tile in &tiles[..7] {
        reconfigure(tile, AcceleratorKind::Mac, tally);
    }
    reconfigure(tiles[5], AcceleratorKind::Sort, tally);
    // Free columns exist now, but no 3-wide span: the wide request is
    // refused at admission.
    reconfigure(tiles[1], AcceleratorKind::Gemm, tally);
    if defrag {
        let _ = manager.repack_blocking();
        reconfigure(tiles[1], AcceleratorKind::Gemm, tally);
    }
}

/// Seeded region churn: every round each tile draws MAC / sort / GEMM
/// from a seeded stream and reconfigures to it, fragmenting the window
/// as 1- and 3-column leases come and go. A fragmentation refusal
/// triggers one repack-and-retry when `defrag` is on; the retry's
/// verdict answers the original request either way.
fn drive_fragment_churn(
    seed: u64,
    manager: &ThreadedManager,
    defrag: bool,
    tiles: &[TileCoord],
    rounds: usize,
    tally: &mut DriveTally,
) {
    const KINDS: [AcceleratorKind; 3] = [
        AcceleratorKind::Mac,
        AcceleratorKind::Sort,
        AcceleratorKind::Gemm,
    ];
    let mut churn = SplitMix64::new(seed ^ CHURN_SALT);
    for _ in 0..rounds {
        for &tile in tiles {
            let kind = KINDS[churn.below(KINDS.len() as u64) as usize];
            tally.submitted += 1;
            match manager.reconfigure_blocking(tile, kind) {
                Ok(()) => tally.completed_ok += 1,
                Err(Error::RegionUnavailable { .. }) if defrag => {
                    let _ = manager.repack_blocking();
                    match manager.reconfigure_blocking(tile, kind) {
                        Ok(()) => tally.completed_ok += 1,
                        Err(e) => tally.record_error(&e),
                    }
                }
                Err(e) => tally.record_error(&e),
            }
        }
    }
}

/// Runs the full `(seed, workers)` matrix of a spec.
pub fn observe(spec: &ScenarioSpec) -> ScenarioObservations {
    let mut runs = Vec::new();
    let mut first_chrome_trace = String::new();
    for offset in 0..spec.seeds.count {
        let seed = spec.seeds.start + offset;
        for &workers in &spec.workers {
            let (obs, records) = run_cell(spec, seed, workers);
            if runs.is_empty() {
                first_chrome_trace = chrome_trace_json(&records);
            }
            runs.push(obs);
        }
    }
    ScenarioObservations {
        runs,
        first_chrome_trace,
    }
}

/// Totals a stat across every run.
fn total(runs: &[RunObservation], key: &str) -> u64 {
    runs.iter().map(|r| r.stats[key]).sum()
}

/// Totals every stat across every run (the report's `totals` object).
pub fn totals(runs: &[RunObservation]) -> BTreeMap<&'static str, u64> {
    STATS
        .iter()
        .map(|&(key, _)| (key, total(runs, key)))
        .collect()
}

/// A check's outcome: whether it held, the detail and the replay seed.
type Outcome = (bool, String, u64);

fn pass(detail: String, seed: u64) -> Outcome {
    (true, detail, seed)
}

fn fail(detail: String, seed: u64) -> Outcome {
    (false, detail, seed)
}

/// Evaluates one assertion against the observation set.
fn evaluate(assertion: &Assertion, spec: &ScenarioSpec, obs: &ScenarioObservations) -> Outcome {
    let runs = &obs.runs;
    let first_seed = spec.seeds.start;
    match assertion {
        Assertion::StatsConsistent => match runs.iter().find(|r| !r.stats_consistent) {
            None => pass(
                format!("ManagerStats::consistent() held across {} runs", runs.len()),
                first_seed,
            ),
            Some(r) => fail(
                format!(
                    "request accounting inconsistent at seed {} / {} workers",
                    r.seed, r.workers
                ),
                r.seed,
            ),
        },
        Assertion::NoLostRequests => {
            // A shed or deadline-cancelled request was *answered* (the
            // caller got a verdict); only a silently vanished one is lost.
            match runs.iter().find(|r| {
                let answered = r.stats["completed_ok"]
                    + r.stats["overloaded_rejections"]
                    + r.stats["deadline_cancellations"]
                    + r.stats["region_rejections"];
                r.stats["lost_requests"] != 0 || answered != r.stats["submitted"]
            }) {
                None => pass(
                    format!(
                        "all {} submitted operations were answered \
                         (completed, shed, deadline-cancelled, or refused \
                         for fragmentation)",
                        total(runs, "submitted")
                    ),
                    first_seed,
                ),
                Some(r) => fail(
                    format!(
                        "seed {} / {} workers: {} of {} submissions answered ({} lost)",
                        r.seed,
                        r.workers,
                        r.stats["completed_ok"]
                            + r.stats["overloaded_rejections"]
                            + r.stats["deadline_cancellations"]
                            + r.stats["region_rejections"],
                        r.stats["submitted"],
                        r.stats["lost_requests"]
                    ),
                    r.seed,
                ),
            }
        }
        Assertion::BitIdenticalOutputs => {
            match runs.iter().find(|r| r.stats["value_mismatches"] != 0) {
                None => pass(
                    "every completed value matched the CPU model bit for bit".to_string(),
                    first_seed,
                ),
                Some(r) => fail(
                    format!(
                        "seed {} / {} workers: {} values diverged from the CPU model",
                        r.seed, r.workers, r.stats["value_mismatches"]
                    ),
                    r.seed,
                ),
            }
        }
        Assertion::SameSeedTraceIdentical => {
            let first = &runs[0];
            let (replay, _records) = run_cell(spec, first.seed, first.workers);
            let mut diffs = Vec::new();
            if replay.stats != first.stats {
                diffs.push("stats");
            }
            if replay.makespan != first.makespan {
                diffs.push("makespan");
            }
            if replay.trace_log != first.trace_log {
                diffs.push("trace log");
            }
            if diffs.is_empty() {
                pass(
                    format!(
                        "re-running seed {} / {} workers reproduced stats, makespan \
                         and trace byte for byte",
                        first.seed, first.workers
                    ),
                    first.seed,
                )
            } else {
                fail(
                    format!(
                        "seed {} / {} workers diverged on replay: {}",
                        first.seed,
                        first.workers,
                        diffs.join(", ")
                    ),
                    first.seed,
                )
            }
        }
        Assertion::OutcomeEqualityAcrossWorkers => {
            // Runs are grouped seeds-outer: runs[i * W + w] is seed i
            // under spec.workers[w].
            let w = spec.workers.len();
            for group in runs.chunks(w) {
                let base = &group[0];
                for other in &group[1..] {
                    let mut diffs = Vec::new();
                    if other.stats != base.stats {
                        diffs.push("stats");
                    }
                    if other.makespan != base.makespan {
                        diffs.push("makespan");
                    }
                    if other.trace_log != base.trace_log {
                        diffs.push("trace log");
                    }
                    if !diffs.is_empty() {
                        return fail(
                            format!(
                                "seed {}: workers={} and workers={} diverged on {}",
                                base.seed,
                                base.workers,
                                other.workers,
                                diffs.join(", ")
                            ),
                            base.seed,
                        );
                    }
                }
            }
            pass(
                format!(
                    "worker counts {:?} produced identical outcomes across {} seeds",
                    spec.workers, spec.seeds.count
                ),
                first_seed,
            )
        }
        Assertion::FinalScrubClean => {
            match runs.iter().find(|r| r.stats["final_sweep_dirty"] != 0) {
                None => pass(
                    "every confirmation sweep came back clean".to_string(),
                    first_seed,
                ),
                Some(r) => fail(
                    format!(
                        "seed {} / {} workers: {} tiles still dirty after the \
                         confirmation sweep",
                        r.seed, r.workers, r.stats["final_sweep_dirty"]
                    ),
                    r.seed,
                ),
            }
        }
        Assertion::StatMin { stat, value } => {
            let observed = total(runs, stat);
            if observed >= *value {
                pass(format!("total {stat} = {observed} >= {value}"), first_seed)
            } else {
                fail(
                    format!("total {stat} = {observed}, expected at least {value}"),
                    first_seed,
                )
            }
        }
        Assertion::StatMax { stat, value } => {
            let observed = total(runs, stat);
            if observed <= *value {
                pass(format!("total {stat} = {observed} <= {value}"), first_seed)
            } else {
                fail(
                    format!("total {stat} = {observed}, expected at most {value}"),
                    first_seed,
                )
            }
        }
        Assertion::StatEq { stat, value } => {
            let observed = total(runs, stat);
            if observed == *value {
                pass(format!("total {stat} = {observed}"), first_seed)
            } else {
                fail(
                    format!("total {stat} = {observed}, expected exactly {value}"),
                    first_seed,
                )
            }
        }
        Assertion::TraceContains { event } => {
            let hits: u64 = runs
                .iter()
                .map(|r| r.event_counts.get(event).copied().unwrap_or(0))
                .sum();
            if hits > 0 {
                pass(
                    format!("event '{event}' appeared {hits} times across all traces"),
                    first_seed,
                )
            } else {
                let mut detail =
                    format!("event '{event}' never appeared in any trace; seen events: ");
                let mut seen: Vec<&String> =
                    runs.iter().flat_map(|r| r.event_counts.keys()).collect();
                seen.sort();
                seen.dedup();
                for (i, name) in seen.iter().enumerate() {
                    if i > 0 {
                        detail.push_str(", ");
                    }
                    let _ = write!(detail, "{name}");
                }
                fail(detail, first_seed)
            }
        }
        Assertion::TraceAbsent { event } => {
            match runs
                .iter()
                .find(|r| r.event_counts.get(event).copied().unwrap_or(0) > 0)
            {
                None => pass(
                    format!("event '{event}' never appeared, as required"),
                    first_seed,
                ),
                Some(r) => fail(
                    format!(
                        "seed {} / {} workers: forbidden event '{event}' appeared {} times",
                        r.seed, r.workers, r.event_counts[event]
                    ),
                    r.seed,
                ),
            }
        }
        Assertion::MakespanMax { value } => match runs.iter().max_by_key(|r| r.makespan) {
            Some(r) if r.makespan > *value => fail(
                format!(
                    "seed {} / {} workers: makespan {} cycles exceeds the {} bound",
                    r.seed, r.workers, r.makespan, value
                ),
                r.seed,
            ),
            Some(r) => pass(
                format!("worst makespan {} cycles <= {} bound", r.makespan, value),
                first_seed,
            ),
            None => fail("no runs observed".to_string(), first_seed),
        },
        Assertion::DeadlineMissMax { value } => {
            let observed = total(runs, "deadline_misses");
            if observed <= *value {
                pass(
                    format!("total deadline_misses = {observed} <= {value}"),
                    first_seed,
                )
            } else {
                fail(
                    format!("total deadline_misses = {observed}, expected at most {value}"),
                    first_seed,
                )
            }
        }
        Assertion::ShedRateMax { percent } => {
            let submitted = total(runs, "submitted");
            let shed = total(runs, "shed");
            // Integer cross-multiply: shed/submitted <= percent/100
            // without rounding surprises.
            if shed * 100 <= *percent * submitted {
                pass(
                    format!("{shed} of {submitted} submissions shed, within the {percent}% bound"),
                    first_seed,
                )
            } else {
                fail(
                    format!("{shed} of {submitted} submissions shed, above the {percent}% bound"),
                    first_seed,
                )
            }
        }
        Assertion::NoOrphanedTickets => {
            match runs.iter().find(|r| r.stats["orphaned_tickets"] != 0) {
                None => pass(
                    format!(
                        "every run quiesced with zero claimed-but-uncommitted \
                         tickets across {} runs",
                        runs.len()
                    ),
                    first_seed,
                ),
                Some(r) => fail(
                    format!(
                        "seed {} / {} workers: {} tickets were claimed but never \
                         committed or retired",
                        r.seed, r.workers, r.stats["orphaned_tickets"]
                    ),
                    r.seed,
                ),
            }
        }
    }
}

/// Runs a scenario end to end: the full matrix, then every assertion.
pub fn run(spec: &ScenarioSpec) -> ScenarioVerdict {
    let observations = observe(spec);
    let results = spec
        .assertions
        .iter()
        .map(|a| {
            let (passed, detail, replay_seed) = evaluate(a, spec, &observations);
            AssertionResult {
                check: a.check().to_string(),
                passed,
                detail,
                replay_seed,
            }
        })
        .collect();
    ScenarioVerdict {
        spec: spec.clone(),
        observations,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(doc: &str) -> ScenarioSpec {
        ScenarioSpec::parse(doc).expect("valid spec")
    }

    #[test]
    fn stat_keys_are_unique() {
        let mut keys: Vec<&str> = STATS.iter().map(|&(key, _)| key).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "a duplicate key would overwrite a stat");
    }

    #[test]
    fn a_run_observes_exactly_the_table_keys() {
        let obs = observe(&spec(
            r#"{
                "name": "engine_keys",
                "fabric": {"soc_name": "engine-keys", "reconf_tiles": 1},
                "catalog": ["mac"],
                "seeds": {"count": 1},
                "workload": {"kind": "blocking", "clients": 1, "ops_per_client": 2},
                "assertions": [{"check": "stats_consistent"}]
            }"#,
        ));
        let observed: Vec<&str> = obs.runs[0].stats.keys().copied().collect();
        let mut declared: Vec<&str> = STATS.iter().map(|&(key, _)| key).collect();
        declared.sort_unstable();
        assert_eq!(observed, declared);
    }

    #[test]
    fn fault_free_blocking_scenario_passes_its_invariants() {
        let verdict = run(&spec(
            r#"{
                "name": "engine_smoke",
                "fabric": {"soc_name": "engine-smoke", "reconf_tiles": 2},
                "catalog": ["mac", "sort"],
                "seeds": {"count": 2},
                "workload": {"kind": "blocking", "clients": 2, "ops_per_client": 4},
                "assertions": [
                    {"check": "stats_consistent"},
                    {"check": "no_lost_requests"},
                    {"check": "bit_identical_outputs"},
                    {"check": "same_seed_trace_identical"},
                    {"check": "stat_eq", "stat": "cpu_fallback_completions", "value": 0},
                    {"check": "stat_eq", "stat": "injected_total", "value": 0}
                ]
            }"#,
        ));
        assert!(
            verdict.passed(),
            "{:#?}",
            verdict
                .results
                .iter()
                .filter(|r| !r.passed)
                .collect::<Vec<_>>()
        );
        assert_eq!(verdict.observations.runs.len(), 2);
        assert!(verdict
            .observations
            .first_chrome_trace
            .contains("traceEvents"));
    }

    #[test]
    fn failing_stat_bound_reports_observed_and_expected() {
        let verdict = run(&spec(
            r#"{
                "name": "engine_bound",
                "fabric": {"soc_name": "engine-bound", "reconf_tiles": 1},
                "catalog": ["mac"],
                "seeds": {"count": 1},
                "workload": {"kind": "blocking", "clients": 1, "ops_per_client": 2},
                "assertions": [{"check": "stat_min", "stat": "retries", "value": 999}]
            }"#,
        ));
        assert!(!verdict.passed());
        let r = &verdict.results[0];
        assert!(r.detail.contains("retries"), "{}", r.detail);
        assert!(r.detail.contains("999"), "{}", r.detail);
    }

    #[test]
    fn supervised_crash_storm_heals_every_request() {
        let verdict = run(&spec(
            r#"{
                "name": "engine_crash",
                "fabric": {"soc_name": "engine-crash", "reconf_tiles": 2},
                "catalog": ["mac", "sort"],
                "seeds": {"count": 3},
                "workers": [2],
                "worker_faults": {"panic_rate": 0.25, "hang_rate": 0.15,
                                  "max_panics": 4, "max_hangs": 4},
                "policy": {"supervised": true, "restart_budget": 8},
                "workload": {"kind": "blocking", "clients": 3, "ops_per_client": 6},
                "assertions": [
                    {"check": "stats_consistent"},
                    {"check": "no_lost_requests"},
                    {"check": "bit_identical_outputs"},
                    {"check": "no_orphaned_tickets"},
                    {"check": "stat_min", "stat": "injected_worker_panics", "value": 1},
                    {"check": "stat_eq", "stat": "lost_requests", "value": 0}
                ]
            }"#,
        ));
        assert!(
            verdict.passed(),
            "{:#?}",
            verdict
                .results
                .iter()
                .filter(|r| !r.passed)
                .collect::<Vec<_>>()
        );
        let deaths: u64 = verdict
            .observations
            .runs
            .iter()
            .map(|r| r.stats["worker_deaths"])
            .sum();
        let redispatches: u64 = verdict
            .observations
            .runs
            .iter()
            .map(|r| r.stats["redispatches"])
            .sum();
        assert!(
            deaths >= 1,
            "a 25% panic rate over 18 ops must kill someone"
        );
        assert!(
            redispatches >= deaths,
            "every death's claim is redispatched"
        );
    }

    #[test]
    fn overload_burst_sheds_and_stays_consistent() {
        let verdict = run(&spec(
            r#"{
                "name": "engine_overload",
                "fabric": {"soc_name": "engine-overload", "reconf_tiles": 2},
                "catalog": ["mac", "sort"],
                "seeds": {"count": 1},
                "policy": {"queue_capacity": 2, "overload": "reject_new"},
                "workload": {"kind": "overload_burst", "burst": 12},
                "assertions": [
                    {"check": "stats_consistent"},
                    {"check": "no_lost_requests"},
                    {"check": "no_orphaned_tickets"},
                    {"check": "shed_rate_max", "percent": 100}
                ]
            }"#,
        ));
        assert!(
            verdict.passed(),
            "{:#?}",
            verdict
                .results
                .iter()
                .filter(|r| !r.passed)
                .collect::<Vec<_>>()
        );
        let r = &verdict.observations.runs[0];
        assert_eq!(
            r.stats["completed_ok"] + r.stats["overloaded_rejections"],
            r.stats["submitted"],
            "every burst request is answered: completed or shed"
        );
    }

    #[test]
    fn defrag_probe_turns_reject_into_admit() {
        let verdict = run(&spec(
            r#"{
                "name": "engine_defrag",
                "fabric": {"soc_name": "engine-defrag", "reconf_tiles": 7},
                "catalog": ["mac", "sort"],
                "seeds": {"count": 1},
                "workers": [1, 2],
                "regions": {"enabled": true, "policy": "first_fit",
                            "window": [1, 12], "defrag": true},
                "workload": {"kind": "defrag_probe"},
                "assertions": [
                    {"check": "stats_consistent"},
                    {"check": "no_lost_requests"},
                    {"check": "same_seed_trace_identical"},
                    {"check": "outcome_equality_across_workers"},
                    {"check": "stat_eq", "stat": "oversized_rejected", "value": 2},
                    {"check": "stat_eq", "stat": "repack_admitted", "value": 2},
                    {"check": "stat_eq", "stat": "defrag_moves", "value": 2},
                    {"check": "trace_contains", "event": "defrag.pass"},
                    {"check": "trace_contains", "event": "region.moved"}
                ]
            }"#,
        ));
        assert!(
            verdict.passed(),
            "{:#?}",
            verdict
                .results
                .iter()
                .filter(|r| !r.passed)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn defrag_probe_without_defragmenter_stays_refused() {
        let verdict = run(&spec(
            r#"{
                "name": "engine_defrag_off",
                "fabric": {"soc_name": "engine-defrag-off", "reconf_tiles": 7},
                "catalog": ["mac", "sort"],
                "seeds": {"count": 1},
                "regions": {"enabled": true, "window": [1, 12]},
                "workload": {"kind": "defrag_probe"},
                "assertions": [
                    {"check": "stats_consistent"},
                    {"check": "no_lost_requests"},
                    {"check": "stat_eq", "stat": "oversized_rejected", "value": 1},
                    {"check": "stat_eq", "stat": "oversized_admitted", "value": 0},
                    {"check": "stat_eq", "stat": "repack_admitted", "value": 0},
                    {"check": "stat_eq", "stat": "defrag_passes", "value": 0},
                    {"check": "trace_absent", "event": "defrag.pass"}
                ]
            }"#,
        ));
        assert!(
            verdict.passed(),
            "{:#?}",
            verdict
                .results
                .iter()
                .filter(|r| !r.passed)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_storm_injects_and_recovers() {
        let verdict = run(&spec(
            r#"{
                "name": "engine_storm",
                "fabric": {"soc_name": "engine-storm", "reconf_tiles": 2},
                "catalog": ["mac", "sort"],
                "seeds": {"count": 5},
                "faults": {"uniform_rate": 0.15},
                "policy": {"max_retries": 2, "backoff_cycles": 32,
                           "backoff_multiplier": 2, "quarantine_after": 2,
                           "cpu_fallback": true},
                "workload": {"kind": "blocking", "clients": 4, "ops_per_client": 6},
                "assertions": [
                    {"check": "stats_consistent"},
                    {"check": "no_lost_requests"},
                    {"check": "bit_identical_outputs"},
                    {"check": "stat_min", "stat": "injected_total", "value": 1}
                ]
            }"#,
        ));
        assert!(
            verdict.passed(),
            "{:#?}",
            verdict
                .results
                .iter()
                .filter(|r| !r.passed)
                .collect::<Vec<_>>()
        );
    }
}
