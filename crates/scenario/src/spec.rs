//! The declarative scenario language.
//!
//! A scenario file is a single JSON document describing everything a
//! runtime experiment needs — fabric shape, accelerator catalog, seed
//! matrix, worker counts, fault/SEU plan, scrubber policy, workload mix
//! and the list of assertions that make it a *test* rather than a demo.
//! [`ScenarioSpec::parse`] is strict: unknown keys, out-of-range rates
//! and structurally impossible combinations are rejected with an error
//! message that names the offending key and the accepted values, so a
//! typo in a data file fails loudly instead of silently weakening a
//! scenario.
//!
//! The parser and serializer round-trip exactly:
//! `parse(serialize(spec)) == spec` for every valid spec (property-tested
//! in `tests/parser_roundtrip.rs`).

use crate::engine::STATS;
use presp_events::json::{self, JsonValue};
use presp_events::TraceEvent;
use presp_floorplan::FitPolicy;
use presp_fpga::fault::FaultConfig;
use presp_runtime::manager::{OverloadPolicy, RecoveryPolicy};
use presp_runtime::supervisor::WorkerFaultConfig;
use std::fmt;

/// A scenario-language error: parse failures and semantic validation
/// failures, always with an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError(msg.into()))
}

/// The accelerator kinds a scenario workload can exercise. Restricted to
/// the kinds whose expected outputs the engine can recompute bit-exactly
/// on the CPU (the `bit_identical_outputs` oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogKind {
    /// Multiply-accumulate (dot product).
    Mac,
    /// Vector sort.
    Sort,
}

impl CatalogKind {
    /// The JSON token.
    pub fn token(self) -> &'static str {
        match self {
            CatalogKind::Mac => "mac",
            CatalogKind::Sort => "sort",
        }
    }

    fn from_token(token: &str) -> Option<CatalogKind> {
        match token {
            "mac" => Some(CatalogKind::Mac),
            "sort" => Some(CatalogKind::Sort),
            _ => None,
        }
    }
}

/// The simulated fabric: an ESP-style grid (CPU + MEM + AUX) with
/// `reconf_tiles` reconfigurable sockets — the shape of the paper's
/// SoC_A–SoC_D / SoC_X–SoC_Z deployments. Up to 6 tiles boot the
/// canonical 3×3 grid; larger counts boot a near-square scaled grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSpec {
    /// SoC configuration name (appears in traces and reports).
    pub soc_name: String,
    /// Reconfigurable tile count, `1..=64`.
    pub reconf_tiles: usize,
}

/// The seed matrix: scenarios run once per seed in
/// `start..start + count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSpec {
    /// First seed.
    pub start: u64,
    /// Number of consecutive seeds.
    pub count: u64,
}

/// Scrub policy for the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubberSpec {
    /// Whether the submitter runs scrub sweeps
    /// ([`presp_runtime::threaded::ThreadedManager::scrub_all_blocking`]).
    pub enabled: bool,
    /// Synchronous full sweep every N submitted operations (0 = never).
    pub sweep_every_ops: u64,
    /// After the workload drains: sweep, disarm the fault plan, and sweep
    /// again — the `final_scrub_clean` assertion checks the second sweep.
    pub final_sweep: bool,
}

/// Amorphous-floorplanning policy for the run: flexible-boundary
/// regions leased from the [`presp_floorplan`] allocator instead of
/// fixed sockets, with optional online defragmentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionsSpec {
    /// Whether admission goes through the dynamic region allocator.
    pub enabled: bool,
    /// Span-selection policy.
    pub policy: FitPolicy,
    /// Reconfigurable column window `[lo, hi)`; `None` manages every
    /// reconfigurable column of the device.
    pub window: Option<(u32, u32)>,
    /// Whether a request refused for fragmentation is retried after one
    /// repack pass
    /// ([`presp_runtime::threaded::ThreadedManager::repack_blocking`]).
    pub defrag: bool,
}

/// The workload the engine drives through the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// `clients` logical application threads, each with a fixed script of
    /// `ops_per_client` operations cycling through the catalog; a seeded
    /// scheduler draws which client issues next (the stress-harness
    /// interleaving), and every operation blocks until it completes.
    Blocking {
        /// Logical application threads.
        clients: usize,
        /// Operations per thread.
        ops_per_client: usize,
    },
    /// The deterministic coalescing probe: a single worker is pinned on a
    /// large sort while `burst` identical reconfigurations queue behind
    /// it — all but the first must tail-fold. Requires `workers == [1]`
    /// and at least two tiles.
    CoalesceBurst {
        /// Identical reconfiguration requests issued while the worker is
        /// pinned.
        burst: usize,
        /// Length of the worker-pinning sort (bigger = more wall-clock
        /// headroom for the burst to enqueue).
        pin_sort_len: usize,
    },
    /// The open-loop overload probe: a worker is pinned on a large sort
    /// while `burst` *distinct* MAC executions (so nothing coalesces)
    /// are fired at the first tile without awaiting; the admission
    /// controller's verdicts (`Overloaded`, `DeadlineExceeded`) are then
    /// collected. Requires at least two tiles and both catalog kinds.
    OverloadBurst {
        /// Distinct execute requests fired at the first tile while the
        /// worker is pinned.
        burst: usize,
        /// Length of the worker-pinning sort.
        pin_sort_len: usize,
    },
    /// The deterministic fragmentation probe: seven 1-column loads pack
    /// the region window, one swap opens two non-adjacent holes, and a
    /// 3-column GEMM request is refused for fragmentation. With
    /// `regions.defrag` on, one synchronous repack pass runs and the
    /// retry must be admitted; with it off, the request stays refused.
    /// Requires `regions.enabled`, a window, at least seven tiles and
    /// both catalog kinds (the engine registers the wide GEMM bitstream
    /// itself).
    DefragProbe,
    /// Seeded region churn: every round each tile draws an accelerator
    /// (1-column MAC, 1-column BRAM sort, 3-column GEMM) from a seeded
    /// stream and reconfigures to it, fragmenting the window; a request
    /// refused for fragmentation triggers one repack-and-retry when
    /// `regions.defrag` is on. Requires `regions.enabled` and both
    /// catalog kinds.
    FragmentChurn {
        /// Churn rounds (each round issues one draw per tile).
        rounds: usize,
    },
}

/// One declarative assertion over a scenario's observations.
#[derive(Debug, Clone, PartialEq)]
pub enum Assertion {
    /// Every run's [`presp_runtime::manager::ManagerStats::consistent`]
    /// holds.
    StatsConsistent,
    /// Every submitted operation completed (accelerator or CPU fallback)
    /// and was counted exactly once.
    NoLostRequests,
    /// Every completed operation's value equals the CPU-model expectation
    /// bit for bit.
    BitIdenticalOutputs,
    /// Re-running the first (seed, worker-count) cell reproduces stats,
    /// makespan and the trace log byte for byte.
    SameSeedTraceIdentical,
    /// For every seed, all configured worker counts produce identical
    /// stats, makespan and trace logs. Requires at least two entries in
    /// `workers`.
    OutcomeEqualityAcrossWorkers,
    /// The post-drain confirmation sweep (fault plan disarmed) finds
    /// every tile clean: each upset was repaired or its tile
    /// quarantined. Requires the scrubber with `final_sweep`.
    FinalScrubClean,
    /// The named stat, totalled across all runs, is at least `value`.
    StatMin {
        /// A key from [`STATS`].
        stat: String,
        /// Inclusive lower bound.
        value: u64,
    },
    /// The named stat, totalled across all runs, is at most `value`.
    StatMax {
        /// A key from [`STATS`].
        stat: String,
        /// Inclusive upper bound.
        value: u64,
    },
    /// The named stat, totalled across all runs, equals `value` exactly.
    StatEq {
        /// A key from [`STATS`].
        stat: String,
        /// Expected total.
        value: u64,
    },
    /// At least one run's trace contains an event with this name (the
    /// stable name from `TraceEvent::name()`, e.g. `"seu.injected"`).
    TraceContains {
        /// A name from [`TraceEvent::NAMES`]; the parser rejects others.
        event: String,
    },
    /// No run's trace contains an event with this name.
    TraceAbsent {
        /// A name from [`TraceEvent::NAMES`]; the parser rejects others,
        /// so a misspelled name cannot pass for an absent event.
        event: String,
    },
    /// Every run's virtual-time makespan is at most `value` cycles.
    MakespanMax {
        /// Inclusive bound, in SoC cycles.
        value: u64,
    },
    /// The manager's `deadline_misses` counter, totalled across all
    /// runs, is at most `value`.
    DeadlineMissMax {
        /// Inclusive upper bound on total deadline misses.
        value: u64,
    },
    /// Shed requests (admission refusals and displaced victims) as a
    /// percentage of submissions, across all runs, is at most `percent`.
    ShedRateMax {
        /// Inclusive upper bound, in whole percent (`0..=100`).
        percent: u64,
    },
    /// Every run ends (post-shutdown, so the scheduler is quiescent)
    /// with zero claimed-but-uncommitted tickets — nothing the
    /// supervisor failed to heal.
    NoOrphanedTickets,
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the JUnit test-case name).
    pub name: String,
    /// Human-readable intent.
    pub description: String,
    /// Fabric shape.
    pub fabric: FabricSpec,
    /// Accelerator kinds registered on every reconfigurable tile.
    pub catalog: Vec<CatalogKind>,
    /// Seed matrix.
    pub seeds: SeedSpec,
    /// Worker counts to run the matrix under (each seed runs once per
    /// count).
    pub workers: Vec<usize>,
    /// Verified-bitstream cache capacity (0 disables the cache).
    pub cache_capacity: usize,
    /// Fault/SEU plan knobs (a [`FaultConfig`], seeded per run).
    pub faults: FaultConfig,
    /// Software worker-fault knobs (a [`WorkerFaultConfig`], seeded per
    /// run; all-zero injects nothing).
    pub worker_faults: WorkerFaultConfig,
    /// Manager recovery policy.
    pub policy: RecoveryPolicy,
    /// Scrubber policy.
    pub scrubber: ScrubberSpec,
    /// Amorphous-floorplanning policy.
    pub regions: RegionsSpec,
    /// The workload mix.
    pub workload: WorkloadSpec,
    /// The checks that decide pass/fail.
    pub assertions: Vec<Assertion>,
}

// ---- parsing helpers -----------------------------------------------------

/// Checks an object for keys outside `allowed`, reporting the context.
fn reject_unknown_keys(
    value: &JsonValue,
    ctx: &str,
    allowed: &[&str],
) -> Result<(), ScenarioError> {
    let JsonValue::Object(fields) = value else {
        return err(format!("{ctx} must be a JSON object"));
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return err(format!(
                "unknown key '{key}' in {ctx} (expected one of: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn get_str(value: &JsonValue, ctx: &str, key: &str) -> Result<String, ScenarioError> {
    match value.get(key) {
        Some(JsonValue::String(s)) => Ok(s.clone()),
        Some(_) => err(format!("'{key}' in {ctx} must be a string")),
        None => err(format!("missing required key '{key}' in {ctx}")),
    }
}

fn get_usize(value: &JsonValue, ctx: &str, key: &str) -> Result<usize, ScenarioError> {
    match value.get(key) {
        Some(v) => v.as_usize().ok_or_else(|| {
            ScenarioError(format!("'{key}' in {ctx} must be a non-negative integer"))
        }),
        None => err(format!("missing required key '{key}' in {ctx}")),
    }
}

fn get_u64(value: &JsonValue, ctx: &str, key: &str) -> Result<u64, ScenarioError> {
    get_usize(value, ctx, key).map(|v| v as u64)
}

fn opt_u64(value: &JsonValue, ctx: &str, key: &str, default: u64) -> Result<u64, ScenarioError> {
    match value.get(key) {
        None => Ok(default),
        Some(_) => get_u64(value, ctx, key),
    }
}

fn opt_bool(value: &JsonValue, ctx: &str, key: &str, default: bool) -> Result<bool, ScenarioError> {
    match value.get(key) {
        None => Ok(default),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => err(format!("'{key}' in {ctx} must be true or false")),
    }
}

/// A probability knob: must be a number in `[0, 1]`.
fn opt_rate(value: &JsonValue, ctx: &str, key: &str, default: f64) -> Result<f64, ScenarioError> {
    match value.get(key) {
        None => Ok(default),
        Some(JsonValue::Number(n)) if (0.0..=1.0).contains(n) => Ok(*n),
        Some(JsonValue::Number(n)) => err(format!(
            "'{key}' in {ctx} must be a probability between 0 and 1 (got {n})"
        )),
        Some(_) => err(format!("'{key}' in {ctx} must be a number")),
    }
}

fn opt_nonneg(value: &JsonValue, ctx: &str, key: &str, default: f64) -> Result<f64, ScenarioError> {
    match value.get(key) {
        None => Ok(default),
        Some(JsonValue::Number(n)) if *n >= 0.0 => Ok(*n),
        Some(JsonValue::Number(n)) => {
            err(format!("'{key}' in {ctx} must be non-negative (got {n})"))
        }
        Some(_) => err(format!("'{key}' in {ctx} must be a number")),
    }
}

// ---- section parsers -----------------------------------------------------

fn parse_fabric(doc: &JsonValue) -> Result<FabricSpec, ScenarioError> {
    let Some(fabric) = doc.get("fabric") else {
        return err("missing required key 'fabric' at the top level");
    };
    reject_unknown_keys(fabric, "'fabric'", &["soc_name", "reconf_tiles"])?;
    let soc_name = get_str(fabric, "'fabric'", "soc_name")?;
    let reconf_tiles = get_usize(fabric, "'fabric'", "reconf_tiles")?;
    if !(1..=64).contains(&reconf_tiles) {
        return err(format!(
            "'fabric.reconf_tiles' must be between 1 and 64 (got {reconf_tiles}): \
             up to 6 tiles boot the canonical 3x3 grid, larger counts a \
             near-square scaled grid"
        ));
    }
    Ok(FabricSpec {
        soc_name,
        reconf_tiles,
    })
}

fn parse_catalog(doc: &JsonValue) -> Result<Vec<CatalogKind>, ScenarioError> {
    let Some(catalog) = doc.get("catalog") else {
        return err("missing required key 'catalog' at the top level");
    };
    let Some(items) = catalog.as_array() else {
        return err("'catalog' must be an array of accelerator kinds");
    };
    if items.is_empty() {
        return err("'catalog' must name at least one accelerator kind");
    }
    let mut kinds = Vec::with_capacity(items.len());
    for item in items {
        let token = item
            .as_str()
            .ok_or_else(|| ScenarioError("'catalog' entries must be strings".into()))?;
        let kind = CatalogKind::from_token(token).ok_or_else(|| {
            ScenarioError(format!(
                "unknown accelerator kind '{token}' in 'catalog' (expected one of: mac, sort)"
            ))
        })?;
        if kinds.contains(&kind) {
            return err(format!("duplicate accelerator kind '{token}' in 'catalog'"));
        }
        kinds.push(kind);
    }
    Ok(kinds)
}

fn parse_seeds(doc: &JsonValue) -> Result<SeedSpec, ScenarioError> {
    let Some(seeds) = doc.get("seeds") else {
        return err("missing required key 'seeds' at the top level");
    };
    reject_unknown_keys(seeds, "'seeds'", &["start", "count"])?;
    let start = opt_u64(seeds, "'seeds'", "start", 0)?;
    let count = get_u64(seeds, "'seeds'", "count")?;
    if !(1..=10_000).contains(&count) {
        return err(format!(
            "'seeds.count' must be between 1 and 10000 (got {count})"
        ));
    }
    Ok(SeedSpec { start, count })
}

fn parse_workers(doc: &JsonValue) -> Result<Vec<usize>, ScenarioError> {
    let Some(workers) = doc.get("workers") else {
        return Ok(vec![1]);
    };
    let Some(items) = workers.as_array() else {
        return err("'workers' must be an array of worker counts, e.g. [1, 4]");
    };
    if items.is_empty() {
        return err("'workers' must list at least one worker count");
    }
    let mut counts = Vec::with_capacity(items.len());
    for item in items {
        let n = item
            .as_usize()
            .ok_or_else(|| ScenarioError("'workers' entries must be positive integers".into()))?;
        if !(1..=64).contains(&n) {
            return err(format!(
                "'workers' entries must be between 1 and 64 (got {n})"
            ));
        }
        if counts.contains(&n) {
            return err(format!("duplicate worker count {n} in 'workers'"));
        }
        counts.push(n);
    }
    Ok(counts)
}

const FAULT_KEYS: &[&str] = &[
    "uniform_rate",
    "icap_flip_rate",
    "dfxc_stall_rate",
    "dfxc_stall_max_cycles",
    "registry_miss_rate",
    "decoupler_delay_rate",
    "decoupler_delay_max_cycles",
    "seu_per_mcycle",
    "seu_double_bit_rate",
];

fn parse_faults(doc: &JsonValue) -> Result<FaultConfig, ScenarioError> {
    let Some(faults) = doc.get("faults") else {
        return Ok(FaultConfig::default());
    };
    reject_unknown_keys(faults, "'faults'", FAULT_KEYS)?;
    let ctx = "'faults'";
    // `uniform_rate` seeds every probability knob; explicit keys override.
    let base = match faults.get("uniform_rate") {
        Some(_) => FaultConfig::uniform(opt_rate(faults, ctx, "uniform_rate", 0.0)?),
        None => FaultConfig::default(),
    };
    Ok(FaultConfig {
        icap_flip_rate: opt_rate(faults, ctx, "icap_flip_rate", base.icap_flip_rate)?,
        dfxc_stall_rate: opt_rate(faults, ctx, "dfxc_stall_rate", base.dfxc_stall_rate)?,
        dfxc_stall_max_cycles: opt_u64(
            faults,
            ctx,
            "dfxc_stall_max_cycles",
            base.dfxc_stall_max_cycles,
        )?,
        registry_miss_rate: opt_rate(faults, ctx, "registry_miss_rate", base.registry_miss_rate)?,
        decoupler_delay_rate: opt_rate(
            faults,
            ctx,
            "decoupler_delay_rate",
            base.decoupler_delay_rate,
        )?,
        decoupler_delay_max_cycles: opt_u64(
            faults,
            ctx,
            "decoupler_delay_max_cycles",
            base.decoupler_delay_max_cycles,
        )?,
        seu_per_mcycle: opt_nonneg(faults, ctx, "seu_per_mcycle", 0.0)?,
        seu_double_bit_rate: opt_rate(faults, ctx, "seu_double_bit_rate", 0.0)?,
    })
}

/// The JSON token of an overload policy.
fn overload_token(policy: OverloadPolicy) -> &'static str {
    match policy {
        OverloadPolicy::RejectNew => "reject_new",
        OverloadPolicy::ShedOldest => "shed_oldest",
    }
}

fn parse_policy(doc: &JsonValue) -> Result<RecoveryPolicy, ScenarioError> {
    let Some(policy) = doc.get("policy") else {
        return Ok(RecoveryPolicy::default());
    };
    reject_unknown_keys(
        policy,
        "'policy'",
        &[
            "max_retries",
            "backoff_cycles",
            "backoff_multiplier",
            "quarantine_after",
            "cpu_fallback",
            "deadline_cycles",
            "queue_capacity",
            "overload",
            "breaker",
            "supervised",
            "restart_budget",
        ],
    )?;
    let ctx = "'policy'";
    let default = RecoveryPolicy::default();
    let overload = match policy.get("overload") {
        None => default.overload,
        Some(JsonValue::String(s)) => match s.as_str() {
            "reject_new" => OverloadPolicy::RejectNew,
            "shed_oldest" => OverloadPolicy::ShedOldest,
            other => {
                return err(format!(
                    "unknown 'policy.overload' value '{other}' \
                     (expected one of: reject_new, shed_oldest)"
                ))
            }
        },
        Some(_) => return err("'overload' in 'policy' must be a string"),
    };
    Ok(RecoveryPolicy {
        max_retries: opt_u64(policy, ctx, "max_retries", u64::from(default.max_retries))? as u32,
        backoff_cycles: opt_u64(policy, ctx, "backoff_cycles", default.backoff_cycles)?,
        backoff_multiplier: opt_u64(
            policy,
            ctx,
            "backoff_multiplier",
            default.backoff_multiplier,
        )?,
        quarantine_after: opt_u64(
            policy,
            ctx,
            "quarantine_after",
            u64::from(default.quarantine_after),
        )? as u32,
        cpu_fallback: opt_bool(policy, ctx, "cpu_fallback", default.cpu_fallback)?,
        deadline_cycles: opt_u64(policy, ctx, "deadline_cycles", default.deadline_cycles)?,
        queue_capacity: opt_u64(policy, ctx, "queue_capacity", default.queue_capacity)?,
        overload,
        breaker: opt_bool(policy, ctx, "breaker", default.breaker)?,
        supervised: opt_bool(policy, ctx, "supervised", default.supervised)?,
        restart_budget: opt_u64(
            policy,
            ctx,
            "restart_budget",
            u64::from(default.restart_budget),
        )? as u32,
    })
}

const WORKER_FAULT_KEYS: &[&str] = &[
    "panic_rate",
    "hang_rate",
    "stall_rate",
    "stall_max_micros",
    "max_panics",
    "max_hangs",
];

fn parse_worker_faults(doc: &JsonValue) -> Result<WorkerFaultConfig, ScenarioError> {
    let Some(wf) = doc.get("worker_faults") else {
        return Ok(WorkerFaultConfig::default());
    };
    reject_unknown_keys(wf, "'worker_faults'", WORKER_FAULT_KEYS)?;
    let ctx = "'worker_faults'";
    Ok(WorkerFaultConfig {
        panic_rate: opt_rate(wf, ctx, "panic_rate", 0.0)?,
        hang_rate: opt_rate(wf, ctx, "hang_rate", 0.0)?,
        stall_rate: opt_rate(wf, ctx, "stall_rate", 0.0)?,
        stall_max_micros: opt_u64(wf, ctx, "stall_max_micros", 0)?,
        max_panics: opt_u64(wf, ctx, "max_panics", 0)?,
        max_hangs: opt_u64(wf, ctx, "max_hangs", 0)?,
    })
}

fn parse_scrubber(doc: &JsonValue) -> Result<ScrubberSpec, ScenarioError> {
    let Some(scrubber) = doc.get("scrubber") else {
        return Ok(ScrubberSpec::default());
    };
    reject_unknown_keys(
        scrubber,
        "'scrubber'",
        &["enabled", "sweep_every_ops", "final_sweep"],
    )?;
    let ctx = "'scrubber'";
    Ok(ScrubberSpec {
        enabled: opt_bool(scrubber, ctx, "enabled", false)?,
        sweep_every_ops: opt_u64(scrubber, ctx, "sweep_every_ops", 0)?,
        final_sweep: opt_bool(scrubber, ctx, "final_sweep", false)?,
    })
}

/// The JSON token of a fit policy.
fn fit_token(policy: FitPolicy) -> &'static str {
    match policy {
        FitPolicy::FirstFit => "first_fit",
        FitPolicy::BestFit => "best_fit",
    }
}

fn parse_regions(doc: &JsonValue) -> Result<RegionsSpec, ScenarioError> {
    let Some(regions) = doc.get("regions") else {
        return Ok(RegionsSpec::default());
    };
    reject_unknown_keys(
        regions,
        "'regions'",
        &["enabled", "policy", "window", "defrag"],
    )?;
    let ctx = "'regions'";
    let policy = match regions.get("policy") {
        None => FitPolicy::default(),
        Some(JsonValue::String(s)) => match s.as_str() {
            "first_fit" => FitPolicy::FirstFit,
            "best_fit" => FitPolicy::BestFit,
            other => {
                return err(format!(
                    "unknown 'regions.policy' value '{other}' \
                     (expected one of: first_fit, best_fit)"
                ))
            }
        },
        Some(_) => return err("'policy' in 'regions' must be a string"),
    };
    let window = match regions.get("window") {
        None => None,
        Some(JsonValue::Array(items)) => {
            let bounds: Option<Vec<u32>> = items
                .iter()
                .map(|v| v.as_usize().map(|n| n as u32))
                .collect();
            match bounds.as_deref() {
                Some([lo, hi]) if lo < hi => Some((*lo, *hi)),
                _ => {
                    return err("'regions.window' must be a two-element array [lo, hi] \
                         of column indices with lo < hi")
                }
            }
        }
        Some(_) => {
            return err("'regions.window' must be a two-element array [lo, hi] \
                 of column indices with lo < hi")
        }
    };
    Ok(RegionsSpec {
        enabled: opt_bool(regions, ctx, "enabled", false)?,
        policy,
        window,
        defrag: opt_bool(regions, ctx, "defrag", false)?,
    })
}

fn parse_workload(doc: &JsonValue) -> Result<WorkloadSpec, ScenarioError> {
    let Some(workload) = doc.get("workload") else {
        return err("missing required key 'workload' at the top level");
    };
    let kind = get_str(workload, "'workload'", "kind")?;
    match kind.as_str() {
        "blocking" => {
            reject_unknown_keys(
                workload,
                "'workload'",
                &["kind", "clients", "ops_per_client"],
            )?;
            let clients = get_usize(workload, "'workload'", "clients")?;
            let ops = get_usize(workload, "'workload'", "ops_per_client")?;
            if clients == 0 || ops == 0 {
                return err(format!(
                    "'workload.clients' and 'workload.ops_per_client' must be at least 1 \
                     (got {clients} and {ops})"
                ));
            }
            Ok(WorkloadSpec::Blocking {
                clients,
                ops_per_client: ops,
            })
        }
        "coalesce_burst" => {
            reject_unknown_keys(workload, "'workload'", &["kind", "burst", "pin_sort_len"])?;
            let burst = get_usize(workload, "'workload'", "burst")?;
            let pin = get_usize(workload, "'workload'", "pin_sort_len")?;
            if burst < 2 {
                return err(format!(
                    "'workload.burst' must be at least 2 to observe coalescing (got {burst})"
                ));
            }
            if pin < 1000 {
                return err(format!(
                    "'workload.pin_sort_len' must be at least 1000 to pin the worker (got {pin})"
                ));
            }
            Ok(WorkloadSpec::CoalesceBurst {
                burst,
                pin_sort_len: pin,
            })
        }
        "overload_burst" => {
            reject_unknown_keys(workload, "'workload'", &["kind", "burst", "pin_sort_len"])?;
            let burst = get_usize(workload, "'workload'", "burst")?;
            let pin = get_usize(workload, "'workload'", "pin_sort_len")?;
            if burst < 1 {
                return err("'workload.burst' must be at least 1 (got 0)".to_string());
            }
            if pin < 1000 {
                return err(format!(
                    "'workload.pin_sort_len' must be at least 1000 to pin the worker (got {pin})"
                ));
            }
            Ok(WorkloadSpec::OverloadBurst {
                burst,
                pin_sort_len: pin,
            })
        }
        "defrag_probe" => {
            reject_unknown_keys(workload, "'workload'", &["kind"])?;
            Ok(WorkloadSpec::DefragProbe)
        }
        "fragment_churn" => {
            reject_unknown_keys(workload, "'workload'", &["kind", "rounds"])?;
            let rounds = get_usize(workload, "'workload'", "rounds")?;
            if !(1..=1_000).contains(&rounds) {
                return err(format!(
                    "'workload.rounds' must be between 1 and 1000 (got {rounds})"
                ));
            }
            Ok(WorkloadSpec::FragmentChurn { rounds })
        }
        other => err(format!(
            "unknown workload kind '{other}' \
             (expected one of: blocking, coalesce_burst, overload_burst, \
             defrag_probe, fragment_churn)"
        )),
    }
}

fn parse_assertion(value: &JsonValue, index: usize) -> Result<Assertion, ScenarioError> {
    let ctx = format!("'assertions[{index}]'");
    let check = get_str(value, &ctx, "check")?;
    let stat_arg = |value: &JsonValue| -> Result<(String, u64), ScenarioError> {
        reject_unknown_keys(value, &ctx, &["check", "stat", "value"])?;
        let stat = get_str(value, &ctx, "stat")?;
        if !STATS.iter().any(|&(key, _)| key == stat) {
            let keys: Vec<&str> = STATS.iter().map(|&(key, _)| key).collect();
            return err(format!(
                "unknown stat '{stat}' in {ctx} (expected one of: {})",
                keys.join(", ")
            ));
        }
        let v = get_u64(value, &ctx, "value")?;
        Ok((stat, v))
    };
    let event_arg = |value: &JsonValue| -> Result<String, ScenarioError> {
        reject_unknown_keys(value, &ctx, &["check", "event"])?;
        let event = get_str(value, &ctx, "event")?;
        if !TraceEvent::NAMES.contains(&event.as_str()) {
            return err(format!(
                "unknown trace event '{event}' in {ctx} (expected one of: {})",
                TraceEvent::NAMES.join(", ")
            ));
        }
        Ok(event)
    };
    let bare = |value: &JsonValue, a: Assertion| -> Result<Assertion, ScenarioError> {
        reject_unknown_keys(value, &ctx, &["check"])?;
        Ok(a)
    };
    match check.as_str() {
        "stats_consistent" => bare(value, Assertion::StatsConsistent),
        "no_lost_requests" => bare(value, Assertion::NoLostRequests),
        "bit_identical_outputs" => bare(value, Assertion::BitIdenticalOutputs),
        "same_seed_trace_identical" => bare(value, Assertion::SameSeedTraceIdentical),
        "outcome_equality_across_workers" => bare(value, Assertion::OutcomeEqualityAcrossWorkers),
        "final_scrub_clean" => bare(value, Assertion::FinalScrubClean),
        "stat_min" => stat_arg(value).map(|(stat, value)| Assertion::StatMin { stat, value }),
        "stat_max" => stat_arg(value).map(|(stat, value)| Assertion::StatMax { stat, value }),
        "stat_eq" => stat_arg(value).map(|(stat, value)| Assertion::StatEq { stat, value }),
        "trace_contains" => event_arg(value).map(|event| Assertion::TraceContains { event }),
        "trace_absent" => event_arg(value).map(|event| Assertion::TraceAbsent { event }),
        "makespan_max" => {
            reject_unknown_keys(value, &ctx, &["check", "value"])?;
            Ok(Assertion::MakespanMax {
                value: get_u64(value, &ctx, "value")?,
            })
        }
        "deadline_miss_max" => {
            reject_unknown_keys(value, &ctx, &["check", "value"])?;
            Ok(Assertion::DeadlineMissMax {
                value: get_u64(value, &ctx, "value")?,
            })
        }
        "shed_rate_max" => {
            reject_unknown_keys(value, &ctx, &["check", "percent"])?;
            let percent = get_u64(value, &ctx, "percent")?;
            if percent > 100 {
                return err(format!(
                    "'percent' in {ctx} must be between 0 and 100 (got {percent})"
                ));
            }
            Ok(Assertion::ShedRateMax { percent })
        }
        "no_orphaned_tickets" => bare(value, Assertion::NoOrphanedTickets),
        other => err(format!(
            "unknown check '{other}' in {ctx} (expected one of: stats_consistent, \
             no_lost_requests, bit_identical_outputs, same_seed_trace_identical, \
             outcome_equality_across_workers, final_scrub_clean, stat_min, stat_max, \
             stat_eq, trace_contains, trace_absent, makespan_max, deadline_miss_max, \
             shed_rate_max, no_orphaned_tickets)"
        )),
    }
}

const TOP_KEYS: &[&str] = &[
    "name",
    "description",
    "fabric",
    "catalog",
    "seeds",
    "workers",
    "cache_capacity",
    "faults",
    "worker_faults",
    "policy",
    "scrubber",
    "regions",
    "workload",
    "assertions",
];

impl ScenarioSpec {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] naming the offending key and the
    /// accepted values for JSON syntax errors, unknown keys, out-of-range
    /// values and structurally impossible combinations.
    pub fn parse(input: &str) -> Result<ScenarioSpec, ScenarioError> {
        let doc = json::parse(input).map_err(|e| ScenarioError(format!("invalid JSON: {e}")))?;
        ScenarioSpec::from_json_value(&doc)
    }

    /// Parses a scenario from an already-parsed JSON document.
    ///
    /// # Errors
    ///
    /// See [`ScenarioSpec::parse`].
    pub fn from_json_value(doc: &JsonValue) -> Result<ScenarioSpec, ScenarioError> {
        reject_unknown_keys(doc, "the top-level scenario object", TOP_KEYS)?;
        let name = get_str(doc, "the top level", "name")?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return err(format!(
                "'name' must be a non-empty identifier of [a-zA-Z0-9_] (got '{name}')"
            ));
        }
        let description = match doc.get("description") {
            None => String::new(),
            Some(JsonValue::String(s)) => s.clone(),
            Some(_) => return err("'description' must be a string"),
        };
        let fabric = parse_fabric(doc)?;
        let catalog = parse_catalog(doc)?;
        let seeds = parse_seeds(doc)?;
        let workers = parse_workers(doc)?;
        let cache_capacity = match doc.get("cache_capacity") {
            None => 0,
            Some(_) => get_usize(doc, "the top level", "cache_capacity")?,
        };
        let faults = parse_faults(doc)?;
        let worker_faults = parse_worker_faults(doc)?;
        let policy = parse_policy(doc)?;
        let scrubber = parse_scrubber(doc)?;
        let regions = parse_regions(doc)?;
        let workload = parse_workload(doc)?;

        let Some(assertions_value) = doc.get("assertions") else {
            return err("missing required key 'assertions' at the top level");
        };
        let Some(items) = assertions_value.as_array() else {
            return err("'assertions' must be an array of checks");
        };
        if items.is_empty() {
            return err("'assertions' must contain at least one check — \
                        a scenario without assertions tests nothing");
        }
        let assertions = items
            .iter()
            .enumerate()
            .map(|(i, v)| parse_assertion(v, i))
            .collect::<Result<Vec<_>, _>>()?;

        let spec = ScenarioSpec {
            name,
            description,
            fabric,
            catalog,
            seeds,
            workers,
            cache_capacity,
            faults,
            worker_faults,
            policy,
            scrubber,
            regions,
            workload,
            assertions,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field validation: combinations the engine cannot execute.
    fn validate(&self) -> Result<(), ScenarioError> {
        if let WorkloadSpec::CoalesceBurst { .. } = self.workload {
            if self.workers != [1] {
                return err(
                    "workload 'coalesce_burst' requires \"workers\": [1] — coalescing is \
                     only deterministic when a single pinned worker drains the queue",
                );
            }
            if self.fabric.reconf_tiles < 2 {
                return err(
                    "workload 'coalesce_burst' requires 'fabric.reconf_tiles' >= 2 \
                     (one tile pins the worker, the other receives the burst)",
                );
            }
            if !self.catalog.contains(&CatalogKind::Mac)
                || !self.catalog.contains(&CatalogKind::Sort)
            {
                return err(
                    "workload 'coalesce_burst' requires both 'mac' and 'sort' in 'catalog'",
                );
            }
        }
        if let WorkloadSpec::OverloadBurst { .. } = self.workload {
            if self.fabric.reconf_tiles < 2 {
                return err(
                    "workload 'overload_burst' requires 'fabric.reconf_tiles' >= 2 \
                     (one tile pins the worker, the other receives the burst)",
                );
            }
            if !self.catalog.contains(&CatalogKind::Mac)
                || !self.catalog.contains(&CatalogKind::Sort)
            {
                return err(
                    "workload 'overload_burst' requires both 'mac' and 'sort' in 'catalog'",
                );
            }
        }
        if self.regions.defrag && !self.regions.enabled {
            return err(
                "\"regions\": {\"defrag\": true} requires \"enabled\": true — \
                 the defragmenter repacks allocator leases, which only exist \
                 under amorphous floorplanning",
            );
        }
        if let WorkloadSpec::DefragProbe = self.workload {
            if !self.regions.enabled {
                return err(
                    "workload 'defrag_probe' requires \"regions\": {\"enabled\": true} — \
                     the probe exercises the dynamic region allocator",
                );
            }
            if self.regions.window.is_none() {
                return err(
                    "workload 'defrag_probe' requires 'regions.window' (e.g. [1, 12]) — \
                     the packing recipe is calibrated to an 11-column window",
                );
            }
            if self.fabric.reconf_tiles < 7 {
                return err(
                    "workload 'defrag_probe' requires 'fabric.reconf_tiles' >= 7 \
                     (seven 1-column loads pack the window before the wide request)",
                );
            }
            if !self.catalog.contains(&CatalogKind::Mac)
                || !self.catalog.contains(&CatalogKind::Sort)
            {
                return err("workload 'defrag_probe' requires both 'mac' and 'sort' in 'catalog'");
            }
        }
        if let WorkloadSpec::FragmentChurn { .. } = self.workload {
            if !self.regions.enabled {
                return err(
                    "workload 'fragment_churn' requires \"regions\": {\"enabled\": true} — \
                     churn only fragments when admission leases flexible regions",
                );
            }
            if !self.catalog.contains(&CatalogKind::Mac)
                || !self.catalog.contains(&CatalogKind::Sort)
            {
                return err(
                    "workload 'fragment_churn' requires both 'mac' and 'sort' in 'catalog'",
                );
            }
        }
        if (self.worker_faults.panic_rate > 0.0 || self.worker_faults.hang_rate > 0.0)
            && !self.policy.supervised
        {
            return err(
                "'worker_faults' with 'panic_rate' or 'hang_rate' > 0 requires \
                 \"policy\": {\"supervised\": true} — without the supervisor a \
                 crashed or wedged claim is never healed and its request is lost",
            );
        }
        for assertion in &self.assertions {
            match assertion {
                Assertion::OutcomeEqualityAcrossWorkers if self.workers.len() < 2 => {
                    return err(
                        "check 'outcome_equality_across_workers' requires at least two \
                         entries in 'workers' (e.g. [1, 4]) to compare",
                    );
                }
                Assertion::FinalScrubClean
                    if !(self.scrubber.enabled && self.scrubber.final_sweep) =>
                {
                    return err("check 'final_scrub_clean' requires \"scrubber\": \
                         {\"enabled\": true, \"final_sweep\": true}");
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Serializes to the canonical JSON document: every section explicit,
    /// so `parse(serialize(spec)) == spec`.
    pub fn to_json_value(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        let f = JsonValue::Number;
        let s = |v: &str| JsonValue::String(v.to_string());
        let obj = |fields: Vec<(&str, JsonValue)>| {
            JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };

        let workload = match &self.workload {
            WorkloadSpec::Blocking {
                clients,
                ops_per_client,
            } => obj(vec![
                ("kind", s("blocking")),
                ("clients", n(*clients as u64)),
                ("ops_per_client", n(*ops_per_client as u64)),
            ]),
            WorkloadSpec::CoalesceBurst {
                burst,
                pin_sort_len,
            } => obj(vec![
                ("kind", s("coalesce_burst")),
                ("burst", n(*burst as u64)),
                ("pin_sort_len", n(*pin_sort_len as u64)),
            ]),
            WorkloadSpec::OverloadBurst {
                burst,
                pin_sort_len,
            } => obj(vec![
                ("kind", s("overload_burst")),
                ("burst", n(*burst as u64)),
                ("pin_sort_len", n(*pin_sort_len as u64)),
            ]),
            WorkloadSpec::DefragProbe => obj(vec![("kind", s("defrag_probe"))]),
            WorkloadSpec::FragmentChurn { rounds } => obj(vec![
                ("kind", s("fragment_churn")),
                ("rounds", n(*rounds as u64)),
            ]),
        };

        let assertion_json = |a: &Assertion| match a {
            Assertion::StatsConsistent => obj(vec![("check", s("stats_consistent"))]),
            Assertion::NoLostRequests => obj(vec![("check", s("no_lost_requests"))]),
            Assertion::BitIdenticalOutputs => obj(vec![("check", s("bit_identical_outputs"))]),
            Assertion::SameSeedTraceIdentical => {
                obj(vec![("check", s("same_seed_trace_identical"))])
            }
            Assertion::OutcomeEqualityAcrossWorkers => {
                obj(vec![("check", s("outcome_equality_across_workers"))])
            }
            Assertion::FinalScrubClean => obj(vec![("check", s("final_scrub_clean"))]),
            Assertion::StatMin { stat, value } => obj(vec![
                ("check", s("stat_min")),
                ("stat", s(stat)),
                ("value", n(*value)),
            ]),
            Assertion::StatMax { stat, value } => obj(vec![
                ("check", s("stat_max")),
                ("stat", s(stat)),
                ("value", n(*value)),
            ]),
            Assertion::StatEq { stat, value } => obj(vec![
                ("check", s("stat_eq")),
                ("stat", s(stat)),
                ("value", n(*value)),
            ]),
            Assertion::TraceContains { event } => {
                obj(vec![("check", s("trace_contains")), ("event", s(event))])
            }
            Assertion::TraceAbsent { event } => {
                obj(vec![("check", s("trace_absent")), ("event", s(event))])
            }
            Assertion::MakespanMax { value } => {
                obj(vec![("check", s("makespan_max")), ("value", n(*value))])
            }
            Assertion::DeadlineMissMax { value } => obj(vec![
                ("check", s("deadline_miss_max")),
                ("value", n(*value)),
            ]),
            Assertion::ShedRateMax { percent } => obj(vec![
                ("check", s("shed_rate_max")),
                ("percent", n(*percent)),
            ]),
            Assertion::NoOrphanedTickets => obj(vec![("check", s("no_orphaned_tickets"))]),
        };

        obj(vec![
            ("name", s(&self.name)),
            ("description", s(&self.description)),
            (
                "fabric",
                obj(vec![
                    ("soc_name", s(&self.fabric.soc_name)),
                    ("reconf_tiles", n(self.fabric.reconf_tiles as u64)),
                ]),
            ),
            (
                "catalog",
                JsonValue::Array(self.catalog.iter().map(|k| s(k.token())).collect()),
            ),
            (
                "seeds",
                obj(vec![
                    ("start", n(self.seeds.start)),
                    ("count", n(self.seeds.count)),
                ]),
            ),
            (
                "workers",
                JsonValue::Array(self.workers.iter().map(|&w| n(w as u64)).collect()),
            ),
            ("cache_capacity", n(self.cache_capacity as u64)),
            (
                "faults",
                obj(vec![
                    ("icap_flip_rate", f(self.faults.icap_flip_rate)),
                    ("dfxc_stall_rate", f(self.faults.dfxc_stall_rate)),
                    (
                        "dfxc_stall_max_cycles",
                        n(self.faults.dfxc_stall_max_cycles),
                    ),
                    ("registry_miss_rate", f(self.faults.registry_miss_rate)),
                    ("decoupler_delay_rate", f(self.faults.decoupler_delay_rate)),
                    (
                        "decoupler_delay_max_cycles",
                        n(self.faults.decoupler_delay_max_cycles),
                    ),
                    ("seu_per_mcycle", f(self.faults.seu_per_mcycle)),
                    ("seu_double_bit_rate", f(self.faults.seu_double_bit_rate)),
                ]),
            ),
            (
                "worker_faults",
                obj(vec![
                    ("panic_rate", f(self.worker_faults.panic_rate)),
                    ("hang_rate", f(self.worker_faults.hang_rate)),
                    ("stall_rate", f(self.worker_faults.stall_rate)),
                    ("stall_max_micros", n(self.worker_faults.stall_max_micros)),
                    ("max_panics", n(self.worker_faults.max_panics)),
                    ("max_hangs", n(self.worker_faults.max_hangs)),
                ]),
            ),
            (
                "policy",
                obj(vec![
                    ("max_retries", n(u64::from(self.policy.max_retries))),
                    ("backoff_cycles", n(self.policy.backoff_cycles)),
                    ("backoff_multiplier", n(self.policy.backoff_multiplier)),
                    (
                        "quarantine_after",
                        n(u64::from(self.policy.quarantine_after)),
                    ),
                    ("cpu_fallback", JsonValue::Bool(self.policy.cpu_fallback)),
                    ("deadline_cycles", n(self.policy.deadline_cycles)),
                    ("queue_capacity", n(self.policy.queue_capacity)),
                    ("overload", s(overload_token(self.policy.overload))),
                    ("breaker", JsonValue::Bool(self.policy.breaker)),
                    ("supervised", JsonValue::Bool(self.policy.supervised)),
                    ("restart_budget", n(u64::from(self.policy.restart_budget))),
                ]),
            ),
            (
                "scrubber",
                obj(vec![
                    ("enabled", JsonValue::Bool(self.scrubber.enabled)),
                    ("sweep_every_ops", n(self.scrubber.sweep_every_ops)),
                    ("final_sweep", JsonValue::Bool(self.scrubber.final_sweep)),
                ]),
            ),
            ("regions", {
                let mut fields = vec![
                    ("enabled", JsonValue::Bool(self.regions.enabled)),
                    ("policy", s(fit_token(self.regions.policy))),
                ];
                if let Some((lo, hi)) = self.regions.window {
                    fields.push(("window", JsonValue::Array(vec![n(lo as u64), n(hi as u64)])));
                }
                fields.push(("defrag", JsonValue::Bool(self.regions.defrag)));
                obj(fields)
            }),
            ("workload", workload),
            (
                "assertions",
                JsonValue::Array(self.assertions.iter().map(assertion_json).collect()),
            ),
        ])
    }

    /// Serializes to pretty-printed canonical JSON.
    pub fn serialize(&self) -> String {
        self.to_json_value().pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{
            "name": "smoke",
            "fabric": {"soc_name": "smoke", "reconf_tiles": 2},
            "catalog": ["mac", "sort"],
            "seeds": {"count": 2},
            "workload": {"kind": "blocking", "clients": 2, "ops_per_client": 3},
            "assertions": [{"check": "stats_consistent"}]
        }"#
        .to_string()
    }

    #[test]
    fn minimal_document_fills_defaults() {
        let spec = ScenarioSpec::parse(&minimal()).unwrap();
        assert_eq!(spec.seeds, SeedSpec { start: 0, count: 2 });
        assert_eq!(spec.workers, vec![1]);
        assert_eq!(spec.cache_capacity, 0);
        assert_eq!(spec.faults, FaultConfig::default());
        assert_eq!(spec.policy, RecoveryPolicy::default());
        assert!(!spec.scrubber.enabled);
    }

    #[test]
    fn regions_section_parses_and_roundtrips() {
        let doc = minimal().replace(
            "\"assertions\"",
            r#""regions": {"enabled": true, "policy": "best_fit",
                          "window": [1, 12], "defrag": true},
            "assertions""#,
        );
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert!(spec.regions.enabled);
        assert_eq!(spec.regions.policy, FitPolicy::BestFit);
        assert_eq!(spec.regions.window, Some((1, 12)));
        assert!(spec.regions.defrag);
        let round = ScenarioSpec::parse(&spec.serialize()).unwrap();
        assert_eq!(spec, round);
    }

    #[test]
    fn defrag_workloads_parse_with_their_envelope() {
        let doc = minimal()
            .replace("\"reconf_tiles\": 2", "\"reconf_tiles\": 7")
            .replace(
                "\"assertions\"",
                "\"regions\": {\"enabled\": true, \"window\": [1, 12], \
                 \"defrag\": true}, \"assertions\"",
            )
            .replace(
                "{\"kind\": \"blocking\", \"clients\": 2, \"ops_per_client\": 3}",
                "{\"kind\": \"defrag_probe\"}",
            );
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert_eq!(spec.workload, WorkloadSpec::DefragProbe);
        let churn = doc.replace(
            "{\"kind\": \"defrag_probe\"}",
            "{\"kind\": \"fragment_churn\", \"rounds\": 6}",
        );
        let spec = ScenarioSpec::parse(&churn).unwrap();
        assert_eq!(spec.workload, WorkloadSpec::FragmentChurn { rounds: 6 });
        let round = ScenarioSpec::parse(&spec.serialize()).unwrap();
        assert_eq!(spec, round);
    }

    #[test]
    fn canonical_serialization_roundtrips() {
        let spec = ScenarioSpec::parse(&minimal()).unwrap();
        let round = ScenarioSpec::parse(&spec.serialize()).unwrap();
        assert_eq!(spec, round);
    }

    #[test]
    fn unknown_top_level_key_is_named() {
        let bad = minimal().replace("\"name\": \"smoke\"", "\"nam\": \"smoke\", \"name\": \"x\"");
        let e = ScenarioSpec::parse(&bad).unwrap_err();
        assert!(e.0.contains("unknown key 'nam'"), "{e}");
        assert!(e.0.contains("expected one of"), "{e}");
    }

    #[test]
    fn uniform_rate_seeds_every_knob_and_overrides_apply() {
        let doc = minimal().replace(
            "\"assertions\"",
            "\"faults\": {\"uniform_rate\": 0.2, \"registry_miss_rate\": 0.5}, \"assertions\"",
        );
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert_eq!(spec.faults.icap_flip_rate, 0.2);
        assert_eq!(spec.faults.dfxc_stall_rate, 0.2);
        assert_eq!(spec.faults.registry_miss_rate, 0.5);
        assert_eq!(spec.faults.dfxc_stall_max_cycles, 256);
    }

    #[test]
    fn out_of_range_rate_is_actionable() {
        let doc = minimal().replace(
            "\"assertions\"",
            "\"faults\": {\"icap_flip_rate\": 1.5}, \"assertions\"",
        );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("between 0 and 1"), "{e}");
        assert!(e.0.contains("icap_flip_rate"), "{e}");
    }

    #[test]
    fn worker_equality_needs_two_counts() {
        let doc = minimal().replace(
            "{\"check\": \"stats_consistent\"}",
            "{\"check\": \"outcome_equality_across_workers\"}",
        );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("at least two"), "{e}");
    }

    #[test]
    fn unknown_stat_lists_the_valid_keys() {
        let doc = minimal().replace(
            "{\"check\": \"stats_consistent\"}",
            "{\"check\": \"stat_min\", \"stat\": \"retrys\", \"value\": 1}",
        );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("unknown stat 'retrys'"), "{e}");
        assert!(e.0.contains("retries"), "{e}");
    }

    #[test]
    fn unknown_trace_event_lists_the_valid_names() {
        for check in ["trace_contains", "trace_absent"] {
            let doc = minimal().replace(
                "{\"check\": \"stats_consistent\"}",
                &format!("{{\"check\": \"{check}\", \"event\": \"cpu.falback\"}}"),
            );
            let e = ScenarioSpec::parse(&doc).unwrap_err();
            assert!(e.0.contains("unknown trace event 'cpu.falback'"), "{e}");
            assert!(e.0.contains("cpu.fallback"), "{e}");
        }
    }

    #[test]
    fn supervision_policy_and_worker_faults_parse_and_roundtrip() {
        let doc = minimal().replace(
            "\"assertions\": [{\"check\": \"stats_consistent\"}]",
            r#""worker_faults": {"panic_rate": 0.1, "hang_rate": 0.05,
                               "max_panics": 3, "max_hangs": 2},
            "policy": {"supervised": true, "restart_budget": 6,
                       "deadline_cycles": 50000, "queue_capacity": 8,
                       "overload": "shed_oldest", "breaker": true},
            "assertions": [
                {"check": "no_orphaned_tickets"},
                {"check": "deadline_miss_max", "value": 4},
                {"check": "shed_rate_max", "percent": 25}
            ]"#,
        );
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert!(spec.policy.supervised);
        assert_eq!(spec.policy.restart_budget, 6);
        assert_eq!(spec.policy.deadline_cycles, 50_000);
        assert_eq!(spec.policy.queue_capacity, 8);
        assert_eq!(spec.policy.overload, OverloadPolicy::ShedOldest);
        assert!(spec.policy.breaker);
        assert_eq!(spec.worker_faults.panic_rate, 0.1);
        assert_eq!(spec.worker_faults.max_hangs, 2);
        assert_eq!(
            spec.assertions,
            vec![
                Assertion::NoOrphanedTickets,
                Assertion::DeadlineMissMax { value: 4 },
                Assertion::ShedRateMax { percent: 25 },
            ]
        );
        let round = ScenarioSpec::parse(&spec.serialize()).unwrap();
        assert_eq!(spec, round);
    }

    #[test]
    fn unknown_overload_token_names_the_accepted_values() {
        let doc = minimal().replace(
            "\"assertions\"",
            "\"policy\": {\"overload\": \"drop_random\"}, \"assertions\"",
        );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("drop_random"), "{e}");
        assert!(e.0.contains("reject_new, shed_oldest"), "{e}");
    }

    #[test]
    fn worker_faults_without_supervision_are_rejected() {
        let doc = minimal().replace(
            "\"assertions\"",
            "\"worker_faults\": {\"panic_rate\": 0.2, \"max_panics\": 1}, \"assertions\"",
        );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("supervised"), "{e}");
    }

    #[test]
    fn shed_rate_percent_above_100_is_rejected() {
        let doc = minimal().replace(
            "{\"check\": \"stats_consistent\"}",
            "{\"check\": \"shed_rate_max\", \"percent\": 101}",
        );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("between 0 and 100"), "{e}");
    }

    #[test]
    fn overload_burst_requires_two_tiles() {
        let doc = minimal()
            .replace("\"reconf_tiles\": 2", "\"reconf_tiles\": 1")
            .replace(
                "{\"kind\": \"blocking\", \"clients\": 2, \"ops_per_client\": 3}",
                "{\"kind\": \"overload_burst\", \"burst\": 8, \"pin_sort_len\": 4000}",
            );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("reconf_tiles"), "{e}");
    }

    #[test]
    fn too_many_tiles_is_rejected_with_the_bound() {
        let doc = minimal().replace("\"reconf_tiles\": 2", "\"reconf_tiles\": 65");
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("between 1 and 64"), "{e}");
    }

    #[test]
    fn large_fabrics_up_to_64_tiles_parse() {
        let doc = minimal().replace("\"reconf_tiles\": 2", "\"reconf_tiles\": 64");
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert_eq!(spec.fabric.reconf_tiles, 64);
    }

    #[test]
    fn zero_tiles_is_rejected_with_the_bound() {
        let doc = minimal().replace("\"reconf_tiles\": 2", "\"reconf_tiles\": 0");
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("between 1 and 64"), "{e}");
    }
}
