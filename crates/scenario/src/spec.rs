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
//! The codec is declared once. Every section key, enum token, workload
//! kind and assertion check is written in one `codec!` invocation below,
//! next to its value kind (which fixes its JSON form), its default and
//! its bound. The parser, the canonical serializer, the unknown-key check
//! and every "expected one of" message are generated from those
//! declarations, so a key cannot be parsed without being serialized and
//! listed. What is validation rather than codec is written by hand: the
//! cross-field rules of `validate()`, the name charset, the
//! `faults.uniform_rate` shorthand, the duplicate-free `catalog` and
//! `workers` arrays and the `regions.window` pair check.
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
use presp_runtime::WorkerFaultConfig;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds};

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
    /// The deterministic coalescing probe: while the workers' claims are
    /// held, `burst` identical reconfigurations of the first tile queue —
    /// all but the first must tail-fold. Requires `workers == [1]` and
    /// 'mac' in the catalog.
    CoalesceBurst {
        /// Identical reconfiguration requests issued while claims are
        /// held.
        burst: usize,
    },
    /// The open-loop overload probe: while the workers' claims are held,
    /// `burst` *distinct* MAC executions (so nothing coalesces) are fired
    /// at the first tile without awaiting; the admission controller's
    /// verdicts (`Overloaded`, `DeadlineExceeded`) are then collected.
    /// Requires 'mac' in the catalog.
    OverloadBurst {
        /// Distinct execute requests fired at the first tile while claims
        /// are held.
        burst: usize,
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

// ---- the codec -------------------------------------------------------------

/// Where a value sits in a document: the path of the object that holds
/// it (empty at the top level, else e.g. `policy` or `assertions[2]`)
/// and its key in that object.
#[derive(Clone, Copy)]
struct At<'a> {
    ctx: &'a str,
    key: &'a str,
}

/// Names the object at path `ctx` in messages.
fn holder(ctx: &str) -> String {
    if ctx.is_empty() {
        "the top-level scenario object".to_string()
    } else {
        format!("'{ctx}'")
    }
}

impl At<'_> {
    /// The value's own path, e.g. `policy.overload`; for an object, the
    /// context of its keys.
    fn path(self) -> String {
        if self.ctx.is_empty() {
            self.key.to_string()
        } else {
            format!("{}.{}", self.ctx, self.key)
        }
    }

    /// The value has the wrong shape: `'key' in <holder> <what>`.
    fn error(self, what: &str) -> ScenarioError {
        ScenarioError(format!("'{}' in {} {what}", self.key, holder(self.ctx)))
    }

    /// A token outside `accepted`, which the message lists.
    fn unknown(self, what: &str, got: &str, accepted: &[&str]) -> ScenarioError {
        ScenarioError(format!(
            "unknown {what} '{got}' in '{}' (expected one of: {})",
            self.path(),
            accepted.join(", ")
        ))
    }

    /// A value outside its bound, which the message names.
    fn out_of_bound<T: fmt::Display>(self, got: T, bound: &impl RangeBounds<T>) -> ScenarioError {
        let limit = match (bound.start_bound(), bound.end_bound()) {
            (Bound::Included(lo), Bound::Included(hi)) => format!("between {lo} and {hi}"),
            (Bound::Included(lo), _) => format!("at least {lo}"),
            (_, Bound::Included(hi)) => format!("at most {hi}"),
            _ => "within its bound".to_string(),
        };
        ScenarioError(format!("'{}' must be {limit} (got {got})", self.path()))
    }
}

/// Checks a value against its declared bound.
fn within<T: PartialOrd + fmt::Display>(
    v: T,
    bound: impl RangeBounds<T>,
    at: At,
) -> Result<T, ScenarioError> {
    if bound.contains(&v) {
        Ok(v)
    } else {
        Err(at.out_of_bound(v, &bound))
    }
}

/// Checks that `v` is an object whose keys are all in `keys`.
fn check_keys(v: &JsonValue, ctx: &str, keys: &[&str]) -> Result<(), ScenarioError> {
    let JsonValue::Object(fields) = v else {
        return err(format!("{} must be a JSON object", holder(ctx)));
    };
    match fields.iter().find(|(key, _)| !keys.contains(&key.as_str())) {
        Some((key, _)) => err(format!(
            "unknown key '{key}' in {} (expected one of: {})",
            holder(ctx),
            keys.join(", ")
        )),
        None => Ok(()),
    }
}

/// Reads the value of kind `K` under `at.key` of `obj`: `default` when
/// the key is absent, an error when it is absent and `default` is `None`.
fn field<K: Kind>(
    obj: &JsonValue,
    at: At,
    default: Option<K::Value>,
) -> Result<K::Value, ScenarioError> {
    match obj.get(at.key) {
        Some(v) => K::read(v, at),
        None => default.ok_or_else(|| {
            ScenarioError(format!(
                "missing required key '{}' in {}",
                at.key,
                holder(at.ctx)
            ))
        }),
    }
}

/// An object from `(key, value)` pairs; a `Null` value is an absent
/// optional one, and its key is omitted.
fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    json::obj(
        fields
            .into_iter()
            .filter(|(_, v)| !matches!(v, JsonValue::Null))
            .collect(),
    )
}

/// How one kind of value is read from and written to a scenario
/// document. A kind is the Rust type the value is stored as, or a marker
/// type where that Rust type has a narrower JSON form (a probability is
/// an `f64` in `[0, 1]`).
trait Kind {
    /// The type the value is stored as.
    type Value;
    /// Reads the value present at `at`.
    fn read(v: &JsonValue, at: At) -> Result<Self::Value, ScenarioError>;
    /// The canonical JSON form.
    fn write(v: &Self::Value) -> JsonValue;
}

impl Kind for String {
    type Value = String;
    fn read(v: &JsonValue, at: At) -> Result<String, ScenarioError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| at.error("must be a string"))
    }
    fn write(v: &String) -> JsonValue {
        json::string(v)
    }
}

impl Kind for bool {
    type Value = bool;
    fn read(v: &JsonValue, at: At) -> Result<bool, ScenarioError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(at.error("must be true or false")),
        }
    }
    fn write(v: &bool) -> JsonValue {
        JsonValue::Bool(*v)
    }
}

impl Kind for usize {
    type Value = usize;
    fn read(v: &JsonValue, at: At) -> Result<usize, ScenarioError> {
        v.as_usize()
            .ok_or_else(|| at.error("must be a non-negative integer"))
    }
    fn write(v: &usize) -> JsonValue {
        json::int(*v as u64)
    }
}

impl Kind for u64 {
    type Value = u64;
    fn read(v: &JsonValue, at: At) -> Result<u64, ScenarioError> {
        usize::read(v, at).map(|n| n as u64)
    }
    fn write(v: &u64) -> JsonValue {
        json::int(*v)
    }
}

impl Kind for u32 {
    type Value = u32;
    fn read(v: &JsonValue, at: At) -> Result<u32, ScenarioError> {
        let n = u64::read(v, at)?;
        u32::try_from(n).map_err(|_| at.out_of_bound(n, &(..=u64::from(u32::MAX))))
    }
    fn write(v: &u32) -> JsonValue {
        json::int(u64::from(*v))
    }
}

impl Kind for f64 {
    type Value = f64;
    fn read(v: &JsonValue, at: At) -> Result<f64, ScenarioError> {
        match v {
            JsonValue::Number(n) => Ok(*n),
            _ => Err(at.error("must be a number")),
        }
    }
    fn write(v: &f64) -> JsonValue {
        JsonValue::Number(*v)
    }
}

/// A probability: an `f64` in `[0, 1]`.
struct Probability;

impl Kind for Probability {
    type Value = f64;
    fn read(v: &JsonValue, at: At) -> Result<f64, ScenarioError> {
        let n = f64::read(v, at)?;
        if (0.0..=1.0).contains(&n) {
            Ok(n)
        } else {
            Err(at.error(&format!("must be a probability between 0 and 1 (got {n})")))
        }
    }
    fn write(v: &f64) -> JsonValue {
        f64::write(v)
    }
}

/// The scenario name: a non-empty identifier of `[a-zA-Z0-9_]`, since
/// it names the JUnit test case and the trace file.
struct Name;

impl Kind for Name {
    type Value = String;
    fn read(v: &JsonValue, at: At) -> Result<String, ScenarioError> {
        let name = String::read(v, at)?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return err(format!(
                "'{}' must be a non-empty identifier of [a-zA-Z0-9_] (got '{name}')",
                at.path()
            ));
        }
        Ok(name)
    }
    fn write(v: &String) -> JsonValue {
        String::write(v)
    }
}

/// A counter key from [`STATS`].
struct StatKey;

impl Kind for StatKey {
    type Value = String;
    fn read(v: &JsonValue, at: At) -> Result<String, ScenarioError> {
        let stat = String::read(v, at)?;
        if STATS.iter().any(|&(key, _)| key == stat) {
            return Ok(stat);
        }
        let keys: Vec<&str> = STATS.iter().map(|&(key, _)| key).collect();
        Err(at.unknown("stat", &stat, &keys))
    }
    fn write(v: &String) -> JsonValue {
        String::write(v)
    }
}

/// A trace event name from [`TraceEvent::NAMES`].
struct EventName;

impl Kind for EventName {
    type Value = String;
    fn read(v: &JsonValue, at: At) -> Result<String, ScenarioError> {
        let event = String::read(v, at)?;
        if TraceEvent::NAMES.contains(&event.as_str()) {
            Ok(event)
        } else {
            Err(at.unknown("trace event", &event, TraceEvent::NAMES))
        }
    }
    fn write(v: &String) -> JsonValue {
        String::write(v)
    }
}

/// A column window `[lo, hi)` with `lo < hi`; `None` is written by
/// omitting the key.
struct Window;

impl Kind for Window {
    type Value = Option<(u32, u32)>;
    fn read(v: &JsonValue, at: At) -> Result<Option<(u32, u32)>, ScenarioError> {
        let bad = || {
            err(format!(
                "'{}' must be a two-element array [lo, hi] of column indices with lo < hi",
                at.path()
            ))
        };
        let Some([lo, hi]) = v.as_array() else {
            return bad();
        };
        let (lo, hi) = (u32::read(lo, at)?, u32::read(hi, at)?);
        if lo < hi {
            Ok(Some((lo, hi)))
        } else {
            bad()
        }
    }
    fn write(v: &Option<(u32, u32)>) -> JsonValue {
        match v {
            Some((lo, hi)) => JsonValue::Array(vec![u32::write(lo), u32::write(hi)]),
            None => JsonValue::Null,
        }
    }
}

/// A non-empty array of distinct `K` values.
struct Set<K>(PhantomData<K>);

impl<K: Kind> Kind for Set<K>
where
    K::Value: PartialEq,
{
    type Value = Vec<K::Value>;
    fn read(v: &JsonValue, at: At) -> Result<Vec<K::Value>, ScenarioError> {
        let items = match v.as_array() {
            Some(items) if !items.is_empty() => items,
            _ => return Err(at.error("must be a non-empty array")),
        };
        let mut values = Vec::with_capacity(items.len());
        for item in items {
            let value = K::read(item, at)?;
            if values.contains(&value) {
                return err(format!(
                    "duplicate entry {} in '{}'",
                    item.pretty(),
                    at.path()
                ));
            }
            values.push(value);
        }
        Ok(values)
    }
    fn write(v: &Vec<K::Value>) -> JsonValue {
        JsonValue::Array(v.iter().map(K::write).collect())
    }
}

/// A worker-pool size, `1..=64`.
struct WorkerCount;

impl Kind for WorkerCount {
    type Value = usize;
    fn read(v: &JsonValue, at: At) -> Result<usize, ScenarioError> {
        within(usize::read(v, at)?, 1..=64, at)
    }
    fn write(v: &usize) -> JsonValue {
        usize::write(v)
    }
}

/// The `assertions` array: at least one check, each read in its own
/// context `assertions[i]`.
struct Checks;

impl Kind for Checks {
    type Value = Vec<Assertion>;
    fn read(v: &JsonValue, at: At) -> Result<Vec<Assertion>, ScenarioError> {
        let Some(items) = v.as_array() else {
            return Err(at.error("must be an array of checks"));
        };
        if items.is_empty() {
            return Err(at.error(
                "must contain at least one check — a scenario without assertions tests nothing",
            ));
        }
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let key = format!("{}[{i}]", at.key);
                Assertion::read(
                    item,
                    At {
                        ctx: at.ctx,
                        key: &key,
                    },
                )
            })
            .collect()
    }
    fn write(v: &Vec<Assertion>) -> JsonValue {
        JsonValue::Array(v.iter().map(Assertion::write).collect())
    }
}

/// The `faults.uniform_rate` shorthand: it seeds every probability knob
/// ([`FaultConfig::uniform`]), and the explicit keys override it.
const UNIFORM_RATE: &str = "uniform_rate";

fn fault_base(faults: &JsonValue, ctx: &str) -> Result<FaultConfig, ScenarioError> {
    match faults.get(UNIFORM_RATE) {
        Some(v) => Probability::read(
            v,
            At {
                ctx,
                key: UNIFORM_RATE,
            },
        )
        .map(FaultConfig::uniform),
        None => Ok(FaultConfig::default()),
    }
}

/// The base of a section whose absent keys keep the type's defaults.
fn defaults<T: Default>(_: &JsonValue, _: &str) -> Result<T, ScenarioError> {
    Ok(T::default())
}

/// Declares the codec of one type: a [`Kind`] impl generated from one
/// list of keys or tokens, in canonical order. A key is a field name of
/// the type, followed by its kind and an optional `[bound]`.
///
/// - `tokens T "what" { Variant = "token", .. }`: an enum written as
///   one of its tokens.
/// - `section T { key: K [bound] = default, .. }`: an object whose keys
///   are the fields of `T`. A key without a default is required.
/// - `section T [extra keys] from base { key: K [bound], .. }`: the
///   same, but every absent key keeps its value in `base(object, ctx)`,
///   which may read the extra keys.
/// - `tagged T by tag "what" { Variant = "token" { key: K [bound], .. }, .. }`:
///   an enum written as an object whose `tag` key names the variant;
///   `T` also gets `pub fn tag(&self)`, which returns that token.
macro_rules! codec {
    (@default) => {
        None
    };
    (@default $default:expr) => {
        Some($default)
    };
    (@field $obj:ident, $ctx:ident, $key:ident: $K:ty, [], $default:expr) => {
        field::<$K>($obj, At { ctx: &$ctx, key: stringify!($key) }, $default)?
    };
    (@field $obj:ident, $ctx:ident, $key:ident: $K:ty, [$($bound:tt)+], $default:expr) => {{
        let at = At { ctx: &$ctx, key: stringify!($key) };
        within(field::<$K>($obj, at, $default)?, $($bound)+, at)?
    }};
    (tokens $T:ident $what:literal { $($V:ident = $token:literal,)* }) => {
        impl Kind for $T {
            type Value = $T;
            fn read(v: &JsonValue, at: At) -> Result<$T, ScenarioError> {
                match String::read(v, at)?.as_str() {
                    $($token => Ok($T::$V),)*
                    other => Err(at.unknown($what, other, &[$($token),*])),
                }
            }
            fn write(v: &$T) -> JsonValue {
                json::string(match v {
                    $($T::$V => $token,)*
                })
            }
        }
    };
    (section $T:ident { $($key:ident: $K:ty $([$($bound:tt)+])? $(= $default:expr)?,)* }) => {
        impl Kind for $T {
            type Value = $T;
            fn read(v: &JsonValue, at: At) -> Result<$T, ScenarioError> {
                let ctx = at.path();
                check_keys(v, &ctx, &[$(stringify!($key)),*])?;
                Ok($T {
                    $($key: codec!(
                        @field v, ctx, $key: $K, [$($($bound)+)?], codec!(@default $($default)?)
                    ),)*
                })
            }
            fn write(v: &$T) -> JsonValue {
                object(vec![$((stringify!($key), <$K as Kind>::write(&v.$key))),*])
            }
        }
    };
    (section $T:ident $([$($extra:expr),*])? from $base:path {
        $($key:ident: $K:ty $([$($bound:tt)+])?,)*
    }) => {
        impl Kind for $T {
            type Value = $T;
            fn read(v: &JsonValue, at: At) -> Result<$T, ScenarioError> {
                let ctx = at.path();
                check_keys(v, &ctx, &[$($($extra,)*)? $(stringify!($key)),*])?;
                let base: $T = $base(v, &ctx)?;
                Ok($T {
                    $($key: codec!(@field v, ctx, $key: $K, [$($($bound)+)?], Some(base.$key)),)*
                })
            }
            fn write(v: &$T) -> JsonValue {
                object(vec![$((stringify!($key), <$K as Kind>::write(&v.$key))),*])
            }
        }
    };
    (tagged $T:ident by $tag:ident $what:literal {
        $($V:ident = $token:literal { $($key:ident: $K:ty $([$($bound:tt)+])?),* },)*
    }) => {
        impl $T {
            #[doc = concat!("The `", stringify!($tag), "` token that names this ", $what, ".")]
            pub(crate) fn $tag(&self) -> &'static str {
                match self {
                    $($T::$V { .. } => $token,)*
                }
            }
        }

        impl Kind for $T {
            type Value = $T;
            fn read(v: &JsonValue, at: At) -> Result<$T, ScenarioError> {
                let ctx = at.path();
                let tag_at = At { ctx: &ctx, key: stringify!($tag) };
                match field::<String>(v, tag_at, None)?.as_str() {
                    $($token => {
                        check_keys(v, &ctx, &[stringify!($tag), $(stringify!($key)),*])?;
                        Ok($T::$V {
                            $($key: codec!(@field v, ctx, $key: $K, [$($($bound)+)?], None),)*
                        })
                    })*
                    other => Err(tag_at.unknown($what, other, &[$($token),*])),
                }
            }
            fn write(v: &$T) -> JsonValue {
                match v {
                    $($T::$V { $($key),* } => object(vec![
                        (stringify!($tag), json::string(v.$tag())),
                        $((stringify!($key), <$K as Kind>::write($key)),)*
                    ]),)*
                }
            }
        }
    };
}

// ---- the declaration: every key, token, workload kind and check ----------

codec! {
    section ScenarioSpec {
        name: Name,
        description: String = String::new(),
        fabric: FabricSpec,
        catalog: Set<CatalogKind>,
        seeds: SeedSpec,
        workers: Set<WorkerCount> = vec![1],
        cache_capacity: usize = 0,
        faults: FaultConfig = FaultConfig::default(),
        worker_faults: WorkerFaultConfig = WorkerFaultConfig::default(),
        policy: RecoveryPolicy = RecoveryPolicy::default(),
        scrubber: ScrubberSpec = ScrubberSpec::default(),
        regions: RegionsSpec = RegionsSpec::default(),
        workload: WorkloadSpec,
        assertions: Checks,
    }
}

codec! {
    section FabricSpec {
        soc_name: String,
        reconf_tiles: usize [1..=64],
    }
}

codec! {
    tokens CatalogKind "accelerator kind" {
        Mac = "mac",
        Sort = "sort",
    }
}

codec! {
    section SeedSpec {
        start: u64 = 0,
        count: u64 [1..=10_000],
    }
}

codec! {
    section FaultConfig [UNIFORM_RATE] from fault_base {
        icap_flip_rate: Probability,
        dfxc_stall_rate: Probability,
        dfxc_stall_max_cycles: u64,
        registry_miss_rate: Probability,
        decoupler_delay_rate: Probability,
        decoupler_delay_max_cycles: u64,
        seu_per_mcycle: f64 [0.0..],
        seu_double_bit_rate: Probability,
    }
}

codec! {
    section WorkerFaultConfig from defaults {
        panic_rate: Probability,
        hang_rate: Probability,
        stall_rate: Probability,
        stall_max_micros: u64,
        max_panics: u64,
        max_hangs: u64,
    }
}

codec! {
    section RecoveryPolicy from defaults {
        max_retries: u32,
        backoff_cycles: u64,
        backoff_multiplier: u64,
        quarantine_after: u32,
        cpu_fallback: bool,
        deadline_cycles: u64,
        queue_capacity: u64,
        overload: OverloadPolicy,
        breaker: bool,
        supervised: bool,
        restart_budget: u32,
    }
}

codec! {
    tokens OverloadPolicy "overload policy" {
        RejectNew = "reject_new",
        ShedOldest = "shed_oldest",
    }
}

codec! {
    section ScrubberSpec from defaults {
        enabled: bool,
        sweep_every_ops: u64,
        final_sweep: bool,
    }
}

codec! {
    section RegionsSpec from defaults {
        enabled: bool,
        policy: FitPolicy,
        window: Window,
        defrag: bool,
    }
}

codec! {
    tokens FitPolicy "fit policy" {
        FirstFit = "first_fit",
        BestFit = "best_fit",
    }
}

codec! {
    tagged WorkloadSpec by kind "workload kind" {
        Blocking = "blocking" { clients: usize [1..], ops_per_client: usize [1..] },
        CoalesceBurst = "coalesce_burst" { burst: usize [2..] },
        OverloadBurst = "overload_burst" { burst: usize [1..] },
        DefragProbe = "defrag_probe" {},
        FragmentChurn = "fragment_churn" { rounds: usize [1..=1000] },
    }
}

codec! {
    tagged Assertion by check "check" {
        StatsConsistent = "stats_consistent" {},
        NoLostRequests = "no_lost_requests" {},
        BitIdenticalOutputs = "bit_identical_outputs" {},
        SameSeedTraceIdentical = "same_seed_trace_identical" {},
        OutcomeEqualityAcrossWorkers = "outcome_equality_across_workers" {},
        FinalScrubClean = "final_scrub_clean" {},
        StatMin = "stat_min" { stat: StatKey, value: u64 },
        StatMax = "stat_max" { stat: StatKey, value: u64 },
        StatEq = "stat_eq" { stat: StatKey, value: u64 },
        TraceContains = "trace_contains" { event: EventName },
        TraceAbsent = "trace_absent" { event: EventName },
        MakespanMax = "makespan_max" { value: u64 },
        DeadlineMissMax = "deadline_miss_max" { value: u64 },
        ShedRateMax = "shed_rate_max" { percent: u64 [0..=100] },
        NoOrphanedTickets = "no_orphaned_tickets" {},
    }
}

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
    pub(crate) fn from_json_value(doc: &JsonValue) -> Result<ScenarioSpec, ScenarioError> {
        let spec = ScenarioSpec::read(doc, At { ctx: "", key: "" })?;
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field validation: combinations the engine cannot execute.
    fn validate(&self) -> Result<(), ScenarioError> {
        if let WorkloadSpec::CoalesceBurst { .. } = self.workload {
            if self.workers != [1] {
                return err(
                    "workload 'coalesce_burst' requires \"workers\": [1] — coalescing is \
                     only deterministic when a single worker drains the queue",
                );
            }
            if !self.catalog.contains(&CatalogKind::Mac) {
                return err("workload 'coalesce_burst' requires 'mac' in 'catalog'");
            }
        }
        if let WorkloadSpec::OverloadBurst { .. } = self.workload {
            if !self.catalog.contains(&CatalogKind::Mac) {
                return err("workload 'overload_burst' requires 'mac' in 'catalog'");
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
    pub(crate) fn to_json_value(&self) -> JsonValue {
        ScenarioSpec::write(self)
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
    fn overload_burst_requires_mac_in_the_catalog() {
        let doc = minimal()
            .replace("[\"mac\", \"sort\"]", "[\"sort\"]")
            .replace(
                "{\"kind\": \"blocking\", \"clients\": 2, \"ops_per_client\": 3}",
                "{\"kind\": \"overload_burst\", \"burst\": 8}",
            );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("'mac'"), "{e}");
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

    #[test]
    fn values_above_u32_max_are_rejected_not_truncated() {
        let with = |section: &str| {
            minimal().replace("\"assertions\"", &format!("{section}, \"assertions\""))
        };
        for key in ["max_retries", "quarantine_after", "restart_budget"] {
            let max = ScenarioSpec::parse(&with(&format!("\"policy\": {{\"{key}\": 4294967295}}")));
            assert!(max.is_ok(), "{key} = u32::MAX must parse: {max:?}");
            let doc = with(&format!("\"policy\": {{\"{key}\": 4294967296}}"));
            let e = ScenarioSpec::parse(&doc).unwrap_err();
            assert!(e.0.contains(&format!("'policy.{key}'")), "{e}");
            assert!(e.0.contains("at most 4294967295 (got 4294967296)"), "{e}");
        }
        let doc = with("\"regions\": {\"enabled\": true, \"window\": [4294967297, 4294967300]}");
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(e.0.contains("'regions.window'"), "{e}");
        assert!(e.0.contains("at most 4294967295 (got 4294967297)"), "{e}");
    }
}
