//! The body of `presp bench floorplan`: the amorphous-floorplanning path
//! (the region allocator, bitstream relocation and the online repack),
//! measured as three cells on the host that runs it.
//!
//! * **allocator** — seeded allocate/release churn of mixed-width CLB
//!   regions over the full VC707 column model (143 columns), once per
//!   fit policy. Reports operations/s, the refusal count, and the
//!   external fragmentation plus compaction-plan length the churn
//!   leaves behind. Everything but the rate is deterministic.
//! * **relocation** — relocates a multi-frame partial bitstream between
//!   two same-kind columns back and forth, re-deriving the in-stream CRC
//!   and the storage CRC each hop. Interleaved with the hops, the same
//!   run times [`Bitstream::verify_integrity`] passes over the same
//!   stream. The relocation check divides relocation's per-frame time by
//!   one verification pass's: a host-relative ratio, so its limit
//!   ([`RELOCATION_LIMIT`]) is a constant that means the same on any
//!   machine.
//! * **repack** — the reject-to-admit arc from DESIGN.md §16 driven end
//!   to end through the threaded runtime: pack a 7-tile window, open
//!   non-adjacent holes, get the 3-wide GEMM refused, time one repack
//!   pass, and confirm the retry is admitted.

use crate::render::table;
use presp_accel::AcceleratorKind;
use presp_events::json::{int, num, obj, string, JsonValue};
use presp_floorplan::{FitPolicy, RegionAllocator};
use presp_fpga::bitstream::Bitstream;
use presp_fpga::fabric::{ColumnKind, Device};
use presp_fpga::fault::SplitMix64;
use presp_fpga::part::FpgaPart;
use presp_runtime::error::Error;
use presp_runtime::registry::BitstreamRegistry;
use presp_runtime::threaded::ThreadedManager;
use presp_soc::config::SocConfig;
use presp_soc::sim::Soc;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The relocation check's limit on relocation's per-frame time over one
/// verification pass's. Verification folds the CRC over every word. A hop
/// copies the stream and rewrites its FAR and CRC words; it updates both
/// CRCs from the rewritten words alone, so a hop that re-read the stream
/// through the CRC again would pay about two passes more.
pub const RELOCATION_LIMIT: f64 = 2.5;

/// Seed for the allocator churn (the cell is deterministic op-for-op).
const CHURN_SEED: u64 = 0x0F10_0E0F_10F1_000E;

/// The relocation and verification loops are timed in this many
/// interleaved batches; each side keeps its fastest batch, so a burst of
/// host noise inflates neither.
const RELOCATION_BATCHES: usize = 20;

/// How much work each cell does.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Allocate/release operations per churn cell.
    pub churn_ops: usize,
    /// Relocation hops (each hop rewrites every frame). The same number
    /// of verification passes runs beside them.
    pub reloc_reps: usize,
    /// Minor frames per column in the relocated bitstream.
    pub reloc_frames: u32,
}

/// The workload `presp bench floorplan` runs: under a second in a
/// release build.
pub const FULL: Workload = Workload {
    churn_ops: 200_000,
    reloc_reps: 2_000,
    reloc_frames: 36,
};

/// One fit policy's allocator churn.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnCell {
    pub policy: FitPolicy,
    pub ops: u64,
    pub refusals: u64,
    pub elapsed: Duration,
    pub external_fragmentation: f64,
    pub free_columns: u64,
    pub compaction_moves: u64,
}

impl ChurnCell {
    /// Allocator operations per second of host time.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.elapsed)
    }
}

/// Relocation hops and verification passes over one stream.
#[derive(Debug, Clone, Copy)]
pub struct RelocCell {
    /// Frames in the relocated stream.
    pub frames: u64,
    /// Hops, and verification passes.
    pub reps: u64,
    /// Summed time of every relocation hop.
    pub elapsed: Duration,
    /// The fastest relocation batch's time per frame.
    pub reloc_nanos_per_frame: f64,
    /// The fastest verification batch's time per frame.
    pub verify_nanos_per_frame: f64,
}

impl RelocCell {
    /// Frames relocated per second of host time.
    pub fn frames_per_sec(&self) -> f64 {
        per_sec(self.frames * self.reps, self.elapsed)
    }

    /// Relocation's per-frame time over one verification pass's.
    pub fn ratio(&self) -> f64 {
        self.reloc_nanos_per_frame / self.verify_nanos_per_frame
    }

    /// Whether the ratio is within [`RELOCATION_LIMIT`].
    pub fn passes(&self) -> bool {
        self.ratio() <= RELOCATION_LIMIT
    }
}

/// The timed reject-to-admit repack arc.
#[derive(Debug, Clone, Copy)]
pub struct RepackCell {
    pub repack_micros: u64,
    pub moves: u64,
    pub frames_moved: u64,
    pub oversized_rejected: u64,
    pub repack_admitted: u64,
}

/// The host the figures belong to.
#[derive(Debug, Clone)]
pub struct Host {
    pub available_parallelism: usize,
    pub cpu_model: String,
}

impl Host {
    /// The running host, from `std::thread::available_parallelism` and
    /// the first `model name` in `/proc/cpuinfo` (`unknown` elsewhere).
    pub fn current() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
        }
    }
}

/// Every cell of one `presp bench floorplan` run.
#[derive(Debug, Clone)]
pub struct Report {
    pub host: Host,
    pub workload: Workload,
    pub churn: [ChurnCell; 2],
    pub reloc: RelocCell,
    pub repack: RepackCell,
}

/// Runs the three cells once on `wl`.
pub fn run(wl: &Workload) -> Report {
    let device = FpgaPart::Vc707.device();
    Report {
        host: Host::current(),
        workload: *wl,
        churn: [
            run_churn(&device, FitPolicy::FirstFit, wl.churn_ops),
            run_churn(&device, FitPolicy::BestFit, wl.churn_ops),
        ],
        reloc: run_relocation(&device, wl),
        repack: run_repack(),
    }
}

fn per_sec(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

// ---------------------------------------------------------------------------
// Cell 1: allocator churn.

/// Seeded allocate/release churn: keep up to 24 live leases of width
/// 1–4 CLB columns, releasing a random one whenever the table is full
/// or the coin says so. Refusals (no span fits) count as operations —
/// they are exactly the events the repack pass exists to convert.
fn run_churn(device: &Device, policy: FitPolicy, ops: usize) -> ChurnCell {
    let mut alloc = RegionAllocator::new(device, policy);
    let mut rng = SplitMix64::new(CHURN_SEED);
    let mut live: Vec<u64> = Vec::new();
    let mut refusals = 0u64;
    let start = Instant::now();
    for _ in 0..ops {
        let release = !live.is_empty() && (live.len() >= 24 || rng.next_u64().is_multiple_of(3));
        if release {
            let id = live.swap_remove((rng.next_u64() as usize) % live.len());
            assert!(alloc.release(id), "released a lease the allocator lost");
        } else {
            let width = 1 + (rng.next_u64() % 4) as usize;
            let pattern = vec![ColumnKind::Clb; width];
            match alloc.allocate(&pattern) {
                Some(lease) => live.push(lease.id),
                None => refusals += 1,
            }
        }
    }
    let elapsed = start.elapsed();
    let stats = alloc.stats();
    ChurnCell {
        policy,
        ops: ops as u64,
        refusals,
        elapsed,
        external_fragmentation: stats.external_fragmentation(),
        free_columns: stats.free_columns as u64,
        compaction_moves: alloc.plan_compaction().len() as u64,
    }
}

// ---------------------------------------------------------------------------
// Cell 2: bitstream relocation.

/// Hop a deep bitstream between the fabric's first and last CLB columns,
/// re-deriving both CRCs on every hop (that is what `relocate` does),
/// with as many verification passes over the same stream timed in
/// interleaved batches.
fn run_relocation(device: &Device, wl: &Workload) -> RelocCell {
    let clb = |c: &usize| device.column_kind(*c) == ColumnKind::Clb;
    let first = (0..device.columns())
        .find(clb)
        .expect("the fabric model has CLB columns") as u32;
    let last = (0..device.columns())
        .rfind(clb)
        .expect("the fabric model has CLB columns") as u32;
    assert!(last > first, "need two distinct CLB columns to hop between");
    let delta = (last - first) as i64;
    let mut current = Bitstream::synthetic_partial(device, first..first + 1, wl.reloc_frames)
        .expect("canonical frame address is in range");
    let frames = current.frame_count() as u64;
    let batch = wl.reloc_reps.div_ceil(RELOCATION_BATCHES).max(1);
    let (mut reps, mut elapsed) = (0usize, Duration::ZERO);
    let (mut fastest_reloc, mut fastest_verify) = (Duration::MAX, Duration::MAX);
    while reps < wl.reloc_reps {
        let n = batch.min(wl.reloc_reps - reps);
        let start = Instant::now();
        for rep in reps..reps + n {
            let hop = if rep % 2 == 0 { delta } else { -delta };
            current = current
                .relocate(device, hop)
                .expect("CLB-to-CLB hop relocates");
        }
        let reloc = start.elapsed();
        let start = Instant::now();
        for _ in 0..n {
            assert!(black_box(&current).verify_integrity());
        }
        let verify = start.elapsed();
        assert_eq!(current.frame_count() as u64, frames);
        if n == batch {
            fastest_reloc = fastest_reloc.min(reloc);
            fastest_verify = fastest_verify.min(verify);
        }
        elapsed += reloc;
        reps += n;
    }
    let per_frame = |d: Duration| d.as_nanos() as f64 / (batch as u64 * frames) as f64;
    RelocCell {
        frames,
        reps: reps as u64,
        elapsed,
        reloc_nanos_per_frame: per_frame(fastest_reloc),
        verify_nanos_per_frame: per_frame(fastest_verify),
    }
}

// ---------------------------------------------------------------------------
// Cell 3: the runtime repack arc.

/// The measured reject-to-admit arc: seven 1-column MAC loads pack the
/// `1..12` window, a SORT swap opens non-adjacent holes, the 3-column
/// GEMM is refused, one timed repack pass heals the fragmentation, and
/// the retry is admitted.
fn run_repack() -> RepackCell {
    let cfg = SocConfig::grid_reconf("bench_floorplan", 7).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let device = soc.part().device();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    for &tile in &tiles {
        for (kind, cols) in [
            (AcceleratorKind::Mac, 1..2),
            (AcceleratorKind::Sort, 3..4),
            (AcceleratorKind::Gemm, 7..10),
        ] {
            registry
                .register(
                    tile,
                    kind,
                    Bitstream::synthetic_partial(&device, cols, 4)
                        .expect("canonical frame address is in range"),
                )
                .unwrap();
        }
    }
    let mgr = ThreadedManager::spawn(soc, registry);
    mgr.enable_regions(FitPolicy::FirstFit, Some(1..12))
        .unwrap();
    for &t in &tiles {
        mgr.reconfigure_blocking(t, AcceleratorKind::Mac).unwrap();
    }
    mgr.reconfigure_blocking(tiles[5], AcceleratorKind::Sort)
        .unwrap();
    let refused = mgr.reconfigure_blocking(tiles[1], AcceleratorKind::Gemm);
    assert!(
        matches!(refused, Err(Error::RegionUnavailable { .. })),
        "the fragmented window admitted a 3-wide region: {refused:?}"
    );
    let start = Instant::now();
    let report = mgr.repack_blocking().expect("repack pass completes");
    let repack_micros = start.elapsed().as_micros() as u64;
    mgr.reconfigure_blocking(tiles[1], AcceleratorKind::Gemm)
        .expect("repacked window admits the retry");
    let stats = mgr.stats();
    assert!(stats.consistent(), "inconsistent stats: {stats:?}");
    mgr.shutdown();
    RepackCell {
        repack_micros,
        moves: report.moves,
        frames_moved: report.frames_moved,
        oversized_rejected: stats.oversized_rejected,
        repack_admitted: stats.repack_admitted,
    }
}

// ---------------------------------------------------------------------------
// Renderings.

fn policy_token(policy: FitPolicy) -> &'static str {
    match policy {
        FitPolicy::FirstFit => "first_fit",
        FitPolicy::BestFit => "best_fit",
    }
}

impl Report {
    /// The `--json` document (schema `presp-bench-floorplan/v2`).
    pub fn json(&self) -> JsonValue {
        let r = &self.reloc;
        obj(vec![
            ("schema", string("presp-bench-floorplan/v2")),
            (
                "host",
                obj(vec![
                    (
                        "available_parallelism",
                        int(self.host.available_parallelism as u64),
                    ),
                    ("cpu_model", string(&self.host.cpu_model)),
                ]),
            ),
            (
                "allocator",
                JsonValue::Array(
                    self.churn
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("policy", string(policy_token(c.policy))),
                                ("ops", int(c.ops)),
                                ("ops_per_sec", num(c.ops_per_sec())),
                                ("refusals", int(c.refusals)),
                                ("external_fragmentation", num(c.external_fragmentation)),
                                ("free_columns", int(c.free_columns)),
                                ("compaction_moves", int(c.compaction_moves)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "relocation",
                obj(vec![
                    ("frames", int(r.frames)),
                    ("reps", int(r.reps)),
                    ("frames_per_sec", num(r.frames_per_sec())),
                    ("reloc_nanos_per_frame", num(r.reloc_nanos_per_frame)),
                    ("verify_nanos_per_frame", num(r.verify_nanos_per_frame)),
                    ("ratio", num(r.ratio())),
                    ("limit", num(RELOCATION_LIMIT)),
                    ("passed", JsonValue::Bool(r.passes())),
                ]),
            ),
            (
                "repack",
                obj(vec![
                    ("repack_micros", int(self.repack.repack_micros)),
                    ("moves", int(self.repack.moves)),
                    ("frames_moved", int(self.repack.frames_moved)),
                    ("oversized_rejected", int(self.repack.oversized_rejected)),
                    ("repack_admitted", int(self.repack.repack_admitted)),
                ]),
            ),
        ])
    }

    /// The text rendering `presp bench floorplan` prints.
    pub fn text(&self) -> String {
        let r = &self.reloc;
        let p = &self.repack;
        let rows: Vec<Vec<String>> = self
            .churn
            .iter()
            .map(|c| {
                vec![
                    policy_token(c.policy).to_string(),
                    format!("{:.0}", c.ops_per_sec()),
                    c.refusals.to_string(),
                    format!("{:.2}", c.external_fragmentation),
                    c.free_columns.to_string(),
                    c.compaction_moves.to_string(),
                ]
            })
            .collect();
        format!(
            "Amorphous floorplanning — VC707, host {} ({} available cores)\n\n\
             Allocator churn, {} ops per policy\n\n{}\n\
             relocation: {:.0} frames/s ({} frames x {} hops); {:.1} ns/frame vs \
             {:.1} ns/frame for one verify_integrity pass: ratio {:.2} (limit {:.2}) {}\n\
             repack: {} move(s), {} frame(s) relocated in {} us; reject-to-admit {} -> {}\n",
            self.host.cpu_model,
            self.host.available_parallelism,
            self.workload.churn_ops,
            table(
                &[
                    "policy",
                    "ops/s",
                    "refusals",
                    "frag",
                    "free cols",
                    "compaction moves"
                ],
                &rows
            ),
            r.frames_per_sec(),
            r.frames,
            r.reps,
            r.reloc_nanos_per_frame,
            r.verify_nanos_per_frame,
            r.ratio(),
            RELOCATION_LIMIT,
            if r.passes() { "OK" } else { "FAIL" },
            p.moves,
            p.frames_moved,
            p.repack_micros,
            p.oversized_rejected,
            p.repack_admitted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Workload = Workload {
        churn_ops: 2_000,
        reloc_reps: 40,
        reloc_frames: 4,
    };

    #[test]
    fn small_run_repacks_the_refused_region_and_documents_every_key() {
        let report = run(&SMALL);
        assert_eq!(report.repack.oversized_rejected, 1);
        assert_eq!(report.repack.repack_admitted, 1);
        assert_eq!(report.reloc.reps, 40);
        assert_eq!(report.reloc.frames, 4);
        let doc = report.json();
        for (section, keys) in [
            ("host", &["available_parallelism", "cpu_model"][..]),
            (
                "relocation",
                &[
                    "frames",
                    "reps",
                    "frames_per_sec",
                    "reloc_nanos_per_frame",
                    "verify_nanos_per_frame",
                    "ratio",
                    "limit",
                    "passed",
                ],
            ),
            (
                "repack",
                &[
                    "repack_micros",
                    "moves",
                    "frames_moved",
                    "oversized_rejected",
                    "repack_admitted",
                ],
            ),
        ] {
            let object = doc.get(section).unwrap_or_else(|| panic!("no {section}"));
            for key in keys {
                assert!(object.get(key).is_some(), "{section} has no {key}");
            }
        }
        let allocator = doc.get("allocator").and_then(JsonValue::as_array).unwrap();
        assert_eq!(allocator.len(), 2);
        for cell in allocator {
            for key in [
                "policy",
                "ops",
                "ops_per_sec",
                "refusals",
                "external_fragmentation",
                "free_columns",
                "compaction_moves",
            ] {
                assert!(cell.get(key).is_some(), "allocator cell has no {key}");
            }
        }
    }

    #[test]
    fn allocator_churn_is_deterministic() {
        let device = FpgaPart::Vc707.device();
        for policy in [FitPolicy::FirstFit, FitPolicy::BestFit] {
            let mut a = run_churn(&device, policy, SMALL.churn_ops);
            let mut b = run_churn(&device, policy, SMALL.churn_ops);
            a.elapsed = Duration::ZERO;
            b.elapsed = Duration::ZERO;
            assert_eq!(a, b, "{policy:?} churn differs between runs");
        }
    }
}
