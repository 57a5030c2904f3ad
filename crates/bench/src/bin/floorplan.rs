//! Amorphous-floorplanning benchmarks: the region allocator, bitstream
//! relocation, and the online defragmenter, measured as three cells.
//!
//! * **allocator** — seeded allocate/release churn of mixed-width CLB
//!   regions over the full VC707 column model (143 columns), once per
//!   fit policy. Reports operations/s, the refusal count, and the
//!   external fragmentation plus compaction-plan length the churn
//!   leaves behind.
//! * **relocation** — relocates a multi-frame partial bitstream between
//!   two same-kind columns back and forth, re-deriving the ECC syndrome
//!   and stream CRC each hop. Reports frames relocated per second; this
//!   is the `--check` gate's metric (pure CPU, no thread scheduling in
//!   the loop).
//! * **repack** — the reject-to-admit arc from DESIGN.md §16 driven
//!   end to end through the threaded scheduler: pack a 7-tile window,
//!   open non-adjacent holes, get the 3-wide GEMM refused, time one
//!   repack pass, and confirm the retry is admitted. Reports the
//!   pass latency and the moves/frames it applied.
//!
//! Writes `BENCH_floorplan.json` (schema `presp-bench-floorplan/v1`);
//! `--json` prints the same document; `--smoke` shrinks the churn and
//! relocation reps for CI; `--check` re-runs only the relocation cell
//! at full size and fails when frames/s regressed more than 20 %
//! against the committed `BENCH_floorplan.json`.

use presp_accel::AcceleratorKind;
use presp_bench::export;
use presp_events::json::{int, num, obj, string, JsonValue};
use presp_floorplan::{FitPolicy, RegionAllocator};
use presp_fpga::bitstream::{Bitstream, BitstreamBuilder, BitstreamKind};
use presp_fpga::fabric::{ColumnKind, Device};
use presp_fpga::fault::SplitMix64;
use presp_fpga::frame::FrameAddress;
use presp_fpga::part::FpgaPart;
use presp_runtime::error::Error;
use presp_runtime::registry::BitstreamRegistry;
use presp_runtime::threaded::ThreadedManager;
use presp_soc::config::SocConfig;
use presp_soc::sim::Soc;
use std::time::Instant;

/// Allowed relocation frames/s regression in `--check` mode.
const CHECK_TOLERANCE: f64 = 0.20;
/// Seed for the allocator churn (the cell is deterministic op-for-op).
const CHURN_SEED: u64 = 0x0F10_0E0F_10F1_000E;

struct Workload {
    /// Allocate/release operations per churn cell.
    churn_ops: usize,
    /// Relocation hops (each hop rewrites every frame).
    reloc_reps: usize,
    /// Minor frames per column in the relocated bitstream.
    reloc_frames: u32,
}

// ---------------------------------------------------------------------------
// Cell 1: allocator churn.

struct ChurnCell {
    policy: FitPolicy,
    ops: u64,
    refusals: u64,
    elapsed_secs: f64,
    external_fragmentation: f64,
    free_columns: u64,
    compaction_moves: u64,
}

/// Seeded allocate/release churn: keep up to 24 live leases of width
/// 1–4 CLB columns, releasing a random one whenever the table is full
/// or the coin says so. Refusals (no span fits) count as operations —
/// they are exactly the events the defragmenter exists to convert.
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
    let elapsed_secs = start.elapsed().as_secs_f64();
    let stats = alloc.stats();
    ChurnCell {
        policy,
        ops: ops as u64,
        refusals,
        elapsed_secs,
        external_fragmentation: stats.external_fragmentation(),
        free_columns: stats.free_columns as u64,
        compaction_moves: alloc.plan_compaction().len() as u64,
    }
}

// ---------------------------------------------------------------------------
// Cell 2: bitstream relocation.

struct RelocCell {
    frames: u64,
    reps: u64,
    elapsed_secs: f64,
}

impl RelocCell {
    fn frames_per_sec(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            (self.frames * self.reps) as f64 / self.elapsed_secs
        }
    }
}

/// A deep single-column CLB bitstream: `frames` minor frames at `col`.
fn column_bitstream(device: &Device, col: u32, frames: u32) -> Bitstream {
    let mut b = BitstreamBuilder::new(device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    for minor in 0..frames {
        b.add_frame(FrameAddress::new(0, col, minor), vec![col + minor; words])
            .expect("canonical frame address is in range");
    }
    b.build(true)
}

/// Hop a deep bitstream between the fabric's first and last CLB columns,
/// re-deriving ECC and CRC on every hop (that is what `relocate` does).
fn run_relocation(device: &Device, wl: &Workload) -> RelocCell {
    let clb = |k: ColumnKind| k == ColumnKind::Clb;
    let first = (0..device.columns())
        .find(|&c| clb(device.column_kind(c)))
        .expect("the fabric model has CLB columns") as u32;
    let last = (0..device.columns())
        .rfind(|&c| clb(device.column_kind(c)))
        .expect("the fabric model has CLB columns") as u32;
    assert!(last > first, "need two distinct CLB columns to hop between");
    let delta = (last - first) as i64;
    let mut current = column_bitstream(device, first, wl.reloc_frames);
    let frames = current.frame_count() as u64;
    let start = Instant::now();
    for rep in 0..wl.reloc_reps {
        let hop = if rep % 2 == 0 { delta } else { -delta };
        current = current
            .relocate(device, hop)
            .expect("CLB-to-CLB hop relocates");
        assert_eq!(current.frame_count() as u64, frames);
    }
    RelocCell {
        frames,
        reps: wl.reloc_reps as u64,
        elapsed_secs: start.elapsed().as_secs_f64(),
    }
}

// ---------------------------------------------------------------------------
// Cell 3: the runtime repack arc.

struct RepackCell {
    repack_micros: u64,
    moves: u64,
    frames_moved: u64,
    oversized_rejected: u64,
    repack_admitted: u64,
}

fn deep_bitstream(soc: &Soc, col: u32, frames: u32) -> Bitstream {
    column_bitstream(&soc.part().device(), col, frames)
}

fn span_bitstream(soc: &Soc, cols: std::ops::Range<u32>, frames: u32) -> Bitstream {
    let device = soc.part().device();
    let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
    let words = device.part().family().frame_words();
    for col in cols {
        for minor in 0..frames {
            b.add_frame(FrameAddress::new(0, col, minor), vec![col + minor; words])
                .expect("canonical frame address is in range");
        }
    }
    b.build(true)
}

/// The measured reject-to-admit arc: seven 1-column MAC loads pack the
/// `1..12` window, a SORT swap opens non-adjacent holes, the 3-column
/// GEMM is refused, one timed repack pass heals the fragmentation, and
/// the retry is admitted.
fn run_repack() -> RepackCell {
    let cfg = SocConfig::grid_reconf("bench_floorplan", 7).unwrap();
    let soc = Soc::new(&cfg).unwrap();
    let tiles = cfg.reconfigurable_tiles();
    let mut registry = BitstreamRegistry::new();
    for &tile in &tiles {
        registry
            .register(tile, AcceleratorKind::Mac, deep_bitstream(&soc, 1, 4))
            .unwrap();
        registry
            .register(tile, AcceleratorKind::Sort, deep_bitstream(&soc, 3, 4))
            .unwrap();
        registry
            .register(tile, AcceleratorKind::Gemm, span_bitstream(&soc, 7..10, 4))
            .unwrap();
    }
    let mgr = ThreadedManager::spawn(soc, registry);
    mgr.enable_regions_within(FitPolicy::FirstFit, 1..12)
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
// Document and modes.

fn policy_token(policy: FitPolicy) -> &'static str {
    match policy {
        FitPolicy::FirstFit => "first_fit",
        FitPolicy::BestFit => "best_fit",
    }
}

fn document(churn: &[ChurnCell], reloc: &RelocCell, repack: &RepackCell) -> JsonValue {
    obj(vec![
        ("schema", string("presp-bench-floorplan/v1")),
        (
            "allocator",
            JsonValue::Array(
                churn
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("policy", string(policy_token(c.policy))),
                            ("ops", int(c.ops)),
                            (
                                "ops_per_sec",
                                num(if c.elapsed_secs == 0.0 {
                                    0.0
                                } else {
                                    c.ops as f64 / c.elapsed_secs
                                }),
                            ),
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
                ("frames", int(reloc.frames)),
                ("reps", int(reloc.reps)),
                ("frames_per_sec", num(reloc.frames_per_sec())),
            ]),
        ),
        (
            "repack",
            obj(vec![
                ("repack_micros", int(repack.repack_micros)),
                ("moves", int(repack.moves)),
                ("frames_moved", int(repack.frames_moved)),
                ("oversized_rejected", int(repack.oversized_rejected)),
                ("repack_admitted", int(repack.repack_admitted)),
            ]),
        ),
    ])
}

/// The committed relocation frames/s figure from `BENCH_floorplan.json`.
fn committed_frames_per_sec() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_floorplan.json").ok()?;
    let doc = presp_events::json::parse(&text).ok()?;
    match doc.get("relocation")?.get("frames_per_sec")? {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

/// Perf-smoke gate: re-measure only the relocation cell at full size and
/// fail when frames/s regressed more than [`CHECK_TOLERANCE`] against
/// the committed document. Exits the process with the verdict.
fn run_check(device: &Device, wl: &Workload) -> ! {
    let Some(committed) = committed_frames_per_sec() else {
        eprintln!("BENCH_floorplan.json has no committed relocation frames_per_sec");
        std::process::exit(1);
    };
    let fresh = run_relocation(device, wl).frames_per_sec();
    let floor = committed * (1.0 - CHECK_TOLERANCE);
    println!(
        "perf check: fresh relocation {fresh:.0} frames/s vs committed {committed:.0} \
         frames/s (floor {floor:.0})"
    );
    if fresh < floor {
        eprintln!(
            "FAIL: relocation frames/s regressed more than {:.0} %",
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
    let full = Workload {
        churn_ops: 200_000,
        reloc_reps: 2_000,
        reloc_frames: 36,
    };
    let wl = if smoke {
        Workload {
            churn_ops: 20_000,
            reloc_reps: 200,
            reloc_frames: 36,
        }
    } else {
        Workload { ..full }
    };
    let device = FpgaPart::Vc707.device();
    if check {
        // The gate compares against the committed full-workload figure.
        run_check(&device, &full);
    }

    let churn = [
        run_churn(&device, FitPolicy::FirstFit, wl.churn_ops),
        run_churn(&device, FitPolicy::BestFit, wl.churn_ops),
    ];
    let reloc = run_relocation(&device, &wl);
    let repack = run_repack();
    let doc = document(&churn, &reloc, &repack);
    export::write_json("BENCH_floorplan.json", &doc).expect("write BENCH_floorplan.json");

    if std::env::args().any(|a| a == "--json") {
        println!("{}", doc.pretty());
        return;
    }

    println!(
        "Amorphous floorplanning — {} ({} columns), churn {} ops, relocation {} frames x {} hops\n",
        device.part(),
        device.columns(),
        wl.churn_ops,
        reloc.frames,
        reloc.reps
    );
    for c in &churn {
        println!(
            "allocator {:>9}: {:>9.0} ops/s, {:>5} refusals, frag {:.2}, \
             {} free cols, {} compaction moves",
            policy_token(c.policy),
            c.ops as f64 / c.elapsed_secs,
            c.refusals,
            c.external_fragmentation,
            c.free_columns,
            c.compaction_moves
        );
    }
    println!(
        "relocation: {:.0} frames/s ({} frames x {} hops in {:.2}s)",
        reloc.frames_per_sec(),
        reloc.frames,
        reloc.reps,
        reloc.elapsed_secs
    );
    println!(
        "repack: {} move(s), {} frame(s) relocated in {} us; \
         reject-to-admit {} -> {}",
        repack.moves,
        repack.frames_moved,
        repack.repack_micros,
        repack.oversized_rejected,
        repack.repack_admitted
    );
    println!("wrote BENCH_floorplan.json");
}
