//! The SoC simulator: virtual time, DMA, accelerator execution, partial
//! reconfiguration and energy accounting.
//!
//! Timing is explicit: every operation takes a start cycle and returns its
//! completion cycle, with shared resources (NoC links, the DRAM channel,
//! the ICAP, each tile) arbitrated through `presp-events`
//! [`ResourceTimeline`]s. Callers that model concurrent software threads
//! (the runtime manager) issue operations with their own per-thread
//! clocks; the shared reservations produce the same interleaving a
//! cycle-stepped simulation would at this granularity.
//!
//! Attach a trace sink ([`Soc::attach_tracer`]) and every timed operation
//! — DRAM accesses, NoC packets, DMA bursts, decoupler handshakes, ICAP
//! writes, compute intervals, interrupts — emits a typed
//! [`presp_events::TraceRecord`] in the `SocCycles` clock domain.

use crate::config::{SocConfig, TileCoord};
use crate::dfxc::Dfxc;
use crate::energy::{EnergyMeter, EnergyReport};
use crate::error::Error;
use crate::noc::{Noc, Plane, Transfer};
use crate::tile::{TileKind, WrapperState};
use presp_accel::catalog::AcceleratorKind;
use presp_accel::latency::{compute_cycles, software_cycles};
use presp_accel::power::dynamic_power_w;
use presp_accel::{AccelInstance, AccelOp, AccelValue};
use presp_events::trace::ClockDomain;
use presp_events::{
    Loc, Reservation, ResourceTimeline, SharedSink, TraceEvent, Tracer, VirtualClock,
};
use presp_fpga::bitstream::Bitstream;
use presp_fpga::config_memory::GoldenImage;
use presp_fpga::ecc::FrameRepair;
use presp_fpga::fault::FaultPlan;
use presp_fpga::frame::FrameAddress;
use presp_fpga::icap::ICAP_CLOCK_MHZ;
use presp_fpga::part::FpgaPart;
use presp_fpga::resources::Resources;
use std::collections::HashMap;
use std::sync::Arc;

/// The tile's location as a trace record coordinate.
fn loc(coord: TileCoord) -> Loc {
    Loc::new(coord.row as u64, coord.col as u64)
}

/// DRAM channel bandwidth, bytes per SoC cycle (a 64-bit DDR3 channel is
/// far faster than the 78 MHz NoC; the NoC is the usual bottleneck).
pub const DRAM_BYTES_PER_CYCLE: u64 = 16;
/// Fixed DRAM access latency, cycles.
pub const DRAM_LATENCY: u64 = 24;
/// ICAP throughput conversion: the ICAP runs at 100 MHz with 4-byte words
/// while the SoC runs at 78 MHz, so one ICAP microsecond is 78 SoC cycles.
pub const SOC_CYCLES_PER_MICRO: f64 = 78.0;

/// SoC cycles the ICAP spends streaming `words` configuration words.
fn icap_cycles(words: u64) -> u64 {
    (words as f64 / ICAP_CLOCK_MHZ * SOC_CYCLES_PER_MICRO).ceil() as u64
}

/// CSR offsets of a reconfigurable tile (Fig. 2B's configuration
/// registers).
pub mod csr {
    /// Decoupler control: write 1 to decouple, 0 to re-couple.
    pub const DECOUPLE: u64 = 0x00;
    /// Wrapper status: 0 = empty, 1 = configured, 2 = decoupled.
    pub const STATUS: u64 = 0x04;
}

/// Timing and result of one accelerator invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelRun {
    /// Computed value.
    pub value: AccelValue,
    /// Cycle the invocation was accepted by the tile.
    pub start: u64,
    /// Cycle the completion interrupt reached the CPU.
    pub end: u64,
    /// Cycles spent in DMA (input + output).
    pub dma_cycles: u64,
    /// Cycles spent computing.
    pub compute_cycles: u64,
}

impl AccelRun {
    /// Total latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }
}

/// Timing of one partial reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigRun {
    /// Cycle the DFXC accepted the trigger.
    pub start: u64,
    /// Cycle the completion interrupt reached the CPU.
    pub end: u64,
    /// Cycles spent fetching the bitstream from DRAM over the NoC.
    pub fetch_cycles: u64,
    /// Cycles spent streaming through the ICAP.
    pub icap_cycles: u64,
    /// Bitstream size in bytes.
    pub bytes: usize,
}

impl ReconfigRun {
    /// Total reconfiguration latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }
}

/// Timing of one transactional region move (amorphous floorplanning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMoveRun {
    /// Cycle the readback actually started on the ICAP.
    pub start: u64,
    /// Cycle the rewrite at the new base completed.
    pub end: u64,
    /// Cycles spent waiting for the shared ICAP port.
    pub waited: u64,
    /// Frames relocated.
    pub frames: usize,
    /// Signed column delta applied to every frame address.
    pub delta: i64,
}

/// Timing and outcome of one scrubber readback pass over a set of frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Cycle the readback actually started on the ICAP.
    pub start: u64,
    /// Cycle the pass completed.
    pub end: u64,
    /// Cycles spent waiting for the shared ICAP port.
    pub waited: u64,
    /// Frames repaired, with the number of words corrected in each.
    pub corrected: Vec<(FrameAddress, usize)>,
    /// Frames holding an uncorrectable (double-bit) upset, left untouched.
    pub uncorrectable: Vec<FrameAddress>,
}

impl ScrubReport {
    /// `true` when every frame read back clean.
    pub fn is_clean(&self) -> bool {
        self.corrected.is_empty() && self.uncorrectable.is_empty()
    }
}

/// Per-tile simulation state.
#[derive(Debug)]
struct TileState {
    kind: TileKind,
    wrapper: WrapperState,
    /// Occupancy of the tile's wrapper (accelerator runs, ICAP writes).
    timeline: ResourceTimeline,
}

/// The simulated SoC.
///
/// See the crate-level example for basic usage.
#[derive(Debug)]
pub struct Soc {
    config: SocConfig,
    part: FpgaPart,
    noc: Noc,
    dfxc: Dfxc,
    tiles: HashMap<TileCoord, TileState>,
    dram: ResourceTimeline,
    icap: ResourceTimeline,
    clock: VirtualClock,
    tracer: Tracer,
    meter: EnergyMeter,
    fault_plan: Option<FaultPlan>,
    decoupled_rejections: u64,
    /// Per-tile golden (known-good, post-load) images, each held as the
    /// stream the tile's last successful load wrote. A tile's golden
    /// addresses are its region: the union of every frame its successful
    /// loads have written.
    golden: HashMap<TileCoord, GoldenImage>,
}

impl Soc {
    /// Builds a SoC for `config` on the paper's VC707 part.
    ///
    /// # Errors
    ///
    /// Returns configuration errors.
    pub fn new(config: &SocConfig) -> Result<Soc, Error> {
        Soc::with_part(config, FpgaPart::Vc707)
    }

    /// Builds a SoC on a specific part.
    ///
    /// # Errors
    ///
    /// Returns configuration errors.
    pub fn with_part(config: &SocConfig, part: FpgaPart) -> Result<Soc, Error> {
        let device = part.device();
        let mut tiles = HashMap::new();
        let mut meter = EnergyMeter::new();
        for (coord, kind) in config.iter() {
            meter.provision(kind.static_resources());
            let wrapper = match kind {
                TileKind::Accel(k) => WrapperState::Configured(k),
                _ => WrapperState::Empty,
            };
            tiles.insert(
                coord,
                TileState {
                    kind,
                    wrapper,
                    timeline: ResourceTimeline::new(),
                },
            );
        }
        Ok(Soc {
            config: config.clone(),
            part,
            noc: Noc::new(),
            dfxc: Dfxc::new(&device),
            tiles,
            dram: ResourceTimeline::new(),
            icap: ResourceTimeline::new(),
            clock: VirtualClock::new(),
            tracer: Tracer::disabled(),
            meter,
            fault_plan: None,
            decoupled_rejections: 0,
            golden: HashMap::new(),
        })
    }

    /// The SoC configuration.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The FPGA part the SoC is implemented on.
    pub fn part(&self) -> FpgaPart {
        self.part
    }

    /// Latest completion cycle observed on any resource.
    pub fn horizon(&self) -> u64 {
        self.clock.horizon()
    }

    /// Attaches a trace sink: every subsequent timed operation emits a
    /// structured record. Tracing is disabled (and free) by default.
    pub fn attach_tracer(&mut self, sink: SharedSink) {
        self.tracer.attach(sink);
    }

    /// The SoC's tracer. Runtime layers driving this SoC emit their own
    /// records (retries, quarantine transitions) through the same handle
    /// so one sink sees the whole story in order.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Cycles reconfigurations spent waiting for the shared ICAP
    /// (including fault-injected DFXC stalls).
    pub fn icap_contention_cycles(&self) -> u64 {
        self.icap.contention_cycles()
    }

    /// All tiles currently able to execute accelerator operations (static
    /// accelerator tiles and configured reconfigurable tiles).
    pub fn accelerator_tiles(&self) -> Vec<TileCoord> {
        let mut coords: Vec<TileCoord> = self
            .tiles
            .iter()
            .filter(|(_, t)| {
                matches!(t.kind, TileKind::Accel(_)) || t.wrapper.configured_kind().is_some()
            })
            .map(|(c, _)| *c)
            .collect();
        coords.sort_unstable();
        coords
    }

    /// The DFX controller (for status inspection).
    pub fn dfxc(&self) -> &Dfxc {
        &self.dfxc
    }

    /// Installs a fault-injection plan; `None` disables injection.
    ///
    /// The plan's hooks fire inside [`Soc::csr_write_at`] (decoupler ack
    /// delay) and [`Soc::reconfigure_at`] (DFXC BUSY stall, bitstream
    /// corruption caught by the ICAP's CRC check).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Mutable access to the installed fault plan (runtime layers consult
    /// their own hooks, e.g. registry staleness, through this).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault_plan.as_mut()
    }

    /// Frame addresses of `tile`'s reconfigurable region, in address
    /// order — the union of every frame its successful loads have
    /// written, which is the address set of its golden image, shared
    /// rather than copied. Empty before the first load.
    pub fn tile_region(&self, tile: TileCoord) -> Arc<[FrameAddress]> {
        self.golden
            .get(&tile)
            .map(|g| Arc::clone(g.addresses()))
            .unwrap_or_default()
    }

    /// Whether `tile` has a region, i.e. a successful load has written
    /// at least one frame: [`Soc::tile_region`] is non-empty, without
    /// building it.
    pub fn has_region(&self, tile: TileCoord) -> bool {
        self.golden.get(&tile).is_some_and(|g| !g.is_empty())
    }

    /// The tile's golden (post-load, known-good) image, if any load has
    /// succeeded. [`GoldenImage::snapshot`] materialises its frames.
    pub fn golden_image(&self, tile: TileCoord) -> Option<&GoldenImage> {
        self.golden.get(&tile)
    }

    /// Restores `tile`'s region bit-for-bit from its golden store,
    /// clearing any upsets — correctable or not. Returns the number of
    /// frames rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTile`] when the tile has never been
    /// successfully loaded (no golden image exists).
    pub fn restore_golden(&mut self, tile: TileCoord) -> Result<usize, Error> {
        let golden = self
            .golden
            .get(&tile)
            .ok_or(Error::NoSuchTile { coord: tile })?;
        self.dfxc
            .config_memory_mut()
            .restore_golden(golden)
            .map_err(Error::Fpga)?;
        Ok(golden.len())
    }

    /// Transactionally relocates `tile`'s whole region `col_delta` columns
    /// away: every frame (payload *and* ECC check codes, bit-exact) is
    /// re-addressed, the old frames are erased, and the tile's golden
    /// store (which is its region) moves in lockstep. The wrapper state —
    /// including the configured accelerator — is untouched: the logic
    /// simply lives at a new base.
    ///
    /// The move is a readback-plus-rewrite through the shared ICAP, so it
    /// occupies the port for two passes over the region and competes with
    /// concurrent reconfigurations and scrub traffic. The tile must be
    /// decoupled (the same quiesce rule as [`Soc::reconfigure_at`]).
    ///
    /// All validation happens before the first frame is touched, so a
    /// refused move leaves the fabric bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTile`] / [`Error::WrongTileKind`] /
    /// [`Error::DecouplerProtocol`] for protocol violations,
    /// [`Error::RegionConflict`] when the tile has no region or the
    /// destination overlaps another tile's frames, and
    /// [`Error::Fpga`] when the shifted addresses are illegal.
    pub fn move_tile_region_at(
        &mut self,
        tile: TileCoord,
        col_delta: i64,
        at: u64,
    ) -> Result<RegionMoveRun, Error> {
        self.advance_seus_to(at);
        self.require_decoupled(tile, "region move")?;
        let old_region = self.tile_region(tile);
        if old_region.is_empty() {
            return Err(Error::RegionConflict {
                coord: tile,
                detail: "tile has no region to move (never loaded)".into(),
            });
        }
        if col_delta == 0 {
            let run = RegionMoveRun {
                start: at,
                end: at,
                waited: 0,
                frames: old_region.len(),
                delta: 0,
            };
            return Ok(run);
        }
        let device = self.part.device();
        // Snapshot the source region bit-exact and pre-validate the whole
        // destination before mutating anything.
        let snap = self
            .dfxc
            .config_memory()
            .snapshot(old_region.iter())
            .map_err(Error::Fpga)?;
        let shifted = snap
            .shift_columns(&device, col_delta)
            .map_err(Error::Fpga)?;
        // The golden image — and with it the region — moves with the
        // frames; shifting it is validation too, so it happens first.
        let moved = self.golden[&tile]
            .shift_columns(&device, col_delta)
            .map_err(Error::Fpga)?;
        let new_region = shifted.addresses();
        for (other, golden) in &self.golden {
            if *other == tile {
                continue;
            }
            let hit = golden
                .addresses()
                .iter()
                .find(|a| new_region.binary_search(a).is_ok());
            if let Some(hit) = hit {
                return Err(Error::RegionConflict {
                    coord: tile,
                    detail: format!("destination frame {hit:?} belongs to tile {other}"),
                });
            }
        }
        // Physically move: erase the source, restore the snapshot at the
        // destination. Erase-first makes overlapping slides (|delta| <
        // region width) safe, and restore preserves any payload/ECC
        // disagreement instead of laundering an in-flight upset.
        self.dfxc
            .config_memory_mut()
            .clear_frames(old_region.iter())
            .map_err(Error::Fpga)?;
        self.dfxc
            .config_memory_mut()
            .restore(&shifted)
            .map_err(Error::Fpga)?;
        // ICAP cost: readback of the region plus rewrite at the new base.
        let words = 2 * old_region.len() as u64 * self.dfxc.config_memory().frame_words() as u64;
        let r = self.icap.reserve(at, icap_cycles(words));
        let state = self.tile_mut(tile)?;
        state.timeline.claim(at, r.start, r.end);
        let frames = old_region.len();
        self.golden.insert(tile, moved);
        self.tracer
            .emit(ClockDomain::SocCycles, r.start, r.duration(), || {
                TraceEvent::RegionMoved {
                    tile: loc(tile),
                    frames: frames as u64,
                    delta: col_delta,
                }
            });
        self.clock.observe(r.end);
        Ok(RegionMoveRun {
            start: r.start,
            end: r.end,
            waited: r.waited,
            frames,
            delta: col_delta,
        })
    }

    /// Erases `tile`'s whole region and retires its bookkeeping: the
    /// frames are cleared through the ICAP, the golden store (and with
    /// it the region) is dropped, and the fabric columns the tile
    /// occupied become writable by other tiles again. This is the vacate
    /// half of a lease switch in amorphous floorplanning — a tile about
    /// to be loaded at a different base must first return its old span
    /// to the free pool, because [`Soc::reconfigure_at`] unions every
    /// written frame into the tile's region and stale frames would
    /// otherwise stay configured (scrubbed, move-blocking,
    /// golden-snapshotted) forever.
    ///
    /// The tile must be decoupled, exactly like a reconfiguration or a
    /// region move. A tile with no region is a no-op returning zero
    /// frames. The erase streams blank frames through the shared ICAP
    /// (one pass over the region) and claims the tile's timeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTile`] / [`Error::WrongTileKind`] for bad
    /// coordinates, [`Error::DecouplerProtocol`] when the tile is still
    /// coupled, and [`Error::Fpga`] when the erase itself fails.
    pub fn release_tile_region(&mut self, tile: TileCoord, at: u64) -> Result<usize, Error> {
        self.advance_seus_to(at);
        self.require_decoupled(tile, "region release")?;
        let Some(golden) = self.golden.remove(&tile) else {
            return Ok(0);
        };
        self.dfxc
            .config_memory_mut()
            .clear_frames(golden.addresses().iter())
            .map_err(Error::Fpga)?;
        let frames = golden.len();
        let words = frames as u64 * self.dfxc.config_memory().frame_words() as u64;
        let r = self.icap.reserve(at, icap_cycles(words));
        let state = self.tile_mut(tile)?;
        state.timeline.claim(at, r.start, r.end);
        self.tracer
            .emit(ClockDomain::SocCycles, r.start, r.duration(), || {
                TraceEvent::RegionReleased {
                    tile: loc(tile),
                    frames: frames as u64,
                }
            });
        self.clock.observe(r.end);
        Ok(frames)
    }

    /// Drains the fault plan's SEU stream up to `cycle`, flipping bits in
    /// configuration memory. Upsets strike configured frames (the active
    /// pblocks); with nothing configured there is no state to upset and
    /// the arrival is dropped.
    fn advance_seus_to(&mut self, cycle: u64) {
        let Some(plan) = self.fault_plan.as_mut() else {
            return;
        };
        let upsets = plan.next_seu_upsets(cycle);
        if upsets.is_empty() {
            return;
        }
        let frame_words = self.dfxc.config_memory().frame_words() as u64;
        for upset in upsets {
            let configured = self.dfxc.config_memory().configured_addresses();
            if configured.is_empty() {
                continue;
            }
            let addr = configured[(upset.frame_select % configured.len() as u64) as usize];
            let word = (upset.word_select % frame_words) as usize;
            self.dfxc
                .config_memory_mut()
                .corrupt_bit(addr, word, upset.bit)
                .expect("configured address with bounded word/bit is valid");
            if upset.double_bit {
                self.dfxc
                    .config_memory_mut()
                    .corrupt_bit(addr, word, upset.second_bit)
                    .expect("configured address with bounded word/bit is valid");
            }
            self.tracer
                .instant(ClockDomain::SocCycles, upset.cycle, || {
                    TraceEvent::SeuInjected {
                        frame: u64::from(addr.pack()),
                        word: word as u64,
                        bit: u64::from(upset.bit),
                        double_bit: upset.double_bit,
                    }
                });
        }
    }

    /// Reads back `addrs` through the ICAP and repairs what SECDED can.
    ///
    /// Readback streams at the ICAP word rate and competes for the shared
    /// ICAP port, so scrub traffic visibly delays (and is delayed by)
    /// concurrent reconfigurations. Correctable upsets are repaired in
    /// place; uncorrectable frames are reported untouched so the caller
    /// can fall back to a golden restore.
    ///
    /// # Errors
    ///
    /// Returns frame-address errors from the underlying memory.
    pub fn scrub_frames_at(
        &mut self,
        addrs: &[FrameAddress],
        at: u64,
    ) -> Result<ScrubReport, Error> {
        self.advance_seus_to(at);
        let words = addrs.len() as u64 * self.dfxc.config_memory().frame_words() as u64;
        let r = self.icap.reserve(at, icap_cycles(words));
        let mut corrected = Vec::new();
        let mut uncorrectable = Vec::new();
        for &addr in addrs {
            match self
                .dfxc
                .config_memory_mut()
                .scrub_frame(addr)
                .map_err(Error::Fpga)?
            {
                FrameRepair::Clean => {}
                FrameRepair::Corrected { words } => {
                    let repaired = words.len();
                    corrected.push((addr, repaired));
                    self.tracer.instant(ClockDomain::SocCycles, r.end, || {
                        TraceEvent::FrameRepaired {
                            frame: u64::from(addr.pack()),
                            words: repaired as u64,
                        }
                    });
                }
                FrameRepair::Uncorrectable { .. } => uncorrectable.push(addr),
            }
        }
        self.tracer
            .emit(ClockDomain::SocCycles, r.start, r.duration(), || {
                TraceEvent::ScrubPass {
                    frames: addrs.len() as u64,
                    corrected: corrected.len() as u64,
                    uncorrectable: uncorrectable.len() as u64,
                    waited: r.waited,
                }
            });
        self.clock.observe(r.end);
        Ok(ScrubReport {
            start: r.start,
            end: r.end,
            waited: r.waited,
            corrected,
            uncorrectable,
        })
    }

    /// Total NoC transfers injected so far (all planes).
    pub fn noc_transfers(&self) -> u64 {
        self.noc.transfer_count()
    }

    /// Operations rejected because they targeted a decoupled tile. Each
    /// rejection happened *before* any DMA was issued — decoupled tiles
    /// never observe NoC traffic.
    pub fn decoupled_rejections(&self) -> u64 {
        self.decoupled_rejections
    }

    /// Registers additional provisioned fabric (the floorplanned
    /// reconfigurable regions) with the energy meter.
    pub fn provision_region(&mut self, resources: Resources) {
        self.meter.provision(resources);
    }

    /// The accelerator kind configured in a reconfigurable tile, if any.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTile`] for unknown coordinates.
    pub fn configured_kind(&self, tile: TileCoord) -> Result<Option<AcceleratorKind>, Error> {
        let state = self
            .tiles
            .get(&tile)
            .ok_or(Error::NoSuchTile { coord: tile })?;
        Ok(match &state.kind {
            TileKind::Accel(k) => Some(*k),
            _ => state.wrapper.configured_kind(),
        })
    }

    /// The precondition of every fabric write to `tile`'s region: the tile
    /// exists, is reconfigurable and is decoupled from the NoC. `action`
    /// names the refused operation in the error detail.
    fn require_decoupled(&self, tile: TileCoord, action: &str) -> Result<(), Error> {
        let state = self
            .tiles
            .get(&tile)
            .ok_or(Error::NoSuchTile { coord: tile })?;
        if !matches!(state.kind, TileKind::Reconfigurable) {
            return Err(Error::WrongTileKind {
                coord: tile,
                expected: "reconfigurable",
            });
        }
        if !state.wrapper.is_decoupled() {
            return Err(Error::DecouplerProtocol {
                coord: tile,
                detail: format!("{action} while coupled to the NoC"),
            });
        }
        Ok(())
    }

    fn tile_mut(&mut self, coord: TileCoord) -> Result<&mut TileState, Error> {
        self.tiles
            .get_mut(&coord)
            .ok_or(Error::NoSuchTile { coord })
    }

    /// One DRAM access of `bytes`, no earlier than `at`.
    fn dram_access(&mut self, at: u64, bytes: u64) -> Reservation {
        let r = self
            .dram
            .reserve(at, DRAM_LATENCY + bytes.div_ceil(DRAM_BYTES_PER_CYCLE));
        self.tracer
            .emit(ClockDomain::SocCycles, r.start, r.duration(), || {
                TraceEvent::DramAccess {
                    bytes,
                    waited: r.waited,
                }
            });
        r
    }

    /// One NoC packet, no earlier than `at`, with trace emission.
    fn noc_transfer(
        &mut self,
        at: u64,
        src: TileCoord,
        dst: TileCoord,
        bytes: u64,
        plane: Plane,
    ) -> Transfer {
        let t = self.noc.transfer(at, src, dst, bytes, plane);
        self.tracer
            .emit(ClockDomain::SocCycles, t.start, t.latency(), || {
                TraceEvent::NocTransfer {
                    plane: plane.name(),
                    src: loc(src),
                    dst: loc(dst),
                    bytes,
                    flits: t.flits,
                    hops: t.hops as u64,
                    waited: t.waited,
                }
            });
        t
    }

    /// Delivers an interrupt from `source` to the CPU tile.
    fn deliver_irq(&mut self, at: u64, source: TileCoord) -> u64 {
        let cpu = self.config.cpu();
        let t = self.noc_transfer(at, source, cpu, 8, Plane::Irq);
        self.tracer
            .instant(ClockDomain::SocCycles, t.end, || TraceEvent::Irq {
                source: loc(source),
            });
        t.end
    }

    /// Writes a reconfigurable-tile CSR (models the CPU's APB-over-NoC
    /// register write, so it costs NoC time).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadRegister`] for unknown offsets and tile errors
    /// for bad coordinates / kinds.
    pub fn csr_write_at(
        &mut self,
        tile: TileCoord,
        offset: u64,
        value: u64,
        at: u64,
    ) -> Result<u64, Error> {
        let cpu = self.config.cpu();
        let t = self.noc_transfer(at, cpu, tile, 8, Plane::RegAccess);
        let state = self.tile_mut(tile)?;
        if !matches!(state.kind, TileKind::Reconfigurable) {
            return Err(Error::WrongTileKind {
                coord: tile,
                expected: "reconfigurable",
            });
        }
        match offset {
            csr::DECOUPLE => {
                if value == 1 {
                    if t.end < state.timeline.free_at() {
                        return Err(Error::DecouplerProtocol {
                            coord: tile,
                            detail: "decouple while the accelerator is executing".into(),
                        });
                    }
                    let previous = state.wrapper.configured_kind();
                    state.wrapper = WrapperState::Decoupled { previous };
                } else {
                    // Re-coupling resets the NoC queues; only meaningful
                    // after a reconfiguration installed a new wrapper, but
                    // harmless otherwise.
                    if let WrapperState::Decoupled { previous } = &state.wrapper {
                        state.wrapper = match previous {
                            Some(kind) => WrapperState::Configured(*kind),
                            None => WrapperState::Empty,
                        };
                    }
                }
            }
            _ => return Err(Error::BadRegister { offset }),
        }
        // Fault hook: the decoupler may acknowledge late (e.g. draining
        // in-flight NoC transactions); the CSR write still takes effect,
        // only its completion is pushed out.
        let delay = self
            .fault_plan
            .as_mut()
            .map_or(0, FaultPlan::next_decoupler_delay);
        let end = t.end + delay;
        self.tracer.emit(ClockDomain::SocCycles, t.end, delay, || {
            TraceEvent::DecouplerHandshake {
                tile: loc(tile),
                decouple: value == 1,
                delay,
            }
        });
        self.clock.observe(end);
        Ok(end)
    }

    /// Reads a reconfigurable-tile CSR.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadRegister`] for unknown offsets and tile errors
    /// for bad coordinates / kinds.
    pub fn csr_read(&self, tile: TileCoord, offset: u64) -> Result<u64, Error> {
        let state = self
            .tiles
            .get(&tile)
            .ok_or(Error::NoSuchTile { coord: tile })?;
        if !matches!(state.kind, TileKind::Reconfigurable) {
            return Err(Error::WrongTileKind {
                coord: tile,
                expected: "reconfigurable",
            });
        }
        match offset {
            csr::DECOUPLE => Ok(u64::from(state.wrapper.is_decoupled())),
            csr::STATUS => Ok(match &state.wrapper {
                WrapperState::Empty => 0,
                WrapperState::Configured(_) => 1,
                WrapperState::Decoupled { .. } => 2,
            }),
            _ => Err(Error::BadRegister { offset }),
        }
    }

    /// Partially reconfigures `tile` with `kind`, streaming `bitstream`
    /// through the DFXC + ICAP, starting no earlier than `at`.
    ///
    /// Protocol (Section III): the tile must be decoupled first; after the
    /// DFXC interrupt the caller re-couples via [`csr::DECOUPLE`]. The new
    /// wrapper starts with fresh accelerator state. A successful load
    /// becomes the tile's golden image, which keeps a reference to the
    /// stream it wrote rather than a copy of the region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DecouplerProtocol`] when the tile is not decoupled,
    /// plus bitstream/ICAP errors.
    pub fn reconfigure_at(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        bitstream: &Arc<Bitstream>,
        at: u64,
    ) -> Result<ReconfigRun, Error> {
        self.advance_seus_to(at);
        let aux = self.config.aux();
        let mem = self.config.mem();
        self.require_decoupled(tile, "reconfigure")?;
        let bytes = bitstream.size_bytes() as u64;
        let words = bitstream.words().len() as u64;
        // DFXC fetches the bitstream from DRAM over the DFX plane.
        let dram_done = self.dram_access(at, bytes).end;
        let fetch = self.noc_transfer(dram_done, mem, aux, bytes, Plane::Dfx);
        // Fault hook: the DFXC may report BUSY for a while before
        // accepting the trigger.
        let stall = self
            .fault_plan
            .as_mut()
            .map_or(0, FaultPlan::next_dfxc_stall);
        // Stream through the (shared) ICAP.
        let icap_start = fetch.end.max(self.icap.free_at()) + stall;
        // Fault hook: one word of the stream may arrive corrupted; the
        // flip goes through the real ICAP machinery, whose CRC check
        // detects it and fails the load with the fabric partially written.
        let fault = {
            let words = bitstream.words().len();
            self.fault_plan
                .as_mut()
                .and_then(|p| p.next_icap_fault(words))
        };
        let streamed = match fault {
            Some(flip) => Arc::new(bitstream.with_words(flip.corrupt(bitstream.words()))),
            None => Arc::clone(bitstream),
        };
        // Transactional write: the configuration memory journals what
        // each frame write displaces, so a stream that faults mid-write
        // rolls the fabric back instead of leaving it partially
        // configured, at a cost proportional to the frames it wrote.
        let loaded = self.dfxc.load_or_rollback(&streamed);
        let report = match loaded {
            Ok(report) => report,
            Err((e, dirty)) => {
                // A failed stream still occupied the ICAP for its full
                // length, and virtual time advances past the attempt.
                let r = self
                    .icap
                    .claim(fetch.end, icap_start, icap_start + icap_cycles(words));
                self.tracer
                    .emit(ClockDomain::SocCycles, r.start, r.duration(), || {
                        TraceEvent::IcapWrite {
                            tile: loc(tile),
                            words,
                            ok: false,
                            waited: r.waited,
                        }
                    });
                self.tracer
                    .emit(ClockDomain::SocCycles, at, r.end - at, || {
                        TraceEvent::Reconfiguration {
                            tile: loc(tile),
                            kind: kind.name(),
                            bytes,
                            ok: false,
                        }
                    });
                // The undo log already restored the pre-transaction
                // state: the failed stream's partial writes never become
                // visible fabric state. `dirty` counts the frames they
                // had changed.
                self.tracer.instant(ClockDomain::SocCycles, r.end, || {
                    TraceEvent::RollbackCompleted {
                        tile: loc(tile),
                        frames: dirty as u64,
                    }
                });
                self.clock.observe(r.end);
                return Err(e);
            }
        };
        let icap_cycles = (report.micros * SOC_CYCLES_PER_MICRO).ceil() as u64;
        let icap_done = icap_start + icap_cycles;
        let icap_r = self.icap.claim(fetch.end, icap_start, icap_done);
        self.tracer
            .emit(ClockDomain::SocCycles, icap_start, icap_cycles, || {
                TraceEvent::IcapWrite {
                    tile: loc(tile),
                    words,
                    ok: true,
                    waited: icap_r.waited,
                }
            });
        self.meter.add_reconfiguration(report.micros);
        // Install the new wrapper (still decoupled until software
        // re-couples it). The tile is occupied while its fabric is
        // written.
        let state = self.tile_mut(tile)?;
        state.wrapper = WrapperState::Decoupled {
            previous: Some(kind),
        };
        state.timeline.claim(at, icap_start, icap_done);
        // Region bookkeeping: the union of frames this tile's loads have
        // written defines its region, and the post-load image of that
        // region becomes its golden (known-good) store for scrubber
        // escalation. The image references the stream just loaded; only
        // region frames the stream did not write are copied.
        let golden = self
            .dfxc
            .config_memory()
            .capture_golden(streamed, self.golden.get(&tile))
            .expect("a stream that loaded walks, and its region addresses are valid");
        debug_assert!(
            golden.stream().frame_set().is_ok_and(|set| {
                let mut written = self.dfxc.last_written().to_vec();
                written.sort_unstable();
                written.dedup();
                **set == *written
            }),
            "the stream's frame set is what the ICAP wrote"
        );
        self.golden.insert(tile, golden);
        let end = self.deliver_irq(icap_done, aux);
        self.tracer.emit(ClockDomain::SocCycles, at, end - at, || {
            TraceEvent::Reconfiguration {
                tile: loc(tile),
                kind: kind.name(),
                bytes,
                ok: true,
            }
        });
        self.clock.observe(end);
        Ok(ReconfigRun {
            start: at,
            end,
            fetch_cycles: fetch.end - at,
            icap_cycles,
            bytes: bytes as usize,
        })
    }

    /// Runs `op` on the accelerator in `tile`, starting no earlier than
    /// `at`: DMA in from memory, compute, DMA out, completion interrupt.
    ///
    /// # Errors
    ///
    /// Returns tile/kind/protocol errors and accelerator execution errors.
    pub fn run_accelerator_at(
        &mut self,
        tile: TileCoord,
        op: &AccelOp,
        at: u64,
    ) -> Result<AccelRun, Error> {
        let value = AccelInstance::new(op.kind()).execute(op);
        self.run_accelerator_prepared_at(tile, op, at, value)
    }

    /// [`Soc::run_accelerator_at`] with the behavioral result `value`
    /// evaluated by the caller.
    ///
    /// Accelerator instances are stateless between invocations, so the
    /// value an operation produces is a pure function of the operation
    /// itself, and a caller may evaluate it anywhere — the threaded
    /// runtime does so outside its device lock. The SoC runs the protocol
    /// (decoupler check, DMA timing, power metering, trace emission,
    /// timeline claim) and takes `value` at the point the wrapper
    /// completes.
    ///
    /// # Errors
    ///
    /// See [`Soc::run_accelerator_at`]; an `Err` value surfaces after
    /// the run's protocol checks and DMA, where the wrapper completes.
    pub fn run_accelerator_prepared_at(
        &mut self,
        tile: TileCoord,
        op: &AccelOp,
        at: u64,
        value: Result<AccelValue, presp_accel::Error>,
    ) -> Result<AccelRun, Error> {
        self.advance_seus_to(at);
        let mem = self.config.mem();
        let state = self
            .tiles
            .get(&tile)
            .ok_or(Error::NoSuchTile { coord: tile })?;
        let kind = match (&state.kind, &state.wrapper) {
            (TileKind::Accel(k), _) => *k,
            (TileKind::Reconfigurable, WrapperState::Configured(kind)) => *kind,
            (TileKind::Reconfigurable, WrapperState::Decoupled { .. }) => {
                // Rejected here, before any DMA is issued: decoupled tiles
                // never observe NoC traffic.
                self.decoupled_rejections += 1;
                return Err(Error::DecouplerProtocol {
                    coord: tile,
                    detail: "accelerator start while decoupled".into(),
                });
            }
            (TileKind::Reconfigurable, WrapperState::Empty) => {
                return Err(Error::TileEmpty { coord: tile })
            }
            _ => {
                return Err(Error::WrongTileKind {
                    coord: tile,
                    expected: "accelerator",
                })
            }
        };
        if !op.runs_on(kind) {
            return Err(Error::Accel(presp_accel::Error::WrongOperation {
                accelerator: kind.name(),
                operation: "mismatched operation".into(),
            }));
        }

        let start = at.max(state.timeline.free_at());
        // Input DMA: DRAM read then NoC mem → tile.
        let dram_in = self.dram_access(start, op.input_bytes()).end;
        let t_in = self.noc_transfer(dram_in, mem, tile, op.input_bytes(), Plane::Dma);
        self.tracer
            .emit(ClockDomain::SocCycles, start, t_in.end - start, || {
                TraceEvent::DmaBurst {
                    tile: loc(tile),
                    bytes: op.input_bytes(),
                    direction: "in",
                }
            });
        // Compute.
        let cycles = compute_cycles(kind, op);
        let compute_done = t_in.end + cycles;
        self.meter.add_active(dynamic_power_w(kind), cycles);
        self.tracer
            .emit(ClockDomain::SocCycles, t_in.end, cycles, || {
                TraceEvent::Compute {
                    tile: loc(tile),
                    kind: kind.name(),
                    cycles,
                }
            });
        // Output DMA: NoC tile → mem then DRAM write.
        let t_out = self.noc_transfer(compute_done, tile, mem, op.output_bytes(), Plane::Dma);
        let dram_out = self.dram_access(t_out.end, op.output_bytes()).end;
        self.tracer.emit(
            ClockDomain::SocCycles,
            compute_done,
            dram_out - compute_done,
            || TraceEvent::DmaBurst {
                tile: loc(tile),
                bytes: op.output_bytes(),
                direction: "out",
            },
        );
        // The wrapper completes: its behavioral result is the run's.
        let value = value?;
        let end = self.deliver_irq(dram_out, tile);
        self.tile_mut(tile)?.timeline.claim(at, start, end);
        // Every completion of this run folds into the clock in one batch
        // (the IRQ delivery is the latest today, but the batch does not
        // depend on that ordering).
        self.clock
            .advance_batch([t_in.end, compute_done, dram_out, end]);
        Ok(AccelRun {
            value,
            start,
            end,
            dma_cycles: (t_in.end - dram_in) + (t_out.end - compute_done),
            compute_cycles: cycles,
        })
    }

    /// Runs `op` in software on the CPU tile (the fallback path for WAMI
    /// kernels not allocated to any reconfigurable tile).
    ///
    /// # Errors
    ///
    /// Returns accelerator execution errors.
    pub fn run_on_cpu_at(&mut self, op: &AccelOp, at: u64) -> Result<AccelRun, Error> {
        let value = AccelInstance::new(op.kind()).execute(op);
        self.run_on_cpu_prepared_at(op, at, value)
    }

    /// [`Soc::run_on_cpu_at`] with the behavioral result `value`
    /// evaluated by the caller — the CPU-path counterpart of
    /// [`Soc::run_accelerator_prepared_at`].
    ///
    /// # Errors
    ///
    /// See [`Soc::run_on_cpu_at`]; an `Err` value surfaces after the CPU
    /// timeline is reserved.
    pub fn run_on_cpu_prepared_at(
        &mut self,
        op: &AccelOp,
        at: u64,
        value: Result<AccelValue, presp_accel::Error>,
    ) -> Result<AccelRun, Error> {
        let cpu = self.config.cpu();
        let cycles = software_cycles(op);
        let r = self.tile_mut(cpu)?.timeline.reserve(at, cycles);
        let (start, end) = (r.start, r.end);
        let value = value?;
        self.meter
            .add_active(dynamic_power_w(AcceleratorKind::Cpu), cycles);
        self.tracer.emit(ClockDomain::SocCycles, start, cycles, || {
            TraceEvent::CpuCompute {
                kind: op.kind().name(),
                cycles,
            }
        });
        self.clock.observe(end);
        Ok(AccelRun {
            value,
            start,
            end,
            dma_cycles: 0,
            compute_cycles: cycles,
        })
    }

    /// Convenience wrapper: runs at the SoC's own clock and advances it.
    ///
    /// # Errors
    ///
    /// See [`Soc::run_accelerator_at`].
    pub fn run_accelerator(&mut self, tile: TileCoord, op: &AccelOp) -> Result<AccelRun, Error> {
        let at = self.clock.now();
        self.run_accelerator_at(tile, op, at)
    }

    /// Finalizes energy accounting over the whole simulated interval.
    pub fn energy_report(&self) -> EnergyReport {
        self.meter.report(self.clock.horizon())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_events::sink::snapshot;
    use presp_events::MemorySink;
    use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
    use presp_fpga::config_memory::RegionSnapshot;
    use presp_fpga::frame::FrameAddress;
    use presp_wami::graph::WamiKernel;
    use std::sync::Mutex;

    /// Attaches a fresh memory sink to `soc` and returns it.
    fn traced(soc: &mut Soc) -> Arc<Mutex<MemorySink>> {
        let sink = MemorySink::shared();
        soc.attach_tracer(sink.clone());
        sink
    }

    /// The `irq.deliver` records in `sink`, as (source, delivery cycle).
    fn irqs(sink: &Mutex<MemorySink>) -> Vec<(Loc, u64)> {
        snapshot(sink)
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::Irq { source } => Some((source, r.ts)),
                _ => None,
            })
            .collect()
    }

    /// The `seu.injected` records in `sink`, as (struck frame, double bit).
    fn upsets(sink: &Mutex<MemorySink>) -> Vec<(FrameAddress, bool)> {
        snapshot(sink)
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::SeuInjected {
                    frame, double_bit, ..
                } => Some((FrameAddress::unpack(frame as u32), double_bit)),
                _ => None,
            })
            .collect()
    }

    fn mac_soc() -> Soc {
        let cfg = SocConfig::grid_2x2_single(AcceleratorKind::Mac).unwrap();
        Soc::new(&cfg).unwrap()
    }

    fn reconf_soc(n: usize) -> Soc {
        let cfg = SocConfig::grid_3x3_reconf("test", n).unwrap();
        Soc::new(&cfg).unwrap()
    }

    fn mac_bitstream(soc: &Soc, column: u32) -> Arc<Bitstream> {
        let device = soc.part().device();
        let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        let words = device.part().family().frame_words();
        for minor in 0..4 {
            b.add_frame(
                FrameAddress::new(0, column, minor),
                vec![0x5A5A_0000 + minor; words],
            )
            .unwrap();
        }
        Arc::new(b.build(true))
    }

    #[test]
    fn static_accelerator_computes_and_interrupts() {
        let mut soc = mac_soc();
        let sink = traced(&mut soc);
        let tile = soc.accelerator_tiles()[0];
        let run = soc
            .run_accelerator(
                tile,
                &AccelOp::Mac {
                    a: vec![1.0; 64],
                    b: vec![2.0; 64],
                },
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(128.0));
        assert!(run.end > run.start);
        assert!(run.dma_cycles > 0 && run.compute_cycles > 0);
        assert_eq!(irqs(&sink), vec![(loc(tile), run.end)]);
    }

    #[test]
    fn empty_reconfigurable_tile_rejects_work() {
        let mut soc = reconf_soc(2);
        let tile = soc.config().reconfigurable_tiles()[0];
        let err = soc.run_accelerator(tile, &AccelOp::Sort { data: vec![1.0] });
        assert!(matches!(err, Err(Error::TileEmpty { .. })));
    }

    #[test]
    fn reconfiguration_requires_decoupling() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let bs = mac_bitstream(&soc, 2);
        let err = soc.reconfigure_at(tile, AcceleratorKind::Mac, &bs, 0);
        assert!(matches!(err, Err(Error::DecouplerProtocol { .. })));
    }

    #[test]
    fn full_reconfiguration_protocol_works() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        // 1. decouple; 2. reconfigure; 3. re-couple; 4. run.
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        assert_eq!(soc.csr_read(tile, csr::STATUS).unwrap(), 2);
        let bs = mac_bitstream(&soc, 2);
        let reconf = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &bs, t1)
            .unwrap();
        assert!(reconf.end > t1);
        assert!(reconf.icap_cycles > 0 && reconf.fetch_cycles > 0);
        let t2 = soc
            .csr_write_at(tile, csr::DECOUPLE, 0, reconf.end)
            .unwrap();
        assert_eq!(soc.csr_read(tile, csr::STATUS).unwrap(), 1);
        let run = soc
            .run_accelerator_at(
                tile,
                &AccelOp::Mac {
                    a: vec![3.0],
                    b: vec![4.0],
                },
                t2,
            )
            .unwrap();
        assert_eq!(run.value, AccelValue::Scalar(12.0));
    }

    /// Two distinct CLB columns of the device, ascending.
    fn two_clb_columns(soc: &Soc) -> (u32, u32) {
        let device = soc.part().device();
        let mut clbs = (0..device.columns())
            .filter(|&i| device.column_kind(i) == presp_fpga::fabric::ColumnKind::Clb)
            .map(|i| i as u32);
        (clbs.next().unwrap(), clbs.next_back().unwrap())
    }

    #[test]
    fn region_move_relocates_frames_golden_and_wrapper_survives() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let (src, dst) = two_clb_columns(&soc);
        let delta = dst as i64 - src as i64;
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let bs = mac_bitstream(&soc, src);
        let reconf = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &bs, t1)
            .unwrap();
        let old_region = soc.tile_region(tile);
        let run = soc.move_tile_region_at(tile, delta, reconf.end).unwrap();
        assert_eq!(run.frames, old_region.len());
        assert!(run.end > run.start);
        // Frames live at the new base, bit-exact; the old base is erased.
        let new_region = soc.tile_region(tile);
        assert_eq!(new_region.len(), old_region.len());
        for (old, new) in old_region.iter().zip(new_region.iter()) {
            assert_eq!(new.column, dst);
            assert_eq!((new.row, new.minor), (old.row, old.minor));
            assert_eq!(
                soc.dfxc.config_memory().frame(*new),
                vec![0x5A5A_0000 + new.minor; soc.dfxc.config_memory().frame_words()]
            );
            assert!(!soc.dfxc.config_memory().is_configured(*old));
        }
        // ECC moved in lockstep: the whole region scrubs clean.
        let report = soc.scrub_frames_at(&new_region, run.end).unwrap();
        assert!(report.is_clean());
        // The golden store follows, so escalation still restores correctly.
        let golden = soc.golden_image(tile).unwrap().addresses();
        assert_eq!(*golden, new_region);
        // The wrapper (and its configured accelerator) is untouched.
        let t2 = soc.csr_write_at(tile, csr::DECOUPLE, 0, run.end).unwrap();
        let out = soc
            .run_accelerator_at(
                tile,
                &AccelOp::Mac {
                    a: vec![3.0],
                    b: vec![4.0],
                },
                t2,
            )
            .unwrap();
        assert_eq!(out.value, AccelValue::Scalar(12.0));
    }

    #[test]
    fn region_move_requires_decoupling_and_a_region() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        assert!(matches!(
            soc.move_tile_region_at(tile, 1, 0),
            Err(Error::DecouplerProtocol { .. })
        ));
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        assert!(matches!(
            soc.move_tile_region_at(tile, 1, t1),
            Err(Error::RegionConflict { .. })
        ));
    }

    #[test]
    fn region_move_refuses_to_clobber_another_tiles_region() {
        let mut soc = reconf_soc(2);
        let tiles = soc.config().reconfigurable_tiles();
        let (src, dst) = two_clb_columns(&soc);
        let t1 = soc.csr_write_at(tiles[0], csr::DECOUPLE, 1, 0).unwrap();
        let bs0 = mac_bitstream(&soc, src);
        let r0 = soc
            .reconfigure_at(tiles[0], AcceleratorKind::Mac, &bs0, t1)
            .unwrap();
        let t2 = soc
            .csr_write_at(tiles[1], csr::DECOUPLE, 1, r0.end)
            .unwrap();
        let bs1 = mac_bitstream(&soc, dst);
        let r1 = soc
            .reconfigure_at(tiles[1], AcceleratorKind::Mac, &bs1, t2)
            .unwrap();
        let before = soc.dfxc.config_memory().configured_addresses();
        let err = soc.move_tile_region_at(tiles[0], dst as i64 - src as i64, r1.end);
        assert!(matches!(err, Err(Error::RegionConflict { .. })), "{err:?}");
        // A refused move leaves the fabric bit-identical.
        assert_eq!(soc.dfxc.config_memory().configured_addresses(), before);
        assert_eq!(soc.tile_region(tiles[0])[0].column, src);
    }

    #[test]
    fn region_move_keeps_an_inflight_upset_detectable() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let (src, dst) = two_clb_columns(&soc);
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let bs = mac_bitstream(&soc, src);
        let reconf = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &bs, t1)
            .unwrap();
        // An SEU strikes between the load and the move...
        let struck = soc.tile_region(tile)[0];
        soc.dfxc
            .config_memory_mut()
            .corrupt_bit(struck, 3, 17)
            .unwrap();
        let run = soc
            .move_tile_region_at(tile, dst as i64 - src as i64, reconf.end)
            .unwrap();
        // ...and is still caught (and repaired) at the new address: the
        // move copies check codes bit-exact instead of re-encoding the
        // corrupted payload as truth.
        let report = soc
            .scrub_frames_at(&soc.tile_region(tile), run.end)
            .unwrap();
        assert_eq!(report.corrected.len(), 1);
        assert_eq!(report.corrected[0].0.column, dst);
        assert!(report.uncorrectable.is_empty());
    }

    #[test]
    fn region_release_erases_frames_and_frees_the_span_for_others() {
        let mut soc = reconf_soc(2);
        let tiles = soc.config().reconfigurable_tiles();
        let (src, dst) = two_clb_columns(&soc);
        // Releasing before any load (or while coupled) follows the same
        // protocol as a move.
        assert!(matches!(
            soc.release_tile_region(tiles[0], 0),
            Err(Error::DecouplerProtocol { .. })
        ));
        let t1 = soc.csr_write_at(tiles[0], csr::DECOUPLE, 1, 0).unwrap();
        assert_eq!(soc.release_tile_region(tiles[0], t1).unwrap(), 0);
        let bs = mac_bitstream(&soc, src);
        let reconf = soc
            .reconfigure_at(tiles[0], AcceleratorKind::Mac, &bs, t1)
            .unwrap();
        let old_region = soc.tile_region(tiles[0]);
        assert!(!old_region.is_empty());
        assert!(soc.has_region(tiles[0]));
        let freed = soc.release_tile_region(tiles[0], reconf.end).unwrap();
        assert_eq!(freed, old_region.len());
        // Bookkeeping retired: no region, no golden, frames erased.
        assert!(soc.tile_region(tiles[0]).is_empty());
        assert!(!soc.has_region(tiles[0]));
        assert!(soc.golden_image(tiles[0]).is_none());
        for addr in old_region.iter() {
            assert!(!soc.dfxc.config_memory().is_configured(*addr));
        }
        // Another tile can now move into the vacated span.
        let t2 = soc
            .csr_write_at(tiles[1], csr::DECOUPLE, 1, soc.horizon())
            .unwrap();
        let bs1 = mac_bitstream(&soc, dst);
        let r1 = soc
            .reconfigure_at(tiles[1], AcceleratorKind::Mac, &bs1, t2)
            .unwrap();
        soc.move_tile_region_at(tiles[1], src as i64 - dst as i64, r1.end)
            .unwrap();
        assert_eq!(soc.tile_region(tiles[1])[0].column, src);
    }

    #[test]
    fn decoupled_tile_rejects_traffic() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let bs = mac_bitstream(&soc, 2);
        let reconf = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &bs, t1)
            .unwrap();
        // Still decoupled: execution must be rejected until re-coupled.
        let err = soc.run_accelerator_at(
            tile,
            &AccelOp::Mac {
                a: vec![1.0],
                b: vec![1.0],
            },
            reconf.end,
        );
        assert!(matches!(err, Err(Error::DecouplerProtocol { .. })));
    }

    #[test]
    fn change_detection_model_survives_reconfiguration_via_dram() {
        use presp_wami::change_detection::{ChangeDetector, GmmConfig};
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let cd = AcceleratorKind::Wami(WamiKernel::ChangeDetection);
        let mut frame = presp_wami::image::GrayImage::zeroed(8, 8);
        for p in frame.pixels_mut() {
            *p = 50.0;
        }
        // Load change detection, train the (DRAM-resident) model.
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let r1 = soc
            .reconfigure_at(tile, cd, &mac_bitstream(&soc, 2), t1)
            .unwrap();
        let t2 = soc.csr_write_at(tile, csr::DECOUPLE, 0, r1.end).unwrap();
        let model = Box::new(ChangeDetector::new(8, 8, GmmConfig::default()));
        let run = soc
            .run_accelerator_at(
                tile,
                &AccelOp::ChangeDetection {
                    frame: frame.clone(),
                    model,
                },
                t2,
            )
            .unwrap();
        let trained = match run.value {
            AccelValue::ChangeDetection { model, .. } => model,
            other => panic!("unexpected {other:?}"),
        };
        // Swap the accelerator out and back in: the model survived in DRAM
        // and still recognizes a change.
        let t3 = soc
            .csr_write_at(tile, csr::DECOUPLE, 1, soc.horizon())
            .unwrap();
        let r2 = soc
            .reconfigure_at(tile, cd, &mac_bitstream(&soc, 2), t3)
            .unwrap();
        let t4 = soc.csr_write_at(tile, csr::DECOUPLE, 0, r2.end).unwrap();
        let mut bright = frame.clone();
        bright.set(0, 0, 255.0);
        let run = soc
            .run_accelerator_at(
                tile,
                &AccelOp::ChangeDetection {
                    frame: bright,
                    model: trained,
                },
                t4,
            )
            .unwrap();
        match run.value {
            AccelValue::ChangeDetection { changed, .. } => assert_eq!(changed, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn larger_bitstreams_reconfigure_slower() {
        let mut soc = reconf_soc(2);
        let tiles = soc.config().reconfigurable_tiles();
        let device = soc.part().device();
        let words = device.part().family().frame_words();
        let mut small = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        small
            .add_frame(FrameAddress::new(0, 2, 0), vec![1; words])
            .unwrap();
        let mut large = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        for minor in 0..30 {
            large
                .add_frame(FrameAddress::new(1, 2, minor), vec![minor + 1; words])
                .unwrap();
        }
        let t1 = soc.csr_write_at(tiles[0], csr::DECOUPLE, 1, 0).unwrap();
        let r_small = soc
            .reconfigure_at(
                tiles[0],
                AcceleratorKind::Mac,
                &Arc::new(small.build(true)),
                t1,
            )
            .unwrap();
        let t2 = soc.csr_write_at(tiles[1], csr::DECOUPLE, 1, 0).unwrap();
        let r_large = soc
            .reconfigure_at(
                tiles[1],
                AcceleratorKind::Mac,
                &Arc::new(large.build(true)),
                t2,
            )
            .unwrap();
        assert!(r_large.latency() > r_small.latency());
    }

    #[test]
    fn cpu_fallback_is_slower_than_hardware() {
        let mut soc = mac_soc();
        let tile = soc.accelerator_tiles()[0];
        let op = AccelOp::Mac {
            a: vec![1.0; 4096],
            b: vec![1.0; 4096],
        };
        let hw = soc.run_accelerator_at(tile, &op, 0).unwrap();
        let sw = soc.run_on_cpu_at(&op, 0).unwrap();
        assert_eq!(hw.value, sw.value);
        assert!(sw.compute_cycles > 5 * hw.compute_cycles);
    }

    #[test]
    fn concurrent_tiles_share_the_dram_channel() {
        let cfg = SocConfig::new(
            "dual",
            2,
            3,
            vec![
                TileKind::Cpu,
                TileKind::Mem,
                TileKind::Aux,
                TileKind::Accel(AcceleratorKind::Mac),
                TileKind::Accel(AcceleratorKind::Mac),
                TileKind::Empty,
            ],
        )
        .unwrap();
        let mut soc = Soc::new(&cfg).unwrap();
        let tiles = soc.accelerator_tiles();
        let op = AccelOp::Mac {
            a: vec![1.0; 100_000],
            b: vec![1.0; 100_000],
        };
        let a = soc.run_accelerator_at(tiles[0], &op, 0).unwrap();
        let b = soc.run_accelerator_at(tiles[1], &op, 0).unwrap();
        // Issued at the same cycle, but DRAM + shared NoC links near the
        // memory tile serialize the input DMA.
        assert!(b.end > a.end);
    }

    #[test]
    fn energy_report_accounts_all_terms() {
        let mut soc = mac_soc();
        let tile = soc.accelerator_tiles()[0];
        soc.run_accelerator(
            tile,
            &AccelOp::Mac {
                a: vec![1.0; 1024],
                b: vec![1.0; 1024],
            },
        )
        .unwrap();
        let report = soc.energy_report();
        assert!(report.dynamic_j > 0.0);
        assert!(report.leakage_j > 0.0);
        assert!(report.base_j > 0.0);
        assert!(report.elapsed_s > 0.0);
        assert!(report.total_j() >= report.dynamic_j);
    }

    #[test]
    fn forced_seu_is_applied_and_scrubbed() {
        use presp_fpga::fault::FaultConfig;
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let bs = mac_bitstream(&soc, 2);
        let r = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &bs, t1)
            .unwrap();
        let region = soc.tile_region(tile);
        assert_eq!(region.len(), 4, "four frames were loaded");
        let mut plan = FaultPlan::new(7, FaultConfig::uniform(0.0));
        plan.force_seu(r.end + 10, false);
        soc.set_fault_plan(Some(plan));
        let sink = traced(&mut soc);
        let report = soc.scrub_frames_at(&region, r.end + 100).unwrap();
        assert_eq!(report.corrected.len(), 1);
        assert!(report.uncorrectable.is_empty());
        let upsets = upsets(&sink);
        assert_eq!(upsets.len(), 1);
        assert!(region.contains(&upsets[0].0));
        // A second pass reads back clean.
        let report = soc.scrub_frames_at(&region, report.end).unwrap();
        assert!(report.is_clean());
    }

    /// A stream writing `payload(minor)` into row 0 of `column`, minors
    /// `minors`, built raw or compressed.
    fn stream_of(
        soc: &Soc,
        column: u32,
        minors: std::ops::Range<u32>,
        payload: impl Fn(u32) -> u32,
        compressed: bool,
    ) -> Bitstream {
        let device = soc.part().device();
        let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        let words = device.part().family().frame_words();
        for minor in minors {
            b.add_frame(
                FrameAddress::new(0, column, minor),
                vec![payload(minor); words],
            )
            .unwrap();
        }
        b.build(compressed)
    }

    /// The live snapshot of `tile`'s region: what its golden image must
    /// equal right after a load, payload and check codes included.
    fn live_region(soc: &Soc, tile: TileCoord) -> RegionSnapshot {
        let region = soc.tile_region(tile);
        soc.dfxc.config_memory().snapshot(region.iter()).unwrap()
    }

    /// Loads `bs` into `tile` as a MAC (the tile must be decoupled).
    fn load(soc: &mut Soc, tile: TileCoord, bs: &Bitstream, at: u64) -> Result<ReconfigRun, Error> {
        soc.reconfigure_at(tile, AcceleratorKind::Mac, &Arc::new(bs.clone()), at)
    }

    /// `tile`'s golden image, materialised.
    fn golden(soc: &Soc, tile: TileCoord) -> RegionSnapshot {
        soc.golden_image(tile).unwrap().snapshot().unwrap()
    }

    #[test]
    fn golden_keeps_an_uncovered_struck_frame_and_restores_it() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        // The first load writes eight frames (one of them all-zero), the
        // second only the first four: frames 4..8 stay as they were.
        let wide = stream_of(&soc, 2, 0..8, |m| if m == 5 { 0 } else { 0x1100 + m }, true);
        let r1 = load(&mut soc, tile, &wide, t1).unwrap();
        let struck = FrameAddress::new(0, 2, 6);
        soc.dfxc
            .config_memory_mut()
            .corrupt_bit(struck, 3, 7)
            .unwrap();
        let erased_struck = FrameAddress::new(0, 2, 5);
        soc.dfxc
            .config_memory_mut()
            .corrupt_bit(erased_struck, 0, 1)
            .unwrap();
        let narrow = stream_of(&soc, 2, 0..4, |m| 0x2200 + m, false);
        load(&mut soc, tile, &narrow, r1.end).unwrap();
        let live = live_region(&soc, tile);
        assert_eq!(live.len(), 8, "the region keeps every frame ever written");
        assert_eq!(golden(&soc, tile), live, "golden = the region at load time");

        // Scramble the region, then restore: the upsets come back too,
        // still disagreeing with their check codes.
        let words = soc.dfxc.config_memory().frame_words();
        for minor in [0, 4, 6] {
            soc.dfxc
                .config_memory_mut()
                .write_frame(FrameAddress::new(0, 2, minor), &vec![0xFFFF; words])
                .unwrap();
        }
        assert_eq!(soc.restore_golden(tile).unwrap(), 8);
        assert_eq!(live_region(&soc, tile), live);
        let memory = soc.dfxc.config_memory_mut();
        assert!(matches!(
            memory.scrub_frame(struck).unwrap(),
            FrameRepair::Corrected { .. }
        ));
        assert!(matches!(
            memory.scrub_frame(erased_struck).unwrap(),
            FrameRepair::Corrected { .. }
        ));
    }

    #[test]
    fn a_rolled_back_load_leaves_the_golden_untouched() {
        use presp_fpga::fault::FaultConfig;
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let first = stream_of(&soc, 2, 0..4, |m| 0x3300 + m, true);
        let r1 = load(&mut soc, tile, &first, t1).unwrap();
        let before = golden(&soc, tile);
        let region = soc.tile_region(tile);
        let mut plan = FaultPlan::new(3, FaultConfig::uniform(0.0));
        plan.force_icap_fault(0);
        soc.set_fault_plan(Some(plan));
        let bigger = stream_of(&soc, 2, 0..12, |m| 0x4400 + m, true);
        assert!(load(&mut soc, tile, &bigger, r1.end).is_err());
        assert_eq!(soc.tile_region(tile), region);
        assert_eq!(golden(&soc, tile), before);
        assert_eq!(live_region(&soc, tile), before);
    }

    #[test]
    fn golden_of_a_multi_frame_write_stream_matches_the_loaded_region() {
        for compressed in [true, false] {
            let mut soc = reconf_soc(1);
            let tile = soc.config().reconfigurable_tiles()[0];
            let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
            // Three distinct payloads over twelve frames (MFWR replays
            // them when compressed), plus all-zero frames that load erased.
            let bs = stream_of(
                &soc,
                2,
                0..12,
                |m| [0, 0xA0, 0xB0][(m % 3) as usize],
                compressed,
            );
            let r = load(&mut soc, tile, &bs, t1).unwrap();
            let live = live_region(&soc, tile);
            assert_eq!(live.len(), 12);
            assert_eq!(golden(&soc, tile), live, "compressed: {compressed}");
            // A second, different stream over the same region.
            let bs = stream_of(&soc, 2, 0..12, |m| 0xC0 + m % 2, compressed);
            load(&mut soc, tile, &bs, r.end).unwrap();
            let live = live_region(&soc, tile);
            assert_eq!(golden(&soc, tile), live, "compressed: {compressed}");
            // It covers the region, so the region is the stream's own
            // frame set, not a copy.
            let image = soc.golden_image(tile).unwrap();
            assert!(Arc::ptr_eq(
                &soc.tile_region(tile),
                image.stream().frame_set().unwrap()
            ));
            let words = soc.dfxc.config_memory().frame_words();
            soc.dfxc
                .config_memory_mut()
                .write_frame(FrameAddress::new(0, 2, 1), &vec![7; words])
                .unwrap();
            assert_eq!(soc.restore_golden(tile).unwrap(), 12);
            assert_eq!(live_region(&soc, tile), live);
        }
    }

    #[test]
    fn golden_of_a_relocated_stream_matches_the_loaded_region() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let (src, dst) = two_clb_columns(&soc);
        let device = soc.part().device();
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let bs = stream_of(&soc, src, 0..6, |m| 0xD00 + m % 2, true)
            .relocate(&device, dst as i64 - src as i64)
            .unwrap();
        load(&mut soc, tile, &bs, t1).unwrap();
        let live = live_region(&soc, tile);
        assert!(live.addresses().iter().all(|a| a.column == dst));
        assert_eq!(golden(&soc, tile), live);
    }

    #[test]
    fn golden_of_a_stream_with_duplicate_writes_keeps_the_last() {
        use presp_fpga::bitstream::{
            type1_write, Command, ConfigReg, CrcAccumulator, DUMMY_WORD, SYNC_WORD,
        };
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let words = soc.dfxc.config_memory().frame_words();
        let idcode = soc.part().idcode();
        // FAR a, two frames (a, a+1); FAR a again, one frame: a is written
        // twice and the second (all-zero) write must win, loading erased.
        let a = FrameAddress::new(0, 2, 0);
        let mut crc = CrcAccumulator::new();
        let mut w = vec![
            DUMMY_WORD,
            SYNC_WORD,
            type1_write(ConfigReg::Cmd, 1),
            Command::Rcrc as u32,
            type1_write(ConfigReg::Idcode, 1),
            idcode,
            type1_write(ConfigReg::Cmd, 1),
            Command::Wcfg as u32,
        ];
        let mut write = |w: &mut Vec<u32>, far: FrameAddress, frames: &[u32]| {
            w.push(type1_write(ConfigReg::Far, 1));
            w.push(far.pack());
            crc.update(far.pack());
            w.push(type1_write(ConfigReg::Fdri, (frames.len() * words) as u32));
            for &v in frames {
                for _ in 0..words {
                    w.push(v);
                    crc.update(v);
                }
            }
        };
        write(&mut w, a, &[0x55, 0x66]);
        write(&mut w, a, &[0]);
        w.push(type1_write(ConfigReg::Crc, 1));
        w.push(crc.value());
        w.push(type1_write(ConfigReg::Cmd, 1));
        w.push(Command::Desync as u32);
        let bs = stream_of(&soc, 2, 0..2, |m| m + 1, false).with_words(w);
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        load(&mut soc, tile, &bs, t1).unwrap();
        assert!(
            !soc.dfxc.config_memory().is_configured(a),
            "last write wins"
        );
        let live = live_region(&soc, tile);
        assert_eq!(live.len(), 2);
        assert_eq!(golden(&soc, tile), live);
    }

    #[test]
    fn double_bit_seu_needs_a_golden_restore() {
        use presp_fpga::fault::FaultConfig;
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let bs = mac_bitstream(&soc, 2);
        let r = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &bs, t1)
            .unwrap();
        let mut plan = FaultPlan::new(11, FaultConfig::uniform(0.0));
        plan.force_seu(r.end + 1, true);
        soc.set_fault_plan(Some(plan));
        let sink = traced(&mut soc);
        let region = soc.tile_region(tile);
        let report = soc.scrub_frames_at(&region, r.end + 50).unwrap();
        assert_eq!(report.uncorrectable.len(), 1);
        assert!(upsets(&sink)[0].1, "the upset flipped a second bit");
        // ECC cannot fix it; the golden store can.
        assert_eq!(soc.restore_golden(tile).unwrap(), 4);
        let report = soc.scrub_frames_at(&region, report.end).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn faulted_load_rolls_back_to_pre_transaction_image() {
        use presp_fpga::fault::FaultConfig;
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let r1 = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &mac_bitstream(&soc, 2), t1)
            .unwrap();
        let before = soc.dfxc().config_memory().clone();
        let mut plan = FaultPlan::new(3, FaultConfig::uniform(0.0));
        plan.force_icap_fault(0);
        soc.set_fault_plan(Some(plan));
        let err = soc.reconfigure_at(tile, AcceleratorKind::Mac, &mac_bitstream(&soc, 3), r1.end);
        assert!(err.is_err());
        assert!(
            before.diff(soc.dfxc().config_memory()).is_empty(),
            "rollback restored the pre-transaction image bit-for-bit"
        );
    }

    #[test]
    fn scrubbing_contends_with_reconfiguration_for_the_icap() {
        let mut soc = reconf_soc(2);
        let tiles = soc.config().reconfigurable_tiles();
        let t1 = soc.csr_write_at(tiles[0], csr::DECOUPLE, 1, 0).unwrap();
        let r1 = soc
            .reconfigure_at(tiles[0], AcceleratorKind::Mac, &mac_bitstream(&soc, 2), t1)
            .unwrap();
        let region = soc.tile_region(tiles[0]);
        // Launch a second reconfiguration, then scrub at the same cycle:
        // the readback must queue behind the ICAP write.
        let t2 = soc
            .csr_write_at(tiles[1], csr::DECOUPLE, 1, r1.end)
            .unwrap();
        soc.reconfigure_at(tiles[1], AcceleratorKind::Mac, &mac_bitstream(&soc, 3), t2)
            .unwrap();
        let before = soc.icap_contention_cycles();
        let scrub = soc.scrub_frames_at(&region, t2).unwrap();
        assert!(scrub.waited > 0, "scrub waited for the shared ICAP");
        assert!(soc.icap_contention_cycles() > before);
        assert!(scrub.is_clean());
    }

    #[test]
    fn seeded_seu_stream_targets_configured_frames() {
        use presp_fpga::fault::FaultConfig;
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        let t1 = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let r = soc
            .reconfigure_at(tile, AcceleratorKind::Mac, &mac_bitstream(&soc, 2), t1)
            .unwrap();
        let plan = FaultPlan::new(42, FaultConfig::uniform(0.0).with_seu(300.0, 0.0));
        soc.set_fault_plan(Some(plan));
        let sink = traced(&mut soc);
        let region = soc.tile_region(tile);
        let report = soc.scrub_frames_at(&region, r.end + 50_000).unwrap();
        let upsets = upsets(&sink);
        assert!(!upsets.is_empty(), "the seeded stream produced upsets");
        for (frame, _) in upsets {
            assert!(region.contains(&frame), "upsets strike active frames");
        }
        // Everything lands in the scrubbed region, so the pass sees every
        // upset (two hits on one word escalate to uncorrectable instead).
        assert!(!report.is_clean());
    }

    #[test]
    fn csr_errors() {
        let mut soc = reconf_soc(1);
        let tile = soc.config().reconfigurable_tiles()[0];
        assert!(matches!(
            soc.csr_write_at(tile, 0x99, 1, 0),
            Err(Error::BadRegister { .. })
        ));
        assert!(matches!(
            soc.csr_read(tile, 0x99),
            Err(Error::BadRegister { .. })
        ));
        let cpu = soc.config().cpu();
        assert!(matches!(
            soc.csr_read(cpu, csr::STATUS),
            Err(Error::WrongTileKind { .. })
        ));
    }
}
