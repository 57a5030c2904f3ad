//! The DPR protocol, factored over a tile shard and the device core.
//!
//! These functions are the one implementation of the Section V protocol
//! (wait-for-idle → decouple → DFXC → re-couple → driver swap, with
//! retry/backoff/quarantine recovery and ECC scrubbing) shared by both
//! runtimes: the deterministic [`crate::manager::ReconfigManager`] calls
//! them with its directly-owned shards, and the OS-threaded
//! [`crate::threaded::ThreadedManager`] calls them while holding the per-tile
//! shard lock and the device-core lock. Every trace event, counter
//! update and virtual-time decision of a request's outcome lives here —
//! including the CPU degrade and the deadline-miss booking — so both
//! paths are byte-identical by construction.
//!
//! The scheduler emits only its own scheduling records, which the
//! deterministic manager has no counterpart for: `sched.dispatch`,
//! `sched.redispatch` and `sched.worker_died` at a job's commit slot,
//! `sched.shed` (with the `shed` counter) when admission control refuses
//! or displaces a request, and `sched.coalesced` (with the `coalesced`
//! and folded `reconfig_requests` counts) when a load answers folded
//! waiters. Maintenance passes count through [`scrub_tile_at`] (a sweep
//! reaches it through [`sweep_tile_at`]), [`repack_move`] and
//! [`close_repack_pass`].
//!
//! The `value` parameters carry an operation's behavioral result, which
//! every caller evaluates before calling in (accelerator instances are
//! stateless, so the value is a pure function of the operation): the
//! deterministic manager just ahead of the call, the threaded workers
//! outside the locks.

use crate::device::{loc, DeviceCore};
use crate::error::Error;
use crate::manager::{ExecPath, RecoveryPolicy, RepackReport};
use crate::sync::Arc;
use crate::tile::{TileHealth, TileState};
use presp_accel::catalog::AcceleratorKind;
use presp_accel::{AccelInstance, AccelOp, AccelValue};
use presp_events::trace::ClockDomain;
use presp_events::{backoff, TraceEvent};
use presp_floorplan::RegionMove;
use presp_fpga::bitstream::Bitstream;
use presp_fpga::fabric::Device;
use presp_fpga::fault::FaultPlan;
use presp_soc::config::TileCoord;
use presp_soc::sim::{csr, AccelRun, ReconfigRun, ScrubReport};

/// An operation's behavioral result, evaluated by the caller.
pub(crate) type Evaluated = Result<AccelValue, presp_accel::Error>;

/// Evaluates `op`'s behavioral result. Accelerator instances are
/// stateless, so this needs no tile, lock or virtual time.
pub(crate) fn evaluate(op: &AccelOp) -> Evaluated {
    AccelInstance::new(op.kind()).execute(op)
}

/// Ensures `kind` is loaded in the shard's tile, reconfiguring if
/// needed, with the request arriving at cycle `at`. See
/// [`crate::manager::ReconfigManager::request_reconfiguration_at`] for
/// the full contract.
pub(crate) fn request_reconfiguration_at(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    policy: &RecoveryPolicy,
    kind: AcceleratorKind,
    at: u64,
) -> Result<Option<ReconfigRun>, Error> {
    let tile = tile_state.coord();
    core.stats_mut().reconfig_requests += 1;
    if tile_state.is_quarantined() {
        core.stats_mut().rejected += 1;
        return Err(Error::TileQuarantined { tile });
    }
    if tile_state.services(kind) {
        core.stats_mut().cache_hits += 1;
        core.soc_mut()
            .tracer_mut()
            .instant(ClockDomain::SocCycles, at, || {
                TraceEvent::BitstreamCacheHit {
                    tile: loc(tile),
                    kind: kind.name(),
                }
            });
        return Ok(None);
    }
    // The request's one fetch. A pair that was never registered (a
    // corrupt stream is refused at registration) is a permanent error;
    // transient staleness is injected per attempt below.
    let bitstream = core
        .fetch_bitstream(tile, kind, at)
        .inspect_err(|_| core.stats_mut().rejected += 1)?;
    // Wait for the accelerator in the tile to complete its execution.
    let idle = at.max(tile_state.idle_at());
    // Unregister the outgoing driver: from here until probe, other
    // threads' submissions fail fast instead of touching a tile that is
    // being rewritten.
    tile_state.remove_driver();
    let mut decoupled_at: Option<u64> = None;
    let mut when = idle;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match attempt_load(tile_state, core, kind, &bitstream, when, &mut decoupled_at) {
            Ok(reconf) => {
                let coupled = match core
                    .soc_mut()
                    .csr_write_at(tile, csr::DECOUPLE, 0, reconf.end)
                {
                    Ok(t) => t,
                    Err(e) => {
                        core.stats_mut().rejected += 1;
                        return Err(e.into());
                    }
                };
                core.soc_mut().tracer_mut().emit(
                    ClockDomain::SocCycles,
                    reconf.start,
                    coupled - reconf.start,
                    || TraceEvent::ReconfigAttempt {
                        tile: loc(tile),
                        kind: kind.name(),
                        attempt: u64::from(attempts),
                        ok: true,
                    },
                );
                tile_state.probe_driver(kind);
                tile_state.set_idle_at(coupled);
                tile_state.clear_failures();
                // Every frame of the region was rewritten (and its
                // golden image refreshed): the tile is healthy again.
                tile_state.set_health(TileHealth::Healthy);
                if let Some(mark) = tile_state.take_oversized_mark() {
                    core.stats_mut().oversized_admitted += 1;
                    if core.stats().repack_moves > mark {
                        core.stats_mut().repack_admitted += 1;
                    }
                }
                core.stats_mut().reconfigurations += 1;
                core.stats_mut().reconfig_cycles += coupled - idle;
                return Ok(Some(ReconfigRun {
                    end: coupled,
                    ..reconf
                }));
            }
            Err(e) if is_transient(&e) => {
                let failed_at = core.soc().horizon().max(when);
                core.soc_mut().tracer_mut().emit(
                    ClockDomain::SocCycles,
                    when,
                    failed_at - when,
                    || TraceEvent::ReconfigAttempt {
                        tile: loc(tile),
                        kind: kind.name(),
                        attempt: u64::from(attempts),
                        ok: false,
                    },
                );
                if attempts > policy.max_retries {
                    return give_up(tile_state, core, policy, kind, attempts);
                }
                core.stats_mut().retries += 1;
                let backoff = backoff::exponential(
                    policy.backoff_cycles,
                    policy.backoff_multiplier,
                    attempts,
                );
                core.soc_mut().tracer_mut().emit(
                    ClockDomain::SocCycles,
                    failed_at,
                    backoff,
                    || TraceEvent::RetryBackoff {
                        tile: loc(tile),
                        attempt: u64::from(attempts),
                        cycles: backoff,
                    },
                );
                when = failed_at.saturating_add(backoff);
            }
            Err(e) => {
                core.stats_mut().rejected += 1;
                return Err(e);
            }
        }
    }
}

/// One load attempt of the stream the request fetched: decouple if this
/// is the first attempt, place the stream and trigger the DFXC. The
/// registry is immutable after boot, so attempts reuse the one fetch;
/// only the stale-read fault hook still fires per attempt.
fn attempt_load(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    kind: AcceleratorKind,
    bitstream: &Arc<Bitstream>,
    when: u64,
    decoupled_at: &mut Option<u64>,
) -> Result<ReconfigRun, Error> {
    let tile = tile_state.coord();
    // Fault hook: a stale registry read fails this attempt at the
    // software level, before the tile is touched; the retry tries again.
    if core
        .soc_mut()
        .fault_plan_mut()
        .is_some_and(FaultPlan::next_registry_miss)
    {
        return Err(Error::BitstreamNotRegistered { tile, kind });
    }
    let start = match *decoupled_at {
        // Still decoupled from the previous failed attempt.
        Some(t) => t.max(when),
        None => {
            let t = core.soc_mut().csr_write_at(tile, csr::DECOUPLE, 1, when)?;
            *decoupled_at = Some(t);
            t
        }
    };
    let placed = place_bitstream(tile_state, core, bitstream, start)?;
    Ok(core.soc_mut().reconfigure_at(tile, kind, &placed, start)?)
}

/// Amorphous-floorplanning placement: maps the fetched bitstream onto
/// the tile's region lease, switching the lease when the column span's
/// column-kind pattern changed, and relocates the stream to the leased
/// base column. The fixed-socket path (allocator disabled) returns the
/// stream untouched.
///
/// Ordering is deliberate: a replacement span is allocated *before* the
/// old one's frames are erased, so a refused allocation leaves the
/// tile's current configuration intact (see
/// [`DeviceCore::switch_lease`]).
fn place_bitstream(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    bitstream: &Arc<Bitstream>,
    at: u64,
) -> Result<Arc<Bitstream>, Error> {
    if !core.regions_enabled() {
        return Ok(Arc::clone(bitstream));
    }
    let tile = tile_state.coord();
    let span = bitstream.column_span()?;
    let device = core.soc().part().device();
    let (base, width) = (span.start, span.end - span.start);
    if span.end as usize > device.columns() {
        return Err(presp_fpga::Error::BadFrameAddress {
            detail: format!(
                "column span [{base}, {}) exceeds the device's {} columns",
                span.end,
                device.columns()
            ),
        }
        .into());
    }
    let pattern: Vec<_> = span.map(|c| device.column_kind(c as usize)).collect();
    // Fast path: the live lease already provides exactly this span
    // shape — relocate straight into it.
    if let Some(lease) = core.tile_lease(tile) {
        if lease.kinds == pattern {
            let delta = i64::from(lease.base) - i64::from(base);
            return relocate_to(bitstream, &device, delta);
        }
    }
    // Lease switch: return the old span to the allocator, claim a new
    // one, then vacate the old frames from the fabric.
    match core.switch_lease(tile, &pattern) {
        Some((leased_base, vacated)) => {
            if vacated {
                // The lease moved: erase and retire the frames earlier
                // loads wrote at the old base before the new span is
                // written, keeping the tile's region a single span.
                core.soc_mut().release_tile_region(tile, at)?;
            }
            let delta = i64::from(leased_base) - i64::from(base);
            relocate_to(bitstream, &device, delta)
        }
        None => {
            // No free span fits: the old lease stays, the tile's
            // oversized watermark is stamped and the load refused.
            // Deliberately not transient: retrying without repacking
            // cannot succeed.
            core.stats_mut().oversized_rejected += 1;
            let mark = core.stats().repack_moves;
            tile_state.mark_oversized(mark);
            Err(Error::RegionUnavailable { tile, width })
        }
    }
}

/// Relocates `bitstream` by `delta` columns; zero is a free clone.
fn relocate_to(
    bitstream: &Arc<Bitstream>,
    device: &Device,
    delta: i64,
) -> Result<Arc<Bitstream>, Error> {
    if delta == 0 {
        return Ok(Arc::clone(bitstream));
    }
    Ok(Arc::new(bitstream.relocate(device, delta)?))
}

/// One move of a repack pass: executes the planned compaction move `mv`
/// (see [`DeviceCore::plan_repack`]) on the tile owning the lease and
/// tallies the outcome into `report`. A completed move adds to the
/// report's `moves` and `frames_moved` and to the ledger's
/// `repack_moves` and `frames_moved`; a refused one — the owner
/// quarantined or no longer holding the lease, or the allocator or the
/// fabric refusing — adds to `skipped`. Both managers run each planned
/// move through this step.
pub(crate) fn repack_move(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    mv: &RegionMove,
    at: u64,
    report: &mut RepackReport,
) {
    match move_region(tile_state, core, mv, at) {
        Ok(frames) => {
            let stats = core.stats_mut();
            stats.repack_moves += 1;
            stats.frames_moved += frames;
            report.moves += 1;
            report.frames_moved += frames;
        }
        Err(_) => report.skipped += 1,
    }
}

/// The move behind [`repack_move`]; returns the number of frames
/// physically moved.
///
/// A quarantined tile is never moved. The allocator commits first —
/// [`DeviceCore::move_lease`] validates the destination against every
/// live lease, including frame-less ones the fabric cannot see — and is
/// rolled back if the physical move is refused. The physical half
/// (decouple → lockstep frame/ECC/golden move → re-couple) is skipped
/// for a lease that never loaded; otherwise the tile's idle horizon
/// advances past the re-couple, so the move occupies the tile's own
/// timeline as well as the shared ICAP.
fn move_region(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    mv: &RegionMove,
    at: u64,
) -> Result<u64, Error> {
    let tile = tile_state.coord();
    if tile_state.is_quarantined() {
        return Err(Error::TileQuarantined { tile });
    }
    let owned = core
        .tile_lease(tile)
        .is_some_and(|l| l.id == mv.id && l.base == mv.from);
    if !owned {
        return Err(Error::Soc(presp_soc::Error::RegionConflict {
            coord: tile,
            detail: format!("tile does not own lease {} at column {}", mv.id, mv.from),
        }));
    }
    core.move_lease(mv.id, mv.to).map_err(|e| {
        Error::Soc(presp_soc::Error::RegionConflict {
            coord: tile,
            detail: e.to_string(),
        })
    })?;
    let physical = if core.soc().has_region(tile) {
        move_frames(tile_state, core, mv.delta(), at)
    } else {
        // Never loaded: a pure bookkeeping slide.
        Ok(0)
    };
    if physical.is_err() {
        // Roll the allocator back; the source span is still free.
        let _ = core.move_lease(mv.id, mv.from);
    }
    physical
}

/// Closes a repack pass anchored at `at`: counts it in the ledger's
/// `repack_passes` and emits its `defrag.pass` record at the later of
/// `at` and the current horizon.
pub(crate) fn close_repack_pass(core: &mut DeviceCore, report: &RepackReport, at: u64) {
    core.stats_mut().repack_passes += 1;
    let now = core.soc().horizon().max(at);
    core.soc_mut()
        .tracer_mut()
        .instant(ClockDomain::SocCycles, now, || TraceEvent::DefragPass {
            moves: report.moves,
            frames: report.frames_moved,
        });
}

/// The physical half of [`move_region`]: decouple the tile, slide its
/// frames (with ECC and golden images in lockstep), re-couple.
fn move_frames(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    delta: i64,
    at: u64,
) -> Result<u64, Error> {
    let tile = tile_state.coord();
    let start = at.max(tile_state.idle_at());
    let decoupled = core.soc_mut().csr_write_at(tile, csr::DECOUPLE, 1, start)?;
    let run = core.soc_mut().move_tile_region_at(tile, delta, decoupled)?;
    let coupled = core
        .soc_mut()
        .csr_write_at(tile, csr::DECOUPLE, 0, run.end)?;
    tile_state.set_idle_at(coupled);
    Ok(run.frames as u64)
}

/// Whether a failed attempt is worth retrying: data corruption caught
/// in flight and stale software state are; protocol violations and
/// wrong-device bitstreams are not.
fn is_transient(e: &Error) -> bool {
    match e {
        Error::BitstreamNotRegistered { .. } => true,
        Error::Soc(presp_soc::Error::Fpga(fe)) => matches!(
            fe,
            presp_fpga::Error::CrcMismatch { .. } | presp_fpga::Error::MalformedBitstream { .. }
        ),
        _ => false,
    }
}

/// Ends a request whose every attempt failed: the tile stays decoupled
/// (isolated), its failure streak grows, and repeated exhaustion
/// quarantines it.
fn give_up(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    policy: &RecoveryPolicy,
    kind: AcceleratorKind,
    attempts: u32,
) -> Result<Option<ReconfigRun>, Error> {
    let tile = tile_state.coord();
    core.stats_mut().retries_exhausted += 1;
    let now = core.soc().horizon();
    tile_state.set_idle_at(now);
    let streak = tile_state.record_failure();
    if streak >= policy.quarantine_after && tile_state.quarantine() {
        core.stats_mut().quarantines += 1;
        core.soc_mut()
            .tracer_mut()
            .instant(ClockDomain::SocCycles, now, || TraceEvent::Quarantine {
                tile: loc(tile),
                entered: true,
            });
    }
    Err(Error::RetriesExhausted {
        tile,
        kind,
        attempts,
    })
}

/// Runs `op` on the shard's tile at cycle `at`. See
/// [`crate::manager::ReconfigManager::run_at`].
pub(crate) fn run_at(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    op: &AccelOp,
    at: u64,
    value: Evaluated,
) -> Result<AccelRun, Error> {
    let tile = tile_state.coord();
    let active = tile_state.active_driver().ok_or(Error::NoDriver {
        tile,
        needed: op.kind(),
    })?;
    if !op.runs_on(active) {
        return Err(Error::NoDriver {
            tile,
            needed: op.kind(),
        });
    }
    let start = at.max(tile_state.idle_at());
    let run = core
        .soc_mut()
        .run_accelerator_prepared_at(tile, op, start, value)?;
    tile_state.set_idle_at(run.end);
    core.stats_mut().runs += 1;
    Ok(run)
}

/// Reconfigure-then-run with CPU degradation: requests `kind`'s load at
/// `requested` and runs `op` from `ready`, when its inputs are. The
/// WAMI application requests ahead of its data (prefetch); every other
/// caller passes one time for both. See
/// [`crate::manager::ReconfigManager::run_with_fallback_at`].
///
/// Returns the run, the path that executed it and the load the request
/// performed (`None` on a driver cache hit or a degrade). Only the
/// reconfiguration can fail degradably — [`run_at`]'s errors never
/// are — so `value` goes to exactly one of the two paths.
pub(crate) fn run_with_fallback_at(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    policy: &RecoveryPolicy,
    kind: AcceleratorKind,
    op: &AccelOp,
    (requested, ready): (u64, u64),
    value: Evaluated,
) -> Result<(AccelRun, ExecPath, Option<ReconfigRun>), Error> {
    match request_reconfiguration_at(tile_state, core, policy, kind, requested) {
        Ok(reconf) => run_at(tile_state, core, op, ready, value)
            .map(|run| (run, ExecPath::Accelerator, reconf)),
        // Start the software run after the failed recovery concluded on
        // this tile's timeline.
        Err(e) if e.is_degradable() && policy.cpu_fallback => {
            let start = ready.max(tile_state.idle_at());
            degrade_to_cpu_at(core, kind, op, start, value).map(|(run, path)| (run, path, None))
        }
        Err(e) => Err(e),
    }
}

/// Degrades a request for `kind` to the CPU software path starting at
/// cycle `start`: traces the `cpu.fallback` record, runs `op` on the CPU
/// tile and counts a completed run in `fallback_runs`. The one degrade
/// step, shared by a degradable reconfiguration failure
/// ([`run_with_fallback_at`]) and the scheduler's missed deadline.
pub(crate) fn degrade_to_cpu_at(
    core: &mut DeviceCore,
    kind: AcceleratorKind,
    op: &AccelOp,
    start: u64,
    value: Evaluated,
) -> Result<(AccelRun, ExecPath), Error> {
    core.soc_mut()
        .tracer_mut()
        .instant(ClockDomain::SocCycles, start, || TraceEvent::CpuFallback {
            kind: kind.name(),
        });
    let run = core.soc_mut().run_on_cpu_prepared_at(op, start, value)?;
    core.stats_mut().fallback_runs += 1;
    Ok((run, ExecPath::CpuFallback))
}

/// Books a request that reached its commit slot `late` cycles past its
/// deadline, with its virtual start at `begin`. The miss is the
/// request's single ledger outcome — one reconfiguration request, one
/// deadline miss, one `sched.deadline_miss` record — and the protocol
/// call that would have counted it is skipped.
pub(crate) fn miss_deadline(
    core: &mut DeviceCore,
    tile: TileCoord,
    ticket: u64,
    begin: u64,
    late: u64,
) {
    core.stats_mut().reconfig_requests += 1;
    core.stats_mut().deadline_misses += 1;
    core.soc_mut()
        .tracer_mut()
        .instant(ClockDomain::SocCycles, begin, || {
            TraceEvent::DeadlineMissed {
                tile: loc(tile),
                ticket,
                late,
            }
        });
}

/// Scrubs the shard's tile starting no earlier than `at`. See
/// [`crate::manager::ReconfigManager::scrub_tile_at`].
pub(crate) fn scrub_tile_at(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    at: u64,
) -> Result<ScrubReport, Error> {
    let tile = tile_state.coord();
    if tile_state.is_quarantined() {
        return Err(Error::TileQuarantined { tile });
    }
    let region = core.soc().tile_region(tile);
    tile_state.set_health(TileHealth::Scrubbing);
    let report = match core.soc_mut().scrub_frames_at(&region, at) {
        Ok(report) => report,
        Err(e) => {
            tile_state.set_health(TileHealth::Healthy);
            return Err(e.into());
        }
    };
    core.stats_mut().scrub_passes += 1;
    core.stats_mut().frames_repaired += report.corrected.len() as u64;
    if !report.uncorrectable.is_empty() {
        // An uncorrectable upset: the fabric cannot be trusted, so the
        // tile leaves service exactly like a retry-exhausted tile — the
        // driver is unloaded and further requests degrade to the CPU.
        tile_state.remove_driver();
        if tile_state.quarantine() {
            core.stats_mut().quarantines += 1;
            core.stats_mut().scrub_quarantines += 1;
            let now = core.soc().horizon();
            core.soc_mut()
                .tracer_mut()
                .instant(ClockDomain::SocCycles, now, || TraceEvent::Quarantine {
                    tile: loc(tile),
                    entered: true,
                });
        }
    } else if report.corrected.is_empty() {
        core.stats_mut().scrub_clean_passes += 1;
        tile_state.set_health(TileHealth::Healthy);
    } else {
        tile_state.set_health(TileHealth::Degraded);
    }
    Ok(report)
}

/// One tile's turn in a scrub sweep anchored at `at`: a quarantined
/// tile, or one never loaded (no region to read back), is skipped with
/// `None`; any other is scrubbed. Both managers sweep their tiles in
/// coordinate order through this step.
pub(crate) fn sweep_tile_at(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
    at: u64,
) -> Result<Option<ScrubReport>, Error> {
    if tile_state.is_quarantined() || !core.soc().has_region(tile_state.coord()) {
        return Ok(None);
    }
    scrub_tile_at(tile_state, core, at).map(Some)
}

/// Restores the tile's region from its golden image. See
/// [`crate::manager::ReconfigManager::restore_golden`].
pub(crate) fn restore_golden(
    tile_state: &mut TileState,
    core: &mut DeviceCore,
) -> Result<usize, Error> {
    let frames = core.soc_mut().restore_golden(tile_state.coord())?;
    tile_state.set_health(TileHealth::Healthy);
    Ok(frames)
}

/// Releases the tile from quarantine; returns whether it was quarantined.
/// See [`crate::manager::ReconfigManager::release_quarantine`].
pub(crate) fn release_quarantine(tile_state: &mut TileState, core: &mut DeviceCore) -> bool {
    let released = tile_state.release_quarantine();
    if released {
        let now = core.soc().horizon();
        core.soc_mut()
            .tracer_mut()
            .instant(ClockDomain::SocCycles, now, || TraceEvent::Quarantine {
                tile: loc(tile_state.coord()),
                entered: false,
            });
    }
    released
}
