//! The multi-worker DPR protocol behind
//! [`ThreadedManager`](crate::threaded::ThreadedManager).
//!
//! The old workqueue demonstrator funnelled every request through one
//! worker thread holding one `ReconfigManager` lock, so two requests to
//! *independent* tiles still serialized end to end. This module is the
//! sharded replacement built on the [`crate::tile`] / [`crate::device`]
//! split. It holds the shared state, the worker and supervisor loops and
//! the [`Pending`] completion handle; the public methods live on the
//! runtime handle. The design:
//!
//! * **One request path.** Reconfigure, run and execute are the three
//!   variants of one `Payload` and take one path from `submit_*` to the
//!   reply: the handle's breaker check, the deadline stamp, one admission
//!   (`Shared::admit`: stop flag, unknown tile, coalescing for a
//!   reconfiguration, the bounded queue, the ticketed push), the claim,
//!   the lock-free prepare, the gate-ordered commit and the reply. Every
//!   refusal, shed, drain and released hang answers all of a payload's
//!   waiters through one `Payload::fail`.
//! * **Per-tile queues, N workers.** Each tile's FIFO lives in its own
//!   shard behind a `tile_queue` mutex; a small `sched_admission` lock
//!   holds only the global ticket counter, the aggregate stats and the
//!   *claimable-head index* — a `ticket → tile` map of every tile whose
//!   queue head is free to claim. Workers claim by popping the index
//!   minimum (O(log tiles), not an O(tiles) scan), then evaluate the
//!   behavioral accelerator result *outside any lock* — accelerator
//!   instances are stateless, so the value is a pure function of the
//!   operation. Prepare takes no lock at all: the bitstream is fetched
//!   at commit, a map read of the registry that verified every stream
//!   when it was registered. Only the short ICAP/NoC/virtual-time
//!   critical section runs under the shard + device-core locks.
//! * **The ticket gate.** Every admitted job carries a global ticket and
//!   commits its critical section in strict ticket order. This keeps the
//!   shared virtual timeline — and therefore stats, results, makespan and
//!   the trace log — *identical for any worker count*: `workers = 16`
//!   replays the exact schedule `workers = 1` would produce, while the
//!   expensive behavioral work still overlaps across workers. Liveness
//!   holds because workers always claim the lowest claimable head ticket:
//!   the minimum unretired ticket is always claimed or claimable, so the
//!   gate can never wedge.
//! * **Sharded tracing.** With
//!   [`ThreadedManager::attach_sharded_tracer`](crate::threaded::ThreadedManager::attach_sharded_tracer)
//!   each worker re-attaches its own trace shard before committing (the
//!   tracer's seq counter survives re-attachment), so concurrent commits
//!   never contend on one sink mutex; draining merges shards back into
//!   seq order, byte-identical to the single-sink log.
//! * **Request coalescing.** A reconfiguration submitted while an
//!   identical `(tile, kind)` one is queued or in flight folds into it:
//!   all waiters are answered by the single underlying load
//!   ([`presp_events::TraceEvent::RequestCoalesced`]).
//! * **The bitstream cache.** The device core fronts registry lookups
//!   with a bounded LRU ([`crate::cache`]); it saves nothing and stays
//!   for its counters.
//! * **Supervision** (`policy.supervised`). Workers register every
//!   claim (a recoverable stash of the job) with a supervisor table; a
//!   watchdog thread steals claims whose owner wedged before its commit
//!   slot, returns them to their tile queue *under the same ticket*,
//!   and respawns dead workers out of a bounded restart budget. A claim
//!   guard performs the same healing inline when a worker panics. The
//!   healed timeline is byte-identical to a fault-free run apart from
//!   the explicit `sched.worker_died` / `sched.redispatch` records,
//!   which are emitted at the healed job's own commit slot (gate
//!   ordered), never at the wall-clock moment of the fault.
//! * **Deadlines and admission control.** `policy.deadline_cycles`
//!   stamps every reconfigure/execute with a virtual-time deadline at
//!   submission; a job reaching its commit slot late is cancelled
//!   ([`Error::DeadlineExceeded`]) or degraded to the CPU through the
//!   protocol's one degrade step, and booked by the protocol in
//!   [`crate::manager::ManagerStats::deadline_misses`].
//!   `policy.queue_capacity` bounds each tile queue: overflow either
//!   refuses the newcomer or sheds the oldest queued request
//!   ([`crate::manager::OverloadPolicy`]), and `policy.breaker` refuses
//!   quarantined tiles at the door. Sheds are explicit
//!   ([`Error::Overloaded`], `ManagerStats::shed`, `sched.shed` trace
//!   records) instead of latency collapse.
//!
//! Lock order (enforced by the `presp-check` lock-order graph under
//! exploration): `sched_admission` → `tile_queue` on the admission side
//! (never interleaved with the commit-side locks), `gate` →
//! `tile_state` → `core` on the commit side, and `supervisor` → `gate`
//! in the watchdog's steal scan. The maintenance passes add no edge of
//! their own: a scrub pass takes `tile_state` → `core` and a repack pass
//! `gate` → `tile_state` → `core`, counting into the ledger under
//! `core`. Everything else the supervision layer
//! touches (fault plan, breaker peek, shed settlement) uses top-level
//! acquisitions only. The committed [`MutantConfig`] variants invert
//! edges of this graph so the model-check suite can prove it notices.

use crate::cache::BitstreamCache;
use crate::device::{loc, DeviceCore};
use crate::error::Error;
use crate::manager::{ExecPath, OverloadPolicy, RecoveryPolicy};
use crate::protocol;
use crate::registry::BitstreamRegistry;
use crate::supervisor::{InjectedWorkerPanic, SupervisorStats, WorkerFault, WorkerFaultPlan};
use crate::sync::{Arc, SyncFacade};
use crate::threaded::RuntimeConfig;
use crate::tile::TileState;
use presp_accel::catalog::AcceleratorKind;
use presp_accel::AccelOp;

/// Reply channels of requests that coalesced into an in-flight
/// reconfiguration, collected at completion and answered together.
type CoalescedWaiters<S> = Vec<<S as SyncFacade>::Sender<Result<(), Error>>>;
use presp_events::trace::ClockDomain;
use presp_events::TraceEvent;
use presp_soc::config::TileCoord;
use presp_soc::sim::{AccelRun, Soc};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Default capacity of the bitstream LRU on the threaded path.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// Deliberate concurrency-bug switches for checker validation: committed
/// known-bad protocol variants the model-check suite must detect and
/// replay deterministically. All off by default; reachable from the
/// workspace test suites (hence `pub`) but hidden from the API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantConfig {
    /// The worker commits reconfigurations acquiring `core` →
    /// `tile_state`, the reverse of a scrub pass's (and every other
    /// path's) `tile_state` → `core`: a worker-vs-caller lock-order
    /// inversion.
    pub shard_core_inversion: bool,
    /// The worker bumps a run counter *after* replying, outside any lock,
    /// while callers read it after `recv` — no happens-before edge.
    pub unsynced_stats: bool,
    /// The worker's completion path acquires `tile_queue` →
    /// `sched_admission`, the reverse of every admission path's
    /// `sched_admission` → `tile_queue`: a submitter racing a completing
    /// worker deadlocks.
    pub queue_admission_inversion: bool,
    /// A supervised worker marks its claim `committing` while already
    /// holding the commit gate — `gate` → `supervisor`, the reverse of
    /// the watchdog's steal scan (`supervisor` → `gate`): worker and
    /// supervisor deadlock.
    pub supervisor_gate_inversion: bool,
    /// A repack pass probes every shard's `tile_state` *before* taking
    /// the commit gate — the reverse of every worker's `gate` →
    /// `tile_state` commit acquisition. A worker inside its commit slot
    /// (gate held, shard lock pending) and the pass (shard lock held,
    /// gate pending) deadlock.
    pub defrag_gate_inversion: bool,
}

/// Wall-clock scheduling metrics, aggregated across all workers.
///
/// These are *measurement-side* counters (queue-wait percentiles are real
/// `Instant` durations, not virtual cycles); they never feed the trace
/// log, which stays a pure function of the submission order.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Jobs admitted to a tile queue (coalesced submissions excluded).
    pub admitted: u64,
    /// Jobs fully committed and answered.
    pub completed: u64,
    /// Submissions folded into a queued or in-flight reconfiguration.
    pub coalesced: u64,
    /// Largest per-tile backlog observed at admission.
    pub max_queue_depth: u64,
    /// Wall-clock nanoseconds workers spent in the lock-free prepare
    /// stage (behavioral evaluation), summed across workers.
    pub stage_prepare_nanos: u64,
    /// Wall-clock nanoseconds workers spent waiting at the commit-order
    /// ticket gate, summed across workers.
    pub stage_gate_wait_nanos: u64,
    /// Wall-clock nanoseconds workers spent inside the shard + core
    /// commit critical section, summed across workers.
    pub stage_commit_nanos: u64,
    wait_micros: Vec<u64>,
}

impl SchedulerStats {
    fn record_wait(&mut self, waited: Duration) {
        self.wait_micros.push(waited.as_micros() as u64);
    }

    /// Queue-wait percentile in microseconds (`p` in `[0, 100]`), the
    /// time between admission and a worker claiming the job. Zero when
    /// nothing completed yet.
    ///
    /// Nearest-rank definition: the smallest sample such that at least
    /// `p` percent of the samples are ≤ it (rank `⌈p/100·N⌉`,
    /// 1-based). The previous rounded-interpolation index over-reported
    /// small samples — p50 of `[10, 20, 30, 40]` came back 30 instead
    /// of 20.
    pub fn wait_percentile_micros(&self, p: f64) -> u64 {
        if self.wait_micros.is_empty() {
            return 0;
        }
        let mut sorted = self.wait_micros.clone();
        sorted.sort_unstable();
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Number of queue-wait samples recorded.
    pub fn wait_samples(&self) -> usize {
        self.wait_micros.len()
    }
}

/// A request travelling through a tile queue: the one spelling of the
/// three request kinds, from admission to reply.
pub(crate) enum Payload<S: SyncFacade> {
    Reconfigure {
        kind: AcceleratorKind,
        done: S::Sender<Result<(), Error>>,
        /// Submissions tail-coalesced before a worker claimed the job:
        /// all answered by the one load.
        coalesced: Vec<S::Sender<Result<(), Error>>>,
    },
    Run {
        op: Box<AccelOp>,
        done: S::Sender<Result<AccelRun, Error>>,
    },
    Execute {
        kind: AcceleratorKind,
        op: Box<AccelOp>,
        done: S::Sender<Result<(AccelRun, ExecPath), Error>>,
    },
}

impl<S: SyncFacade> Payload<S> {
    /// A recoverable copy — cloned reply senders, cloned operation —
    /// kept in the supervisor's claim table so a dead or wedged
    /// worker's job can be redispatched without losing its waiters.
    fn stash(&self) -> Payload<S> {
        match self {
            Payload::Reconfigure {
                kind,
                done,
                coalesced,
            } => Payload::Reconfigure {
                kind: *kind,
                done: S::clone_sender(done),
                coalesced: coalesced.iter().map(|tx| S::clone_sender(tx)).collect(),
            },
            Payload::Run { op, done } => Payload::Run {
                op: op.clone(),
                done: S::clone_sender(done),
            },
            Payload::Execute { kind, op, done } => Payload::Execute {
                kind: *kind,
                op: op.clone(),
                done: S::clone_sender(done),
            },
        }
    }

    /// Answers every waiter with `error`: the one refusal, shared by
    /// refused submissions, sheds, the shutdown drain and released
    /// hangs. Call it with no lock held.
    pub(crate) fn fail(self, error: Error) {
        match self {
            Payload::Reconfigure {
                done, coalesced, ..
            } => {
                for tx in std::iter::once(done).chain(coalesced) {
                    let _ = S::send(&tx, Err(error.clone()));
                }
            }
            Payload::Run { done, .. } => {
                let _ = S::send(&done, Err(error));
            }
            Payload::Execute { done, .. } => {
                let _ = S::send(&done, Err(error));
            }
        }
    }
}

/// One healed fault in a job's history, carried inside the rebuilt job
/// so the re-claiming worker can emit the `sched.worker_died` /
/// `sched.redispatch` records at the job's own commit slot — gate
/// ordered, hence byte-identical traces for a given seed no matter when
/// the healing happened on the wall clock.
#[derive(Debug, Clone, Copy)]
struct Redispatch {
    /// True when the previous claimant died (panicked); false when it
    /// wedged and the supervisor stole the claim.
    died: bool,
}

struct Job<S: SyncFacade> {
    ticket: u64,
    tile: TileCoord,
    /// Tile backlog at admission (this job included) — traced in
    /// [`TraceEvent::SchedDispatch`].
    depth: u64,
    admitted: Instant,
    /// Absolute virtual-cycle deadline (`policy.deadline_cycles`),
    /// stamped at submission; `None` when deadlines are disabled.
    deadline_at: Option<u64>,
    /// Healed faults of previous claimants, oldest first.
    redispatch: Vec<Redispatch>,
    payload: Payload<S>,
}

/// A reconfiguration a worker has claimed but not yet answered; identical
/// submissions arriving while the tile queue is empty fold into it.
struct Inflight<S: SyncFacade> {
    kind: AcceleratorKind,
    extra_waiters: Vec<S::Sender<Result<(), Error>>>,
}

/// One tile's FIFO, behind its own `tile_queue` mutex (nested under
/// `sched_admission` whenever both are held).
pub(crate) struct TileQueue<S: SyncFacade> {
    jobs: VecDeque<Job<S>>,
    /// A worker holds this tile's head job; per-tile FIFO order.
    checked_out: bool,
    inflight: Option<Inflight<S>>,
}

// Not derived: `derive(Default)` would demand `S: Default`.
impl<S: SyncFacade> TileQueue<S> {
    fn new() -> TileQueue<S> {
        TileQueue {
            jobs: VecDeque::new(),
            checked_out: false,
            inflight: None,
        }
    }

    /// Folds a reconfiguration into an identical queued or in-flight
    /// one; hands any other payload back for queueing.
    fn coalesce(&mut self, payload: Payload<S>) -> Result<(), Payload<S>> {
        let Payload::Reconfigure {
            kind,
            done,
            coalesced,
        } = payload
        else {
            return Err(payload);
        };
        let waiters = match (self.jobs.back_mut(), self.inflight.as_mut()) {
            // Tail coalescing: identical to the youngest queued request —
            // folding preserves per-tile FIFO semantics exactly.
            (
                Some(Job {
                    payload:
                        Payload::Reconfigure {
                            kind: tail,
                            coalesced: waiters,
                            ..
                        },
                    ..
                }),
                _,
            ) if *tail == kind => waiters,
            // In-flight coalescing: nothing queued behind the claimed job,
            // so joining it cannot reorder anything.
            (None, Some(inflight)) if inflight.kind == kind => &mut inflight.extra_waiters,
            _ => {
                return Err(Payload::Reconfigure {
                    kind,
                    done,
                    coalesced,
                })
            }
        };
        waiters.push(done);
        Ok(())
    }
}

/// Everything guarded by the `sched_admission` lock: the global ticket
/// counter, the claimable-head index, the stop flag and the aggregate
/// scheduler stats. Deliberately small — the per-tile FIFOs live in
/// their own shards.
pub(crate) struct Admission {
    pub(crate) next_ticket: u64,
    stopping: bool,
    pub(crate) stats: SchedulerStats,
    /// Claimable heads: `front ticket → tile` for every tile whose queue
    /// is non-empty and not checked out. Invariant maintained at push,
    /// claim and complete; workers pop the minimum, which is what keeps
    /// the ticket gate live.
    heads: BTreeMap<u64, TileCoord>,
    /// Live claim holds ([`crate::threaded::ThreadedManager::hold_claims`]):
    /// while non-zero, workers claim nothing.
    claim_holds: usize,
}

/// A request [`Shared::admit`] refused before queueing, handed back
/// with the error to [`Payload::fail`] it with once the locks are
/// released.
pub(crate) type Refusal<S> = (Error, Payload<S>);

/// A request displaced (or refused) by the bounded-queue admission
/// controller, settled by [`Shared::settle_shed`] after the admission
/// locks are released.
pub(crate) struct Shed<S: SyncFacade> {
    tile: TileCoord,
    /// The displaced ticket; `None` when the newcomer itself was refused
    /// before a ticket was assigned (the `sched.shed` record then traces
    /// the ticket the request would have taken).
    ticket: Option<u64>,
    /// The displaced or refused payload, answered with
    /// [`Error::Overloaded`]; `None` at the circuit breaker, whose caller
    /// answers with [`Error::TileQuarantined`] instead.
    victim: Option<Payload<S>>,
}

/// Commit-order gate: jobs pass in strict global ticket order, so the
/// virtual-time critical sections replay the single-worker schedule
/// regardless of how many workers overlap their lock-free preparation.
pub(crate) struct Gate {
    pub(crate) next: u64,
    /// Tickets retired out of order (drained at shutdown while a lower
    /// ticket was still in flight).
    retired: BTreeSet<u64>,
    /// Worker-death ordinal counter. `sched.worker_died` records carry
    /// this (not the OS worker slot) and are emitted at the healed job's
    /// commit slot, so the numbering is gate-ordered — deterministic for
    /// a given fault seed regardless of wall-clock timing.
    deaths: u64,
}

impl Gate {
    fn retire(&mut self, ticket: u64) {
        self.retired.insert(ticket);
        while self.retired.remove(&self.next) {
            self.next += 1;
        }
    }
}

/// One tile's concurrent shard: the [`TileState`] under its own lock, the
/// tile's FIFO under its own lock, plus the condvar signalled when a
/// reconfiguration on this tile completes.
pub(crate) struct TileShard<S: SyncFacade> {
    pub(crate) state: S::Mutex<TileState>,
    pub(crate) reconfig_done: S::Condvar,
    pub(crate) queue: S::Mutex<TileQueue<S>>,
}

/// Wall-clock time a worker spent in each pipeline stage for one job;
/// flushed into [`SchedulerStats`] under `sched_admission` at completion.
#[derive(Debug, Clone, Copy, Default)]
struct StageNanos {
    prepare: u64,
    gate_wait: u64,
    commit: u64,
}

/// One claimed-but-uncommitted job in the supervisor's table: enough to
/// rebuild the job under the *same* ticket should its claimant die or
/// wedge.
pub(crate) struct Claim<S: SyncFacade> {
    tile: TileCoord,
    depth: u64,
    deadline_at: Option<u64>,
    /// Healed faults of previous claimants, carried through redispatch.
    redispatch: Vec<Redispatch>,
    /// The claimant reached [`Shared::begin_commit`]; stealing is no
    /// longer safe (the commit may be mid-flight).
    committing: bool,
    /// The supervisor took the claim back; the wedged owner must abandon
    /// the job when it wakes.
    stolen: bool,
    /// The owner parked in [`Shared::park_hung`].
    hung: bool,
    /// Recoverable copy of the job's payload (cloned senders + op).
    stash: Payload<S>,
}

/// Everything behind the `supervisor` mutex.
pub(crate) struct SupervisorState<S: SyncFacade> {
    /// Shutdown (or out-of-workers bailout) in progress; the watchdog
    /// exits and parked workers release their claims.
    stop: bool,
    pub(crate) claims: BTreeMap<u64, Claim<S>>,
    /// Worker slots whose thread died, queued for respawn.
    dead: Vec<usize>,
    /// Worker threads currently able to make progress (parked hung
    /// workers count: a steal returns them to the pool).
    live_workers: usize,
    restarts_left: u32,
    pub(crate) stats: SupervisorStats,
}

/// Arms gate healing for the duration of one claim: if the owning worker
/// unwinds from a panic, the drop handler heals the supervisor table and
/// the commit-order gate from the dying thread. On every normal exit
/// path it is a no-op — the worker settles its own claim through
/// [`Shared::begin_commit`] / [`Shared::end_commit`].
struct ClaimGuard<'a, S: SyncFacade> {
    shared: &'a Shared<S>,
    ticket: u64,
    worker: usize,
}

impl<S: SyncFacade> Drop for ClaimGuard<'_, S> {
    fn drop(&mut self) {
        if !S::panicking() {
            return;
        }
        self.shared.heal_dead_worker(self.ticket, self.worker);
    }
}

/// State shared between submitters, the worker pool and the callers of
/// the maintenance passes (scrub, repack).
pub(crate) struct Shared<S: SyncFacade> {
    pub(crate) shards: BTreeMap<TileCoord, TileShard<S>>,
    pub(crate) core: S::Mutex<DeviceCore>,
    pub(crate) admission: S::Mutex<Admission>,
    /// Signalled when a job is admitted or a tile becomes claimable.
    pub(crate) work: S::Condvar,
    /// The commit-order ticket gate. `pub(crate)` for the repack pass:
    /// holding this mutex quiesces every worker's commit critical
    /// section, keeping a compaction plan valid move to move.
    pub(crate) gate: S::Mutex<Gate>,
    /// Signalled when the gate advances.
    gate_cv: S::Condvar,
    /// The supervision table (`supervisor` lock): registered claims,
    /// dead worker slots and the restart budget.
    pub(crate) supervisor: S::Mutex<SupervisorState<S>>,
    /// Signalled when a claim changes state or a worker dies.
    supervisor_cv: S::Condvar,
    /// Signalled to release workers parked in an injected hang.
    hang_cv: S::Condvar,
    /// The installed worker-software-fault plan (`worker_faults` lock);
    /// `None` injects nothing.
    pub(crate) worker_faults: S::Mutex<Option<WorkerFaultPlan>>,
    pub(crate) policy: RecoveryPolicy,
    pub(crate) mutants: MutantConfig,
    /// Storage the `unsynced_stats` mutant shares without a lock; under
    /// the checker every access is happens-before verified.
    pub(crate) racy_runs: presp_check::RaceCell<u64>,
}

impl<S: SyncFacade> Shared<S> {
    /// The one admission, for every request kind. Lock order:
    /// `sched_admission` → `tile_queue`. A reconfiguration first tries to
    /// fold into an identical queued or in-flight one; otherwise the
    /// bounded-queue check runs and the job is pushed under a fresh
    /// ticket. `Ok` carries whether a worker needs waking (a job joined
    /// the queue) and a shed the caller settles after the locks are
    /// released (see [`Shared::settle_shed`]) — a displaced victim, or the
    /// newcomer itself when a full `RejectNew` queue refuses it. `Err`
    /// hands back the payload of a request refused because the scheduler
    /// is stopping or the tile is unknown, for the caller to
    /// [`Payload::fail`].
    pub(crate) fn admit(
        &self,
        tile: TileCoord,
        deadline_at: Option<u64>,
        payload: Payload<S>,
    ) -> Result<(bool, Option<Shed<S>>), Refusal<S>> {
        let mut adm = S::lock(&self.admission);
        if adm.stopping {
            return Err((Error::ManagerStopped, payload));
        }
        let Some(shard) = self.shards.get(&tile) else {
            return Err((
                Error::Soc(presp_soc::Error::NoSuchTile { coord: tile }),
                payload,
            ));
        };
        let mut tq = S::lock(&shard.queue);
        let payload = match tq.coalesce(payload) {
            Ok(()) => {
                adm.stats.coalesced += 1;
                return Ok((false, None));
            }
            Err(payload) => payload,
        };
        // The bounded queue: coalesced submissions never reach here —
        // folding does not grow the queue, so it is always allowed at
        // capacity — and a claimed job does not count against the bound.
        let cap = self.policy.queue_capacity;
        let shed = if cap == 0 || (tq.jobs.len() as u64) < cap {
            None
        } else {
            match self.policy.overload {
                OverloadPolicy::RejectNew => {
                    let refused = Shed {
                        tile,
                        ticket: None,
                        victim: Some(payload),
                    };
                    return Ok((false, Some(refused)));
                }
                OverloadPolicy::ShedOldest => Some(Self::shed_oldest(&mut adm, &mut tq, tile)),
            }
        };
        Self::push(&mut adm, &mut tq, tile, payload, deadline_at);
        Ok((true, shed))
    }

    /// Displaces the oldest queued job of a full `ShedOldest` queue,
    /// `sched_admission` + `tile_queue` held (no new lock edges).
    fn shed_oldest(adm: &mut Admission, tq: &mut TileQueue<S>, tile: TileCoord) -> Shed<S> {
        let victim = tq.jobs.pop_front().expect("full queue has a front");
        adm.heads.remove(&victim.ticket);
        if !tq.checked_out {
            if let Some(front) = tq.jobs.front() {
                adm.heads.insert(front.ticket, tile);
            }
        }
        Shed {
            tile,
            ticket: Some(victim.ticket),
            victim: Some(victim.payload),
        }
    }

    /// Assigns the next global ticket and appends the job; ticket
    /// assignment is atomic with the queue push (both locks held), which
    /// the gate's liveness depends on.
    fn push(
        adm: &mut Admission,
        tq: &mut TileQueue<S>,
        tile: TileCoord,
        payload: Payload<S>,
        deadline_at: Option<u64>,
    ) {
        let ticket = adm.next_ticket;
        adm.next_ticket += 1;
        let depth = tq.jobs.len() as u64 + 1;
        if tq.jobs.is_empty() && !tq.checked_out {
            adm.heads.insert(ticket, tile);
        }
        tq.jobs.push_back(Job {
            ticket,
            tile,
            depth,
            admitted: Instant::now(),
            deadline_at,
            redispatch: Vec::new(),
            payload,
        });
        adm.stats.admitted += 1;
        adm.stats.max_queue_depth = adm.stats.max_queue_depth.max(depth);
    }

    /// Claims the job with the globally lowest claimable head ticket by
    /// popping the admission index minimum. Always picking the minimum is
    /// what keeps the ticket gate live: the oldest unretired job is never
    /// passed over for long.
    fn claim(&self, adm: &mut Admission) -> Option<Job<S>> {
        if adm.claim_holds > 0 {
            return None;
        }
        let (ticket, tile) = adm.heads.pop_first()?;
        let shard = self.shards.get(&tile).expect("indexed tile exists");
        let mut tq = S::lock(&shard.queue);
        tq.checked_out = true;
        let job = tq.jobs.pop_front().expect("indexed head job exists");
        debug_assert_eq!(job.ticket, ticket, "head index out of sync");
        if let Payload::Reconfigure { kind, .. } = &job.payload {
            // Preserve an existing entry: a redispatched claim must keep
            // the waiters that coalesced into its first claim.
            if tq.inflight.is_none() {
                tq.inflight = Some(Inflight {
                    kind: *kind,
                    extra_waiters: Vec::new(),
                });
            }
        }
        adm.stats.record_wait(job.admitted.elapsed());
        Some(job)
    }

    /// Takes one claim hold (see
    /// [`crate::threaded::ThreadedManager::hold_claims`]).
    pub(crate) fn hold_claims(&self) {
        S::lock(&self.admission).claim_holds += 1;
    }

    /// Releases one claim hold and, with the last one gone, wakes the
    /// workers. Poison-tolerant: the hold guard calls it from `Drop`.
    pub(crate) fn release_claims(&self) {
        let resumed = {
            let mut adm = S::lock_recover(&self.admission);
            adm.claim_holds -= 1;
            adm.claim_holds == 0
        };
        if resumed {
            S::notify_all(&self.work);
        }
    }

    /// Returns the tile to claimable state, re-indexes its next head,
    /// flushes the worker's stage timings and collects any waiters that
    /// coalesced into the in-flight reconfiguration. The boolean reports
    /// whether a queued job became claimable — the only case workers need
    /// waking for (waking the whole pool per completion measurably hurts
    /// on small hosts).
    fn complete(&self, tile: TileCoord, stages: StageNanos) -> (CoalescedWaiters<S>, bool) {
        let shard = self.shards.get(&tile).expect("completed tile exists");
        if self.mutants.queue_admission_inversion {
            // MUTANT: nested acquisition opposite to every admission
            // path's sched_admission → tile_queue.
            let mut tq = S::lock(&shard.queue); // presp-analyze: mutant
            let mut adm = S::lock(&self.admission); // presp-analyze: mutant
            Self::finish(&mut adm, &mut tq, tile, stages)
        } else {
            let mut adm = S::lock(&self.admission);
            let mut tq = S::lock(&shard.queue);
            Self::finish(&mut adm, &mut tq, tile, stages)
        }
    }

    fn finish(
        adm: &mut Admission,
        tq: &mut TileQueue<S>,
        tile: TileCoord,
        stages: StageNanos,
    ) -> (CoalescedWaiters<S>, bool) {
        tq.checked_out = false;
        let reindexed = if let Some(job) = tq.jobs.front() {
            adm.heads.insert(job.ticket, tile);
            true
        } else {
            false
        };
        let extras = tq
            .inflight
            .take()
            .map(|inflight| inflight.extra_waiters)
            .unwrap_or_default();
        adm.stats.completed += 1;
        adm.stats.stage_prepare_nanos += stages.prepare;
        adm.stats.stage_gate_wait_nanos += stages.gate_wait;
        adm.stats.stage_commit_nanos += stages.commit;
        (extras, reindexed)
    }

    // ---- supervision ---------------------------------------------------
    // Every method below uses top-level lock acquisitions only, except
    // `redispatch_claim` (the declared admission-side edge
    // `sched_admission` → `tile_queue`); the `supervisor` → `gate` edge
    // lives in `supervisor_loop`'s steal scan.

    /// The fault (if any) scripted for this claim of `ticket`. `None`
    /// without supervision, without a plan, or on a redispatched
    /// re-claim (faults fire once per ticket).
    fn draw_fault(&self, ticket: u64) -> Option<WorkerFault> {
        if !self.policy.supervised {
            return None;
        }
        S::lock(&self.worker_faults).as_mut()?.decide(ticket)
    }

    /// Registers a claim (recoverable stash + metadata) with the
    /// supervisor, so a dead or wedged claimant can be healed.
    fn register_claim(&self, job: &Job<S>) {
        let mut sup = S::lock(&self.supervisor);
        sup.claims.insert(
            job.ticket,
            Claim {
                tile: job.tile,
                depth: job.depth,
                deadline_at: job.deadline_at,
                redispatch: job.redispatch.clone(),
                committing: false,
                stolen: false,
                hung: false,
                stash: job.payload.stash(),
            },
        );
    }

    /// Marks the claim as committing — the watchdog will no longer steal
    /// it. Returns `false` when the supervisor already stole the claim;
    /// the worker must abandon the job (its redispatched copy is someone
    /// else's now).
    fn begin_commit(&self, ticket: u64) -> bool {
        let mut sup = S::lock(&self.supervisor);
        match sup.claims.get_mut(&ticket) {
            Some(claim) if !claim.stolen => {
                claim.committing = true;
                true
            }
            _ => false,
        }
    }

    /// Retires a settled claim after its reply went out.
    fn end_commit(&self, ticket: u64) {
        S::lock(&self.supervisor).claims.remove(&ticket);
    }

    /// Parks a wedged worker on `ticket` until the supervisor steals the
    /// claim or shutdown releases it. On return the job is no longer this
    /// worker's problem and it may resume its claim loop.
    fn park_hung(&self, ticket: u64) {
        {
            let mut sup = S::lock(&self.supervisor);
            match sup.claims.get_mut(&ticket) {
                Some(claim) => claim.hung = true,
                None => return,
            }
        }
        S::notify_all(&self.supervisor_cv);
        let mut sup = S::lock(&self.supervisor);
        loop {
            let released = match sup.claims.get(&ticket) {
                None => true,
                Some(claim) => claim.stolen,
            };
            if released {
                return;
            }
            if sup.stop {
                // Shutdown raced the park: settle the claim ourselves.
                let claim = sup.claims.remove(&ticket).expect("present above");
                drop(sup);
                self.retire_tickets([ticket]);
                claim.stash.fail(Error::ManagerStopped);
                return;
            }
            sup = S::wait(&self.hang_cv, sup);
        }
    }

    /// Heals the scheduler after the worker owning `ticket` died: queues
    /// the slot for respawn and either frees the tile (the claim already
    /// committed) or returns the stash to its tile queue under the same
    /// ticket. Runs on the dying thread mid-unwind (via [`ClaimGuard`]),
    /// so every lock acquisition is poison-tolerant.
    fn heal_dead_worker(&self, ticket: u64, worker: usize) {
        let claim = {
            let mut sup = S::lock_recover(&self.supervisor);
            sup.stats.worker_deaths += 1;
            sup.live_workers = sup.live_workers.saturating_sub(1);
            sup.dead.push(worker);
            sup.claims.remove(&ticket)
        };
        S::notify_all(&self.supervisor_cv);
        let Some(claim) = claim else { return };
        if claim.stolen {
            return;
        }
        let committed = { S::lock_recover(&self.gate).next > ticket };
        if committed {
            // Died between retiring the ticket and completing: the
            // protocol work happened, only the tile bookkeeping (and the
            // reply, which the panic already consumed) is outstanding.
            self.release_tile(claim.tile);
        } else {
            self.redispatch_claim(ticket, claim, true);
        }
    }

    /// Frees a tile whose claimed job committed but whose claimant died
    /// before completing. Coalesced in-flight waiters are answered with
    /// [`Error::ManagerStopped`] — their load's fate is unknowable once
    /// the replying worker is gone.
    fn release_tile(&self, tile: TileCoord) {
        let Some(shard) = self.shards.get(&tile) else {
            return;
        };
        let (extras, claimable) = {
            let mut adm = S::lock_recover(&self.admission);
            let mut tq = S::lock_recover(&shard.queue);
            if !tq.checked_out {
                return;
            }
            Self::finish(&mut adm, &mut tq, tile, StageNanos::default())
        };
        if claimable {
            S::notify_all(&self.work);
        }
        for tx in extras {
            let _ = S::send(&tx, Err(Error::ManagerStopped));
        }
    }

    /// Returns a stolen or orphaned claim to the *front* of its tile
    /// queue under the same ticket, preserving per-tile FIFO and the
    /// global gate order. When the scheduler is already stopping the
    /// ticket is retired and the waiters answered instead.
    fn redispatch_claim(&self, ticket: u64, claim: Claim<S>, died: bool) {
        {
            let mut sup = S::lock_recover(&self.supervisor);
            sup.stats.redispatches += 1;
        }
        let Claim {
            tile,
            depth,
            deadline_at,
            mut redispatch,
            stash,
            ..
        } = claim;
        redispatch.push(Redispatch { died });
        let mut stash = Some(stash);
        {
            let mut adm = S::lock_recover(&self.admission);
            if !adm.stopping {
                if let Some(shard) = self.shards.get(&tile) {
                    let mut tq = S::lock_recover(&shard.queue);
                    tq.checked_out = false;
                    adm.heads.insert(ticket, tile);
                    tq.jobs.push_front(Job {
                        ticket,
                        tile,
                        depth,
                        admitted: Instant::now(),
                        deadline_at,
                        redispatch,
                        payload: stash.take().expect("taken once"),
                    });
                }
            }
        }
        match stash {
            Some(stash) => {
                self.retire_tickets([ticket]);
                stash.fail(Error::ManagerStopped);
            }
            None => S::notify_all(&self.work),
        }
    }

    /// Flips the scheduler to stopping: clears the claimable index,
    /// drains every tile queue, retires the drained tickets (in-flight
    /// workers still pass the gate) and answers their waiters with
    /// [`Error::ManagerStopped`]. Idempotent; shared between shutdown
    /// and the supervisor's out-of-workers bailout.
    pub(crate) fn drain_to_stop(&self) {
        let drained: Vec<Job<S>> = {
            let mut adm = S::lock_recover(&self.admission);
            adm.stopping = true;
            adm.heads.clear();
            let mut out = Vec::new();
            for shard in self.shards.values() {
                let mut tq = S::lock_recover(&shard.queue);
                out.extend(tq.jobs.drain(..));
            }
            out
        };
        self.retire_tickets(drained.iter().map(|job| job.ticket));
        for job in drained {
            job.payload.fail(Error::ManagerStopped);
        }
    }

    /// Supervised teardown at shutdown: tells the watchdog to exit and
    /// releases workers parked in a hang together with their claims,
    /// retiring the claimed tickets so in-flight workers still pass the
    /// gate and answering the waiters with [`Error::ManagerStopped`].
    /// Tolerant of poisoned locks.
    pub(crate) fn stop_supervision(&self) {
        let wedged: Vec<(u64, Payload<S>)> = {
            let mut sup = S::lock_recover(&self.supervisor);
            sup.stop = true;
            let hung: Vec<u64> = sup
                .claims
                .iter()
                .filter(|(_, c)| c.hung && !c.committing && !c.stolen)
                .map(|(&ticket, _)| ticket)
                .collect();
            hung.into_iter()
                .map(|ticket| {
                    let claim = sup.claims.remove(&ticket).expect("listed above");
                    (ticket, claim.stash)
                })
                .collect()
        };
        S::notify_all(&self.supervisor_cv);
        S::notify_all(&self.hang_cv);
        if !wedged.is_empty() {
            self.retire_tickets(wedged.iter().map(|(ticket, _)| *ticket));
            for (_, stash) in wedged {
                stash.fail(Error::ManagerStopped);
            }
        }
    }

    /// Retires `tickets` at the commit-order gate without committing
    /// them — drained, shed or settled jobs whose waiters are answered
    /// elsewhere — and wakes every worker waiting for its turn. Callers
    /// hold no other lock; the gate is taken poison-tolerantly, so a
    /// worker dying mid-unwind may call it too.
    fn retire_tickets(&self, tickets: impl IntoIterator<Item = u64>) {
        {
            let mut gate = S::lock_recover(&self.gate);
            for ticket in tickets {
                gate.retire(ticket);
            }
        }
        S::notify_all(&self.gate_cv);
    }

    /// Whether shutdown has begun. A solo top-level peek, so callers
    /// may take it before any protocol lock without adding an edge.
    pub(crate) fn is_stopping(&self) -> bool {
        S::lock_recover(&self.admission).stopping
    }

    // ---- deadlines & admission control ---------------------------------

    /// The absolute virtual-cycle deadline for a request admitted now;
    /// `None` when deadlines are disabled.
    pub(crate) fn deadline_from_now(&self) -> Option<u64> {
        if self.policy.deadline_cycles == 0 {
            return None;
        }
        let horizon = { S::lock(&self.core).soc().horizon() };
        Some(horizon + self.policy.deadline_cycles)
    }

    /// Circuit breaker: whether `tile` must be refused at the queue
    /// door, settling the refusal as a shed when it is. The quarantine
    /// check is a solo top-level peek, taken before any admission lock,
    /// so the breaker adds no lock-order edges.
    pub(crate) fn refused_at_door(&self, tile: TileCoord) -> bool {
        let trips = self.policy.breaker
            && self
                .shards
                .get(&tile)
                .is_some_and(|shard| S::lock(&shard.state).is_quarantined());
        if trips {
            self.settle_shed(Shed {
                tile,
                ticket: None,
                victim: None,
            });
        }
        trips
    }

    /// Settles a shed outside the admission locks: retires the displaced
    /// ticket, bumps `ManagerStats::shed`, emits the `sched.shed` record
    /// at the current horizon and answers the displaced or refused
    /// waiters with [`Error::Overloaded`]. Refusals (no ticket assigned)
    /// trace the ticket the request would have taken.
    pub(crate) fn settle_shed(&self, shed: Shed<S>) {
        let ticket = match shed.ticket {
            Some(ticket) => ticket,
            None => S::lock(&self.admission).next_ticket,
        };
        if shed.ticket.is_some() {
            self.retire_tickets([ticket]);
        }
        {
            let mut core = S::lock(&self.core);
            core.stats_mut().shed += 1;
            let now = core.soc().horizon();
            core.soc_mut()
                .tracer_mut()
                .instant(ClockDomain::SocCycles, now, || TraceEvent::RequestShed {
                    tile: loc(shed.tile),
                    ticket,
                });
        }
        if let Some(victim) = shed.victim {
            victim.fail(Error::Overloaded { tile: shed.tile });
        }
    }
}

/// An admitted request's completion handle.
///
/// Submission APIs return immediately; `wait` blocks for the worker's
/// reply. Dropping a `Pending` abandons the request (the worker's reply
/// goes nowhere, the work still happens).
pub struct Pending<S: SyncFacade, T: Send + 'static> {
    pub(crate) rx: S::Receiver<Result<T, Error>>,
}

impl<S: SyncFacade, T: Send + 'static> Pending<S, T> {
    /// Blocks until the request is answered.
    ///
    /// # Errors
    ///
    /// [`Error::ManagerStopped`] when the scheduler shut down before
    /// answering, plus whatever the request itself produced.
    pub fn wait(self) -> Result<T, Error> {
        S::recv(&self.rx).ok_or(Error::ManagerStopped)?
    }
}

/// Join handles for the worker pool, taken once at shutdown.
pub(crate) type WorkerHandles<S> =
    Arc<<S as SyncFacade>::Mutex<Option<Vec<<S as SyncFacade>::JoinHandle<()>>>>>;

impl<S: SyncFacade> Shared<S> {
    /// The state a runtime of `workers` worker threads shares: one shard
    /// per tile in the SoC's configuration, the device core with its
    /// bitstream cache, and an idle gate and supervisor table.
    pub(crate) fn new(
        soc: Soc,
        registry: BitstreamRegistry,
        config: RuntimeConfig,
        workers: usize,
    ) -> Shared<S> {
        let shards: BTreeMap<TileCoord, TileShard<S>> = soc
            .config()
            .iter()
            .map(|(coord, _)| {
                (
                    coord,
                    TileShard {
                        state: S::mutex_labeled("tile_state", TileState::new(coord)),
                        reconfig_done: S::condvar(),
                        queue: S::mutex_labeled("tile_queue", TileQueue::new()),
                    },
                )
            })
            .collect();
        let admission = Admission {
            next_ticket: 0,
            stopping: false,
            stats: SchedulerStats::default(),
            heads: BTreeMap::new(),
            claim_holds: 0,
        };
        Shared {
            shards,
            core: S::mutex_labeled(
                "core",
                DeviceCore::new(soc, registry, BitstreamCache::new(config.cache_capacity)),
            ),
            admission: S::mutex_labeled("sched_admission", admission),
            work: S::condvar(),
            gate: S::mutex_labeled(
                "gate",
                Gate {
                    next: 0,
                    retired: BTreeSet::new(),
                    deaths: 0,
                },
            ),
            gate_cv: S::condvar(),
            supervisor: S::mutex_labeled(
                "supervisor",
                SupervisorState {
                    stop: false,
                    claims: BTreeMap::new(),
                    dead: Vec::new(),
                    live_workers: workers,
                    restarts_left: config.policy.restart_budget,
                    stats: SupervisorStats::default(),
                },
            ),
            supervisor_cv: S::condvar(),
            hang_cv: S::condvar(),
            worker_faults: S::mutex_labeled("worker_faults", None),
            policy: config.policy,
            mutants: config.mutants,
            racy_runs: presp_check::RaceCell::new("racy_runs", 0),
        }
    }
}

/// Starts the worker thread for pool slot `slot`, named
/// `presp-worker-{slot}` so a panic message says which worker died. A
/// respawn reuses the dead worker's slot, hence its name.
pub(crate) fn spawn_worker<S: SyncFacade>(
    shared: &Arc<Shared<S>>,
    slot: usize,
) -> S::JoinHandle<()> {
    let shared = Arc::clone(shared);
    S::spawn(&format!("presp-worker-{slot}"), move || {
        worker_loop(&shared, slot);
    })
}

/// A committed job's reply, sent after all locks are released.
enum Reply<S: SyncFacade> {
    Reconfigure {
        kind: AcceleratorKind,
        done: S::Sender<Result<(), Error>>,
        coalesced: Vec<S::Sender<Result<(), Error>>>,
        result: Result<(), Error>,
    },
    Run {
        done: S::Sender<Result<AccelRun, Error>>,
        result: Result<AccelRun, Error>,
    },
    Execute {
        done: S::Sender<Result<(AccelRun, ExecPath), Error>>,
        result: Result<(AccelRun, ExecPath), Error>,
    },
}

fn worker_loop<S: SyncFacade>(shared: &Shared<S>, worker: usize) {
    let supervised = shared.policy.supervised;
    loop {
        // -- claim: pop the lowest claimable head ticket ----------------
        let job = {
            let mut adm = S::lock(&shared.admission);
            loop {
                if let Some(job) = shared.claim(&mut adm) {
                    break job;
                }
                if adm.stopping {
                    return;
                }
                adm = S::wait(&shared.work, adm);
            }
        };
        let (ticket, tile, depth) = (job.ticket, job.tile, job.depth);
        let shard = shared
            .shards
            .get(&tile)
            .expect("shard exists for admitted tile");
        if supervised {
            shared.register_claim(&job);
        }
        // Heals the gate should this thread unwind while owning the
        // claim; a no-op on every normal exit path.
        let _claim_guard = supervised.then(|| ClaimGuard {
            shared,
            ticket,
            worker,
        });
        let fault = shared.draw_fault(ticket);
        if matches!(fault, Some(WorkerFault::Panic)) {
            // Mid-prepare, before any protocol lock: the claim guard and
            // the supervisor do all the healing.
            std::panic::panic_any(InjectedWorkerPanic);
        }
        if let Some(WorkerFault::Stall { micros }) = fault {
            // A slow host thread; the commit gate absorbs the delay.
            S::stall(Duration::from_micros(micros));
        }
        let prepare_started = Instant::now();
        // -- prepare: evaluate the behavioral result outside any lock.
        // Accelerator instances are stateless, so an operation's value is
        // a pure function of it; the protocol consumes the value only
        // after its own driver checks pass.
        let payload = job.payload;
        let value = match &payload {
            Payload::Run { op, .. } | Payload::Execute { op, .. } => Some(protocol::evaluate(op)),
            Payload::Reconfigure { .. } => None,
        };
        let is_reconfigure = matches!(payload, Payload::Reconfigure { .. });
        if matches!(fault, Some(WorkerFault::Hang)) {
            // Wedge before the commit slot. The supervisor steals the
            // claim and redispatches the stash under the same ticket;
            // this thread abandons its copy of the job on return.
            shared.park_hung(ticket);
            continue;
        }
        let gate_started = Instant::now();
        // -- gate: commit critical sections in strict ticket order ------
        // (The commit flag is settled before the gate binding below so the
        // acquisition stays a statement-level `let` — the static analyzer's
        // guard model is lexical and must witness `gate` live across the
        // nested `tile_state`/`core` acquisitions.)
        if supervised {
            if shared.mutants.supervisor_gate_inversion {
                // MUTANT: flags the claim as committing while already
                // holding the gate — the reverse of the supervisor's steal
                // scan (`supervisor` → `gate`).
                let gate = S::lock(&shared.gate); // presp-analyze: mutant
                let mut sup = S::lock(&shared.supervisor); // presp-analyze: mutant
                if let Some(claim) = sup.claims.get_mut(&ticket) {
                    claim.committing = true;
                }
                drop(sup);
                drop(gate);
            } else if !shared.begin_commit(ticket) {
                // The supervisor stole this claim while we prepared; its
                // redispatched copy is someone else's job now.
                continue;
            }
        }
        let mut gate = S::lock(&shared.gate);
        while gate.next != ticket {
            gate = S::wait(&shared.gate_cv, gate);
        }
        let commit_started = Instant::now();
        let reply: Reply<S> = {
            let (mut state, mut core) = if shared.mutants.shard_core_inversion && is_reconfigure {
                // MUTANT: nested acquisition opposite to a scrub pass's
                // (and submit path's) tile_state → core.
                let core = S::lock(&shared.core); // presp-analyze: mutant
                let state = S::lock(&shard.state); // presp-analyze: mutant
                (state, core)
            } else {
                let state = S::lock(&shard.state);
                let core = S::lock(&shared.core);
                (state, core)
            };
            // Route this commit's trace records to the worker's own
            // shard (seq survives re-attachment; merge restores order).
            if let Some(sink) = core.trace_shard(worker) {
                core.soc_mut().tracer_mut().attach(sink);
            }
            let now = core.soc().horizon();
            // Healed faults of earlier claimants are recorded here, at
            // the job's own commit slot: gate-ordered, so the merged
            // trace is deterministic for a given fault seed no matter
            // when the healing happened on the wall clock.
            for (i, past) in job.redispatch.iter().enumerate() {
                if past.died {
                    let ordinal = gate.deaths;
                    gate.deaths += 1;
                    core.soc_mut()
                        .tracer_mut()
                        .instant(ClockDomain::SocCycles, now, || TraceEvent::WorkerDied {
                            worker: ordinal,
                            ticket,
                        });
                }
                core.soc_mut()
                    .tracer_mut()
                    .instant(ClockDomain::SocCycles, now, || {
                        TraceEvent::TicketRedispatched {
                            tile: loc(tile),
                            ticket,
                            attempt: (i + 1) as u64,
                        }
                    });
            }
            core.soc_mut()
                .tracer_mut()
                .instant(ClockDomain::SocCycles, now, || TraceEvent::SchedDispatch {
                    tile: loc(tile),
                    ticket,
                    depth,
                });
            let at = state.idle_at();
            // Deadline check at the commit slot: the request's virtual
            // start is where the tile timeline and global horizon meet.
            let begin = at.max(now);
            let late = job
                .deadline_at
                .map_or(0, |deadline| begin.saturating_sub(deadline));
            let deadline_missed = late > 0;
            if deadline_missed {
                protocol::miss_deadline(&mut core, tile, ticket, begin, late);
            }
            match (payload, value) {
                (
                    Payload::Reconfigure {
                        kind,
                        done,
                        coalesced,
                    },
                    _,
                ) => Reply::Reconfigure {
                    kind,
                    done,
                    coalesced,
                    result: if deadline_missed {
                        Err(Error::DeadlineExceeded { tile })
                    } else {
                        protocol::request_reconfiguration_at(
                            &mut state,
                            &mut core,
                            &shared.policy,
                            kind,
                            at,
                        )
                        .map(|_| ())
                    },
                },
                (Payload::Run { op, done }, Some(value)) => Reply::Run {
                    done,
                    result: protocol::run_at(&mut state, &mut core, &op, at, value),
                },
                (Payload::Execute { kind, op, done }, Some(value)) => Reply::Execute {
                    done,
                    result: if !deadline_missed {
                        protocol::run_with_fallback_at(
                            &mut state,
                            &mut core,
                            &shared.policy,
                            kind,
                            &op,
                            (at, at),
                            value,
                        )
                        .map(|(run, path, _)| (run, path))
                    } else if shared.policy.cpu_fallback {
                        // Too late for the accelerator path; degrade to
                        // the CPU so application work still completes.
                        protocol::degrade_to_cpu_at(&mut core, kind, &op, begin, value)
                    } else {
                        Err(Error::DeadlineExceeded { tile })
                    },
                },
                (Payload::Run { .. } | Payload::Execute { .. }, None) => {
                    unreachable!("prepare evaluates every operation")
                }
            }
        };
        gate.retire(ticket);
        drop(gate);
        S::notify_all(&shared.gate_cv);
        let stages = StageNanos {
            prepare: (gate_started - prepare_started).as_nanos() as u64,
            gate_wait: (commit_started - gate_started).as_nanos() as u64,
            commit: commit_started.elapsed().as_nanos() as u64,
        };
        if matches!(reply, Reply::Reconfigure { .. } | Reply::Execute { .. }) {
            S::notify_all(&shard.reconfig_done);
        }
        // -- complete: free the tile, collect coalesced waiters ---------
        let (extra_waiters, claimable) = shared.complete(tile, stages);
        if claimable {
            S::notify_all(&shared.work);
        }
        // -- reply ------------------------------------------------------
        match reply {
            Reply::Reconfigure {
                kind,
                done,
                coalesced,
                result,
            } => {
                let folded = (coalesced.len() + extra_waiters.len()) as u64;
                if folded > 0 {
                    let mut core = S::lock(&shared.core);
                    core.stats_mut().reconfig_requests += folded;
                    core.stats_mut().coalesced += folded;
                    let now = core.soc().horizon();
                    core.soc_mut()
                        .tracer_mut()
                        .instant(ClockDomain::SocCycles, now, || {
                            TraceEvent::RequestCoalesced {
                                tile: loc(tile),
                                kind: kind.name(),
                                waiters: folded,
                            }
                        });
                }
                for tx in std::iter::once(done).chain(coalesced).chain(extra_waiters) {
                    let _ = S::send(&tx, result.clone());
                }
            }
            Reply::Run { done, result } => {
                let _ = S::send(&done, result);
            }
            Reply::Execute { done, result } => {
                let _ = S::send(&done, result);
                if shared.mutants.unsynced_stats {
                    // MUTANT: bookkeeping after the reply, outside any
                    // lock — races with `unsynced_runs()`.
                    let n = shared.racy_runs.read();
                    shared.racy_runs.write(n + 1);
                }
            }
        }
        if supervised {
            shared.end_commit(ticket);
        }
    }
}

/// One watchdog action, decided under the `supervisor` lock and executed
/// outside it.
enum Duty<S: SyncFacade> {
    /// Shutdown: exit the watchdog.
    Stop,
    /// Respawn a dead worker into the given slot.
    Respawn(usize),
    /// Steal a wedged claim (already removed from the table) and
    /// redispatch it under its ticket.
    Steal(u64, Claim<S>),
    /// Out of workers and out of restart budget: drain so waiters get
    /// [`Error::ManagerStopped`] instead of hanging forever.
    Drain,
}

/// The supervisor thread: respawns dead workers out of the restart
/// budget and steals claims wedged in front of the commit gate. Only the
/// ticket the gate is blocked on is ever scanned — that is the one claim
/// whose owner being wedged stalls the whole scheduler — making the scan
/// `supervisor` → `gate`, the one declared supervision lock edge.
pub(crate) fn supervisor_loop<S: SyncFacade>(shared: &Arc<Shared<S>>, workers: &WorkerHandles<S>) {
    /// Watchdog poll interval when nothing signals. Under the model
    /// checker the timeout fires at quiescence instead, which is exactly
    /// "every live worker is parked" — the wedge the watchdog exists
    /// to break.
    const POLL: Duration = Duration::from_millis(2);
    loop {
        let duty: Duty<S> = {
            let mut sup = S::lock(&shared.supervisor);
            loop {
                // Dead slots drain ahead of the stop flag: a death is
                // queued before its redispatched reply can land, so
                // draining here makes the respawn count a deterministic
                // min(deaths, budget) even when shutdown races the poll.
                // (A worker respawned during shutdown sees `stopping`
                // and exits immediately.)
                if let Some(slot) = sup.dead.pop() {
                    if sup.restarts_left > 0 {
                        sup.restarts_left -= 1;
                        sup.live_workers += 1;
                        sup.stats.worker_respawns += 1;
                        break Duty::Respawn(slot);
                    }
                    if sup.live_workers == 0 && !sup.stop {
                        break Duty::Drain;
                    }
                    // Budget exhausted but other workers survive: the
                    // pool shrinks and the dead claim was already healed.
                    continue;
                }
                if sup.stop {
                    break Duty::Stop;
                }
                let blocking = { S::lock(&shared.gate).next };
                let wedged = sup
                    .claims
                    .get(&blocking)
                    .is_some_and(|claim| claim.hung && !claim.committing && !claim.stolen);
                if wedged {
                    let claim = sup.claims.remove(&blocking).expect("checked above");
                    break Duty::Steal(blocking, claim);
                }
                let (guard, _timed_out) = S::wait_timeout(&shared.supervisor_cv, sup, POLL);
                sup = guard;
            }
        };
        match duty {
            Duty::Stop => return,
            Duty::Respawn(slot) => {
                let handle = spawn_worker(shared, slot);
                // `None` means shutdown already took the handles; the
                // respawned worker then sees `stopping` and exits on its
                // own, just unjoined.
                if let Some(handles) = S::lock_recover(workers).as_mut() {
                    handles.push(handle);
                }
            }
            Duty::Steal(ticket, claim) => {
                // Release the wedged owner; it observes its claim gone
                // and abandons the job, rejoining the worker pool.
                S::notify_all(&shared.hang_cv);
                shared.redispatch_claim(ticket, claim, false);
            }
            Duty::Drain => {
                shared.drain_to_stop();
                S::lock_recover(&shared.supervisor).stop = true;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_percentile_is_nearest_rank() {
        let mut stats = SchedulerStats::default();
        stats.wait_micros.extend([40, 10, 30, 20]);
        assert_eq!(stats.wait_percentile_micros(0.0), 10);
        assert_eq!(stats.wait_percentile_micros(25.0), 10);
        // The old rounded-interpolation index reported 30 here.
        assert_eq!(stats.wait_percentile_micros(50.0), 20);
        assert_eq!(stats.wait_percentile_micros(75.0), 30);
        assert_eq!(stats.wait_percentile_micros(99.0), 40);
        assert_eq!(stats.wait_percentile_micros(100.0), 40);
    }

    #[test]
    fn wait_percentile_handles_empty_and_singleton() {
        assert_eq!(SchedulerStats::default().wait_percentile_micros(50.0), 0);
        let mut one = SchedulerStats::default();
        one.wait_micros.push(7);
        assert_eq!(one.wait_percentile_micros(0.0), 7);
        assert_eq!(one.wait_percentile_micros(50.0), 7);
        assert_eq!(one.wait_percentile_micros(100.0), 7);
    }
}
