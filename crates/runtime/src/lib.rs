//! The PR-ESP software stack: a user-space rewrite of the paper's Linux
//! runtime reconfiguration manager (Section V).
//!
//! Public modules:
//!
//! * [`registry`] — the bitstream registry: partial bitstreams are
//!   registered up-front and the manager keeps "a reference between the
//!   bitstreams, their physical addresses, the tiles they will be loaded
//!   into, and their respective drivers".
//! * [`manager`] — the reconfiguration manager: wait-for-idle semantics,
//!   per-tile locking during reconfiguration, decouple → DFXC → re-couple →
//!   driver-swap sequencing, and reconfiguration statistics.
//! * [`threaded`] — the runtime handle, [`threaded::ThreadedManager`]:
//!   booted from one [`threaded::RuntimeConfig`], it offers blocking and
//!   asynchronous submission APIs for real OS threads, the scrub and
//!   repack maintenance passes, plus every stats, trace and fault-plan
//!   accessor. Generic over [`sync::SyncFacade`],
//!   so the same protocol runs in production (`std::sync`) and under
//!   the `presp-check` model checker.
//! * [`scheduler`] — the protocol behind that handle: per-tile request
//!   queues drained by a worker pool, with request coalescing, a
//!   commit-order ticket gate that keeps results identical for any
//!   worker count, and lock-free evaluation of behavioral results.
//! * [`cache`] — the bitstream cache in front of the registry and its
//!   hit/miss counters.
//! * [`sync`] — the sync facade: the runtime's only doorway to
//!   synchronization primitives, enforced by `presp-analyze`.
//! * [`app`] — the WAMI application scheduler: maps the Fig. 3 dataflow
//!   onto a reconfigurable SoC given a tile allocation (Table VI), with
//!   prefetch reconfiguration and CPU fallback for unallocated kernels.
//!
//! Crate-private modules, reached through the items above:
//!
//! * `tile` / `device` — the sharded state split: per-tile bookkeeping
//!   lives in one `TileState` per tile, while the genuinely shared
//!   resources (ICAP/DFXC timelines, configuration memory, NoC, the
//!   registry and its bitstream cache) live in one `DeviceCore`.
//! * `protocol` — the reconfigure, run, scrub and repack steps both
//!   managers call.
//! * `scrubber` — configuration-memory scrubbing as handle methods
//!   ([`ThreadedManager::scrub_blocking`](threaded::ThreadedManager::scrub_blocking),
//!   [`ThreadedManager::scrub_all_blocking`](threaded::ThreadedManager::scrub_all_blocking)):
//!   a pass runs on the calling thread under the scheduler's tile-shard
//!   and device-core locks, walks configuration frames, repairs SEUs
//!   with the per-frame ECC, quarantines tiles with uncorrectable
//!   damage, and counts itself in the manager's stats. Model-checked
//!   alongside the scheduler.
//! * `defrag` — online defragmentation as a handle method
//!   ([`ThreadedManager::repack_blocking`](threaded::ThreadedManager::repack_blocking)):
//!   under amorphous floorplanning (flexible-boundary regions leased
//!   from a [`presp_floorplan`] allocator instead of fixed sockets), a
//!   pass quiesces the commit gate, plans the allocator's left-slide
//!   compaction and relocates idle regions so an oversized request
//!   refused for fragmentation can be admitted. Model-checked alongside
//!   the scheduler.
//! * `supervisor` — worker supervision: seeded software-fault plans
//!   ([`WorkerFaultPlan`]: worker panics, hangs, stalls) and the
//!   watchdog counters ([`SupervisorStats`]). The scheduler's supervisor
//!   thread heals the commit-order gate by redispatching
//!   claimed-but-uncommitted jobs under their original tickets and
//!   respawns dead workers within a bounded restart budget.
//! * `error` — the crate's [`Error`].
//!
//! # Example
//!
//! ```
//! use presp_runtime::manager::ReconfigManager;
//! use presp_runtime::registry::BitstreamRegistry;
//! use presp_soc::config::SocConfig;
//! use presp_soc::sim::Soc;
//! use presp_accel::{AccelOp, AccelValue, AcceleratorKind};
//! # use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
//! # use presp_fpga::frame::FrameAddress;
//!
//! let config = SocConfig::grid_3x3_reconf("demo", 1)?;
//! let soc = Soc::new(&config)?;
//! let tile = config.reconfigurable_tiles()[0];
//!
//! let mut registry = BitstreamRegistry::new();
//! # let device = soc.part().device();
//! # let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
//! # let words = device.part().family().frame_words();
//! # b.add_frame(FrameAddress::new(0, 1, 0), vec![1; words])?;
//! # let bitstream = b.build(true);
//! registry.register(tile, AcceleratorKind::Mac, bitstream)?;
//!
//! let mut manager = ReconfigManager::new(soc, registry);
//! manager.request_reconfiguration(tile, AcceleratorKind::Mac)?;
//! let run = manager.run(tile, &AccelOp::Mac { a: vec![2.0], b: vec![8.0] })?;
//! assert_eq!(run.value, AccelValue::Scalar(16.0));
//! # Ok::<(), presp_runtime::Error>(())
//! ```

#![warn(unreachable_pub)]

pub mod app;
pub mod cache;
mod defrag;
mod device;
mod error;
pub mod manager;
mod protocol;
pub mod registry;
pub mod scheduler;
mod scrubber;
mod supervisor;
pub mod sync;
pub mod threaded;
mod tile;

pub use error::Error;
pub use manager::{ExecPath, ReconfigManager, RecoveryPolicy, RepackReport};
pub use registry::BitstreamRegistry;
pub use supervisor::{
    install_quiet_panic_hook, InjectedWorkerFaults, SupervisorStats, WorkerFault,
    WorkerFaultConfig, WorkerFaultPlan,
};
pub use tile::TileHealth;
