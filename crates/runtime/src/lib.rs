//! The PR-ESP software stack: a user-space rewrite of the paper's Linux
//! runtime reconfiguration manager (Section V).
//!
//! * [`registry`] — the bitstream registry: partial bitstreams are
//!   registered up-front and the manager keeps "a reference between the
//!   bitstreams, their physical addresses, the tiles they will be loaded
//!   into, and their respective drivers".
//! * [`driver`] — driver lifecycle events: each tile's shard binds and
//!   unbinds its accelerator driver as accelerators are swapped and
//!   records every probe and removal.
//! * [`manager`] — the reconfiguration manager: wait-for-idle semantics,
//!   per-tile locking during reconfiguration, decouple → DFXC → re-couple →
//!   driver-swap sequencing, and reconfiguration statistics.
//! * [`tile`] / [`device`] — the sharded state split: per-tile
//!   bookkeeping lives in one [`tile::TileState`] per tile, while the
//!   genuinely shared resources (ICAP/DFXC timelines, configuration
//!   memory, NoC, the registry and its bitstream [`cache`])
//!   live in one [`device::DeviceCore`].
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
//! * [`scrubber`] — configuration-memory scrubbing as handle methods
//!   (`scrub_blocking`, `scrub_all_blocking`): a pass runs on the
//!   calling thread under the scheduler's tile-shard and device-core
//!   locks, walks configuration frames, repairs SEUs with the per-frame
//!   ECC, quarantines tiles with uncorrectable damage, and counts itself
//!   in the manager's stats. Model-checked alongside the scheduler.
//! * [`defrag`] — online defragmentation as a handle method
//!   (`repack_blocking`): under amorphous floorplanning
//!   (flexible-boundary regions leased from a [`presp_floorplan`]
//!   allocator instead of fixed sockets), a pass quiesces the commit
//!   gate, plans the allocator's left-slide compaction and relocates
//!   idle regions so an oversized request refused for fragmentation can
//!   be admitted. Model-checked alongside the scheduler.
//! * [`supervisor`] — worker supervision: seeded software-fault plans
//!   (worker panics, hangs, stalls) and the watchdog counters. The
//!   scheduler's supervisor thread heals the commit-order gate by
//!   redispatching claimed-but-uncommitted jobs under their original
//!   tickets and respawns dead workers within a bounded restart budget.
//! * [`sync`] — the sync facade: the runtime's only doorway to
//!   synchronization primitives, enforced by `presp-analyze`.
//! * [`app`] — the WAMI application scheduler: maps the Fig. 3 dataflow
//!   onto a reconfigurable SoC given a tile allocation (Table VI), with
//!   prefetch reconfiguration and CPU fallback for unallocated kernels.
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

pub mod app;
pub mod cache;
pub mod defrag;
pub mod device;
pub mod driver;
pub mod error;
pub mod manager;
pub(crate) mod protocol;
pub mod registry;
pub mod scheduler;
pub mod scrubber;
pub mod supervisor;
pub mod sync;
pub mod threaded;
pub mod tile;

pub use error::Error;
pub use manager::{ExecPath, ReconfigManager, RecoveryPolicy, RepackReport, TileHealth};
pub use registry::BitstreamRegistry;
pub use supervisor::{
    install_quiet_panic_hook, SupervisorStats, WorkerFault, WorkerFaultConfig, WorkerFaultPlan,
};
