//! The device core: the genuinely shared half of the sharded runtime.
//!
//! After the god-object split, everything whose consistency is *per-tile*
//! lives in a tile shard ([`crate::tile`]); what remains here is the
//! state every request on every tile contends for no matter how the
//! runtime is sharded: the SoC simulator (one ICAP/DFXC write port, one
//! configuration memory, one NoC and their shared virtual-time
//! timelines), the aggregate [`crate::manager::ManagerStats`], the
//! [`crate::registry::BitstreamRegistry`] and the
//! [`crate::cache::BitstreamCache`] fronting it.
//!
//! On the deterministic path the [`crate::manager::ReconfigManager`] owns
//! a `DeviceCore` directly; on the OS-threaded path the
//! [`crate::scheduler`] wraps it in a single mutex (label `"core"`) that
//! is held only for the serial ICAP/NoC portion of each request — the
//! short critical section the multi-worker scheduler is built around.

use crate::cache::{BitstreamCache, CacheStats};
use crate::error::Error;
use crate::manager::ManagerStats;
use crate::registry::BitstreamRegistry;
use crate::sync::Arc;
use presp_accel::catalog::AcceleratorKind;
use presp_events::trace::ClockDomain;
use presp_events::{Loc, SharedSink, TraceEvent};
use presp_floorplan::{FitPolicy, RegionAllocator};
use presp_fpga::bitstream::Bitstream;
use presp_soc::config::TileCoord;
use presp_soc::sim::Soc;
use std::fmt;

/// The tile's location as a trace record coordinate.
pub(crate) fn loc(coord: TileCoord) -> Loc {
    Loc::new(coord.row as u64, coord.col as u64)
}

/// The shared device resources: SoC, registry (+ verified-bitstream
/// cache) and aggregate statistics.
///
/// The registry is behind an `Arc` because it is immutable after boot:
/// the scheduler's workers read it lock-free during their prepare stage
/// while the core's copy serves the in-lock paths.
pub struct DeviceCore {
    soc: Soc,
    registry: Arc<BitstreamRegistry>,
    cache: BitstreamCache,
    stats: ManagerStats,
    /// Per-worker trace shards installed by the scheduler's sharded
    /// tracer; empty on the single-sink and deterministic paths.
    trace_shards: Vec<SharedSink>,
    /// The amorphous-floorplanning placement authority: `None` keeps the
    /// legacy fixed-socket behavior (bitstreams load exactly where they
    /// were built); `Some` routes every load through footprint → lease →
    /// relocation.
    allocator: Option<RegionAllocator>,
}

impl fmt::Debug for DeviceCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceCore")
            .field("soc", &self.soc)
            .field("registry", &self.registry)
            .field("cache", &self.cache)
            .field("stats", &self.stats)
            .field("trace_shards", &self.trace_shards.len())
            .finish()
    }
}

impl DeviceCore {
    /// A core over a booted SoC and a loaded registry. `cache` fronts the
    /// registry's verified lookups; pass
    /// [`BitstreamCache::disabled`] to re-verify on every load.
    pub(crate) fn new(soc: Soc, registry: BitstreamRegistry, cache: BitstreamCache) -> DeviceCore {
        DeviceCore::new_shared(soc, Arc::new(registry), cache)
    }

    /// [`DeviceCore::new`] over a registry handle the caller keeps a
    /// clone of (the scheduler shares it with its workers' lock-free
    /// prepare stage).
    pub(crate) fn new_shared(
        soc: Soc,
        registry: Arc<BitstreamRegistry>,
        cache: BitstreamCache,
    ) -> DeviceCore {
        DeviceCore {
            soc,
            registry,
            cache,
            stats: ManagerStats::default(),
            trace_shards: Vec::new(),
            allocator: None,
        }
    }

    /// Switches the core from fixed sockets to amorphous floorplanning:
    /// every subsequent load consults a [`RegionAllocator`] over the
    /// device's frame columns and relocates its bitstream into the leased
    /// span. Must be enabled before the first load — tiles already
    /// configured occupy fabric the fresh allocator would hand out again.
    ///
    /// # Errors
    ///
    /// Returns a [`presp_soc::Error::RegionConflict`] when any tile has
    /// already been loaded.
    pub(crate) fn enable_regions(
        &mut self,
        policy: FitPolicy,
        window: Option<std::ops::Range<u32>>,
    ) -> Result<(), Error> {
        for tile in self.soc.config().reconfigurable_tiles() {
            if !self.soc.tile_region(tile).is_empty() {
                return Err(Error::Soc(presp_soc::Error::RegionConflict {
                    coord: tile,
                    detail: "amorphous floorplanning must be enabled before the first load".into(),
                }));
            }
        }
        let device = self.soc.part().device();
        self.allocator = Some(match window {
            Some(range) => RegionAllocator::new_within(&device, policy, range),
            None => RegionAllocator::new(&device, policy),
        });
        Ok(())
    }

    /// The region allocator, when amorphous floorplanning is enabled.
    pub fn allocator(&self) -> Option<&RegionAllocator> {
        self.allocator.as_ref()
    }

    /// Mutable access to the region allocator.
    pub(crate) fn allocator_mut(&mut self) -> Option<&mut RegionAllocator> {
        self.allocator.as_mut()
    }

    /// The underlying SoC.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Mutable access to the underlying SoC.
    pub fn soc_mut(&mut self) -> &mut Soc {
        &mut self.soc
    }

    /// Attaches a trace sink to the underlying SoC. The threaded
    /// runtime's tracer and fault-plan setters go through these two
    /// same-named doors rather than `soc_mut()`, so `presp-analyze`'s
    /// by-name call propagation cannot mistake the SoC call made under
    /// the `core` lock for the setter itself.
    pub(crate) fn attach_tracer(&mut self, sink: SharedSink) {
        self.soc.attach_tracer(sink);
    }

    /// Installs (or disarms, with `None`) the underlying SoC's fault plan.
    pub(crate) fn set_fault_plan(&mut self, plan: Option<presp_fpga::fault::FaultPlan>) {
        self.soc.set_fault_plan(plan);
    }

    /// Consumes the core, returning the SoC.
    pub(crate) fn into_soc(self) -> Soc {
        self.soc
    }

    /// The bitstream registry.
    pub fn registry(&self) -> &BitstreamRegistry {
        &self.registry
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Mutable access to the aggregate statistics.
    pub(crate) fn stats_mut(&mut self) -> &mut ManagerStats {
        &mut self.stats
    }

    /// Hit/miss counters of the verified-bitstream cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Installs the scheduler's per-worker trace shards; worker `i`
    /// re-attaches its shard before each commit.
    pub(crate) fn set_trace_shards(&mut self, shards: Vec<SharedSink>) {
        self.trace_shards = shards;
    }

    /// Worker `i`'s trace shard, if sharded tracing is installed.
    pub(crate) fn trace_shard(&self, i: usize) -> Option<SharedSink> {
        if self.trace_shards.is_empty() {
            None
        } else {
            Some(self.trace_shards[i % self.trace_shards.len()].clone())
        }
    }

    /// The verified bitstream for `(tile, kind)`, served from the LRU
    /// cache when possible. A hit skips the registry's integrity re-check
    /// and is traced as [`TraceEvent::PbsCacheHit`] at cycle `at`; a miss
    /// pays the full verified lookup — or consumes `prepared`, a verified
    /// copy the caller fetched from the same registry ahead of time
    /// (outside the device-core lock). Cache behavior, stats and traces
    /// are byte-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates [`BitstreamRegistry::lookup`] errors on the unprepared
    /// miss path.
    pub(crate) fn fetch_bitstream_with(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        at: u64,
        prepared: &mut Option<Arc<Bitstream>>,
    ) -> Result<Arc<Bitstream>, Error> {
        let (stream, hit) = self
            .cache
            .lookup_with(&self.registry, tile, kind, prepared)?;
        if hit {
            self.soc
                .tracer_mut()
                .instant(ClockDomain::SocCycles, at, || TraceEvent::PbsCacheHit {
                    tile: loc(tile),
                    kind: kind.name(),
                });
        }
        Ok(stream)
    }
}
