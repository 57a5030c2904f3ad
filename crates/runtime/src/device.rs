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
//! Under amorphous floorplanning the core is also the one record of
//! every tile's region: the [`RegionAllocator`] holds each lease's span,
//! the core maps each tile to its lease id, and the SoC's golden images
//! hold the frames. Tile shards keep no copy, so a repack plan resolves
//! every move's owner here, under the one `core` lock.
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
use presp_floorplan::{FitPolicy, FragmentationStats, RegionAllocator, RegionLease, RegionMove};
use presp_fpga::bitstream::Bitstream;
use presp_fpga::fabric::ColumnKind;
use presp_soc::config::TileCoord;
use presp_soc::sim::Soc;
use std::collections::BTreeMap;
use std::fmt;

/// The tile's location as a trace record coordinate.
pub(crate) fn loc(coord: TileCoord) -> Loc {
    Loc::new(coord.row as u64, coord.col as u64)
}

/// The shared device resources: SoC, registry (+ bitstream cache) and
/// aggregate statistics.
pub struct DeviceCore {
    soc: Soc,
    registry: BitstreamRegistry,
    cache: BitstreamCache,
    stats: ManagerStats,
    /// Per-worker trace shards installed by the scheduler's sharded
    /// tracer; empty on the single-sink and deterministic paths.
    trace_shards: Vec<SharedSink>,
    /// The amorphous-floorplanning placement authority: `None` keeps the
    /// legacy fixed-socket behavior (bitstreams load exactly where they
    /// were built); `Some` routes every load through column span → lease →
    /// relocation. The allocator is the one record of each lease.
    allocator: Option<RegionAllocator>,
    /// The id of the lease each tile holds. Written only with the
    /// allocator, so every live lease has exactly one owner here.
    leases: BTreeMap<TileCoord, u64>,
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
    /// registry's lookups; pass [`BitstreamCache::disabled`] to read the
    /// registry on every load.
    pub(crate) fn new(soc: Soc, registry: BitstreamRegistry, cache: BitstreamCache) -> DeviceCore {
        DeviceCore {
            soc,
            registry,
            cache,
            stats: ManagerStats::default(),
            trace_shards: Vec::new(),
            allocator: None,
            leases: BTreeMap::new(),
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
            if self.soc.has_region(tile) {
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
        self.leases.clear();
        Ok(())
    }

    /// Whether amorphous floorplanning is enabled.
    pub(crate) fn regions_enabled(&self) -> bool {
        self.allocator.is_some()
    }

    /// Fragmentation counters of the region allocator; `None` on the
    /// fixed-socket path.
    pub fn fragmentation(&self) -> Option<FragmentationStats> {
        self.allocator.as_ref().map(RegionAllocator::stats)
    }

    /// The live lease `tile` holds; `None` on the fixed-socket path and
    /// for a tile that never placed a load.
    pub fn tile_lease(&self, tile: TileCoord) -> Option<&RegionLease> {
        let id = self.leases.get(&tile)?;
        self.allocator.as_ref()?.lease(*id)
    }

    /// Gives `tile` a fresh lease matching `pattern`. The old lease, if
    /// any, returns to the allocator first, so the new span may reuse its
    /// columns. Returns the new base column and whether an old lease was
    /// given up; `None` when no free span fits, in which case the old
    /// lease is re-seeded at its base (released above and handed to
    /// nobody since, so the reservation cannot fail) and stays the
    /// tile's. Also `None` on the fixed-socket path.
    pub(crate) fn switch_lease(
        &mut self,
        tile: TileCoord,
        pattern: &[ColumnKind],
    ) -> Option<(u32, bool)> {
        let alloc = self.allocator.as_mut()?;
        let old = self
            .leases
            .remove(&tile)
            .and_then(|id| alloc.lease(id).cloned());
        if let Some(old) = &old {
            alloc.release(old.id);
        }
        let Some(lease) = alloc.allocate(pattern) else {
            if let Some(restored) = old.and_then(|old| alloc.reserve_at(old.base, &old.kinds)) {
                self.leases.insert(tile, restored.id);
            }
            return None;
        };
        self.leases.insert(tile, lease.id);
        Some((lease.base, old.is_some()))
    }

    /// Plans a defragmentation pass: the allocator's greedy left-slide
    /// compaction in application order, each move paired with the tile
    /// owning its lease. Empty on the fixed-socket path or when the
    /// fabric is already packed.
    pub(crate) fn plan_repack(&self) -> Vec<(RegionMove, TileCoord)> {
        let Some(alloc) = &self.allocator else {
            return Vec::new();
        };
        alloc
            .plan_compaction()
            .into_iter()
            .filter_map(|mv| {
                let owner = self.leases.iter().find(|(_, &id)| id == mv.id);
                owner.map(|(&tile, _)| (mv, tile))
            })
            .collect()
    }

    /// Slides lease `id` to base column `to` in the allocator, which
    /// validates the destination against every live lease. A no-op on
    /// the fixed-socket path, which plans no moves.
    ///
    /// # Errors
    ///
    /// The allocator's refusal of the destination.
    pub(crate) fn move_lease(&mut self, id: u64, to: u32) -> Result<(), presp_floorplan::Error> {
        self.allocator
            .as_mut()
            .map_or(Ok(()), |alloc| alloc.apply_move(id, to))
    }

    /// The underlying SoC.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Mutable access to the underlying SoC.
    pub fn soc_mut(&mut self) -> &mut Soc {
        &mut self.soc
    }

    /// Installs (or disarms, with `None`) the underlying SoC's fault plan.
    /// [`crate::threaded::ThreadedManager::set_fault_plan`] goes through
    /// this same-named door rather than `soc_mut()`, so `presp-analyze`'s
    /// by-name call propagation cannot mistake the SoC call made under
    /// the `core` lock for the setter itself.
    pub(crate) fn set_fault_plan(&mut self, plan: Option<presp_fpga::fault::FaultPlan>) {
        self.soc.set_fault_plan(plan);
    }

    /// Consumes the core, returning the SoC.
    pub(crate) fn into_soc(self) -> Soc {
        self.soc
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Mutable access to the aggregate statistics.
    pub(crate) fn stats_mut(&mut self) -> &mut ManagerStats {
        &mut self.stats
    }

    /// Hit/miss counters of the bitstream cache.
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

    /// The registered bitstream for `(tile, kind)`, served from the LRU
    /// cache when possible: a request's one fetch. A hit is traced as
    /// [`TraceEvent::PbsCacheHit`] at cycle `at`.
    ///
    /// # Errors
    ///
    /// Propagates [`BitstreamRegistry::lookup`] errors on a miss.
    pub(crate) fn fetch_bitstream(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        at: u64,
    ) -> Result<Arc<Bitstream>, Error> {
        let (stream, hit) = self.cache.lookup(&self.registry, tile, kind)?;
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
