//! LRU cache of verified partial bitstreams.
//!
//! [`crate::registry::BitstreamRegistry::lookup`] re-verifies the stored
//! stream's build-time integrity checksum on every call — the right
//! default for a safety-critical load path, but pure overhead when the
//! same working set of (tile, accelerator) pairs swaps back and forth
//! under load. [`BitstreamCache`] fronts the registry with a bounded LRU
//! of already-verified streams: a hit returns a cheap `Arc` clone; a miss
//! takes the stream the caller prepared, or pays the full verified lookup,
//! and caches the result.
//!
//! On the only path that enables the cache, a hit saves no verification:
//! the threaded runtime's worker prepare stage
//! (`scheduler::worker_loop`) has already run the registry's verified
//! lookup outside the core lock before every load, cached or not, and a
//! hit drops that prepared stream.
//!
//! A capacity of zero disables the cache entirely (every lookup goes to
//! the registry). The deterministic [`crate::manager::ReconfigManager`]
//! always runs with the cache disabled: its trace log is a
//! semantics-preservation oracle and must not gain cache events. Only the
//! threaded runtime sizes the cache (`RuntimeConfig::cache_capacity`).

use crate::error::Error;
use crate::registry::BitstreamRegistry;
use crate::sync::Arc;
use presp_accel::catalog::AcceleratorKind;
use presp_fpga::bitstream::Bitstream;
use presp_soc::config::TileCoord;
use std::collections::BTreeMap;

/// Hit/miss counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that went through to the verified registry path.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

/// A bounded LRU of verified bitstreams keyed by (tile, accelerator).
///
/// A reconfiguration request that needs a load looks its stream up
/// exactly once, before the tile is decoupled, and every retry reuses
/// that stream. So hits plus misses count such requests, not load
/// attempts.
#[derive(Debug, Default)]
pub struct BitstreamCache {
    capacity: usize,
    entries: BTreeMap<(TileCoord, AcceleratorKind), Entry>,
    stamp: u64,
    stats: CacheStats,
}

#[derive(Debug)]
struct Entry {
    stream: Arc<Bitstream>,
    last_used: u64,
}

impl BitstreamCache {
    /// A cache holding at most `capacity` verified streams. Zero disables
    /// caching: every lookup re-verifies through the registry.
    pub fn new(capacity: usize) -> BitstreamCache {
        BitstreamCache {
            capacity,
            ..BitstreamCache::default()
        }
    }

    /// A disabled cache (capacity zero).
    pub fn disabled() -> BitstreamCache {
        BitstreamCache::new(0)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up the verified stream for `(tile, kind)`. A hit returns the
    /// cached stream and drops `prepared`. A miss consumes `prepared`, a
    /// verified stream the caller fetched from the same registry ahead of
    /// time (outside the device-core lock), or with `None` goes to
    /// `registry`, which re-verifies integrity. Hit/miss accounting, cache
    /// contents and results are identical either way: the registry is
    /// immutable after boot, so a prepared stream cannot go stale.
    /// Returns whether the lookup hit alongside the stream.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::registry::BitstreamRegistry::lookup`] errors
    /// on the unprepared miss path.
    pub fn lookup(
        &mut self,
        registry: &BitstreamRegistry,
        tile: TileCoord,
        kind: AcceleratorKind,
        prepared: Option<Arc<Bitstream>>,
    ) -> Result<(Arc<Bitstream>, bool), Error> {
        self.stamp += 1;
        if self.capacity > 0 {
            if let Some(entry) = self.entries.get_mut(&(tile, kind)) {
                entry.last_used = self.stamp;
                self.stats.hits += 1;
                return Ok((Arc::clone(&entry.stream), true));
            }
        }
        self.stats.misses += 1;
        let stream = match prepared {
            Some(stream) => stream,
            None => registry.lookup(tile, kind)?,
        };
        if self.capacity > 0 {
            if self.entries.len() >= self.capacity {
                // Evict the least-recently-used entry.
                if let Some(&victim) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k)
                {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.entries.insert(
                (tile, kind),
                Entry {
                    stream: Arc::clone(&stream),
                    last_used: self.stamp,
                },
            );
        }
        Ok((stream, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
    use presp_fpga::frame::FrameAddress;
    use presp_fpga::part::FpgaPart;

    fn registry_with(pairs: &[(TileCoord, AcceleratorKind, u32)]) -> BitstreamRegistry {
        let device = FpgaPart::Vc707.device();
        let mut registry = BitstreamRegistry::new();
        for &(tile, kind, col) in pairs {
            let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
            let words = device.part().family().frame_words();
            b.add_frame(FrameAddress::new(0, col, 0), vec![col; words])
                .unwrap();
            registry.register(tile, kind, b.build(true)).unwrap();
        }
        registry
    }

    /// Looks `kind` up on tile (1, 0) with nothing prepared; returns
    /// whether it hit.
    fn hits(
        cache: &mut BitstreamCache,
        registry: &BitstreamRegistry,
        kind: AcceleratorKind,
    ) -> bool {
        let t = TileCoord::new(1, 0);
        cache.lookup(registry, t, kind, None).unwrap().1
    }

    #[test]
    fn second_lookup_hits_and_skips_reverification() {
        let t = TileCoord::new(1, 0);
        let registry = registry_with(&[(t, AcceleratorKind::Mac, 2)]);
        let mut cache = BitstreamCache::new(4);
        assert!(!hits(&mut cache, &registry, AcceleratorKind::Mac));
        assert!(hits(&mut cache, &registry, AcceleratorKind::Mac));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let t = TileCoord::new(1, 0);
        let registry = registry_with(&[
            (t, AcceleratorKind::Mac, 2),
            (t, AcceleratorKind::Sort, 3),
            (t, AcceleratorKind::Gemm, 4),
        ]);
        let mut cache = BitstreamCache::new(2);
        hits(&mut cache, &registry, AcceleratorKind::Mac);
        hits(&mut cache, &registry, AcceleratorKind::Sort);
        // Touch Mac so Sort becomes the LRU victim.
        hits(&mut cache, &registry, AcceleratorKind::Mac);
        hits(&mut cache, &registry, AcceleratorKind::Gemm);
        assert_eq!(cache.stats().evictions, 1);
        let survived = hits(&mut cache, &registry, AcceleratorKind::Mac);
        assert!(survived, "the recently-touched entry survived");
        let evicted = !hits(&mut cache, &registry, AcceleratorKind::Sort);
        assert!(evicted, "the LRU entry was evicted");
    }

    #[test]
    fn disabled_cache_never_hits() {
        let t = TileCoord::new(1, 0);
        let registry = registry_with(&[(t, AcceleratorKind::Mac, 2)]);
        let mut cache = BitstreamCache::disabled();
        for _ in 0..3 {
            assert!(!hits(&mut cache, &registry, AcceleratorKind::Mac));
        }
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn prepared_stream_serves_a_miss_without_the_registry() {
        let t = TileCoord::new(1, 0);
        let prepared =
            registry_with(&[(t, AcceleratorKind::Mac, 2)]).lookup(t, AcceleratorKind::Mac);
        let mut cache = BitstreamCache::new(4);
        let empty = registry_with(&[]);
        let (_, hit) = cache
            .lookup(&empty, t, AcceleratorKind::Mac, prepared.ok())
            .unwrap();
        assert!(!hit);
        assert!(hits(&mut cache, &empty, AcceleratorKind::Mac));
    }

    #[test]
    fn miss_on_unregistered_pair_propagates() {
        let t = TileCoord::new(1, 0);
        let registry = registry_with(&[]);
        let mut cache = BitstreamCache::new(4);
        assert!(matches!(
            cache.lookup(&registry, t, AcceleratorKind::Mac, None),
            Err(Error::BitstreamNotRegistered { .. })
        ));
    }
}
