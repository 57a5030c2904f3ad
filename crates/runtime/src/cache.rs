//! LRU cache in front of the bitstream registry, kept for its counters.
//!
//! [`crate::registry::BitstreamRegistry`] verifies every stream once,
//! when it is registered, so a registry lookup is already a map read plus
//! an `Arc` clone. [`BitstreamCache`] fronts that read with a bounded LRU:
//! a hit returns the cached `Arc`, a miss reads the registry and caches
//! the result. Either way the caller gets the same stream, and a hit saves
//! nothing worth measuring. The cache stays only because its
//! [`CacheStats`] and the `pbs_cache.hit` trace record are read by the
//! benchmark's runtime layer (`runtime.cache_lookups`,
//! `runtime.cache_hit_ratio`, `runtime.cache_evictions`); removing it is
//! a change to that benchmark.
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
    /// Lookups that went through to the registry.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

/// A bounded LRU of registered bitstreams keyed by (tile, accelerator).
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
    /// A cache holding at most `capacity` streams. Zero disables caching:
    /// every lookup reads the registry.
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

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up the stream for `(tile, kind)`: a hit returns the cached
    /// stream, a miss reads `registry`. Returns whether the lookup hit
    /// alongside the stream.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::registry::BitstreamRegistry::lookup`] errors
    /// on the miss path.
    pub fn lookup(
        &mut self,
        registry: &BitstreamRegistry,
        tile: TileCoord,
        kind: AcceleratorKind,
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
        let stream = registry.lookup(tile, kind)?;
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

    /// Looks `kind` up on tile (1, 0); returns whether it hit.
    fn hits(
        cache: &mut BitstreamCache,
        registry: &BitstreamRegistry,
        kind: AcceleratorKind,
    ) -> bool {
        let t = TileCoord::new(1, 0);
        cache.lookup(registry, t, kind).unwrap().1
    }

    #[test]
    fn second_lookup_hits() {
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
    fn miss_on_unregistered_pair_propagates() {
        let t = TileCoord::new(1, 0);
        let registry = registry_with(&[]);
        let mut cache = BitstreamCache::new(4);
        assert!(matches!(
            cache.lookup(&registry, t, AcceleratorKind::Mac),
            Err(Error::BitstreamNotRegistered { .. })
        ));
    }
}
