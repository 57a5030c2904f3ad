//! Dynamic region allocation over device frame columns.
//!
//! The static [`crate::Floorplanner`] decides a one-shot placement at design
//! time; this module is the *runtime* placement authority for amorphous
//! floorplanning (Nguyen & Hoe's flexible-boundary DPR). Regions are no
//! longer fixed sockets: a [`RegionAllocator`] leases contiguous column
//! spans out of the device's frame-column space on demand, releases them
//! when a tile goes idle, and plans compaction moves that slide live leases
//! toward column zero so a fragmented fabric can still admit a wide
//! accelerator.
//!
//! Fit policies follow Deak & Creț's packing formulation: first-fit takes
//! the lowest matching span, best-fit the span whose surrounding free run
//! is tightest (leaving the largest holes intact for future wide requests).
//!
//! Column *kinds* matter: a bitstream built for CLB columns can only be
//! relocated onto CLB columns (frame geometry differs per kind — see
//! `presp_fpga::bitstream`'s relocation rules), so every allocation carries
//! the kind pattern it was placed against and moves preserve it per column.

use crate::error::Error;
use presp_fpga::fabric::{ColumnKind, Device};
use std::collections::BTreeMap;

/// Span-selection policy for [`RegionAllocator::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitPolicy {
    /// Lowest matching span wins.
    #[default]
    FirstFit,
    /// The span inside the tightest surrounding free run wins (ties to the
    /// lowest base), preserving large holes for future wide requests.
    BestFit,
}

/// A live lease of a contiguous column span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionLease {
    /// Stable lease identifier (unique within one allocator).
    pub id: u64,
    /// First leased column.
    pub base: u32,
    /// Kind of every leased column, in order; the lease is exactly
    /// `kinds.len()` columns wide.
    pub kinds: Vec<ColumnKind>,
}

impl RegionLease {
    /// Number of leased columns.
    pub fn width(&self) -> u32 {
        self.kinds.len() as u32
    }

    /// The leased column indices, ascending.
    pub(crate) fn columns(&self) -> std::ops::Range<u32> {
        self.base..self.base + self.width()
    }
}

/// One planned compaction step: slide lease `id` from `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionMove {
    /// Lease being moved.
    pub id: u64,
    /// Current base column.
    pub from: u32,
    /// Destination base column.
    pub to: u32,
}

impl RegionMove {
    /// Signed column delta of the move — the value bitstream relocation
    /// rewrites frame addresses by.
    pub fn delta(&self) -> i64 {
        self.to as i64 - self.from as i64
    }
}

/// Snapshot of the allocator's fragmentation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FragmentationStats {
    /// Columns the allocator manages (every reconfigurable column).
    pub managed_columns: u32,
    /// Managed columns not currently leased.
    pub free_columns: u32,
    /// Longest contiguous run of free managed columns.
    pub largest_free_span: u32,
    /// Live leases.
    pub leases: u32,
}

impl FragmentationStats {
    /// External fragmentation ratio in `[0, 1]`: the share of free columns
    /// unusable by a request sized to the largest free span
    /// (`1 − largest_free_span / free_columns`; `0` when nothing is free).
    pub fn external_fragmentation(&self) -> f64 {
        if self.free_columns == 0 {
            0.0
        } else {
            1.0 - self.largest_free_span as f64 / self.free_columns as f64
        }
    }
}

/// Dynamic allocator of column-span leases over one device's fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionAllocator {
    kinds: Vec<ColumnKind>,
    /// Lease id occupying each column, `None` when free. Non-reconfigurable
    /// columns are never free nor leased — they are simply unmanaged.
    occupancy: Vec<Option<u64>>,
    leases: BTreeMap<u64, RegionLease>,
    next_id: u64,
    policy: FitPolicy,
    /// Managed column window `[start, end)`; `None` manages the whole
    /// fabric. Columns outside the window belong to the static system and
    /// are never leased, exactly like non-reconfigurable columns.
    window: Option<(u32, u32)>,
}

impl RegionAllocator {
    /// Creates an allocator managing every reconfigurable column of
    /// `device`.
    pub fn new(device: &Device, policy: FitPolicy) -> RegionAllocator {
        let kinds: Vec<ColumnKind> = (0..device.columns())
            .map(|i| device.column_kind(i))
            .collect();
        let occupancy = vec![None; kinds.len()];
        RegionAllocator {
            kinds,
            occupancy,
            leases: BTreeMap::new(),
            next_id: 0,
            policy,
            window: None,
        }
    }

    /// [`RegionAllocator::new`] restricted to the columns in `window`
    /// (clamped to the fabric): the partially reconfigurable share of the
    /// device, with everything outside reserved for the static system.
    pub fn new_within(
        device: &Device,
        policy: FitPolicy,
        window: std::ops::Range<u32>,
    ) -> RegionAllocator {
        let mut allocator = RegionAllocator::new(device, policy);
        let end = window.end.min(device.columns() as u32);
        allocator.window = Some((window.start.min(end), end));
        allocator
    }

    /// Whether column `i` is available to the allocator: reconfigurable
    /// and inside the managed window.
    fn managed(&self, i: usize) -> bool {
        self.kinds[i].reconfigurable()
            && self
                .window
                .is_none_or(|(start, end)| (i as u32) >= start && (i as u32) < end)
    }

    /// The lease with this id, if still live.
    pub fn lease(&self, id: u64) -> Option<&RegionLease> {
        self.leases.get(&id)
    }

    /// Leases a span whose column kinds match `pattern`, or `None` when the
    /// fabric (as currently fragmented) has no matching free span.
    pub fn allocate(&mut self, pattern: &[ColumnKind]) -> Option<RegionLease> {
        let base = self.find_span(pattern, None)?;
        Some(self.occupy(base, pattern))
    }

    /// Leases the exact span starting at `base`, used to seed the allocator
    /// with placements that already exist on the fabric (e.g. tiles loaded
    /// before amorphous mode was enabled). Fails if any column is leased,
    /// unmanaged, or of the wrong kind.
    pub fn reserve_at(&mut self, base: u32, pattern: &[ColumnKind]) -> Option<RegionLease> {
        if !self.span_matches(base, pattern, None) {
            return None;
        }
        Some(self.occupy(base, pattern))
    }

    /// Releases a lease, freeing its columns. Returns `false` for an
    /// unknown id.
    pub fn release(&mut self, id: u64) -> bool {
        match self.leases.remove(&id) {
            None => false,
            Some(lease) => {
                for col in lease.columns() {
                    self.occupancy[col as usize] = None;
                }
                true
            }
        }
    }

    /// Moves a live lease to a new base column. The destination must be
    /// kind-compatible and free (the lease's own columns excepted — pure
    /// slides are legal).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadMove`] for an unknown lease or an illegal
    /// destination.
    pub fn apply_move(&mut self, id: u64, to: u32) -> Result<(), Error> {
        let lease = self.leases.get(&id).ok_or_else(|| Error::BadMove {
            detail: format!("no live lease {id}"),
        })?;
        let pattern = lease.kinds.clone();
        let from = lease.base;
        if !self.span_matches(to, &pattern, Some(id)) {
            return Err(Error::BadMove {
                detail: format!(
                    "lease {id} cannot move from column {from} to {to}: destination \
                     occupied, unmanaged, or kind-incompatible"
                ),
            });
        }
        for col in from..from + pattern.len() as u32 {
            self.occupancy[col as usize] = None;
        }
        for col in to..to + pattern.len() as u32 {
            self.occupancy[col as usize] = Some(id);
        }
        self.leases.get_mut(&id).expect("checked above").base = to;
        Ok(())
    }

    /// Plans a compaction pass: greedily slides each lease (ascending base
    /// order) to the lowest kind-compatible free base at or below its
    /// current one. Returns only the non-trivial moves, in the order they
    /// must be applied. The plan is purely advisory — the caller applies
    /// each step with [`RegionAllocator::apply_move`] after physically
    /// relocating the frames.
    pub fn plan_compaction(&self) -> Vec<RegionMove> {
        let mut shadow = self.clone();
        let mut moves = Vec::new();
        let mut order: Vec<u64> = shadow.leases.keys().copied().collect();
        order.sort_by_key(|id| (shadow.leases[id].base, *id));
        for id in order {
            let lease = shadow.leases[&id].clone();
            if let Some(to) = shadow.find_span(&lease.kinds, Some(id)) {
                if to < lease.base {
                    shadow.apply_move(id, to).expect("span was verified free");
                    moves.push(RegionMove {
                        id,
                        from: lease.base,
                        to,
                    });
                }
            }
        }
        moves
    }

    /// Current fragmentation snapshot.
    pub fn stats(&self) -> FragmentationStats {
        let mut managed = 0u32;
        let mut free = 0u32;
        let mut largest = 0u32;
        let mut run = 0u32;
        for i in 0..self.kinds.len() {
            if !self.managed(i) {
                run = 0;
                continue;
            }
            managed += 1;
            if self.occupancy[i].is_none() {
                free += 1;
                run += 1;
                largest = largest.max(run);
            } else {
                run = 0;
            }
        }
        FragmentationStats {
            managed_columns: managed,
            free_columns: free,
            largest_free_span: largest,
            leases: self.leases.len() as u32,
        }
    }

    fn occupy(&mut self, base: u32, pattern: &[ColumnKind]) -> RegionLease {
        let id = self.next_id;
        self.next_id += 1;
        for col in base..base + pattern.len() as u32 {
            self.occupancy[col as usize] = Some(id);
        }
        let lease = RegionLease {
            id,
            base,
            kinds: pattern.to_vec(),
        };
        self.leases.insert(id, lease.clone());
        lease
    }

    /// Whether `pattern` fits starting at `base`: in bounds, every column
    /// reconfigurable, kind-equal, and free (or owned by `ignore`).
    fn span_matches(&self, base: u32, pattern: &[ColumnKind], ignore: Option<u64>) -> bool {
        let base = base as usize;
        if pattern.is_empty() || base + pattern.len() > self.kinds.len() {
            return false;
        }
        pattern.iter().enumerate().all(|(i, want)| {
            let col = base + i;
            self.managed(col)
                && self.kinds[col] == *want
                && (self.occupancy[col].is_none() || self.occupancy[col] == ignore)
        })
    }

    /// Finds the base of a span for `pattern` under the configured fit
    /// policy, treating `ignore`'s own columns as free.
    fn find_span(&self, pattern: &[ColumnKind], ignore: Option<u64>) -> Option<u32> {
        if pattern.is_empty() {
            return None;
        }
        let candidates =
            (0..self.kinds.len() as u32).filter(|&base| self.span_matches(base, pattern, ignore));
        match self.policy {
            FitPolicy::FirstFit => candidates.min(),
            FitPolicy::BestFit => {
                candidates.min_by_key(|&base| (self.free_run_len(base, ignore), base))
            }
        }
    }

    /// Length of the maximal run of free managed columns containing `base`.
    fn free_run_len(&self, base: u32, ignore: Option<u64>) -> u32 {
        let is_free = |i: usize| {
            self.managed(i) && (self.occupancy[i].is_none() || self.occupancy[i] == ignore)
        };
        let mut start = base as usize;
        while start > 0 && is_free(start - 1) {
            start -= 1;
        }
        let mut end = base as usize;
        while end < self.kinds.len() && is_free(end) {
            end += 1;
        }
        (end - start) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::part::FpgaPart;
    use proptest::prelude::*;

    fn device() -> Device {
        FpgaPart::Vc707.device()
    }

    fn clb(width: usize) -> Vec<ColumnKind> {
        vec![ColumnKind::Clb; width]
    }

    #[test]
    fn allocate_release_roundtrip_frees_every_column() {
        let d = device();
        let mut a = RegionAllocator::new(&d, FitPolicy::FirstFit);
        let before = a.stats();
        let lease = a.allocate(&clb(2)).unwrap();
        assert_eq!(lease.width(), 2);
        assert_eq!(a.stats().free_columns, before.free_columns - 2);
        assert!(a.release(lease.id));
        assert_eq!(a.stats(), before);
        assert!(!a.release(lease.id));
    }

    #[test]
    fn first_fit_takes_the_lowest_clb_span() {
        let d = device();
        let mut a = RegionAllocator::new(&d, FitPolicy::FirstFit);
        let first_clb = (0..d.columns())
            .find(|&i| d.column_kind(i) == ColumnKind::Clb)
            .unwrap() as u32;
        assert_eq!(a.allocate(&clb(1)).unwrap().base, first_clb);
    }

    #[test]
    fn best_fit_prefers_the_tightest_hole() {
        let d = device();
        let mut a = RegionAllocator::new(&d, FitPolicy::BestFit);
        // Carve a width-1 hole: lease a long prefix, then free one column
        // strictly inside it.
        let big = a.allocate(&clb(3)).unwrap();
        let hole = big.base + 1;
        assert!(a.release(big.id));
        let left = a.reserve_at(big.base, &clb(1)).unwrap();
        let right = a.reserve_at(big.base + 2, &clb(1)).unwrap();
        let pick = a.allocate(&clb(1)).unwrap();
        assert_eq!(pick.base, hole, "best fit should take the 1-wide hole");
        drop((left, right));
    }

    #[test]
    fn allocation_respects_column_kinds() {
        let d = device();
        let mut a = RegionAllocator::new(&d, FitPolicy::FirstFit);
        let lease = a.allocate(&[ColumnKind::Bram]).unwrap();
        assert_eq!(d.column_kind(lease.base as usize), ColumnKind::Bram);
        assert!(a.allocate(&[ColumnKind::Cfg]).is_none());
    }

    #[test]
    fn compaction_slides_leases_left_and_heals_fragmentation() {
        let d = device();
        let mut a = RegionAllocator::new(&d, FitPolicy::FirstFit);
        let x = a.allocate(&clb(1)).unwrap();
        let y = a.allocate(&clb(1)).unwrap();
        let z = a.allocate(&clb(1)).unwrap();
        // Free the middle lease: fragmentation appears.
        assert!(a.release(y.id));
        let frag_before = a.stats().external_fragmentation();
        let plan = a.plan_compaction();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].id, z.id);
        assert_eq!(plan[0].to, y.base);
        for m in &plan {
            a.apply_move(m.id, m.to).unwrap();
        }
        assert!(a.stats().external_fragmentation() <= frag_before);
        assert_eq!(a.lease(z.id).unwrap().base, y.base);
        assert_eq!(a.lease(x.id).unwrap().base, x.base);
    }

    #[test]
    fn apply_move_rejects_occupied_or_kind_incompatible_targets() {
        let d = device();
        let mut a = RegionAllocator::new(&d, FitPolicy::FirstFit);
        let x = a.allocate(&clb(1)).unwrap();
        let y = a.allocate(&clb(1)).unwrap();
        assert!(matches!(
            a.apply_move(y.id, x.base),
            Err(Error::BadMove { .. })
        ));
        let bram = (0..d.columns())
            .find(|&i| d.column_kind(i) == ColumnKind::Bram)
            .unwrap() as u32;
        assert!(matches!(
            a.apply_move(y.id, bram),
            Err(Error::BadMove { .. })
        ));
        assert!(matches!(a.apply_move(999, 0), Err(Error::BadMove { .. })));
    }

    #[test]
    fn window_confines_allocation_to_the_pr_share_of_the_fabric() {
        let d = device();
        // Window covering the first two CLB columns and nothing after.
        let clbs: Vec<u32> = (0..d.columns())
            .filter(|&i| d.column_kind(i) == ColumnKind::Clb)
            .map(|i| i as u32)
            .collect();
        let end = clbs[1] + 1;
        let mut a = RegionAllocator::new_within(&d, FitPolicy::FirstFit, clbs[0]..end);
        assert_eq!(a.stats().managed_columns, end - clbs[0]);
        let x = a.allocate(&clb(1)).unwrap();
        assert_eq!(x.base, clbs[0]);
        let y = a.allocate(&clb(1)).unwrap();
        assert!(y.base < end);
        // The window is full; the rest of the fabric is off-limits.
        assert!(a.allocate(&clb(1)).is_none());
        assert!(a.release(x.id));
        assert!(a.allocate(&clb(1)).is_some());
    }

    #[test]
    fn stats_never_count_unmanaged_columns() {
        let d = device();
        let a = RegionAllocator::new(&d, FitPolicy::FirstFit);
        let s = a.stats();
        let reconf = (0..d.columns())
            .filter(|&i| d.column_kind(i).reconfigurable())
            .count() as u32;
        assert_eq!(s.managed_columns, reconf);
        assert_eq!(s.free_columns, reconf);
        assert!(s.largest_free_span <= s.free_columns);
        assert_eq!(s.leases, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random allocate/release churn never double-books a column, keeps
        /// stats consistent, and compaction preserves every lease's width
        /// and kind pattern while never increasing fragmentation.
        #[test]
        fn churn_preserves_invariants(
            ops in proptest::collection::vec((0u8..3, 1usize..4), 1..60),
        ) {
            let d = device();
            let mut a = RegionAllocator::new(&d, FitPolicy::FirstFit);
            let mut live: Vec<u64> = Vec::new();
            for (op, width) in ops {
                match op {
                    0 | 1 => {
                        if let Some(lease) = a.allocate(&clb(width)) {
                            live.push(lease.id);
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let id = live.remove(width % live.len());
                            prop_assert!(a.release(id));
                        }
                    }
                }
                // No column is owned by two leases and occupancy matches
                // the lease table exactly.
                let mut owned = std::collections::BTreeMap::new();
                for lease in a.leases.values() {
                    for col in lease.columns() {
                        prop_assert!(owned.insert(col, lease.id).is_none());
                    }
                }
                let s = a.stats();
                prop_assert_eq!(s.managed_columns - s.free_columns, owned.len() as u32);
                prop_assert!(s.largest_free_span <= s.free_columns);
            }
            let widths: BTreeMap<u64, Vec<ColumnKind>> =
                a.leases.values().map(|l| (l.id, l.kinds.clone())).collect();
            let frag_before = a.stats().external_fragmentation();
            for m in a.plan_compaction() {
                a.apply_move(m.id, m.to).unwrap();
            }
            let after: BTreeMap<u64, Vec<ColumnKind>> =
                a.leases.values().map(|l| (l.id, l.kinds.clone())).collect();
            prop_assert_eq!(widths, after);
            prop_assert!(a.stats().external_fragmentation() <= frag_before + 1e-9);
        }

        /// The allocator is deterministic: the same op sequence produces the
        /// same lease table.
        #[test]
        fn allocation_is_deterministic(
            widths in proptest::collection::vec(1usize..4, 1..12),
        ) {
            let d = device();
            let mut a = RegionAllocator::new(&d, FitPolicy::BestFit);
            let mut b = RegionAllocator::new(&d, FitPolicy::BestFit);
            for w in &widths {
                let la = a.allocate(&clb(*w));
                let lb = b.allocate(&clb(*w));
                prop_assert_eq!(la, lb);
            }
            prop_assert_eq!(a.stats(), b.stats());
        }
    }
}
