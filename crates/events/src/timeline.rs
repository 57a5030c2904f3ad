//! Reservation-based arbitration of one shared resource.
//!
//! A [`ResourceTimeline`] models a resource that serves one request at a
//! time — a directed NoC link, the DRAM channel, the ICAP, a tile's
//! wrapper. Requests reserve the resource no earlier than a requested
//! cycle; the timeline serializes overlapping requests and accounts how
//! long each one waited, which is exactly the contention the paper's
//! Fig. 4 SoCs trade against tile count.

/// One granted reservation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reservation {
    /// Cycle the resource was actually granted.
    pub start: u64,
    /// Cycle the resource becomes free again.
    pub end: u64,
    /// Cycles the request waited behind earlier reservations (plus any
    /// stall the caller folded in via [`ResourceTimeline::claim`]).
    pub waited: u64,
}

impl Reservation {
    /// Cycles the resource was held.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The reservation state of one shared resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceTimeline {
    free_at: u64,
    reservations: u64,
    busy: u64,
    waited: u64,
}

impl ResourceTimeline {
    /// A fresh, idle timeline.
    pub fn new() -> ResourceTimeline {
        ResourceTimeline::default()
    }

    /// First cycle the resource is free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Reservations granted so far.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Total cycles the resource was held.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Total cycles requests waited behind earlier reservations.
    pub fn contention_cycles(&self) -> u64 {
        self.waited
    }

    /// Reserves the resource for `duration` cycles, no earlier than `at`:
    /// the request starts at `max(at, free_at)` and holds the resource to
    /// completion.
    pub fn reserve(&mut self, at: u64, duration: u64) -> Reservation {
        let start = at.max(self.free_at);
        self.claim(at, start, start + duration)
    }

    /// Records an occupancy the caller computed: the request was issued
    /// at `requested`, the resource granted at `start` (already past
    /// `free_at`, e.g. via [`ResourceTimeline::free_at`] plus a modeled
    /// stall) and held until `end`. `end` becomes the new free point even
    /// if it precedes the old one — callers that overwrite occupancy
    /// (a tile whose wrapper is replaced) rely on assignment semantics.
    pub fn claim(&mut self, requested: u64, start: u64, end: u64) -> Reservation {
        let waited = start.saturating_sub(requested);
        self.reservations += 1;
        self.busy = self.busy.saturating_add(end.saturating_sub(start));
        self.waited = self.waited.saturating_add(waited);
        self.free_at = end;
        Reservation { start, end, waited }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_requests_serialize() {
        let mut tl = ResourceTimeline::new();
        let a = tl.reserve(0, 100);
        assert_eq!((a.start, a.end, a.waited), (0, 100, 0));
        let b = tl.reserve(10, 50);
        assert_eq!((b.start, b.end, b.waited), (100, 150, 90));
        assert_eq!(tl.free_at(), 150);
        assert_eq!(tl.reservations(), 2);
        assert_eq!(tl.busy_cycles(), 150);
        assert_eq!(tl.contention_cycles(), 90);
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let mut tl = ResourceTimeline::new();
        tl.reserve(0, 10);
        let b = tl.reserve(500, 10);
        assert_eq!((b.start, b.waited), (500, 0));
        assert_eq!(tl.busy_cycles(), 20);
        assert_eq!(tl.contention_cycles(), 0);
    }

    #[test]
    fn claim_preserves_caller_stalls() {
        let mut tl = ResourceTimeline::new();
        tl.reserve(0, 100);
        // Issued at 40, granted at free+25 stall, held for 60.
        let start = tl.free_at() + 25;
        let r = tl.claim(40, start, start + 60);
        assert_eq!((r.start, r.end, r.waited), (125, 185, 85));
        assert_eq!(tl.free_at(), 185);
    }

    #[test]
    fn claim_uses_assignment_semantics_for_free_at() {
        let mut tl = ResourceTimeline::new();
        tl.reserve(0, 100);
        tl.claim(0, 10, 50);
        assert_eq!(tl.free_at(), 50);
    }
}
