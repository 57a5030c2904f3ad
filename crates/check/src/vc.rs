//! Vector clocks for happens-before tracking.
//!
//! Each logical thread carries a [`VClock`]; synchronization objects
//! (mutexes, condvars, channel messages) carry snapshot clocks that are
//! joined into the clocks of threads they synchronize with. Two accesses
//! are ordered iff the clock of the earlier one is ≤ the clock of the
//! later one; unordered accesses to the same location are a data race.

/// A vector clock, indexed by logical thread id.
///
/// Missing components are zero, so clocks grow lazily as threads spawn.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The zero clock.
    pub(crate) fn new() -> VClock {
        VClock::default()
    }

    /// Component for thread `tid`.
    pub(crate) fn get(&self, tid: usize) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    /// Advances `tid`'s own component (a local step).
    pub(crate) fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    /// Componentwise maximum: afterwards `self` dominates both inputs.
    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Whether `self` happened-before-or-equals `other` (every component
    /// is ≤). Unordered clocks (`!a.le(b) && !b.le(a)`) mean concurrency.
    pub(crate) fn le(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_join_le() {
        let mut a = VClock::new();
        let mut b = VClock::new();
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b) && !b.le(&a), "independent ticks are unordered");
        b.join(&a);
        assert!(a.le(&b));
        assert_eq!(b.get(0), 1);
        assert_eq!(b.get(1), 1);
        assert!(VClock::new().le(&a), "zero clock precedes everything");
    }
}
