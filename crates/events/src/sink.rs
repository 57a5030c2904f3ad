//! Trace sinks: where emitted records go.
//!
//! This module is the *doorway* for sink access: every lock acquisition
//! on a shared sink lives here, behind poison-recovering helpers
//! ([`record_to`], [`snapshot`], [`drain`]). A worker that panics while
//! holding a sink lock poisons the mutex, but trace records are plain
//! data — there is no invariant a half-finished `record` call can break
//! that would make the already-collected records unusable — so readers
//! recover the guard instead of propagating the panic (the same facade
//! pattern the threaded runtime uses for its stats mutex). Code outside
//! this file must not call `.lock()` on a sink directly; `presp-analyze`
//! enforces the doorway.

use crate::trace::TraceRecord;
use std::sync::{Arc, Mutex, PoisonError};

/// The shared handle a [`crate::Tracer`] writes through. `Arc<Mutex<_>>`
/// so one sink can collect records from several traced components (e.g.
/// a SoC and the runtime manager driving it) and cross thread
/// boundaries.
pub type SharedSink = Arc<Mutex<MemorySink>>;

/// Writes one record through a shared sink handle, recovering a
/// poisoned lock. This is the only write path [`crate::Tracer::emit`]
/// uses.
pub fn record_to(sink: &SharedSink, record: TraceRecord) {
    sink.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(record);
}

/// The records a shared sink has retained so far, oldest first,
/// recovering a poisoned lock instead of panicking the drain path.
pub fn snapshot(sink: &Mutex<MemorySink>) -> Vec<TraceRecord> {
    sink.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .records
        .clone()
}

/// Takes every retained record out of a shared sink, leaving it empty,
/// recovering a poisoned lock instead of panicking the drain path.
pub fn drain(sink: &Mutex<MemorySink>) -> Vec<TraceRecord> {
    sink.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// The trace sink: an unbounded in-memory record buffer, written through
/// [`record_to`] and read through [`snapshot`] and [`drain`].
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A shareable empty sink, ready to attach to tracers.
    pub fn shared() -> SharedSink {
        Arc::new(Mutex::new(MemorySink::new()))
    }

    /// Accepts one record.
    pub fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Records collected so far, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Takes all collected records, leaving the sink empty.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Per-worker trace shards with a deterministic seq-number merge.
///
/// `ShardedSink` hands each worker its own shard handle ([`Self::shard`]),
/// a [`MemorySink`] it appends to. Every emit in the threaded runtime
/// already holds its device-core lock, so the shards relieve no lock
/// contention. Each shard sees a strictly increasing (but gapped)
/// subsequence of the tracer's seq numbers, and [`Self::drain_merged`]
/// re-establishes the global emission order by merging on that `seq` —
/// total because the runtime's commit gate serializes tracer access.
/// Same-seed runs therefore produce byte-identical merged logs at any
/// shard count.
#[derive(Clone)]
pub struct ShardedSink {
    shards: Vec<SharedSink>,
}

impl std::fmt::Debug for ShardedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSink")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedSink {
    /// A sink with `shards` independent buffers (at least one).
    pub fn new(shards: usize) -> ShardedSink {
        ShardedSink {
            shards: (0..shards.max(1)).map(|_| MemorySink::shared()).collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false: a sharded sink holds at least one shard.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// A tracer-attachable handle to shard `i` (wrapping around, so any
    /// worker index maps to a valid shard).
    pub fn shard(&self, i: usize) -> SharedSink {
        self.shards[i % self.shards.len()].clone()
    }

    /// Drains every shard and merges the records into tracer emission
    /// order (ascending `seq`), recovering poisoned shard locks. The
    /// result is allocated once, at exactly the drained record count.
    pub fn drain_merged(&self) -> Vec<TraceRecord> {
        let drained: Vec<Vec<TraceRecord>> = self.shards.iter().map(|s| drain(s)).collect();
        let mut all = Vec::with_capacity(drained.iter().map(Vec::len).sum());
        for shard in drained {
            all.extend(shard);
        }
        // Seq numbers are unique per tracer, so the unstable sort is
        // deterministic, and it sorts in place.
        all.sort_unstable_by_key(|r| r.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ClockDomain, Loc, TraceEvent};

    fn irq(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            domain: ClockDomain::SocCycles,
            ts: seq * 10,
            dur: 0,
            event: TraceEvent::Irq {
                source: Loc::new(0, 0),
            },
        }
    }

    #[test]
    fn memory_sink_collects_everything() {
        let mut sink = MemorySink::new();
        for i in 0..5 {
            sink.record(irq(i));
        }
        assert_eq!(sink.records().len(), 5);
        assert_eq!(sink.take().len(), 5);
        assert!(sink.records().is_empty());
    }

    #[test]
    fn poisoned_sink_still_drains() {
        // Regression: a worker panicking mid-record used to poison the
        // sink mutex and panic the drain path. The doorway helpers
        // recover the guard — trace records are plain data.
        let sink = MemorySink::shared();
        for i in 0..4 {
            sink.lock().unwrap().record(irq(i)); // presp-analyze: allow
        }
        let poisoner = sink.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap(); // presp-analyze: allow
            panic!("poison the sink mutex");
        })
        .join();
        assert!(sink.is_poisoned());
        assert_eq!(snapshot(&sink).len(), 4);
        assert_eq!(drain(&sink).len(), 4);
        assert!(snapshot(&sink).is_empty());
    }

    #[test]
    fn record_to_recovers_a_poisoned_sink() {
        let sink = MemorySink::shared();
        let poisoner = sink.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap(); // presp-analyze: allow
            panic!("poison the sink mutex");
        })
        .join();
        let shared: SharedSink = sink.clone();
        record_to(&shared, irq(0));
        assert_eq!(snapshot(&sink).len(), 1);
    }

    #[test]
    fn sharded_sink_merges_by_seq() {
        let sharded = ShardedSink::new(4);
        assert_eq!(sharded.len(), 4);
        // Interleave records across shards the way rotating workers
        // would: shard i holds seqs i, i+4, i+8, ...
        for seq in 0..12 {
            record_to(&sharded.shard(seq as usize), irq(seq));
        }
        let merged = sharded.drain_merged();
        let seqs: Vec<u64> = merged.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..12).collect::<Vec<u64>>());
        assert_eq!(merged.capacity(), merged.len(), "one exactly sized buffer");
        assert!(sharded.drain_merged().is_empty());
    }

    #[test]
    fn sharded_sink_shard_index_wraps() {
        let sharded = ShardedSink::new(2);
        record_to(&sharded.shard(5), irq(0));
        assert_eq!(snapshot(&sharded.shards[1]).len(), 1);
    }
}
