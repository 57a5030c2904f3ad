//! Trace sinks: where emitted records go.
//!
//! This module is the *doorway* for sink access: every lock acquisition
//! on a shared sink lives here, behind poison-recovering helpers
//! (`record_to`, [`snapshot`], [`drain`]). A worker that panics while
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
pub(crate) fn record_to(sink: &SharedSink, record: TraceRecord) {
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
/// `record_to` and read through [`snapshot`] and [`drain`].
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
    /// Records must arrive in ascending `seq` (one tracer writes, under
    /// one lock); checked in debug builds. Set by [`ShardedSink`].
    ordered: bool,
}

impl MemorySink {
    /// An empty sink.
    pub(crate) fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A shareable empty sink, ready to attach to tracers.
    pub fn shared() -> SharedSink {
        Arc::new(Mutex::new(MemorySink::new()))
    }

    /// Accepts one record.
    pub(crate) fn record(&mut self, record: TraceRecord) {
        debug_assert!(
            !self.ordered || self.records.last().is_none_or(|last| last.seq < record.seq),
            "trace record {} pushed out of seq order",
            record.seq
        );
        self.records.push(record);
    }

    /// Takes all collected records, leaving the sink empty.
    pub(crate) fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// The trace buffer of the threaded runtime: one [`MemorySink`] that
/// keeps records in `seq` order and is drained whole.
///
/// Every emit in the threaded runtime holds its device-core lock inside
/// the gate-serialized commit, so records arrive in the tracer's `seq`
/// order; the buffer checks that on every push (`debug_assert!`).
/// [`Self::drain_merged`] therefore hands the buffer out as it is, with
/// no merge and no sort, and the log is byte-identical at any worker
/// count. The next buffer starts with the drained one's capacity, so a
/// run that drains at a steady rate stops reallocating after its first
/// drain.
#[derive(Clone, Debug)]
pub struct ShardedSink {
    buffer: SharedSink,
}

/// The least capacity the buffer is given, in records: 32 MiB, the
/// largest size below which glibc's allocator may carve a block from
/// its heap instead of mapping it on its own. A mapped buffer returns
/// its pages to the system as soon as the drained copy is dropped; a
/// heap block keeps its written pages resident beside the next buffer,
/// which doubled the trace's memory. Reserved pages take no memory
/// until records are written to them.
const MIN_CAPACITY: usize = (32 << 20) / std::mem::size_of::<TraceRecord>();

impl ShardedSink {
    /// An empty buffer. `_shards` is kept for callers written against
    /// per-worker shards; it no longer creates buffers.
    pub fn new(_shards: usize) -> ShardedSink {
        ShardedSink {
            buffer: Arc::new(Mutex::new(MemorySink {
                records: Vec::with_capacity(MIN_CAPACITY),
                ordered: true,
            })),
        }
    }

    /// A tracer-attachable handle to the buffer.
    pub fn handle(&self) -> SharedSink {
        Arc::clone(&self.buffer)
    }

    /// Takes every record, in `seq` order, recovering a poisoned lock.
    /// The buffer is moved out, not copied; its replacement reserves the
    /// same capacity, and never less than 32 MiB.
    pub fn drain_merged(&self) -> Vec<TraceRecord> {
        let mut sink = self.buffer.lock().unwrap_or_else(PoisonError::into_inner);
        let capacity = sink.records.capacity().max(MIN_CAPACITY);
        std::mem::replace(&mut sink.records, Vec::with_capacity(capacity))
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
        assert_eq!(sink.records.len(), 5);
        assert_eq!(sink.take().len(), 5);
        assert!(sink.records.is_empty());
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
    fn sharded_sink_drains_in_seq_order_and_reuses_its_capacity() {
        let sharded = ShardedSink::new(4);
        let sink = sharded.handle();
        // One record more than the least capacity, so the buffer grows.
        let round = MIN_CAPACITY as u64 + 1;
        for seq in 0..round {
            record_to(&sink, irq(seq));
        }
        let first = sharded.drain_merged();
        assert_eq!(first.len() as u64, round);
        assert!(first.iter().zip(0..).all(|(r, seq)| r.seq == seq));
        // The next buffer starts at the grown capacity, so the same
        // number of records again does not reallocate it.
        let reserved = buffer_capacity(&sharded);
        assert_eq!(reserved, first.capacity());
        for seq in round..2 * round {
            record_to(&sink, irq(seq));
        }
        assert_eq!(buffer_capacity(&sharded), reserved, "refill reallocated");
        let second = sharded.drain_merged();
        assert_eq!(second.first().map(|r| r.seq), Some(round));
        assert!(second.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(sharded.drain_merged().is_empty());
    }

    fn buffer_capacity(sharded: &ShardedSink) -> usize {
        sharded.buffer.lock().unwrap().records.capacity() // presp-analyze: allow
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of seq order")]
    fn sharded_sink_refuses_an_out_of_order_push() {
        let sink = ShardedSink::new(1).handle();
        record_to(&sink, irq(3));
        record_to(&sink, irq(2));
    }
}
