//! `presp-events`: the sharded trace sink an application keeps.

use crate::spans::Spans;
pub use presp_events::ShardedSink;

pub fn sharded_sink(shards: usize) -> ShardedSink {
    ShardedSink::new(shards.max(1))
}

/// Drains and merges every shard; returns the number of records.
pub fn drain(spans: &mut Spans, sink: &ShardedSink) -> usize {
    spans.time("events.drain", 0, |_| sink.drain_merged().len())
}

/// Host microseconds of `cycles` SoC cycles (the Fig. 4 conversion).
pub fn cycles_to_micros(cycles: u64) -> f64 {
    presp_events::cycles_to_micros(cycles)
}
