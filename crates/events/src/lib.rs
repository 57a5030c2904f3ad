//! The PR-ESP virtual-time kernel.
//!
//! Every layer of the reproduction models time: the SoC simulator counts
//! 78 MHz fabric cycles, the runtime manager counts backoff cycles on the
//! same clock, and the CAD flow reports analytic minutes. This crate is
//! the one place that arithmetic lives:
//!
//! - [`VirtualClock`] — a monotonic `now`/`horizon` pair that every
//!   completion time is folded into.
//! - [`ResourceTimeline`] — reservation-based arbitration of one shared
//!   resource (a NoC link, the DRAM channel, the ICAP, a tile), with
//!   busy/contention accounting.
//! - [`Tracer`] / [`MemorySink`] — a structured trace layer that is free
//!   when disabled: event payloads are built inside closures that never
//!   run without an attached sink.
//! - [`json`] — the hand-rolled JSON reader/writer shared by the SoC
//!   configuration flow and the trace exporters.
//!
//! Traces serialize to Chrome trace-event JSON
//! ([`trace::chrome_trace_json`], loadable in `chrome://tracing` or
//! Perfetto) or to deterministic log lines ([`trace::log_lines`]) for
//! byte-for-byte reproducibility tests.

#![warn(unreachable_pub)]

pub mod backoff;
mod clock;
pub mod json;
pub mod sink;
mod timeline;
pub mod trace;

pub use clock::{cycles_to_micros, cycles_to_seconds, VirtualClock, SOC_CLOCK_MHZ};
pub use sink::{MemorySink, ShardedSink, SharedSink};
pub use timeline::{Reservation, ResourceTimeline};
pub use trace::{milliminutes, ClockDomain, Loc, TraceEvent, TraceRecord, Tracer};
