//! Structured trace records and the zero-overhead-when-disabled tracer.
//!
//! Every timed operation in the stack — DMA bursts, NoC transfers,
//! decoupler handshakes, ICAP writes, runtime retries and quarantine
//! transitions, WAMI frame stages, CAD flow stages — can emit a typed
//! [`TraceRecord`] through a [`Tracer`]. Event payloads are built inside
//! closures that never run unless a sink is attached, so a disabled
//! tracer costs one branch per operation.
//!
//! Records serialize two ways: [`chrome_trace_json`] produces a Chrome
//! trace-event JSON document (open in `chrome://tracing` or Perfetto),
//! and [`log_lines`] produces deterministic one-line-per-record text used
//! by the byte-identical-replay tests.

use crate::clock::cycles_to_micros;
use crate::json::JsonValue;
use crate::sink::SharedSink;
use std::fmt;

/// The clock a trace timestamp is expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// SoC fabric cycles at 78 MHz (simulator + runtime).
    SocCycles,
    /// CAD-flow minutes stored as integer milliminutes.
    CadMilliMinutes,
    /// Unitless ordering (software pipeline stages with no cycle model).
    Ordinal,
}

impl ClockDomain {
    /// Stable label used in log lines.
    pub fn label(self) -> &'static str {
        match self {
            ClockDomain::SocCycles => "soc-cycles",
            ClockDomain::CadMilliMinutes => "cad-milliminutes",
            ClockDomain::Ordinal => "ordinal",
        }
    }

    /// Maps a timestamp to Chrome trace microseconds: SoC cycles convert
    /// at the real 78 MHz clock; one CAD milliminute renders as 1 ms (so
    /// an hours-long flow stays navigable); ordinal ticks render 1:1.
    pub fn to_trace_micros(self, t: u64) -> f64 {
        match self {
            ClockDomain::SocCycles => cycles_to_micros(t),
            ClockDomain::CadMilliMinutes => t as f64 * 1000.0,
            ClockDomain::Ordinal => t as f64,
        }
    }

    fn pid(self) -> u64 {
        match self {
            ClockDomain::SocCycles => 1,
            ClockDomain::CadMilliMinutes => 2,
            ClockDomain::Ordinal => 3,
        }
    }

    fn process_name(self) -> &'static str {
        match self {
            ClockDomain::SocCycles => "soc (78 MHz cycles)",
            ClockDomain::CadMilliMinutes => "cad flow (minutes)",
            ClockDomain::Ordinal => "software pipeline",
        }
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Converts analytic CAD minutes to the integer milliminutes
/// [`ClockDomain::CadMilliMinutes`] timestamps use.
pub fn milliminutes(minutes: f64) -> u64 {
    (minutes * 1000.0).round().max(0.0) as u64
}

/// A tile location. `presp-events` sits below the SoC crate, so this is
/// the structural twin of its `TileCoord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Mesh row.
    pub row: u64,
    /// Mesh column.
    pub col: u64,
}

impl Loc {
    /// A location from row/column indices.
    pub fn new(row: u64, col: u64) -> Loc {
        Loc { row, col }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{}", self.row, self.col)
    }
}

/// A payload field's value in [`TraceEvent::args`]: numbers as `f64`,
/// strings as-is, tile locations through their `Display`.
trait ArgValue {
    fn arg_value(&self) -> JsonValue;
}

impl ArgValue for u64 {
    fn arg_value(&self) -> JsonValue {
        JsonValue::Number(*self as f64)
    }
}

impl ArgValue for i64 {
    fn arg_value(&self) -> JsonValue {
        JsonValue::Number(*self as f64)
    }
}

impl ArgValue for bool {
    fn arg_value(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

/// Covers `String` and `&'static str` fields alike, through auto-deref.
impl ArgValue for str {
    fn arg_value(&self) -> JsonValue {
        JsonValue::String(self.to_string())
    }
}

impl ArgValue for Loc {
    fn arg_value(&self) -> JsonValue {
        JsonValue::String(self.to_string())
    }
}

/// Declares [`TraceEvent`] once. Each variant carries its stable name
/// and its layer next to its fields (`Variant = "name" in layer { .. }`);
/// the enum, [`TraceEvent::NAMES`], `name()`, `category()` and `args()`
/// all come from that one declaration, with `args()` keyed by the field
/// names in declaration order.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal in $cat:ident {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $($(#[$fmeta])* $field: $ty,)*
                },
            )*
        }

        impl TraceEvent {
            /// Every stable event name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// Stable event name (used as the Chrome trace `name`).
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Layer the event belongs to (Chrome trace `cat` / thread).
            pub fn category(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => stringify!($cat),)*
                }
            }

            /// The event payload as ordered key/value pairs.
            pub fn args(&self) -> Vec<(&'static str, JsonValue)> {
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        vec![$((stringify!($field), $field.arg_value())),*]
                    })*
                }
            }
        }
    };
}

trace_events! {
    /// One typed trace event. Variants cover the full stack: SoC fabric
    /// operations, runtime recovery decisions, WAMI frame stages and CAD
    /// flow stages.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// One DRAM channel access.
        DramAccess = "dram.access" in soc {
            /// Bytes moved.
            bytes: u64,
            /// Cycles spent waiting for the channel.
            waited: u64,
        },
        /// One NoC packet, source to sink.
        NocTransfer = "noc.transfer" in noc {
            /// Physical plane name.
            plane: &'static str,
            /// Source tile.
            src: Loc,
            /// Destination tile.
            dst: Loc,
            /// Payload bytes.
            bytes: u64,
            /// Flits moved (including header).
            flits: u64,
            /// Hops traversed.
            hops: u64,
            /// Cycles lost to link contention along the path.
            waited: u64,
        },
        /// One accelerator DMA burst (DRAM access + NoC transfer).
        DmaBurst = "dma.burst" in soc {
            /// Accelerator tile.
            tile: Loc,
            /// Bytes moved.
            bytes: u64,
            /// `"in"` (memory → tile) or `"out"` (tile → memory).
            direction: &'static str,
        },
        /// A decoupler handshake on a reconfigurable tile.
        DecouplerHandshake = "decoupler.handshake" in soc {
            /// The tile.
            tile: Loc,
            /// `true` = decouple, `false` = re-couple.
            decouple: bool,
            /// Fault-injected acknowledge delay, cycles.
            delay: u64,
        },
        /// One bitstream streamed through the ICAP.
        IcapWrite = "icap.write" in soc {
            /// Target tile.
            tile: Loc,
            /// Configuration words streamed.
            words: u64,
            /// Whether the CRC check passed.
            ok: bool,
            /// Cycles spent waiting for the shared ICAP (plus DFXC stalls).
            waited: u64,
        },
        /// A full partial reconfiguration (fetch + ICAP + completion IRQ).
        Reconfiguration = "reconfiguration" in soc {
            /// Target tile.
            tile: Loc,
            /// Accelerator kind loaded.
            kind: &'static str,
            /// Bitstream size, bytes.
            bytes: u64,
            /// Whether the load succeeded.
            ok: bool,
        },
        /// An accelerator compute interval.
        Compute = "accel.compute" in soc {
            /// The tile.
            tile: Loc,
            /// Accelerator kind.
            kind: &'static str,
            /// Compute cycles.
            cycles: u64,
        },
        /// A software kernel run on the CPU tile.
        CpuCompute = "cpu.compute" in soc {
            /// Kernel kind.
            kind: &'static str,
            /// Compute cycles.
            cycles: u64,
        },
        /// An interrupt delivered to the CPU.
        Irq = "irq.deliver" in soc {
            /// Source tile.
            source: Loc,
        },
        /// A single-event upset striking configuration memory.
        SeuInjected = "seu.injected" in soc {
            /// Packed frame address (FAR encoding) of the struck frame.
            frame: u64,
            /// Word index within the frame.
            word: u64,
            /// First flipped bit.
            bit: u64,
            /// Whether a second bit of the same word flipped (uncorrectable).
            double_bit: bool,
        },
        /// One readback-scrub pass over a frame region.
        ScrubPass = "scrub.pass" in soc {
            /// Frames read back.
            frames: u64,
            /// Frames repaired by SECDED.
            corrected: u64,
            /// Frames found uncorrectable.
            uncorrectable: u64,
            /// Cycles the readback waited for the shared ICAP.
            waited: u64,
        },
        /// One frame repaired in place by ECC during scrubbing.
        FrameRepaired = "frame.repaired" in soc {
            /// Packed frame address (FAR encoding).
            frame: u64,
            /// Words corrected within the frame.
            words: u64,
        },
        /// A failed reconfiguration rolled back to the pre-transaction state.
        RollbackCompleted = "rollback.completed" in soc {
            /// The tile whose region was rolled back.
            tile: Loc,
            /// Frames restored to their pre-transaction content.
            frames: u64,
        },
        /// A tile's region physically relocated to a new column base.
        RegionMoved = "region.moved" in soc {
            /// The tile whose region moved.
            tile: Loc,
            /// Frames rewritten at the new base.
            frames: u64,
            /// Signed column delta of the move.
            delta: i64,
        },
        /// A tile's region erased and retired (its lease was switched or
        /// vacated); the fabric columns return to the free pool.
        RegionReleased = "region.released" in soc {
            /// The tile whose region was retired.
            tile: Loc,
            /// Frames erased.
            frames: u64,
        },
        /// One runtime reconfiguration attempt (manager retry loop).
        ReconfigAttempt = "reconfig.attempt" in runtime {
            /// Target tile.
            tile: Loc,
            /// Accelerator kind.
            kind: &'static str,
            /// 1-based attempt number.
            attempt: u64,
            /// Whether the attempt succeeded.
            ok: bool,
        },
        /// A backoff wait between reconfiguration attempts.
        RetryBackoff = "retry.backoff" in runtime {
            /// Target tile.
            tile: Loc,
            /// The attempt that just failed (1-based).
            attempt: u64,
            /// Backoff length, cycles.
            cycles: u64,
        },
        /// A tile entering or leaving quarantine.
        Quarantine = "quarantine" in runtime {
            /// The tile.
            tile: Loc,
            /// `true` on entry, `false` on release.
            entered: bool,
        },
        /// A reconfiguration skipped because the kind was already loaded.
        BitstreamCacheHit = "bitstream.cache_hit" in runtime {
            /// The tile.
            tile: Loc,
            /// Accelerator kind.
            kind: &'static str,
        },
        /// An operation degraded to the CPU software path.
        CpuFallback = "cpu.fallback" in runtime {
            /// Kernel kind.
            kind: &'static str,
        },
        /// A scheduler worker committed a queued request to the device core.
        SchedDispatch = "sched.dispatch" in runtime {
            /// The tile whose queue the request travelled through.
            tile: Loc,
            /// Global admission ticket (commit order across all tiles).
            ticket: u64,
            /// Backlog depth of the tile's queue when the request was
            /// admitted (the request itself included).
            depth: u64,
        },
        /// A queued reconfiguration folded into an identical pending one.
        RequestCoalesced = "sched.coalesced" in runtime {
            /// The tile.
            tile: Loc,
            /// Accelerator kind.
            kind: &'static str,
            /// Callers answered by the single underlying reconfiguration.
            waiters: u64,
        },
        /// A verified partial bitstream was served from the LRU cache,
        /// skipping the registry's integrity re-check.
        PbsCacheHit = "pbs_cache.hit" in runtime {
            /// The tile.
            tile: Loc,
            /// Accelerator kind.
            kind: &'static str,
        },
        /// A scheduler worker died (panicked) while holding a commit-order
        /// ticket; the supervisor detected the death and will heal the gate.
        WorkerDied = "sched.worker_died" in runtime {
            /// Death ordinal (gate-ordered): the how-many-th worker death
            /// recorded, not an OS worker slot — slots are wall-clock
            /// dependent, ordinals keep the trace deterministic per seed.
            worker: u64,
            /// The ticket the worker held when it died.
            ticket: u64,
        },
        /// A claimed-but-uncommitted job was returned to its tile queue by
        /// the supervisor after its claimant died or wedged; a surviving
        /// worker re-claims it under the same ticket, so commit order is
        /// preserved.
        TicketRedispatched = "sched.redispatch" in runtime {
            /// The tile whose queue the job returned to.
            tile: Loc,
            /// The preserved admission ticket.
            ticket: u64,
            /// How many times this job has been redispatched (1-based).
            attempt: u64,
        },
        /// A request reached its commit slot after its virtual-time deadline;
        /// it was cancelled (reconfigure) or degraded to the CPU (execute).
        DeadlineMissed = "sched.deadline_miss" in runtime {
            /// The tile the request targeted.
            tile: Loc,
            /// The request's admission ticket.
            ticket: u64,
            /// Virtual cycles past the deadline at commit.
            late: u64,
        },
        /// A request shed at the queue door by the admission controller.
        RequestShed = "sched.shed" in runtime {
            /// The tile whose queue was at capacity.
            tile: Loc,
            /// The shed request's admission ticket.
            ticket: u64,
        },
        /// One defragmenter repack pass over the fabric.
        DefragPass = "defrag.pass" in runtime {
            /// Region moves applied this pass.
            moves: u64,
            /// Frames physically relocated.
            frames: u64,
        },
        /// One WAMI pipeline stage of one frame.
        FrameStage = "frame.stage" in wami {
            /// Frame index.
            frame: u64,
            /// Stage (kernel) name.
            stage: String,
        },
        /// One complete WAMI frame.
        FrameDone = "frame" in wami {
            /// Frame index.
            frame: u64,
            /// Reconfigurations triggered while processing it.
            reconfigurations: u64,
        },
        /// One CAD flow stage (synthesis, placement, routing, ...).
        FlowStage = "flow.stage" in cad {
            /// Design / SoC name.
            design: String,
            /// Stage name.
            stage: String,
            /// Reconfigurable region, or empty for design-wide stages.
            region: String,
        },
        /// A (partial) bitstream emitted by the implementation flow.
        BitstreamGenerated = "bitstream.generated" in cad {
            /// Design / SoC name.
            design: String,
            /// Region the bitstream targets.
            region: String,
            /// Accelerator kind implemented.
            kind: &'static str,
            /// Bitstream size, bytes.
            bytes: u64,
        },
    }
}

/// One emitted record: a typed event plus where it sits in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Emission order, dense from 0 per tracer.
    pub seq: u64,
    /// Clock domain `ts`/`dur` are expressed in.
    pub domain: ClockDomain,
    /// Start timestamp in the domain's unit.
    pub ts: u64,
    /// Duration in the domain's unit (0 = instant event).
    pub dur: u64,
    /// The typed payload.
    pub event: TraceEvent,
}

/// The per-component trace handle.
///
/// A disabled tracer (the default) skips payload construction entirely:
/// [`Tracer::emit`] takes the event as a closure and returns before
/// calling it when no sink is attached.
#[derive(Default)]
pub struct Tracer {
    sink: Option<SharedSink>,
    seq: u64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .field("seq", &self.seq)
            .finish()
    }
}

impl Tracer {
    /// A tracer with no sink: every emit is a cheap no-op.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer writing to `sink`.
    pub fn to_sink(sink: SharedSink) -> Tracer {
        Tracer {
            sink: Some(sink),
            seq: 0,
        }
    }

    /// Attaches `sink`; subsequent emits are recorded.
    pub fn attach(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records a span of `dur` starting at `ts`. `build` only runs when a
    /// sink is attached.
    #[inline]
    pub fn emit(
        &mut self,
        domain: ClockDomain,
        ts: u64,
        dur: u64,
        build: impl FnOnce() -> TraceEvent,
    ) {
        let Some(sink) = &self.sink else { return };
        let record = TraceRecord {
            seq: self.seq,
            domain,
            ts,
            dur,
            event: build(),
        };
        self.seq += 1;
        crate::sink::record_to(sink, record);
    }

    /// Records an instant event at `ts`.
    #[inline]
    pub fn instant(&mut self, domain: ClockDomain, ts: u64, build: impl FnOnce() -> TraceEvent) {
        self.emit(domain, ts, 0, build);
    }
}

fn categories(records: &[TraceRecord]) -> Vec<&'static str> {
    let mut cats: Vec<&'static str> = Vec::new();
    for r in records {
        let c = r.event.category();
        if !cats.contains(&c) {
            cats.push(c);
        }
    }
    cats.sort_unstable();
    cats
}

/// Serializes records as a Chrome trace-event JSON document, loadable in
/// `chrome://tracing` or Perfetto. Processes map to clock domains,
/// threads to event categories; durations become complete (`"X"`) events
/// and instants become instant (`"i"`) events.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let cats = categories(records);
    let tid_of = |c: &str| cats.iter().position(|x| *x == c).unwrap_or(0) as f64 + 1.0;
    let mut events = Vec::new();
    let mut domains: Vec<ClockDomain> = Vec::new();
    for r in records {
        if !domains.contains(&r.domain) {
            domains.push(r.domain);
        }
    }
    for d in &domains {
        events.push(JsonValue::Object(vec![
            ("name".into(), JsonValue::String("process_name".into())),
            ("ph".into(), JsonValue::String("M".into())),
            ("pid".into(), JsonValue::Number(d.pid() as f64)),
            (
                "args".into(),
                JsonValue::Object(vec![(
                    "name".into(),
                    JsonValue::String(d.process_name().into()),
                )]),
            ),
        ]));
        for c in &cats {
            events.push(JsonValue::Object(vec![
                ("name".into(), JsonValue::String("thread_name".into())),
                ("ph".into(), JsonValue::String("M".into())),
                ("pid".into(), JsonValue::Number(d.pid() as f64)),
                ("tid".into(), JsonValue::Number(tid_of(c))),
                (
                    "args".into(),
                    JsonValue::Object(vec![("name".into(), JsonValue::String((*c).into()))]),
                ),
            ]));
        }
    }
    for r in records {
        let mut fields = vec![
            ("name".into(), JsonValue::String(r.event.name().into())),
            ("cat".into(), JsonValue::String(r.event.category().into())),
        ];
        if r.dur > 0 {
            fields.push(("ph".into(), JsonValue::String("X".into())));
        } else {
            fields.push(("ph".into(), JsonValue::String("i".into())));
            fields.push(("s".into(), JsonValue::String("t".into())));
        }
        fields.push((
            "ts".into(),
            JsonValue::Number(r.domain.to_trace_micros(r.ts)),
        ));
        if r.dur > 0 {
            fields.push((
                "dur".into(),
                JsonValue::Number(r.domain.to_trace_micros(r.dur)),
            ));
        }
        fields.push(("pid".into(), JsonValue::Number(r.domain.pid() as f64)));
        fields.push(("tid".into(), JsonValue::Number(tid_of(r.event.category()))));
        let args = r
            .event
            .args()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        fields.push(("args".into(), JsonValue::Object(args)));
        events.push(JsonValue::Object(fields));
    }
    JsonValue::Object(vec![
        ("traceEvents".into(), JsonValue::Array(events)),
        ("displayTimeUnit".into(), JsonValue::String("ms".into())),
    ])
    .pretty()
}

/// Serializes records as deterministic one-line-per-record text:
/// `seq domain ts=.. dur=.. name key=value ...`. Two identical runs
/// produce byte-identical output, which the determinism tests rely on.
pub fn log_lines(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{:06} {} ts={} dur={} {}",
            r.seq,
            r.domain.label(),
            r.ts,
            r.dur,
            r.event.name()
        ));
        for (k, v) in r.event.args() {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&v.pretty());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut tracer = Tracer::disabled();
        let mut built = false;
        tracer.emit(ClockDomain::SocCycles, 0, 10, || {
            built = true;
            TraceEvent::Irq {
                source: Loc::new(0, 0),
            }
        });
        assert!(!built);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn attached_tracer_records_in_sequence() {
        let sink = MemorySink::shared();
        let mut tracer = Tracer::to_sink(sink.clone());
        tracer.emit(ClockDomain::SocCycles, 5, 10, || TraceEvent::DramAccess {
            bytes: 64,
            waited: 0,
        });
        tracer.instant(ClockDomain::SocCycles, 15, || TraceEvent::Irq {
            source: Loc::new(1, 2),
        });
        let records = crate::sink::snapshot(&sink);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(records[1].dur, 0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata() {
        let records = vec![
            TraceRecord {
                seq: 0,
                domain: ClockDomain::SocCycles,
                ts: 78,
                dur: 78,
                event: TraceEvent::DramAccess {
                    bytes: 128,
                    waited: 4,
                },
            },
            TraceRecord {
                seq: 1,
                domain: ClockDomain::CadMilliMinutes,
                ts: 1500,
                dur: 0,
                event: TraceEvent::FlowStage {
                    design: "soc_1".into(),
                    stage: "synthesis".into(),
                    region: String::new(),
                },
            },
        ];
        let doc = chrome_trace_json(&records);
        let v = json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 domains × (1 process + 2 threads) metadata + 2 payload events.
        assert_eq!(events.len(), 8);
        let payload = &events[events.len() - 2];
        assert_eq!(
            payload.get("name").unwrap().as_str(),
            Some(records[0].event.name())
        );
        assert_eq!(payload.get("ph").unwrap().as_str(), Some("X"));
    }

    #[test]
    fn log_lines_are_deterministic() {
        let records = vec![TraceRecord {
            seq: 0,
            domain: ClockDomain::SocCycles,
            ts: 10,
            dur: 5,
            event: TraceEvent::Quarantine {
                tile: Loc::new(2, 1),
                entered: true,
            },
        }];
        let a = log_lines(&records);
        let b = log_lines(&records);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "000000 soc-cycles ts=10 dur=5 quarantine tile=\"2,1\" entered=true\n"
        );
    }

    #[test]
    fn every_event_has_consistent_metadata() {
        let loc = Loc::new(0, 0);
        let events = vec![
            TraceEvent::DramAccess {
                bytes: 1,
                waited: 0,
            },
            TraceEvent::NocTransfer {
                plane: "dma",
                src: loc,
                dst: loc,
                bytes: 1,
                flits: 1,
                hops: 0,
                waited: 0,
            },
            TraceEvent::DmaBurst {
                tile: loc,
                bytes: 1,
                direction: "in",
            },
            TraceEvent::DecouplerHandshake {
                tile: loc,
                decouple: true,
                delay: 0,
            },
            TraceEvent::IcapWrite {
                tile: loc,
                words: 1,
                ok: true,
                waited: 0,
            },
            TraceEvent::Reconfiguration {
                tile: loc,
                kind: "mac",
                bytes: 1,
                ok: true,
            },
            TraceEvent::Compute {
                tile: loc,
                kind: "mac",
                cycles: 1,
            },
            TraceEvent::CpuCompute {
                kind: "mac",
                cycles: 1,
            },
            TraceEvent::Irq { source: loc },
            TraceEvent::SeuInjected {
                frame: 1,
                word: 0,
                bit: 3,
                double_bit: false,
            },
            TraceEvent::ScrubPass {
                frames: 1,
                corrected: 1,
                uncorrectable: 0,
                waited: 0,
            },
            TraceEvent::FrameRepaired { frame: 1, words: 1 },
            TraceEvent::RollbackCompleted {
                tile: loc,
                frames: 1,
            },
            TraceEvent::RegionMoved {
                tile: loc,
                frames: 2,
                delta: -3,
            },
            TraceEvent::RegionReleased {
                tile: loc,
                frames: 2,
            },
            TraceEvent::ReconfigAttempt {
                tile: loc,
                kind: "mac",
                attempt: 1,
                ok: true,
            },
            TraceEvent::RetryBackoff {
                tile: loc,
                attempt: 1,
                cycles: 1,
            },
            TraceEvent::Quarantine {
                tile: loc,
                entered: true,
            },
            TraceEvent::BitstreamCacheHit {
                tile: loc,
                kind: "mac",
            },
            TraceEvent::CpuFallback { kind: "mac" },
            TraceEvent::SchedDispatch {
                tile: loc,
                ticket: 7,
                depth: 2,
            },
            TraceEvent::RequestCoalesced {
                tile: loc,
                kind: "mac",
                waiters: 3,
            },
            TraceEvent::PbsCacheHit {
                tile: loc,
                kind: "mac",
            },
            TraceEvent::WorkerDied {
                worker: 1,
                ticket: 7,
            },
            TraceEvent::TicketRedispatched {
                tile: loc,
                ticket: 7,
                attempt: 1,
            },
            TraceEvent::DeadlineMissed {
                tile: loc,
                ticket: 7,
                late: 12,
            },
            TraceEvent::RequestShed {
                tile: loc,
                ticket: 7,
            },
            TraceEvent::DefragPass {
                moves: 1,
                frames: 2,
            },
            TraceEvent::FrameStage {
                frame: 0,
                stage: "debayer".into(),
            },
            TraceEvent::FrameDone {
                frame: 0,
                reconfigurations: 0,
            },
            TraceEvent::FlowStage {
                design: "d".into(),
                stage: "synth".into(),
                region: String::new(),
            },
            TraceEvent::BitstreamGenerated {
                design: "d".into(),
                region: "r".into(),
                kind: "mac",
                bytes: 1,
            },
        ];
        let names: Vec<&str> = events.iter().map(TraceEvent::name).collect();
        assert_eq!(names, TraceEvent::NAMES, "one name per variant, in order");
        for e in events {
            assert!(!e.name().is_empty());
            assert!(!e.category().is_empty());
            assert!(!e.args().is_empty());
        }
    }

    #[test]
    fn event_names_are_unique() {
        let mut names = TraceEvent::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceEvent::NAMES.len());
    }
}
