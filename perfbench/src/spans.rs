//! In-memory span recording around the benchmark's calls into the program.
//!
//! A span is one call into a layer: its name, start, end, the span that
//! caused it and the request or frame it served. Spans nest on one thread
//! (a call made while another is open becomes its child), so a span's self
//! time — its duration minus the part its children cover — is settled when
//! it closes. Each thread owns its own recorder; [`Spans::merge`] folds them
//! together at the end of a run. A disabled recorder only runs the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the span file; aggregates keep counting past it.
const MAX_KEPT_SPANS: usize = 200_000;
/// Duration samples kept per span name for percentiles.
const MAX_SAMPLES_PER_NAME: usize = 2_000_000;

/// One closed span, in nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub seq: u64,
    pub parent: Option<u64>,
    pub id: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    samples_ns: Vec<u64>,
}

impl Agg {
    /// Nearest-rank percentile of the span durations, in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile(&self.samples_ns, p) / 1e3
    }

    /// Median duration in milliseconds.
    pub fn median_ms(&self) -> f64 {
        percentile(&self.samples_ns, 50.0) / 1e6
    }
}

struct Open {
    name: &'static str,
    seq: u64,
    id: u64,
    start: Instant,
    child_ns: u64,
}

/// A per-thread span recorder.
pub struct Spans {
    enabled: bool,
    thread: u32,
    origin: Instant,
    next_seq: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant) -> Spans {
        Spans {
            enabled,
            thread: 0,
            origin,
            next_seq: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
        }
    }

    /// A recorder for another thread of the same run. Sequence numbers
    /// are namespaced by thread so merged parents stay unambiguous.
    pub fn for_thread(&self, thread: u32) -> Spans {
        Spans {
            thread,
            next_seq: u64::from(thread) << 40,
            ..Spans::new(self.enabled, self.origin)
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for request or frame `id`.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stack.push(Open {
            name,
            seq,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack balanced by `time`");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if agg.samples_ns.len() < MAX_SAMPLES_PER_NAME {
            agg.samples_ns.push(dur);
        }
        if self.kept.len() < MAX_KEPT_SPANS {
            self.kept.push(Span {
                name: open.name,
                seq: open.seq,
                parent: self.stack.last().map(|p| p.seq),
                id: open.id,
                thread: self.thread,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    /// Folds another thread's spans into this recorder.
    pub fn merge(&mut self, other: Spans) {
        for (name, agg) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += agg.count;
            mine.total_ns += agg.total_ns;
            mine.self_ns += agg.self_ns;
            mine.samples_ns.extend(agg.samples_ns);
        }
        let room = MAX_KEPT_SPANS.saturating_sub(self.kept.len());
        self.dropped += other.dropped + other.kept.len().saturating_sub(room) as u64;
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Totals for `name` (empty when no such span closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    pub fn span_count(&self) -> u64 {
        self.aggs.values().map(|a| a.count).sum()
    }

    /// Per-name self/total time table, slowest self time first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<_> = self.aggs.iter().collect();
        rows.sort_by_key(|(_, agg)| std::cmp::Reverse(agg.self_ns));
        let mut out = String::new();
        for (name, agg) in rows {
            let _ = writeln!(
                out,
                "  {name:<34} n={:<8} total={:>11.3} ms  self={:>11.3} ms",
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6
            );
        }
        out
    }

    /// The kept spans as JSON lines, one object per span, after `header`.
    pub fn to_json_lines(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96);
        out.push_str(header);
        out.push('\n');
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"seq\":{},\"parent\":{parent},\"id\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.seq, s.id, s.thread, s.start_ns, s.end_ns
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped);
        }
        out
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples; zero
/// when empty.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of floating-point samples; zero when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true, Instant::now());
        spans.time("outer", 1, |s| {
            s.time("inner", 1, |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
        });
        let outer = spans.agg("outer");
        let inner = spans.agg("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // The inner span closes first and names the outer one (seq 0).
        assert_eq!(spans.kept[0].parent, Some(0));
        assert_eq!(spans.kept[1].parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false, Instant::now());
        assert_eq!(spans.time("x", 0, |_| 7), 7);
        assert_eq!(spans.span_count(), 0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
