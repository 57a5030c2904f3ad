//! `serve_churn`: the threaded runtime on a 64-tile `grid_reconf` SoC,
//! booted with its default constructor, under a closed-loop phase
//! (throughput and latency under load) then an open-loop phase (latency at
//! a fixed light rate, a per-layer figure).

use crate::layers::runtime::{self, Answer, ExecPath, Manager, Request, Ticket};
use crate::layers::{accel, events, fpga, soc};
use crate::params::{self, Serve};
use crate::report::Report;
use crate::spans::{self, Spans};
use accel::{AccelOp, AccelValue, AcceleratorKind};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own input generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn value(&mut self) -> f32 {
        (self.below(2001) as f32 - 1000.0) / 8.0
    }
}

/// The answer a request must get.
#[derive(Debug, Clone)]
enum Expect {
    Done,
    Scalar(f32),
    Sorted(Vec<f32>),
}

/// One client's pre-generated requests, cycled in order.
struct Pool {
    requests: Vec<Request>,
    expect: Vec<Expect>,
}

impl Pool {
    fn push(&mut self, request: Request, expect: Expect) {
        self.requests.push(request);
        self.expect.push(expect);
    }
}

fn payload(rng: &mut Rng, kind: AcceleratorKind) -> (AccelOp, Expect) {
    if kind == AcceleratorKind::Mac {
        let n = 8 + rng.below(9) as usize;
        let a: Vec<f32> = (0..n).map(|_| rng.value()).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.value()).collect();
        let dot = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        (AccelOp::Mac { a, b }, Expect::Scalar(dot))
    } else {
        let n = 16 + rng.below(49) as usize;
        let data: Vec<f32> = (0..n).map(|_| rng.value()).collect();
        let mut sorted = data.clone();
        sorted.sort_by(f32::total_cmp);
        (AccelOp::Sort { data }, Expect::Sorted(sorted))
    }
}

/// A reconfigure, an identical reconfigure (coalescible)
/// and an ensure-loaded execute per step, stepping through `tiles` with
/// the kind flipping every lap, so every (tile, kind) pair is visited.
fn churn_pool(rng: &mut Rng, tiles: &[soc::TileCoord], flip: usize) -> Pool {
    let mut pool = Pool {
        requests: Vec::new(),
        expect: Vec::new(),
    };
    for lap in 0..2 {
        let kind = [AcceleratorKind::Mac, AcceleratorKind::Sort][(lap + flip) % 2];
        for &tile in tiles {
            let (op, expect) = payload(rng, kind);
            pool.push(Request::Reconfigure { tile, kind }, Expect::Done);
            pool.push(Request::Reconfigure { tile, kind }, Expect::Done);
            pool.push(Request::Execute { tile, kind, op }, expect);
        }
    }
    pool
}

fn check(report: &mut Report, answer: Result<Answer, runtime::Error>, expect: &Expect, id: u64) {
    let ok = match (&answer, expect) {
        (Ok(Answer::Reconfigured), Expect::Done) => true,
        (Ok(Answer::Value(AccelValue::Scalar(v), ExecPath::Accelerator)), Expect::Scalar(e)) => {
            v.to_bits() == e.to_bits()
        }
        (Ok(Answer::Value(AccelValue::Vector(v), ExecPath::Accelerator)), Expect::Sorted(e)) => {
            v.len() == e.len() && v.iter().zip(e).all(|(a, b)| a.to_bits() == b.to_bits())
        }
        _ => false,
    };
    report.check(ok, || {
        format!("request {id}: expected {expect:?}, got {answer:?}")
    });
}

/// One client's closed loop: keep `window` requests outstanding while
/// `more` allows another submission, then collect the rest. Pushes each
/// answered request's latency from its submission (ns) to `latencies`;
/// returns requests completed.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    spans: &mut Spans,
    report: &mut Report,
    manager: &Manager,
    pool: &Pool,
    cursor: &mut usize,
    next_id: &mut u64,
    window: usize,
    latencies: &mut Vec<u64>,
    mut more: impl FnMut() -> bool,
) -> u64 {
    let mut inflight: VecDeque<(usize, u64, Instant, Ticket)> = VecDeque::with_capacity(window);
    let mut completed = 0;
    loop {
        while inflight.len() < window && more() {
            let idx = *cursor;
            *cursor = (idx + 1) % pool.requests.len();
            let id = *next_id;
            *next_id += 1;
            let request = pool.requests[idx].clone();
            let sent = Instant::now();
            inflight.push_back((idx, id, sent, runtime::submit(spans, manager, request, id)));
        }
        let Some((idx, id, sent, ticket)) = inflight.pop_front() else {
            return completed;
        };
        let answer = runtime::wait(spans, ticket, id);
        latencies.push(sent.elapsed().as_nanos() as u64);
        check(report, answer, &pool.expect[idx], id);
        completed += 1;
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

struct Booted {
    manager: Manager,
    sink: events::ShardedSink,
    probe_bitstreams: Vec<fpga::Bitstream>,
    device: presp_fpga::fabric::Device,
    pools: Vec<Pool>,
    cursors: Vec<usize>,
    submitted: u64,
}

/// Builds the SoC and registry from the seed, boots the runtime and warms
/// it up (drivers loaded, every pool request served once).
fn set_up(spans: &mut Spans, report: &mut Report, shape: Serve, seed: u64) -> (Booted, f64) {
    let config = soc::grid(params::TILES);
    let soc = soc::boot(spans, &config);
    let tiles = soc::reconfigurable_tiles(&config);
    let device = soc::device(&soc);

    // Each (tile, kind) bitstream writes its own window of frames with
    // seeded, frame-distinct words (so compression cannot fold them).
    let addrs = fpga::frame_addresses(&device);
    let words = fpga::frame_words(&device);
    let mut rng = Rng::new(seed ^ 0xb175);
    let mut entries = Vec::new();
    let mut probe_bitstreams = Vec::new();
    for (i, &tile) in tiles.iter().enumerate() {
        for (k, kind) in [AcceleratorKind::Mac, AcceleratorKind::Sort]
            .into_iter()
            .enumerate()
        {
            let start = ((2 * i + k) * shape.frames_per_bitstream * 7) % addrs.len();
            let frames: Vec<_> = (0..shape.frames_per_bitstream)
                .map(|f| addrs[(start + f) % addrs.len()])
                .collect();
            let data = (0..frames.len())
                .map(|_| (0..words).map(|_| rng.next() as u32).collect())
                .collect();
            let bitstream = fpga::build_partial(&device, &frames, data);
            if probe_bitstreams.len() < 16 {
                probe_bitstreams.push(bitstream.clone());
            }
            entries.push((tile, kind, bitstream));
        }
    }
    let registry = runtime::registry(entries);

    let mut rng = Rng::new(seed);
    let flip = rng.below(2) as usize;
    let mut order: Vec<usize> = (0..tiles.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let pools: Vec<Pool> = (0..params::CLIENTS)
        .map(|c| {
            // Clients own disjoint tiles, so no two race for one.
            let mine: Vec<_> = order
                .iter()
                .skip(c)
                .step_by(params::CLIENTS)
                .map(|&t| tiles[t])
                .collect();
            churn_pool(&mut rng, &mine, flip)
        })
        .collect();

    let boot_started = Instant::now();
    let manager = runtime::boot(spans, soc, registry);
    let boot_ms = boot_started.elapsed().as_secs_f64() * 1e3;
    let sink = events::sharded_sink(params::TILES);
    runtime::attach_sink(&manager, &sink);

    let mut booted = Booted {
        manager,
        sink,
        probe_bitstreams,
        device,
        pools,
        cursors: vec![0; params::CLIENTS],
        submitted: 0,
    };
    let mut next_id = 0;
    for c in 0..params::CLIENTS {
        let pool = &booted.pools[c];
        let mut left = pool.requests.len();
        booted.submitted += closed_loop(
            spans,
            report,
            &booted.manager,
            pool,
            &mut booted.cursors[c],
            &mut next_id,
            shape.window,
            &mut Vec::new(),
            || {
                let go = left > 0;
                left = left.saturating_sub(1);
                go
            },
        );
    }
    events::drain(spans, &booted.sink);
    (booted, boot_ms)
}

/// Per-round figures of the closed loop, over every set-up pass.
#[derive(Default)]
struct Rounds {
    /// Completed requests per second.
    rates: Vec<f64>,
    /// Median request latency, from submission to answer, in ms.
    latency_p50_ms: Vec<f64>,
    /// Time to drain the trace sink, in ms (also the open loop's drain).
    drain_ms: Vec<f64>,
}

/// Closed-loop rounds: each client keeps `window` requests outstanding
/// until the round's deadline; the trace is drained at the end of every
/// round, inside the round's time. Returns the trace records drained.
fn closed_rounds(
    spans: &mut Spans,
    report: &mut Report,
    b: &mut Booted,
    shape: Serve,
    rounds: usize,
    round_s: f64,
    figures: &mut Rounds,
) -> usize {
    let mut records = 0;
    let mut next_ids: Vec<u64> = (0..params::CLIENTS as u64).map(|c| (c + 1) << 32).collect();
    for _ in 0..rounds {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(round_s);
        let manager = &b.manager;
        let results: Vec<(u64, Spans, Report, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = b
                .pools
                .iter()
                .zip(b.cursors.iter_mut())
                .zip(next_ids.iter_mut())
                .enumerate()
                .map(|(c, ((pool, cursor), next_id))| {
                    let mut spans = spans.for_thread(c as u32 + 1);
                    scope.spawn(move || {
                        let mut report = Report::default();
                        let mut latencies = Vec::new();
                        let done = closed_loop(
                            &mut spans,
                            &mut report,
                            manager,
                            pool,
                            cursor,
                            next_id,
                            shape.window,
                            &mut latencies,
                            || Instant::now() < deadline,
                        );
                        (done, spans, report, latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let mut completed = 0;
        let mut latencies = Vec::new();
        for (done, thread_spans, thread_report, thread_latencies) in results {
            latencies.extend(thread_latencies);
            completed += done;
            spans.merge(thread_spans);
            report.absorb_checks(thread_report);
        }
        // An application that keeps its trace drains it as part of the work.
        let drained = Instant::now();
        records += events::drain(spans, &b.sink);
        figures.drain_ms.push(drained.elapsed().as_secs_f64() * 1e3);
        b.submitted += completed;
        figures
            .rates
            .push(completed as f64 / started.elapsed().as_secs_f64());
        figures
            .latency_p50_ms
            .push(spans::percentile(&latencies, 50.0) / 1e6);
    }
    records
}

/// Checks the runtime's accounting: consistent stats, and every
/// submission admitted or coalesced.
fn check_invariants(report: &mut Report, b: &Booted) -> runtime::Counters {
    let counters = runtime::counters(&b.manager);
    let stats = &counters.stats;
    report.check(stats.consistent(), || {
        format!("inconsistent stats: {stats:?}")
    });
    let answered = counters.sched.admitted + counters.sched.coalesced;
    report.check(answered == b.submitted, || {
        format!(
            "admitted + coalesced = {answered}, submitted {}",
            b.submitted
        )
    });
    counters
}

/// Runs one serving workload for `seconds`.
pub fn run(shape: Serve, seed: u64, seconds: f64, spans: &mut Spans, report: &mut Report) {
    // Every set-up pass boots a fresh runtime and serves its share of the
    // closed-loop rounds; the last runtime also serves the open loop and
    // feeds the per-layer counters.
    let closed_s = seconds * 0.6;
    let round_s = closed_s / shape.rounds as f64;
    let (mut setup_s, mut boot_ms, mut shutdown_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut figures = Rounds::default();
    let mut kept = None;
    for pass in 0..shape.setup_repeats {
        let started = Instant::now();
        let (mut booted, boot) = set_up(spans, report, shape, seed);
        setup_s.push(started.elapsed().as_secs_f64());
        boot_ms.push(boot);
        let before = runtime::counters(&booted.manager);
        let rounds = shape.rounds / shape.setup_repeats;
        let records = closed_rounds(
            spans,
            report,
            &mut booted,
            shape,
            rounds,
            round_s,
            &mut figures,
        );
        if pass + 1 < shape.setup_repeats {
            check_invariants(report, &booted);
            let stopped = Instant::now();
            runtime::shutdown(spans, &booted.manager);
            shutdown_ms.push(stopped.elapsed().as_secs_f64() * 1e3);
        } else {
            kept = Some((booted, before, records));
        }
    }
    let (mut b, before, mut records) = kept.expect("at least one set-up pass");

    // -- open loop: one sender on a fixed schedule, one collector ---------
    let open_s = seconds - closed_s;
    // Each due time sends one burst: a whole churn step (reconfigure,
    // its duplicate, the execute), so every request of the step is timed
    // from the step's due time.
    let burst = shape.open_burst;
    let interval = Duration::from_secs_f64(burst as f64 / shape.open_rate_per_s);
    for cursor in &mut b.cursors {
        *cursor = cursor.div_ceil(burst) * burst % b.pools[0].requests.len();
    }
    let start = Instant::now() + Duration::from_millis(1);
    let (latencies, lags, sent) = {
        let manager = &b.manager;
        let pools = &b.pools;
        let cursors = &mut b.cursors;
        let mut sender_spans = spans.for_thread(100);
        let mut collector_spans = spans.for_thread(101);
        let (tx, rx) = mpsc::channel::<(usize, usize, u64, Duration, Ticket)>();
        let (sent, lags, latencies, collector_report, sender_spans, collector_spans) =
            std::thread::scope(|scope| {
                let sender = scope.spawn(move || {
                    let end = start + Duration::from_secs_f64(open_s);
                    let mut lags = Vec::new();
                    let mut sent = 0u64;
                    for i in 0u32.. {
                        let offset = interval * i;
                        let due = start + offset;
                        if due >= end {
                            break;
                        }
                        wait_until(due);
                        lags.push(due.elapsed().as_nanos() as u64);
                        let c = i as usize % params::CLIENTS;
                        for _ in 0..burst {
                            let idx = cursors[c];
                            cursors[c] = (idx + 1) % pools[c].requests.len();
                            let id = (3 << 32) + sent;
                            let request = pools[c].requests[idx].clone();
                            let ticket = runtime::submit(&mut sender_spans, manager, request, id);
                            tx.send((c, idx, id, offset, ticket))
                                .expect("collector outlives sender");
                            sent += 1;
                        }
                    }
                    (sent, lags, sender_spans)
                });
                let collector = scope.spawn(move || {
                    let mut report = Report::default();
                    let mut latencies = Vec::new();
                    for (c, idx, id, offset, ticket) in rx {
                        let answer = runtime::wait(&mut collector_spans, ticket, id);
                        let latency = (start + offset).elapsed().as_nanos() as u64;
                        latencies.push((offset, latency));
                        check(&mut report, answer, &pools[c].expect[idx], id);
                    }
                    (latencies, report, collector_spans)
                });
                let (sent, lags, sender_spans) = sender.join().expect("sender does not panic");
                let (latencies, report, collector_spans) =
                    collector.join().expect("collector does not panic");
                (sent, lags, latencies, report, sender_spans, collector_spans)
            });
        report.absorb_checks(collector_report);
        spans.merge(sender_spans);
        spans.merge(collector_spans);
        (latencies, lags, sent)
    };
    b.submitted += sent;
    let drained = Instant::now();
    records += events::drain(spans, &b.sink);
    figures.drain_ms.push(drained.elapsed().as_secs_f64() * 1e3);

    // -- invariants and counters --------------------------------------------
    let after = check_invariants(report, &b);
    let stopped = Instant::now();
    runtime::shutdown(spans, &b.manager);
    shutdown_ms.push(stopped.elapsed().as_secs_f64() * 1e3);

    // Open-loop latency percentiles per window of send time, then their
    // median: one stall of the host moves one window, not the run's figure.
    let window_s = open_s / shape.open_windows as f64;
    let mut windows = vec![Vec::new(); shape.open_windows];
    for &(offset, latency) in &latencies {
        let w = (offset.as_secs_f64() / window_s) as usize;
        windows[w.min(shape.open_windows - 1)].push(latency);
    }
    let window_ms = |p: f64| {
        let per: Vec<f64> = windows
            .iter()
            .map(|w| spans::percentile(w, p) / 1e6)
            .collect();
        spans::median(&per)
    };
    // The bounded latency is the closed loop's: at the open loop's light
    // rate each request first wakes the idle pool of 64 workers, and that
    // wake-up cost follows the shared host more than the program.
    let throughput = spans::median(&figures.rates);
    let latency_ms = spans::median(&figures.latency_p50_ms);
    let (p50_ms, p90_ms, p99_ms) = (window_ms(50.0), window_ms(90.0), window_ms(99.0));
    report.set("setup_s", spans::median(&setup_s));
    report.set("throughput_per_s", throughput);
    report.set("latency_p50_ms", latency_ms);
    report.set("load.open_latency_p50_ms", p50_ms);
    report.set("load.latency_p90_ms", p90_ms);
    report.note("req_per_s", throughput, "req/s");
    report.note("latency_p50_us", latency_ms * 1e3, "us");
    report.note("open_latency_p50_us", p50_ms * 1e3, "us");
    report.note("open_latency_p90_us", p90_ms * 1e3, "us");
    report.note("open_latency_p99_us", p99_ms * 1e3, "us");
    report.note("open_loop_requests", latencies.len() as f64, "count");

    let requests = (after.sched.completed - before.sched.completed).max(1) as f64;
    let per_req = |after_ns: u64, before_ns: u64| (after_ns - before_ns) as f64 / 1e3 / requests;
    let lookups =
        (after.cache.hits + after.cache.misses) - (before.cache.hits + before.cache.misses);
    let submitted = (after.sched.admitted + after.sched.coalesced)
        - (before.sched.admitted + before.sched.coalesced);
    let submit = spans.agg("runtime.submit");
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.set("runtime.requests", requests);
    report.set("runtime.submit_us_p50", submit.percentile_us(50.0));
    report.set("runtime.submit_us_p99", submit.percentile_us(99.0));
    report.set(
        "runtime.queue_wait_p50_us",
        after.sched.wait_percentile_micros(50.0) as f64,
    );
    report.set(
        "runtime.queue_wait_p99_us",
        after.sched.wait_percentile_micros(99.0) as f64,
    );
    report.set("runtime.wait_samples", after.sched.wait_samples() as f64);
    report.set(
        "runtime.max_queue_depth",
        after.sched.max_queue_depth as f64,
    );
    report.set(
        "runtime.prepare_us_per_req",
        per_req(
            after.sched.stage_prepare_nanos,
            before.sched.stage_prepare_nanos,
        ),
    );
    report.set(
        "runtime.gate_wait_us_per_req",
        per_req(
            after.sched.stage_gate_wait_nanos,
            before.sched.stage_gate_wait_nanos,
        ),
    );
    report.set(
        "runtime.commit_us_per_req",
        per_req(
            after.sched.stage_commit_nanos,
            before.sched.stage_commit_nanos,
        ),
    );
    report.set("runtime.cache_lookups", lookups as f64);
    report.set(
        "runtime.cache_hit_ratio",
        ratio(after.cache.hits - before.cache.hits, lookups),
    );
    report.set(
        "runtime.cache_evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    report.set(
        "runtime.reconfigurations_per_req",
        (after.stats.reconfigurations - before.stats.reconfigurations) as f64 / requests,
    );
    report.set(
        "runtime.coalesced_ratio",
        ratio(after.sched.coalesced - before.sched.coalesced, submitted),
    );
    report.set("runtime.boot_ms", spans::median(&boot_ms));
    report.set("runtime.shutdown_ms", spans::median(&shutdown_ms));
    report.set("events.drain_ms", spans::median(&figures.drain_ms));
    report.set("events.records_per_req", records as f64 / requests);
    report.set("load.send_lag_us_p99", spans::percentile(&lags, 99.0) / 1e3);
    report.set("trace.throughput_per_s", throughput);
    report.set("trace.latency_p50_ms", latency_ms);

    if spans.enabled() {
        // Probes: the layers that only run nested inside a commit or a
        // prepare, called directly on this run's own inputs.
        let probe = fpga::probe(spans, &b.device, &b.probe_bitstreams);
        report.set("fpga.icap_load_us_per_frame", probe.icap_load_us_per_frame);
        report.set("fpga.scrub_us_per_frame", probe.scrub_us_per_frame);
        report.set("fpga.verify_us_per_kb", probe.verify_us_per_kb);
        for (i, request) in b.pools[0].requests.iter().take(512).enumerate() {
            if let Request::Execute { op, .. } = request {
                std::hint::black_box(accel::eval(spans, op, i as u64));
            }
        }
        let eval = spans.agg("accel.eval");
        report.set(
            "accel.eval_us_per_op",
            eval.total_ns as f64 / 1e3 / eval.count.max(1) as f64,
        );
    }
    report.set("soc.boot_ms", spans.agg("soc.boot").median_ms());
}
