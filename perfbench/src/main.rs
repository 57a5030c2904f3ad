//! The repository benchmark: end-to-end and per-layer host performance of
//! the PR-ESP reproduction on two workloads, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_churn|paper_eval --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the run's spans under `.perfbench-out/`). The last
//! line of standard output is the result object.

mod layers;
mod paper;
mod params;
mod report;
mod selftest;
mod serve;
mod spans;

use report::{Report, END_TO_END, PER_LAYER};
use spans::Spans;
use std::time::Instant;

pub const WORKLOADS: &[&str] = &["serve_churn", "paper_eval"];

/// The variable the scheduler reads to emulate device latency with a
/// sleep; a benchmark run never measures that sleep.
const EMULATED_DELAY_VAR: &str = "PRESP_BENCH_EVAL_DELAY_MICROS";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(parsed)
}

/// The workload's parameters, as JSON members for the host record.
fn workload_params(workload: &str) -> String {
    let serve = |s: params::Serve| {
        format!(
            "\"tiles\": {}, \"clients\": {}, \"frames_per_bitstream\": {}, \"window\": {}, \"rounds\": {}, \"open_rate_per_s\": {}, \"open_burst\": {}, \"open_windows\": {}, \"setup_repeats\": {}",
            params::TILES,
            params::CLIENTS,
            s.frames_per_bitstream,
            s.window,
            s.rounds,
            s.open_rate_per_s,
            s.open_burst,
            s.open_windows,
            s.setup_repeats
        )
    };
    match workload {
        "serve_churn" => serve(params::SERVE_CHURN),
        _ => format!(
            "\"frame_size\": {}, \"lk_iterations\": {}, \"rounds_per_segment\": {}, \"min_steady_frames\": {}, \"min_table_passes\": {}, \"setup_repeats\": {}",
            params::FRAME_SIZE,
            params::LK_ITERATIONS,
            params::ROUNDS_PER_SEGMENT,
            params::MIN_STEADY_FRAMES,
            params::MIN_TABLE_PASSES,
            params::PAPER_SETUP_REPEATS
        ),
    }
}

/// Runs one workload; per-layer metrics a workload does not exercise
/// read 0.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_frames: usize,
) -> (Report, Spans) {
    let mut spans = Spans::new(trace, Instant::now());
    let mut report = Report::default();
    match workload {
        "serve_churn" => serve::run(params::SERVE_CHURN, seed, seconds, &mut spans, &mut report),
        "paper_eval" => paper::run(seed, seconds, min_frames, &mut spans, &mut report),
        other => unreachable!("workload {other} was validated"),
    }
    report.set("peak_rss_mb", report::peak_rss_mb());
    report.set("trace.spans", spans.span_count() as f64);
    for (name, _) in PER_LAYER {
        report.metrics.entry(name).or_insert(0.0);
    }
    (report, spans)
}

fn refuse_unsound_setup() -> Result<(), String> {
    if std::env::var_os(EMULATED_DELAY_VAR).is_some() {
        return Err(format!(
            "{EMULATED_DELAY_VAR} is set: the benchmark measures real work, not an emulated sleep"
        ));
    }
    if cfg!(debug_assertions) {
        return Err("debug build: run with --release".to_string());
    }
    Ok(())
}

fn main() {
    if let Err(e) = refuse_unsound_setup() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        std::process::exit(if selftest::run() { 0 } else { 1 });
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let (report, spans) = run_workload(
        &args.workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        params::MIN_STEADY_FRAMES,
    );
    let host = report::host_record(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &workload_params(&args.workload),
    );
    println!(
        "{} seed {} ({} s, trace {}):",
        args.workload, args.seed, args.seconds, args.trace
    );
    for (name, value, unit) in &report.summary {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    println!(
        "  {:<32} {:>14.6} ratio ({} of {} checks failed)",
        "error_rate",
        report.error_rate(),
        report.failed,
        report.attempted
    );
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        println!("  {name:<32} {:>14.4} {unit}", report.metrics[name]);
    }
    for failure in report.failures() {
        println!("  FAILED: {failure}");
    }
    if args.trace {
        println!("self time by span:\n{}", spans.self_time_table());
        let path = format!(
            ".perfbench-out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all(".perfbench-out")
            .and_then(|()| std::fs::write(&path, spans.to_json_lines(&host)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!("{host}");
    match report.result_line(set) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if report.failed > 0 {
        std::process::exit(1);
    }
}
