//! Metric names, output checks, the host record and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, emitted by every workload with `--trace 0`.
///
/// `serve_churn` reads throughput as closed-loop requests/s and latency as
/// closed-loop request latency from submission to answer.
/// `paper_eval` reads throughput as Tables II–VI + Fig. 3 regenerations
/// per second (the reciprocal of `tables_s`) and latency as the host time
/// of one steady Fig. 4 frame plus its scrub sweep. The open-loop latency
/// (`load.open_latency_p50_ms`, from each request's due time) and the p90
/// tail (`load.latency_p90_ms`) are per-layer figures: on shared 2-core
/// hosts they spread by 0.3 or more between runs, too wide to bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.requests", "count"),
    ("runtime.submit_us_p50", "us"),
    ("runtime.submit_us_p99", "us"),
    ("runtime.queue_wait_p50_us", "us"),
    ("runtime.queue_wait_p99_us", "us"),
    ("runtime.wait_samples", "count"),
    ("runtime.max_queue_depth", "count"),
    ("runtime.prepare_us_per_req", "us"),
    ("runtime.gate_wait_us_per_req", "us"),
    ("runtime.commit_us_per_req", "us"),
    ("runtime.cache_lookups", "count"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_evictions", "count"),
    ("runtime.reconfigurations_per_req", "ratio"),
    ("runtime.coalesced_ratio", "ratio"),
    ("runtime.boot_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("runtime.deploy_ms", "ms"),
    ("runtime.reconfigurations_per_frame", "ratio"),
    ("runtime.reconfigure_ms", "ms"),
    ("runtime.process_frame_ms", "ms"),
    ("runtime.scrub_sweep_ms", "ms"),
    ("events.drain_ms", "ms"),
    ("events.records_per_req", "ratio"),
    ("fpga.icap_load_us_per_frame", "us"),
    ("fpga.scrub_us_per_frame", "us"),
    ("fpga.verify_us_per_kb", "us"),
    ("accel.eval_us_per_op", "us"),
    ("soc.boot_ms", "ms"),
    ("wami.debayer_us", "us"),
    ("wami.grayscale_us", "us"),
    ("wami.gradient_us", "us"),
    ("wami.warp_us", "us"),
    ("wami.steepest_descent_us", "us"),
    ("wami.hessian_us", "us"),
    ("wami.sd_update_us", "us"),
    ("wami.change_detection_us", "us"),
    ("core.flow_ms", "ms"),
    ("cad.full_flow_ms", "ms"),
    ("cad.monolithic_ms", "ms"),
    ("floorplan.floorplan_ms", "ms"),
    ("eval.table2_ms", "ms"),
    ("eval.table3_ms", "ms"),
    ("eval.table4_ms", "ms"),
    ("eval.table5_ms", "ms"),
    ("eval.table6_ms", "ms"),
    ("eval.fig3_ms", "ms"),
    ("eval.tables_s", "s"),
    ("load.open_latency_p50_ms", "ms"),
    ("load.latency_p90_ms", "ms"),
    ("load.send_lag_us_p99", "us"),
    ("trace.spans", "count"),
    ("trace.throughput_per_s", "1/s"),
    ("trace.latency_p50_ms", "ms"),
];

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Headline figures under their workload's own names (`req_per_s`,
    /// `tables_s`, ...) for the human-readable summary.
    pub summary: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one output check; a failed one is kept for the log.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Folds another thread's checks into this report.
    pub fn absorb_checks(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(20);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.summary.push((name, value, unit));
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: every metric of `set`, which must all be present
    /// and finite.
    pub fn result_line(&self, set: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build every number belongs to, as one JSON object.
pub fn host_record(workload: &str, seed: u64, seconds: u64, trace: bool, params: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {{\"available_parallelism\": {parallelism}, \"cpu_model\": \"{}\", \"source\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"params\": {{{params}}}}}}}",
        cpu.replace('"', "'"),
        env!("PERFBENCH_SOURCE")
    )
}
