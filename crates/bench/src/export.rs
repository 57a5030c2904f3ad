//! Machine-readable export of the experiment results.
//!
//! Each regenerator has a converter from its row type to a
//! [`JsonValue`] document. `presp repro <artifact> --json` prints one of
//! them, and `presp repro all` writes `BENCH_tables.json` and
//! `BENCH_wami.json` from the same converters.

use crate::experiments::{
    CompressionAblationRow, Fig3Row, Fig4Row, PrefetchAblationRow, Table2Row, Table3Row, Table4Row,
    Table5Row, Table6Row,
};
use presp_events::json::{int, num, obj, string, JsonValue};

/// Writes `doc` to `path` as pretty-printed JSON with a trailing newline.
///
/// # Errors
///
/// Propagates I/O errors from the underlying write.
pub fn write_json(path: &str, doc: &JsonValue) -> std::io::Result<()> {
    std::fs::write(path, doc.pretty() + "\n")
}

fn opt(v: Option<f64>) -> JsonValue {
    v.map_or(JsonValue::Null, JsonValue::Number)
}

fn arr<T>(items: &[T], f: impl Fn(&T) -> JsonValue) -> JsonValue {
    JsonValue::Array(items.iter().map(f).collect())
}

/// Schema tag of `BENCH_runtime.json`. `v2` is a strict superset of the
/// untagged `v1` layout: every v1 field survives unchanged and each run
/// gains a `stages` object with the per-stage wall-clock breakdown
/// (prepare / gate wait / commit / trace drain).
pub const RUNTIME_SCHEMA: &str = "presp-bench-runtime/v2";

/// The runtime throughput benchmark's workload shape.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeWorkload {
    pub clients: u64,
    pub tiles: u64,
    pub rounds: u64,
    pub sort_len: u64,
}

/// One worker-count cell of the runtime throughput benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeRun {
    pub workers: u64,
    pub requests: u64,
    pub elapsed_secs: f64,
    pub p50_wait_micros: u64,
    pub p99_wait_micros: u64,
    pub coalesce_rate: f64,
    pub cache_hit_rate: f64,
    pub reconfigurations: u64,
    pub makespan: u64,
    /// Summed across workers: lock-free behavioral evaluation +
    /// bitstream pre-fetch.
    pub stage_prepare_nanos: u64,
    /// Summed across workers: blocked at the commit-order ticket gate.
    pub stage_gate_wait_nanos: u64,
    /// Summed across workers: inside the shard + core critical section.
    pub stage_commit_nanos: u64,
    /// Wall clock of the final sharded-sink merge-drain.
    pub stage_trace_drain_nanos: u64,
}

impl RuntimeRun {
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed_secs
    }
}

/// The overload cell of the runtime benchmark: bounded per-tile queues
/// and per-request deadlines under an open-loop burst that outruns the
/// fabric. Written into `BENCH_runtime.json` as the optional `overload`
/// object (the base schema stays a superset — readers of `runs` are
/// unaffected).
#[derive(Debug, Clone, Copy)]
pub struct OverloadRun {
    pub workers: u64,
    pub queue_capacity: u64,
    pub deadline_cycles: u64,
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub deadline_misses: u64,
    pub elapsed_secs: f64,
}

impl OverloadRun {
    /// Fraction of submissions refused at the admission door.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Fraction of submissions that blew their virtual-time deadline.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.submitted as f64
        }
    }
}

fn overload_json(r: &OverloadRun) -> JsonValue {
    obj(vec![
        ("workers", int(r.workers)),
        ("queue_capacity", int(r.queue_capacity)),
        ("deadline_cycles", int(r.deadline_cycles)),
        ("submitted", int(r.submitted)),
        ("completed", int(r.completed)),
        ("shed", int(r.shed)),
        ("deadline_misses", int(r.deadline_misses)),
        ("shed_rate", num(r.shed_rate())),
        ("deadline_miss_rate", num(r.deadline_miss_rate())),
        ("elapsed_secs", num(r.elapsed_secs)),
    ])
}

/// Merges the overload cell into an existing `BENCH_runtime.json`
/// document, replacing any previous `overload` object in place so the
/// committed throughput `runs` (and the `--check` gate reading them)
/// survive untouched. A non-object document is replaced by a fresh one
/// carrying only the schema tag and the overload cell.
pub fn merge_overload(doc: JsonValue, run: &OverloadRun) -> JsonValue {
    match doc {
        JsonValue::Object(mut fields) => {
            fields.retain(|(k, _)| k != "overload");
            fields.push(("overload".to_string(), overload_json(run)));
            JsonValue::Object(fields)
        }
        _ => obj(vec![
            ("schema", string(RUNTIME_SCHEMA)),
            ("overload", overload_json(run)),
        ]),
    }
}

fn runtime_run_json(r: &RuntimeRun) -> JsonValue {
    let per_request = |nanos: u64| {
        if r.requests == 0 {
            0.0
        } else {
            nanos as f64 / 1_000.0 / r.requests as f64
        }
    };
    obj(vec![
        ("workers", int(r.workers)),
        ("requests", int(r.requests)),
        ("elapsed_secs", num(r.elapsed_secs)),
        ("requests_per_sec", num(r.requests_per_sec())),
        ("p50_wait_micros", int(r.p50_wait_micros)),
        ("p99_wait_micros", int(r.p99_wait_micros)),
        ("coalesce_rate", num(r.coalesce_rate)),
        ("cache_hit_rate", num(r.cache_hit_rate)),
        ("reconfigurations", int(r.reconfigurations)),
        ("makespan", int(r.makespan)),
        (
            "stages",
            obj(vec![
                ("prepare_nanos", int(r.stage_prepare_nanos)),
                ("gate_wait_nanos", int(r.stage_gate_wait_nanos)),
                ("commit_nanos", int(r.stage_commit_nanos)),
                ("trace_drain_nanos", int(r.stage_trace_drain_nanos)),
                (
                    "prepare_micros_per_request",
                    num(per_request(r.stage_prepare_nanos)),
                ),
                (
                    "gate_wait_micros_per_request",
                    num(per_request(r.stage_gate_wait_nanos)),
                ),
                (
                    "commit_micros_per_request",
                    num(per_request(r.stage_commit_nanos)),
                ),
            ]),
        ),
    ])
}

/// `BENCH_runtime.json` ([`RUNTIME_SCHEMA`]): the workload shape, one
/// entry per worker count in `runs` order, the legacy `speedup` field
/// (second run vs first) and `speedup_max` (last run vs first).
pub fn runtime_document(workload: &RuntimeWorkload, runs: &[RuntimeRun]) -> JsonValue {
    let base = runs.first().map(RuntimeRun::requests_per_sec);
    let ratio = |r: Option<&RuntimeRun>| match (base, r) {
        (Some(base), Some(r)) if base > 0.0 => num(r.requests_per_sec() / base),
        _ => JsonValue::Null,
    };
    obj(vec![
        ("schema", string(RUNTIME_SCHEMA)),
        (
            "workload",
            obj(vec![
                ("clients", int(workload.clients)),
                ("tiles", int(workload.tiles)),
                ("rounds", int(workload.rounds)),
                ("sort_len", int(workload.sort_len)),
            ]),
        ),
        ("runs", arr(runs, runtime_run_json)),
        ("speedup", ratio(runs.get(1))),
        ("speedup_max", ratio(runs.last())),
    ])
}

/// Table I as a JSON array of strategy-matrix rows.
pub fn table1_json(rows: &[(&str, &str, &str, &str)]) -> JsonValue {
    arr(rows, |(label, lo, eq, hi)| {
        obj(vec![
            ("row", string(label)),
            ("gamma_lt_1", string(lo)),
            ("gamma_eq_1", string(eq)),
            ("gamma_gt_1", string(hi)),
        ])
    })
}

/// Table II as a JSON array of `{component, luts}` rows.
pub fn table2_json(rows: &[Table2Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![("component", string(&r.name)), ("luts", int(r.luts))])
    })
}

/// Table III as a JSON array of per-SoC τ sweeps.
pub fn table3_json(rows: &[Table3Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![
            ("soc", string(&r.soc)),
            ("alpha_av_pct", num(r.alpha_av)),
            ("kappa_pct", num(r.kappa)),
            ("gamma", num(r.gamma)),
            ("best_tau", int(r.best_tau() as u64)),
            (
                "points",
                arr(&r.points, |p| {
                    obj(vec![
                        ("tau", int(p.tau as u64)),
                        ("t_static_min", opt(p.t_static)),
                        ("max_omega_min", opt(p.max_omega)),
                        ("total_min", num(p.total)),
                    ])
                }),
            ),
        ])
    })
}

fn strategy_triple((t_static, max_omega, total): (f64, f64, f64)) -> JsonValue {
    obj(vec![
        ("t_static_min", num(t_static)),
        ("max_omega_min", num(max_omega)),
        ("total_min", num(total)),
    ])
}

/// Table IV as a JSON array of per-SoC strategy comparisons.
pub fn table4_json(rows: &[Table4Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![
            ("soc", string(&r.soc)),
            ("accelerators", arr(&r.accels, |a| int(*a as u64))),
            ("class", string(&r.class.to_string())),
            ("alpha_av_pct", num(r.metrics.0)),
            ("kappa_pct", num(r.metrics.1)),
            ("gamma", num(r.metrics.2)),
            ("fully_parallel", strategy_triple(r.fully)),
            ("semi_parallel", strategy_triple(r.semi)),
            ("serial_min", num(r.serial)),
            ("chosen", string(&r.chosen.to_string())),
            ("chosen_total_min", num(r.chosen_total())),
        ])
    })
}

/// Table V as a JSON array of PR-ESP vs monolithic rows.
pub fn table5_json(rows: &[Table5Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![
            ("soc", string(&r.soc)),
            ("synth_min", num(r.synth)),
            ("t_static_min", num(r.t_static)),
            ("max_omega_min", num(r.max_omega)),
            ("total_min", num(r.total)),
            ("strategy", string(&r.strategy.to_string())),
            ("mono_synth_min", num(r.mono_synth)),
            ("mono_pnr_min", num(r.mono_pnr)),
            ("mono_total_min", num(r.mono_total)),
            ("improvement_pct", num(r.improvement_pct())),
        ])
    })
}

/// Table VI as a JSON array of per-tile partitioning rows.
pub fn table6_json(rows: &[Table6Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![
            ("soc", string(&r.soc)),
            ("tile", string(&r.tile)),
            ("kernels", arr(&r.kernels, |k| int(*k as u64))),
            ("pbs_kb", num(r.pbs_kb)),
        ])
    })
}

/// Fig. 3's annotations as a JSON array of per-kernel profiles.
pub fn fig3_json(rows: &[Fig3Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![
            ("index", int(r.index as u64)),
            ("kernel", string(r.name)),
            ("luts", int(r.luts)),
            ("exec_micros", num(r.micros)),
        ])
    })
}

/// Fig. 4 as a JSON array of per-deployment latency/energy rows.
pub fn fig4_json(rows: &[Fig4Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![
            ("soc", string(&r.soc)),
            ("reconfigurable_tiles", int(r.tiles as u64)),
            ("ms_per_frame", num(r.ms_per_frame)),
            ("mj_per_frame", num(r.mj_per_frame)),
            ("reconfigs_per_frame", num(r.reconfigs_per_frame)),
            ("mean_changed_pixels", num(r.mean_changed_pixels)),
            ("scrub_ms_per_frame", num(r.scrub_ms_per_frame)),
            (
                "scrub_wait_cycles_per_frame",
                num(r.scrub_wait_cycles_per_frame),
            ),
        ])
    })
}

/// The ablations as one object: the prefetch rows under `prefetch`, the
/// compression rows under `compression`.
pub fn ablations_json(
    prefetch: &[PrefetchAblationRow],
    compression: &[CompressionAblationRow],
) -> JsonValue {
    obj(vec![
        (
            "prefetch",
            arr(prefetch, |r| {
                obj(vec![
                    ("soc", string(&r.soc)),
                    ("prefetch_ms_per_frame", num(r.prefetch_ms)),
                    ("no_prefetch_ms_per_frame", num(r.no_prefetch_ms)),
                    ("speedup", num(r.speedup())),
                ])
            }),
        ),
        (
            "compression",
            arr(compression, |r| {
                obj(vec![
                    ("module", string(&r.module)),
                    ("raw_kb", num(r.raw_kb)),
                    ("compressed_kb", num(r.compressed_kb)),
                    ("raw_icap_ms", num(r.raw_ms)),
                    ("compressed_icap_ms", num(r.compressed_ms)),
                ])
            }),
        ),
    ])
}

/// The `BENCH_tables.json` document: Tables I–VI plus Fig. 3 in one object.
#[allow(clippy::too_many_arguments)]
pub fn tables_document(
    t1: &[(&str, &str, &str, &str)],
    t2: &[Table2Row],
    t3: &[Table3Row],
    t4: &[Table4Row],
    t5: &[Table5Row],
    t6: &[Table6Row],
    f3: &[Fig3Row],
) -> JsonValue {
    obj(vec![
        ("table1", table1_json(t1)),
        ("table2", table2_json(t2)),
        ("table3", table3_json(t3)),
        ("table4", table4_json(t4)),
        ("table5", table5_json(t5)),
        ("table6", table6_json(t6)),
        ("fig3", fig3_json(f3)),
    ])
}

/// The `BENCH_wami.json` document: the Fig. 4 WAMI deployment numbers.
pub fn wami_document(f4: &[Fig4Row]) -> JsonValue {
    obj(vec![("fig4", fig4_json(f4))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_events::json;

    #[test]
    fn table2_roundtrips_through_the_parser() {
        let rows = vec![
            Table2Row {
                name: "mac".into(),
                luts: 2450,
            },
            Table2Row {
                name: "fft".into(),
                luts: 33690,
            },
        ];
        let doc = table2_json(&rows);
        let parsed = json::parse(&doc.pretty()).expect("valid JSON");
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("component").unwrap().as_str(), Some("mac"));
        assert_eq!(arr[1].get("luts").unwrap().as_usize(), Some(33690));
    }

    #[test]
    fn merge_overload_replaces_without_touching_runs() {
        let run = OverloadRun {
            workers: 4,
            queue_capacity: 4,
            deadline_cycles: 5_000,
            submitted: 200,
            completed: 150,
            shed: 50,
            deadline_misses: 20,
            elapsed_secs: 0.5,
        };
        let doc = obj(vec![
            ("schema", string(RUNTIME_SCHEMA)),
            ("runs", JsonValue::Array(vec![int(1)])),
            ("overload", string("stale")),
        ]);
        let merged = merge_overload(doc, &run);
        let text = merged.pretty();
        let parsed = json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("runs").unwrap().as_array().unwrap().len(), 1);
        let ov = parsed.get("overload").unwrap();
        assert_eq!(ov.get("shed").unwrap().as_usize(), Some(50));
        assert!(matches!(
            ov.get("shed_rate"),
            Some(JsonValue::Number(r)) if (*r - 0.25).abs() < 1e-9
        ));
        assert!(matches!(
            ov.get("deadline_miss_rate"),
            Some(JsonValue::Number(r)) if (*r - 0.10).abs() < 1e-9
        ));
        assert!(!text.contains("stale"), "old overload object survived");
    }

    #[test]
    fn merge_overload_into_non_object_starts_fresh() {
        let run = OverloadRun {
            workers: 1,
            queue_capacity: 2,
            deadline_cycles: 0,
            submitted: 0,
            completed: 0,
            shed: 0,
            deadline_misses: 0,
            elapsed_secs: 0.0,
        };
        let merged = merge_overload(JsonValue::Null, &run);
        assert_eq!(merged.get("schema").unwrap().as_str(), Some(RUNTIME_SCHEMA));
        // Zero submissions must not divide by zero.
        assert!(matches!(
            merged.get("overload").unwrap().get("shed_rate"),
            Some(JsonValue::Number(r)) if *r == 0.0
        ));
    }

    #[test]
    fn serial_sweep_points_serialize_nulls() {
        use crate::experiments::TauPoint;
        let rows = vec![Table3Row {
            soc: "soc1".into(),
            alpha_av: 2.0,
            kappa: 60.0,
            gamma: 0.03,
            points: vec![TauPoint {
                tau: 1,
                t_static: None,
                max_omega: None,
                total: 540.0,
            }],
        }];
        let doc = table3_json(&rows);
        let text = doc.pretty();
        assert!(text.contains("\"t_static_min\": null"));
        json::parse(&text).expect("valid JSON");
    }
}
