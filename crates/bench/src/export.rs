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

/// Table I as a JSON array of strategy-matrix rows.
pub(crate) fn table1_json(rows: &[(&str, &str, &str, &str)]) -> JsonValue {
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
pub(crate) fn table2_json(rows: &[Table2Row]) -> JsonValue {
    arr(rows, |r| {
        obj(vec![("component", string(&r.name)), ("luts", int(r.luts))])
    })
}

/// Table III as a JSON array of per-SoC τ sweeps.
pub(crate) fn table3_json(rows: &[Table3Row]) -> JsonValue {
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
pub(crate) fn table4_json(rows: &[Table4Row]) -> JsonValue {
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
pub(crate) fn table5_json(rows: &[Table5Row]) -> JsonValue {
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
pub(crate) fn table6_json(rows: &[Table6Row]) -> JsonValue {
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
pub(crate) fn fig3_json(rows: &[Fig3Row]) -> JsonValue {
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
pub(crate) fn fig4_json(rows: &[Fig4Row]) -> JsonValue {
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
pub(crate) fn ablations_json(
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
pub(crate) fn wami_document(f4: &[Fig4Row]) -> JsonValue {
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
