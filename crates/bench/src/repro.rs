//! The bodies of `presp repro`: every paper artifact has one text
//! rendering here and one JSON document in [`crate::export`], both built
//! from the same rows.

use crate::experiments::{
    self, CompressionAblationRow, Fig3Row, Fig4Row, PrefetchAblationRow, Table2Row, Table3Row,
    Table4Row, Table5Row, Table6Row,
};
use crate::export;
use crate::render::table;
use presp_events::json::JsonValue;

/// Fig. 3 profiles `FIG3_SIZE`×`FIG3_SIZE` frames.
pub const FIG3_SIZE: usize = 128;

/// Fig. 4 runs `(frames, frame size, Lucas–Kanade iterations)`.
const FIG4_SHAPE: (usize, usize, usize) = (6, 64, 2);

/// Runs the artifact called `name` (`table1`–`table6`, `fig3`, `fig4` or
/// `ablations`) and returns what `presp repro` prints: its text rendering,
/// or under `json` its pretty-printed export document. `None` for an
/// unknown name.
pub fn artifact(name: &str, json: bool) -> Option<String> {
    let (text, doc) = match name {
        "table1" => {
            let rows = experiments::table1();
            (table1_text(&rows), export::table1_json(&rows))
        }
        "table2" => {
            let rows = experiments::table2();
            (table2_text(&rows), export::table2_json(&rows))
        }
        "table3" => {
            let rows = experiments::table3();
            (table3_text(&rows), export::table3_json(&rows))
        }
        "table4" => {
            let rows = experiments::table4();
            (table4_text(&rows), export::table4_json(&rows))
        }
        "table5" => {
            let rows = experiments::table5();
            (table5_text(&rows), export::table5_json(&rows))
        }
        "table6" => {
            let rows = experiments::table6();
            (table6_text(&rows), export::table6_json(&rows))
        }
        "fig3" => {
            let rows = experiments::fig3(FIG3_SIZE);
            (fig3_text(&rows), export::fig3_json(&rows))
        }
        "fig4" => {
            let (frames, size, iters) = FIG4_SHAPE;
            let rows = experiments::fig4(frames, size, iters);
            (fig4_text(&rows), export::fig4_json(&rows))
        }
        "ablations" => {
            let prefetch = experiments::prefetch_ablation(5, 48, 2);
            let compression = experiments::compression_ablation();
            (
                ablations_text(&prefetch, &compression),
                export::ablations_json(&prefetch, &compression),
            )
        }
        _ => return None,
    };
    Some(if json { doc.pretty() + "\n" } else { text })
}

/// The full evaluation behind `presp repro all`: Tables I–VI, Fig. 3 and
/// Fig. 4, each rendered once, plus the documents it writes.
pub struct Evaluation {
    /// Every artifact's text rendering, in paper order.
    pub text: String,
    /// `BENCH_tables.json` and `BENCH_wami.json`, by file name.
    pub documents: [(&'static str, JsonValue); 2],
}

/// Runs Tables I–VI, Fig. 3 and Fig. 4 once each. Fig. 4 deploys the
/// SoC_X–Z flow outputs Table VI built, so each design's flow runs once.
pub fn evaluation() -> Evaluation {
    let (frames, size, iters) = FIG4_SHAPE;
    let t1 = experiments::table1();
    let t2 = experiments::table2();
    let t3 = experiments::table3();
    let t4 = experiments::table4();
    let t5 = experiments::table5();
    let (t6, wami_flows) = experiments::table6_and_flows();
    let f3 = experiments::fig3(FIG3_SIZE);
    let f4 = experiments::fig4_of(&wami_flows, frames, size, iters);
    let text = [
        table1_text(&t1),
        table2_text(&t2),
        table3_text(&t3),
        table4_text(&t4),
        table5_text(&t5),
        table6_text(&t6),
        fig3_text(&f3),
        fig4_text(&f4),
    ]
    .concat();
    Evaluation {
        text,
        documents: [
            (
                "BENCH_tables.json",
                export::tables_document(&t1, &t2, &t3, &t4, &t5, &t6, &f3),
            ),
            ("BENCH_wami.json", export::wami_document(&f4)),
        ],
    }
}

/// A title, a blank line, then `body` and a blank line.
fn section(title: &str, body: &str) -> String {
    format!("{title}\n\n{body}\n")
}

fn table1_text(rows: &[(&str, &str, &str, &str)]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, lo, eq, hi)| vec![(*label).into(), (*lo).into(), (*eq).into(), (*hi).into()])
        .collect();
    section(
        "Table I — size-driven implementation strategies in PR-ESP",
        &table(&["", "γ < 1", "γ ≈ 1", "γ > 1"], &cells),
    )
}

fn table2_text(rows: &[Table2Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.name.clone(), r.luts.to_string()])
        .collect();
    section(
        "Table II — resource utilization of the accelerators (VC707)",
        &table(&["component", "LUTs"], &cells),
    )
}

fn table3_text(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "Table III — characterization of the CAD engine under different parallelism\n\n",
    );
    for row in rows {
        let cells: Vec<Vec<String>> = row
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("τ={}", p.tau),
                    p.t_static.map_or("-".into(), |v| format!("{v:.0}")),
                    p.max_omega.map_or("-".into(), |v| format!("{v:.0}")),
                    format!("{:.0}", p.total),
                ]
            })
            .collect();
        out += &format!(
            "{}:  α_av = {:.1}%  κ = {:.1}%  γ = {:.2}   (best: τ = {})\n{}\n",
            row.soc,
            row.alpha_av,
            row.kappa,
            row.gamma,
            row.best_tau(),
            table(&["", "t_static", "max{Ω}", "T_tot"], &cells)
        );
    }
    out
}

fn table4_text(rows: &[Table4Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.soc.clone(),
                format!("{:?}", r.accels),
                format!("{}", r.class),
                format!("{:.1}", r.metrics.0),
                format!("{:.1}", r.metrics.1),
                format!("{:.2}", r.metrics.2),
                format!("{:.0}+{:.0}={:.0}", r.fully.0, r.fully.1, r.fully.2),
                format!("{:.0}+{:.0}={:.0}", r.semi.0, r.semi.1, r.semi.2),
                format!("{:.0}", r.serial),
                format!("{} ({:.0})", r.chosen, r.chosen_total()),
            ]
        })
        .collect();
    section(
        "Table IV — evaluation of the P&R parallelism in PR-ESP (minutes)",
        &table(
            &[
                "SoC",
                "accs",
                "class",
                "α_av%",
                "κ%",
                "γ",
                "fully-par",
                "semi-par",
                "serial",
                "PR-ESP choice",
            ],
            &cells,
        ),
    )
}

fn table5_text(rows: &[Table5Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.soc.clone(),
                format!("{:.0}", r.synth),
                format!("{:.0}", r.t_static),
                format!("{:.0}", r.max_omega),
                format!("{:.0}", r.total),
                format!("{}", r.strategy),
                format!("{:.0}", r.mono_synth),
                format!("{:.0}", r.mono_pnr),
                format!("{:.0}", r.mono_total),
                format!("{:+.1}%", r.improvement_pct()),
            ]
        })
        .collect();
    section(
        "Table V — PR-ESP vs monolithic implementation (minutes)",
        &table(
            &[
                "SoC", "synth", "t_static", "max{Ω}", "T_tot", "τ", "m.synth", "m.P&R", "m.T_tot",
                "improv.",
            ],
            &cells,
        ),
    )
}

fn table6_text(rows: &[Table6Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.soc.clone(),
                r.tile.clone(),
                format!("{:?}", r.kernels),
                format!("{:.0}", r.pbs_kb),
            ]
        })
        .collect();
    section(
        "Table VI — partitioning of accelerators and partial bitstream sizes",
        &table(&["SoC", "tile", "WAMI accs", "pbs (KB)"], &cells),
    )
}

fn fig3_text(rows: &[Fig3Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("#{}", r.index),
                r.name.into(),
                r.luts.to_string(),
                format!("{:.1}", r.micros),
            ]
        })
        .collect();
    section(
        &format!(
            "Fig. 3 — WAMI accelerator profile ({FIG3_SIZE}x{FIG3_SIZE} frames, 2x2 SoC, VC707)"
        ),
        &table(&["idx", "kernel", "LUTs", "exec (µs)"], &cells),
    )
}

fn fig4_text(rows: &[Fig4Row]) -> String {
    let (frames, size, iters) = FIG4_SHAPE;
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.soc.clone(),
                r.tiles.to_string(),
                format!("{:.2}", r.ms_per_frame),
                format!("{:.2}", r.mj_per_frame),
                format!("{:.1}", r.reconfigs_per_frame),
                format!("{:.0}", r.mean_changed_pixels),
                format!("{:.2}", r.scrub_ms_per_frame),
                format!("{:.0}", r.scrub_wait_cycles_per_frame),
            ]
        })
        .collect();
    section(
        &format!(
            "Fig. 4 — WAMI SoC implementations ({frames} frames of {size}x{size}, {iters} LK iterations)"
        ),
        &table(
            &[
                "SoC",
                "RTs",
                "ms/frame",
                "mJ/frame",
                "reconf/frame",
                "changed px",
                "scrub ms/frame",
                "scrub wait cyc",
            ],
            &cells,
        ),
    )
}

fn ablations_text(
    prefetch: &[PrefetchAblationRow],
    compression: &[CompressionAblationRow],
) -> String {
    let prefetch: Vec<Vec<String>> = prefetch
        .iter()
        .map(|r| {
            vec![
                r.soc.clone(),
                format!("{:.2}", r.prefetch_ms),
                format!("{:.2}", r.no_prefetch_ms),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    let compression: Vec<Vec<String>> = compression
        .iter()
        .map(|r| {
            vec![
                r.module.clone(),
                format!("{:.0}", r.raw_kb),
                format!("{:.0}", r.compressed_kb),
                format!("{:.2}", r.raw_ms),
                format!("{:.2}", r.compressed_ms),
                format!("{:.1}x", r.raw_kb / r.compressed_kb),
            ]
        })
        .collect();
    section(
        "Ablation 1 — interleaved (prefetch) vs non-interleaved reconfiguration",
        &table(
            &[
                "SoC",
                "prefetch ms/frame",
                "no-prefetch ms/frame",
                "speedup",
            ],
            &prefetch,
        ),
    ) + &section(
        "Ablation 2 — bitstream compression (size and ICAP latency per module)",
        &table(
            &["module", "raw KB", "comp KB", "raw ms", "comp ms", "ratio"],
            &compression,
        ),
    )
}
