//! `presp-bench`'s experiment functions: Tables II–VI and Fig. 3, through
//! the same calls `tests/golden_tables.rs` makes, and the Fig. 4 rows.

use crate::spans::Spans;
use presp_bench::experiments;
use std::fmt::Write as _;

/// Regenerates Tables II–VI and renders them in the golden-file format
/// (floats as shortest round-trip `{:?}`).
pub fn tables(spans: &mut Spans, id: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Table II");
    for r in spans.time("eval.table2", id, |_| experiments::table2()) {
        let _ = writeln!(out, "{} {}", r.name, r.luts);
    }
    let _ = writeln!(out, "## Table III");
    for row in spans.time("eval.table3", id, |_| experiments::table3()) {
        let _ = writeln!(
            out,
            "{} alpha_av={:?} kappa={:?} gamma={:?} best_tau={}",
            row.soc,
            row.alpha_av,
            row.kappa,
            row.gamma,
            row.best_tau()
        );
        for p in &row.points {
            let _ = writeln!(
                out,
                "  tau={} t_static={:?} max_omega={:?} total={:?}",
                p.tau, p.t_static, p.max_omega, p.total
            );
        }
    }
    let _ = writeln!(out, "## Table IV");
    for r in spans.time("eval.table4", id, |_| experiments::table4()) {
        let _ = writeln!(
            out,
            "{} accels={:?} class={} metrics={:?} chosen={} fully={:?} semi={:?} serial={:?}",
            r.soc, r.accels, r.class, r.metrics, r.chosen, r.fully, r.semi, r.serial
        );
    }
    let _ = writeln!(out, "## Table V");
    for r in spans.time("eval.table5", id, |_| experiments::table5()) {
        let _ = writeln!(
            out,
            "{} synth={:?} t_static={:?} max_omega={:?} total={:?} strategy={} mono_synth={:?} mono_pnr={:?} mono_total={:?}",
            r.soc, r.synth, r.t_static, r.max_omega, r.total, r.strategy, r.mono_synth, r.mono_pnr, r.mono_total
        );
    }
    let _ = writeln!(out, "## Table VI");
    for r in spans.time("eval.table6", id, |_| experiments::table6()) {
        let _ = writeln!(
            out,
            "{} {} kernels={:?} pbs_kb={:?}",
            r.soc, r.tile, r.kernels, r.pbs_kb
        );
    }
    out
}

/// Fig. 3 at the size `all_experiments` uses; returns the kernel count
/// and whether every row has a positive LUT count and run time.
pub fn fig3(spans: &mut Spans, id: u64) -> (usize, bool) {
    let rows = spans.time("eval.fig3", id, |_| experiments::fig3(128));
    let sane = rows.iter().all(|r| r.luts > 0 && r.micros > 0.0);
    (rows.len(), sane)
}

/// The designs of Tables IV and V.
pub fn table4_designs() -> Vec<presp_core::SocDesign> {
    experiments::table4_designs()
        .into_iter()
        .map(|(design, _)| design)
        .collect()
}

/// One Fig. 4 row's simulated outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Outputs {
    pub soc: String,
    pub ms_per_frame: f64,
    pub mj_per_frame: f64,
    pub reconfigs_per_frame: f64,
    pub mean_changed_pixels: f64,
}

/// FNV-1a digest of the rows, floats rendered shortest round-trip.
pub fn fig4_digest(rows: &[Fig4Outputs]) -> String {
    let mut text = String::new();
    for r in rows {
        let _ = writeln!(
            text,
            "{} {:?} {:?} {:?} {:?}",
            r.soc, r.ms_per_frame, r.mj_per_frame, r.reconfigs_per_frame, r.mean_changed_pixels
        );
    }
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The repository's own Fig. 4 run at the paper setting.
pub fn fig4_reference(frames: usize, size: usize, lk_iterations: usize) -> Vec<Fig4Outputs> {
    experiments::fig4(frames, size, lk_iterations)
        .into_iter()
        .map(|r| Fig4Outputs {
            soc: r.soc,
            ms_per_frame: r.ms_per_frame,
            mj_per_frame: r.mj_per_frame,
            reconfigs_per_frame: r.reconfigs_per_frame,
            mean_changed_pixels: r.mean_changed_pixels,
        })
        .collect()
}
