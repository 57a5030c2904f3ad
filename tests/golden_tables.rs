//! Golden-file regression tests: Tables II–VI and the `BENCH_tables.json`
//! document must be bit-identical across refactors of the timing kernel.
//!
//! `tables_2_to_6.txt` was generated from the pre-`presp-events` tree, so
//! any drift in virtual-time arithmetic, CAD-model evaluation order or
//! bitstream generation shows up as a diff here. `BENCH_tables.json` holds
//! the same rows plus Table I and Fig. 3 as `presp repro all` writes them.
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test golden_tables`.

use presp_bench::experiments::{self, Table2Row, Table3Row, Table4Row, Table5Row, Table6Row};
use presp_bench::{export, repro};
use std::fmt::Write as _;
use std::path::Path;

/// Formats Tables II–VI into one deterministic text document. Floats are
/// rendered with `{:?}` (shortest round-trip), so any bit-level change in a
/// result is visible.
fn render_tables(
    t2: &[Table2Row],
    t3: &[Table3Row],
    t4: &[Table4Row],
    t5: &[Table5Row],
    t6: &[Table6Row],
) -> String {
    let mut out = String::new();

    writeln!(out, "## Table II").unwrap();
    for r in t2 {
        writeln!(out, "{} {}", r.name, r.luts).unwrap();
    }

    writeln!(out, "## Table III").unwrap();
    for row in t3 {
        writeln!(
            out,
            "{} alpha_av={:?} kappa={:?} gamma={:?} best_tau={}",
            row.soc,
            row.alpha_av,
            row.kappa,
            row.gamma,
            row.best_tau()
        )
        .unwrap();
        for p in &row.points {
            writeln!(
                out,
                "  tau={} t_static={:?} max_omega={:?} total={:?}",
                p.tau, p.t_static, p.max_omega, p.total
            )
            .unwrap();
        }
    }

    writeln!(out, "## Table IV").unwrap();
    for r in t4 {
        writeln!(
            out,
            "{} accels={:?} class={} metrics={:?} chosen={} fully={:?} semi={:?} serial={:?}",
            r.soc, r.accels, r.class, r.metrics, r.chosen, r.fully, r.semi, r.serial
        )
        .unwrap();
    }

    writeln!(out, "## Table V").unwrap();
    for r in t5 {
        writeln!(
            out,
            "{} synth={:?} t_static={:?} max_omega={:?} total={:?} strategy={} mono_synth={:?} mono_pnr={:?} mono_total={:?}",
            r.soc,
            r.synth,
            r.t_static,
            r.max_omega,
            r.total,
            r.strategy,
            r.mono_synth,
            r.mono_pnr,
            r.mono_total
        )
        .unwrap();
    }

    writeln!(out, "## Table VI").unwrap();
    for r in t6 {
        writeln!(
            out,
            "{} {} kernels={:?} pbs_kb={:?}",
            r.soc, r.tile, r.kernels, r.pbs_kb
        )
        .unwrap();
    }

    out
}

/// Compares `rendered` with `tests/golden/<name>`, or rewrites the golden
/// under `UPDATE_GOLDEN`.
fn check_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "{name} drifted from the golden output; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Computes the rows once and checks them against both goldens.
#[test]
fn tables_2_to_6_match_golden() {
    let t1 = experiments::table1();
    let t2 = experiments::table2();
    let t3 = experiments::table3();
    let t4 = experiments::table4();
    let t5 = experiments::table5();
    let t6 = experiments::table6();
    let f3 = experiments::fig3(repro::FIG3_SIZE);
    check_golden("tables_2_to_6.txt", &render_tables(&t2, &t3, &t4, &t5, &t6));
    let doc = export::tables_document(&t1, &t2, &t3, &t4, &t5, &t6, &f3);
    check_golden("BENCH_tables.json", &(doc.pretty() + "\n"));
}
