//! The committed `scenarios/` matrix is itself a test surface: every
//! data file under `scenarios/` must load, run and pass, and the JSON
//! report must be byte-identical across back-to-back runs — the same
//! determinism contract `presp test` advertises and CI diffs — and to
//! the committed `tests/golden/scenario_report.json`. Regenerate that
//! file deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test scenario_runner committed_matrix`.
//!
//! The storm scenario is additionally pinned to the stress_dpr
//! parameters it ports (policy, seed matrix, fault rates), so the
//! declarative file cannot silently drift away from the Rust stress
//! suite it replaced.

use presp_scenario::engine;
use presp_scenario::report::ReportEntry;
use presp_scenario::runner;
use presp_scenario::spec::{ScenarioSpec, WorkloadSpec};
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

#[test]
fn committed_matrix_is_green_and_byte_deterministic() {
    // Integration tests run from the package root; the relative path
    // keeps the report's `file` fields independent of the checkout's
    // location, so the report matches `presp test scenarios` run from
    // the repository root.
    let matrix = PathBuf::from("scenarios");
    let first = runner::run_paths(std::slice::from_ref(&matrix)).expect("scenarios/ must resolve");
    assert!(
        first.entries.len() >= 5,
        "the committed matrix must keep at least 5 scenarios, found {}",
        first.entries.len()
    );
    for entry in &first.entries {
        assert!(
            entry.passed(),
            "committed scenario '{}' failed:\n{}",
            entry.name(),
            first.report_json()
        );
        // The canonical form of every committed spec parses back to it.
        if let ReportEntry::Ran { verdict, .. } = entry {
            let spec = &verdict.spec;
            assert_eq!(
                ScenarioSpec::parse(&spec.serialize()).as_ref(),
                Ok(spec),
                "{}",
                entry.name()
            );
        }
    }

    let report = first.report_json();
    let second = runner::run_paths(&[matrix]).expect("scenarios/ must resolve");
    assert_eq!(
        report,
        second.report_json(),
        "scenario reports must be byte-identical across runs"
    );

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scenario_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &report).unwrap();
        eprintln!("golden file updated: {}", golden.display());
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden.display()));
    assert!(
        report == expected,
        "scenario report drifted from {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        golden.display()
    );
}

#[test]
fn storm_scenario_ports_the_stress_dpr_parameters() {
    let input = std::fs::read_to_string(scenarios_dir().join("fault_storm.json"))
        .expect("fault_storm.json must exist");
    let spec = ScenarioSpec::parse(&input).expect("fault_storm.json must parse");

    // The stress_dpr storm matrix ran under this exact recovery policy;
    // the data file must keep it.
    assert_eq!(spec.policy.max_retries, 2);
    assert_eq!(spec.policy.backoff_cycles, 32);
    assert_eq!(spec.policy.backoff_multiplier, 2);
    assert_eq!(spec.policy.quarantine_after, 2);
    assert!(spec.policy.cpu_fallback);
    assert!((spec.faults.icap_flip_rate - 0.15).abs() < 1e-12);
    assert!(spec.seeds.count >= 20);
    assert!(
        matches!(
            spec.workload,
            WorkloadSpec::Blocking {
                clients: 4,
                ops_per_client: 6
            }
        ),
        "storm workload must stay 4 clients x 6 ops"
    );

    let verdict = engine::run(&spec);
    assert!(
        verdict.passed(),
        "storm scenario failed: {:?}",
        verdict.results
    );
    let totals = engine::totals(&verdict.observations.runs);
    assert!(
        totals["injected_total"] >= 20,
        "storm must actually inject faults"
    );
    assert_eq!(totals["lost_requests"], 0);
    assert_eq!(totals["value_mismatches"], 0);
    assert_eq!(totals["submitted"], totals["completed_ok"]);
}

#[test]
fn coalesce_scenario_observes_tail_folding() {
    let input = std::fs::read_to_string(scenarios_dir().join("coalesce_burst.json"))
        .expect("coalesce_burst.json must exist");
    let spec = ScenarioSpec::parse(&input).expect("coalesce_burst.json must parse");
    let verdict = engine::run(&spec);
    assert!(
        verdict.passed(),
        "coalesce scenario failed: {:?}",
        verdict.results
    );
    let totals = engine::totals(&verdict.observations.runs);
    assert_eq!(
        totals["coalesced"], 9,
        "9 of the 10 burst requests must fold"
    );
    assert_eq!(totals["reconfigurations"], 1);
}
