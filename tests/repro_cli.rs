//! `presp repro`, `presp bench` and `presp test` end to end: runs the
//! built `presp` binary on the cheap artifacts, on malformed command
//! lines and on a malformed scenario file. The
//! expensive artifacts (`all`, `fig4`, `ablations`) are diffed against
//! their goldens, and `bench floorplan` is timed, in CI's release build
//! instead.

use presp::events::json;
use std::path::Path;
use std::process::{Command, Output};

fn presp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_presp"))
        .args(args)
        .output()
        .expect("presp runs")
}

#[test]
fn table2_json_matches_the_golden_bench_tables_member() {
    let out = presp(&["repro", "table2", "--json"]);
    assert!(out.status.success(), "{out:?}");
    let printed = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/BENCH_tables.json");
    let golden = json::parse(&std::fs::read_to_string(golden_path).unwrap()).unwrap();
    assert_eq!(Some(&printed), golden.get("table2"));
}

#[test]
fn table1_prints_the_strategy_matrix() {
    let out = presp(&["repro", "table1"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.starts_with("Table I — size-driven implementation strategies in PR-ESP\n\n"),
        "{text}"
    );
    assert!(text.contains("γ < 1   γ ≈ 1          γ > 1"), "{text}");
}

#[test]
fn malformed_repro_command_lines_are_usage_errors() {
    assert_usage_errors(&[&["repro"], &["repro", "nope"], &["repro", "all", "--json"]]);
}

#[test]
fn malformed_bench_command_lines_are_usage_errors() {
    assert_usage_errors(&[&["bench"], &["bench", "nope"]]);
}

#[test]
fn test_reports_a_malformed_spec_as_a_load_failure() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("malformed_scenario.json");
    let doc = r#"{
        "name": "malformed",
        "fabric": {"soc_name": "malformed", "reconf_tiles": 1},
        "catalog": ["mac"],
        "seeds": {"count": 1},
        "policy": {"max_retrys": 2},
        "workload": {"kind": "blocking", "clients": 1, "ops_per_client": 1},
        "assertions": [{"check": "stats_consistent"}]
    }"#;
    std::fs::write(&path, doc).unwrap();
    let out = presp(&["test", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("LOAD FAIL "))
        .unwrap_or_default();
    assert!(
        line.contains("unknown key 'max_retrys' in 'policy'"),
        "{text}"
    );
}

#[test]
fn malformed_test_command_lines_are_usage_errors() {
    assert_usage_errors(&[&["test"], &["test", "no/such/scenarios.json"]]);
}

/// Each command line exits 2 and prints nothing on stdout.
fn assert_usage_errors(command_lines: &[&[&str]]) {
    for args in command_lines {
        let out = presp(args);
        assert_eq!(out.status.code(), Some(2), "presp {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "presp {args:?} printed a result");
    }
}
