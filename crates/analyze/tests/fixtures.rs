//! Fixture corpus: one minimal violating file per check, each proven to
//! be flagged at its exact line.
//!
//! Every fixture marks its expected findings with a `// FLAG:<rule>`
//! trailing comment; the harness derives the expected `(line, rule)` set
//! from those markers and requires the analyzer's findings to match them
//! exactly (cycle findings, which summarize whole strongly connected
//! components, are asserted separately).

use presp_analyze::manifest::Manifest;
use presp_analyze::{analyze, Analysis, Options};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The `(line, rule)` pairs a fixture marks with `// FLAG:<rule>`.
fn flags(file: &str) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(fixtures_dir().join(file)).unwrap();
    text.lines()
        .enumerate()
        .filter_map(|(idx, line)| {
            line.split("// FLAG:")
                .nth(1)
                .map(|rule| (idx + 1, rule.trim().to_string()))
        })
        .collect()
}

fn run(manifest_json: &str) -> Analysis {
    let manifest = Manifest::parse(manifest_json).unwrap();
    analyze(&fixtures_dir(), &manifest, &Options::default())
}

/// Asserts the non-cycle findings in `file` are exactly its FLAG markers.
fn assert_flagged_exactly(analysis: &Analysis, file: &str) {
    let expected = flags(file);
    assert!(!expected.is_empty(), "{file} has no FLAG markers");
    let got: Vec<(usize, String)> = analysis
        .findings
        .iter()
        .filter(|f| f.rule != "lock-cycle")
        .map(|f| {
            assert_eq!(f.file, file, "finding in unexpected file: {f}");
            (f.line, f.rule.clone())
        })
        .collect();
    assert_eq!(got, expected, "findings for {file}");
}

#[test]
fn lock_order_inversion_is_flagged_at_exact_line() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "lock_order": {
    "roots": ["lock_order_inversion.rs"],
    "edges": [["alpha", "beta"]]
  }
}"#);
    assert_flagged_exactly(&analysis, "lock_order_inversion.rs");
    let cycles: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "lock-cycle")
        .collect();
    assert_eq!(
        cycles.len(),
        1,
        "the inversion closes an {{alpha, beta}} cycle"
    );
    assert!(cycles[0].message.contains("alpha") && cycles[0].message.contains("beta"));
    assert!(
        cycles[0].message.contains("lock_order_inversion.rs:"),
        "cycle message spells out acquisition sites: {}",
        cycles[0].message
    );
}

#[test]
fn undeclared_edge_is_flagged_without_cycle() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "lock_order": {
    "roots": ["undeclared_edge.rs"],
    "edges": [["alpha", "beta"]]
  }
}"#);
    assert_flagged_exactly(&analysis, "undeclared_edge.rs");
    assert!(
        analysis.findings.iter().all(|f| f.rule != "lock-cycle"),
        "alpha -> gamma alone is not a cycle"
    );
    let f = &analysis.findings[0];
    assert!(
        f.message.contains("alpha -> gamma"),
        "edge named in the message: {}",
        f.message
    );
}

#[test]
fn send_while_locked_is_flagged() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "hazards": {"guard_roots": ["send_while_locked.rs"]}
}"#);
    assert_flagged_exactly(&analysis, "send_while_locked.rs");
    assert!(analysis.findings[0].message.contains("alpha"));
}

#[test]
fn unwrap_on_lock_outside_doorway_is_flagged() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "hazards": {"unwrap_roots": ["unwrap_on_lock.rs"]}
}"#);
    assert_flagged_exactly(&analysis, "unwrap_on_lock.rs");
}

#[test]
fn unwrap_on_lock_doorway_file_is_exempt() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "hazards": {
    "unwrap_roots": ["unwrap_on_lock.rs"],
    "unwrap_doorways": ["unwrap_on_lock.rs"]
  }
}"#);
    assert!(analysis.is_clean(), "doorway files may unwrap lock results");
}

#[test]
fn doorway_breach_pattern_rule_fires_only_on_code() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "pattern_rules": [
    {
      "name": "sync-facade",
      "roots": ["doorway_breach.rs"],
      "forbidden": ["std::sync"],
      "why": "facade doorway"
    }
  ]
}"#);
    assert_flagged_exactly(&analysis, "doorway_breach.rs");
}

/// Points the shipped `analyze.json` rule `name`, after checking its
/// declared roots and doorway files, at `fixture` alone, and asserts it
/// flags exactly the fixture's markers.
fn assert_shipped_rule_flags(name: &str, roots: &[&str], exempt: &[&str], fixture: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../analyze.json");
    let shipped = Manifest::load(&root).unwrap();
    let mut rule = shipped
        .pattern_rules
        .into_iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("analyze.json declares the {name} rule"));
    assert_eq!(rule.roots, roots);
    assert_eq!(rule.exempt_files, exempt);
    rule.roots = vec![fixture.into()];
    let manifest = Manifest {
        pattern_rules: vec![rule],
        ..Manifest::default()
    };
    let analysis = analyze(&fixtures_dir(), &manifest, &Options::default());
    assert_flagged_exactly(&analysis, fixture);
}

/// The shipped `config-memory-doorway` rule: a slot-store access outside
/// `config_memory.rs` is a finding.
#[test]
fn config_memory_doorway_rule_flags_a_slot_store_breach() {
    assert_shipped_rule_flags(
        "config-memory-doorway",
        &["crates/fpga/src"],
        &["config_memory.rs"],
        "config_memory_breach.rs",
    );
}

/// The shipped `fpga-unsafe-doorway` rule: an `unsafe` block or a
/// `std::arch` intrinsic outside `crc.rs` is a finding.
#[test]
fn fpga_unsafe_doorway_rule_flags_simd_outside_the_crc_module() {
    assert_shipped_rule_flags(
        "fpga-unsafe-doorway",
        &["crates/fpga/src"],
        &["crc.rs"],
        "fpga_unsafe_breach.rs",
    );
}

/// The shipped `registry-verifies-once` rule: a runtime file outside
/// `registry.rs` that re-runs the integrity check is a finding.
#[test]
fn registry_verifies_once_rule_flags_a_check_outside_the_registry() {
    assert_shipped_rule_flags(
        "registry-verifies-once",
        &["crates/runtime/src"],
        &["registry.rs"],
        "runtime_verify_breach.rs",
    );
}

#[test]
fn allow_marker_suppresses_only_its_own_line() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "pattern_rules": [
    {
      "name": "sync-facade",
      "roots": ["allow_marker.rs"],
      "forbidden": ["std::sync"],
      "why": "facade doorway"
    }
  ]
}"#);
    assert_flagged_exactly(&analysis, "allow_marker.rs");
}

#[test]
fn wait_on_wrong_lock_is_flagged() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "lock_order": {
    "roots": ["wait_wrong_lock.rs"],
    "edges": [["alpha", "beta"]]
  },
  "hazards": {"guard_roots": ["wait_wrong_lock.rs"]}
}"#);
    assert_flagged_exactly(&analysis, "wait_wrong_lock.rs");
    assert!(analysis.findings[0].message.contains("alpha, beta"));
}

#[test]
fn cfg_test_desync_regression_production_line_after_test_mod_is_flagged() {
    let analysis = run(r#"{
  "schema": "presp-analyze/v1",
  "pattern_rules": [
    {
      "name": "sync-facade",
      "roots": ["cfg_test_desync.rs"],
      "forbidden": ["std::sync"],
      "why": "facade doorway"
    }
  ]
}"#);
    assert_flagged_exactly(&analysis, "cfg_test_desync.rs");
}

/// A faithful replica of the old `presp-lint` cfg(test) skipper: it
/// `break`s at the first `#[cfg(test)] mod` line and never scans the rest
/// of the file. This is the bug the fixture pins down — the replica finds
/// nothing in `cfg_test_desync.rs` even though a forbidden production
/// import follows the test module.
#[test]
fn old_scanner_replica_misses_the_regression_fixture() {
    let text = std::fs::read_to_string(fixtures_dir().join("cfg_test_desync.rs")).unwrap();
    let mut pending_cfg_test = false;
    let mut old_findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let trimmed = raw.trim();
        if trimmed == "#[cfg(test)]" {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                break; // the old scanner abandons the file here
            }
            if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                pending_cfg_test = false;
            }
        }
        if !raw.trim_start().starts_with("//") && raw.contains("std::sync") {
            old_findings.push(idx + 1);
        }
    }
    assert!(
        old_findings.is_empty(),
        "the old scanner silently exempted the production import"
    );
    assert!(
        !flags("cfg_test_desync.rs").is_empty(),
        "…which the fixture marks as a required finding"
    );
}
