//! The machine-readable scenario report.
//!
//! The report is the runner's contract with CI: a single JSON document
//! whose bytes are a pure function of the scenario files and their
//! seeds. Nothing wall-clock shaped is included — queue-wait
//! percentiles, backlog high-water marks and timestamps are all
//! excluded — so running the same matrix twice and `diff`-ing the two
//! reports is a complete determinism check.

use crate::engine::ScenarioVerdict;
use presp_events::json::{int, obj, string, JsonValue};

/// Schema tag stamped into every report.
pub(crate) const REPORT_SCHEMA: &str = "presp-scenario-report/v1";

/// A scenario outcome the report can carry: a verdict from the engine,
/// or a file that failed to load/parse (reported as a failure without
/// ever booting a SoC).
pub enum ReportEntry {
    /// The scenario ran to completion (assertions may still have failed).
    Ran {
        /// Path the scenario was loaded from (repo-relative as given).
        file: String,
        /// The engine's verdict.
        verdict: Box<ScenarioVerdict>,
    },
    /// The file never became a spec.
    LoadFailed {
        /// Path as given.
        file: String,
        /// The parse/IO error message.
        error: String,
    },
}

impl ReportEntry {
    /// Whether this entry counts as passed.
    pub fn passed(&self) -> bool {
        match self {
            ReportEntry::Ran { verdict, .. } => verdict.passed(),
            ReportEntry::LoadFailed { .. } => false,
        }
    }

    /// The scenario name (the file stem when the spec never parsed).
    pub fn name(&self) -> String {
        match self {
            ReportEntry::Ran { verdict, .. } => verdict.spec.name.clone(),
            ReportEntry::LoadFailed { file, .. } => std::path::Path::new(file)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| file.clone()),
        }
    }
}

fn entry_json(entry: &ReportEntry) -> JsonValue {
    match entry {
        ReportEntry::LoadFailed { file, error } => obj(vec![
            ("name", string(&entry.name())),
            ("file", string(file)),
            ("passed", JsonValue::Bool(false)),
            ("load_error", string(error)),
        ]),
        ReportEntry::Ran { file, verdict } => {
            let totals = crate::engine::totals(&verdict.observations.runs);
            let assertions: Vec<JsonValue> = verdict
                .results
                .iter()
                .map(|r| {
                    obj(vec![
                        ("check", string(&r.check)),
                        ("passed", JsonValue::Bool(r.passed)),
                        ("detail", string(&r.detail)),
                        ("replay_seed", int(r.replay_seed)),
                    ])
                })
                .collect();
            obj(vec![
                ("name", string(&verdict.spec.name)),
                ("file", string(file)),
                ("passed", JsonValue::Bool(verdict.passed())),
                ("runs", int(verdict.observations.runs.len() as u64)),
                (
                    "workers",
                    JsonValue::Array(
                        verdict
                            .spec
                            .workers
                            .iter()
                            .map(|&w| int(w as u64))
                            .collect(),
                    ),
                ),
                (
                    "seeds",
                    obj(vec![
                        ("start", int(verdict.spec.seeds.start)),
                        ("count", int(verdict.spec.seeds.count)),
                    ]),
                ),
                (
                    "totals",
                    JsonValue::Object(
                        totals
                            .iter()
                            .map(|(k, &v)| ((*k).to_string(), int(v)))
                            .collect(),
                    ),
                ),
                ("assertions", JsonValue::Array(assertions)),
            ])
        }
    }
}

/// Renders the full run as the canonical JSON report. Byte-identical
/// across repeats of the same scenario set: every value in it is
/// virtual-time deterministic.
pub(crate) fn render(entries: &[ReportEntry]) -> String {
    let passed = entries.iter().filter(|e| e.passed()).count() as u64;
    let doc = obj(vec![
        ("schema", string(REPORT_SCHEMA)),
        ("total", int(entries.len() as u64)),
        ("passed", int(passed)),
        ("failed", int(entries.len() as u64 - passed)),
        (
            "scenarios",
            JsonValue::Array(entries.iter().map(entry_json).collect()),
        ),
    ]);
    let mut out = doc.pretty();
    out.push('\n');
    out
}
