//! The scenario runner: paths in, artifacts out.
//!
//! [`run_paths`] accepts any mix of scenario files and directories
//! (directories are scanned non-recursively for `*.json`, sorted by
//! name so the report order — and therefore the report bytes — never
//! depends on filesystem enumeration order), runs every scenario
//! through the engine, and exposes the JSON report, the JUnit XML and
//! optional per-scenario Chrome traces. `presp test` is a thin CLI
//! shell over this module; tests drive it directly.

use crate::engine;
use crate::report::{self, ReportEntry};
use crate::spec::{ScenarioError, ScenarioSpec};
use std::path::{Path, PathBuf};

/// A completed runner invocation.
pub struct RunOutcome {
    /// One entry per scenario file, in sorted path order.
    pub entries: Vec<ReportEntry>,
}

impl RunOutcome {
    /// Whether every scenario loaded and passed.
    pub fn all_passed(&self) -> bool {
        self.entries.iter().all(ReportEntry::passed)
    }

    /// The deterministic JSON report.
    pub fn report_json(&self) -> String {
        report::render(&self.entries)
    }

    /// The JUnit XML document.
    pub fn junit_xml(&self) -> String {
        crate::junit::render(&self.entries)
    }

    /// Writes the first run's Chrome trace of every scenario that ran
    /// into `dir` as `<name>.trace.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory or writing a
    /// trace file.
    pub fn write_traces(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for entry in &self.entries {
            if let ReportEntry::Ran { verdict, .. } = entry {
                let path = dir.join(format!("{}.trace.json", verdict.spec.name));
                std::fs::write(path, &verdict.observations.first_chrome_trace)?;
            }
        }
        Ok(())
    }
}

/// Expands files-or-directories into a sorted list of scenario files.
///
/// # Errors
///
/// Returns a [`ScenarioError`] for a path that does not exist, a
/// directory that cannot be read, or a directory containing no `*.json`
/// files (an empty matrix is a misconfiguration, not a green run).
pub(crate) fn collect_files(paths: &[PathBuf]) -> Result<Vec<PathBuf>, ScenarioError> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let entries = std::fs::read_dir(path).map_err(|e| {
                ScenarioError(format!("cannot read directory {}: {e}", path.display()))
            })?;
            let mut found = Vec::new();
            for entry in entries {
                let entry = entry
                    .map_err(|e| ScenarioError(format!("cannot read directory entry: {e}")))?;
                let p = entry.path();
                if p.is_file() && p.extension().is_some_and(|e| e == "json") {
                    found.push(p);
                }
            }
            if found.is_empty() {
                return Err(ScenarioError(format!(
                    "directory {} contains no .json scenario files",
                    path.display()
                )));
            }
            files.extend(found);
        } else if path.is_file() {
            files.push(path.clone());
        } else {
            return Err(ScenarioError(format!(
                "no such file or directory: {}",
                path.display()
            )));
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// Loads and runs one scenario file.
pub(crate) fn run_file(path: &Path) -> ReportEntry {
    let file = path.display().to_string();
    let input = match std::fs::read_to_string(path) {
        Ok(input) => input,
        Err(e) => {
            return ReportEntry::LoadFailed {
                file,
                error: format!("cannot read file: {e}"),
            }
        }
    };
    match ScenarioSpec::parse(&input) {
        Ok(spec) => ReportEntry::Ran {
            file,
            verdict: Box::new(engine::run(&spec)),
        },
        Err(e) => ReportEntry::LoadFailed { file, error: e.0 },
    }
}

/// Runs every scenario under the given paths.
///
/// # Errors
///
/// Fails only on path-expansion problems (missing path, unreadable or
/// empty directory); individual scenario failures are carried in the
/// outcome, not returned as errors.
pub fn run_paths(paths: &[PathBuf]) -> Result<RunOutcome, ScenarioError> {
    let files = collect_files(paths)?;
    let entries = files.iter().map(|f| run_file(f)).collect();
    Ok(RunOutcome { entries })
}
