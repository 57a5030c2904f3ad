//! `presp-analyze` — token-level static analysis for the PR-ESP workspace.
//!
//! Three passes over a comment/string-aware lex of the source tree, all
//! driven by one declarative manifest (`analyze.json`):
//!
//! 1. **Pattern rules** — the doorway/discipline checks `presp-lint` used
//!    to hard-code (sync-facade, virtual-time, config-memory, tile-shard,
//!    trace-sink), matched against blanked source lines so strings and
//!    comments can never trigger or hide a finding.
//! 2. **Lock-order pass** — every facade lock field is labeled by its
//!    `mutex_labeled` declaration; a guard-scope tracker computes which
//!    locks are acquired while another guard is live (per function, with
//!    one level of intra-crate call propagation); the resulting workspace
//!    lock graph is run through Tarjan SCC and diffed against the declared
//!    lock-order DAG. Any undeclared edge or cycle is a finding with the
//!    acquisition chain spelled out.
//! 3. **Held-guard hazards** — channel `send`/`recv` while a guard is
//!    live, `Condvar::wait` with a second (different) lock held, and
//!    `.lock().unwrap()`/`.expect(` outside the poison-recovering doorway
//!    files.
//!
//! The committed deadlock mutants (`queue_admission_inversion`,
//! `shard_core_inversion`, scrubber `lock_inversion`) are marked with
//! `presp-analyze: mutant` line markers: the default sweep skips them, and
//! `Options::include_mutants` (CLI `--mutants`) analyzes them — the
//! inverted edges must then surface as undeclared-edge and cycle findings.
//!
//! No external dependencies; JSON comes from the in-tree
//! [`presp_events::json`] module.

#![warn(unreachable_pub)]

mod graph;
mod guards;
mod lexer;
pub mod manifest;

use graph::EdgeSite;
pub use graph::LockGraph;
use guards::{FileScan, ScanContext};
use lexer::LexedFile;
use manifest::Manifest;
use presp_events::json::JsonValue;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Schema tag of the machine-readable findings document.
pub(crate) const FINDINGS_SCHEMA: &str = "presp-analyze-findings/v1";

/// Analysis options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Analyze acquisitions on `presp-analyze: mutant` lines too. The
    /// committed deadlock mutants must then surface as findings.
    pub include_mutants: bool,
}

/// One finding, with `file:line` precision.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (`sync-facade`, `lock-order`, `lock-cycle`, …).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The full result of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// All findings in deterministic order.
    pub findings: Vec<Finding>,
    /// The statically derived lock graph (declared + observed edges all
    /// witnessed in source).
    pub graph: LockGraph,
    /// Per-rule-per-file scan count (pattern rules) plus the lock/hazard
    /// and unwrap pass file counts.
    pub files_scanned: usize,
}

impl Analysis {
    /// True when the sweep produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings as a machine-readable JSON document (bench-export
    /// style), including the derived lock graph.
    pub(crate) fn to_json(&self, opts: &Options) -> JsonValue {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                JsonValue::Object(vec![
                    ("rule".into(), JsonValue::String(f.rule.clone())),
                    ("file".into(), JsonValue::String(f.file.clone())),
                    ("line".into(), JsonValue::Number(f.line as f64)),
                    ("message".into(), JsonValue::String(f.message.clone())),
                ])
            })
            .collect();
        let edges = self
            .graph
            .edges()
            .map(|((outer, inner), site)| {
                JsonValue::Object(vec![
                    ("outer".into(), JsonValue::String(outer.clone())),
                    ("inner".into(), JsonValue::String(inner.clone())),
                    ("file".into(), JsonValue::String(site.file.clone())),
                    ("line".into(), JsonValue::Number(site.line as f64)),
                    (
                        "via".into(),
                        JsonValue::Array(
                            site.chain
                                .iter()
                                .map(|c| JsonValue::String(c.clone()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("schema".into(), JsonValue::String(FINDINGS_SCHEMA.into())),
            (
                "files_scanned".into(),
                JsonValue::Number(self.files_scanned as f64),
            ),
            (
                "include_mutants".into(),
                JsonValue::Bool(opts.include_mutants),
            ),
            ("findings".into(), JsonValue::Array(findings)),
            (
                "lock_graph".into(),
                JsonValue::Object(vec![("edges".into(), JsonValue::Array(edges))]),
            ),
        ])
    }
}

/// Recursively collects `.rs` files under `path` (or `path` itself when it
/// is a file), sorted for determinism.
fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Cached per-file lex plus the line sets the passes need.
struct FileData {
    lexed: LexedFile,
    /// Token-index ranges of `#[cfg(test)] mod` regions.
    test_ranges: Vec<(usize, usize)>,
    /// 1-based lines inside `#[cfg(test)] mod` regions.
    test_lines: BTreeSet<usize>,
    /// Lines carrying an explicit allow marker.
    allow_lines: BTreeSet<usize>,
    /// Lines carrying a `presp-analyze: mutant` marker.
    mutant_lines: BTreeSet<usize>,
}

struct Workspace<'a> {
    root: &'a Path,
    cache: BTreeMap<PathBuf, FileData>,
}

impl<'a> Workspace<'a> {
    fn load(&mut self, path: &Path) -> Option<&FileData> {
        if !self.cache.contains_key(path) {
            let source = std::fs::read_to_string(path).ok()?;
            let lexed = lexer::lex(&source);
            let test_ranges = lexer::cfg_test_mod_ranges(&lexed.tokens);
            let test_lines = lexer::lines_of_ranges(&lexed.tokens, &test_ranges);
            let mut allow_lines = BTreeSet::new();
            let mut mutant_lines = BTreeSet::new();
            for (idx, raw) in source.lines().enumerate() {
                if raw.contains("presp-analyze: allow") {
                    allow_lines.insert(idx + 1);
                }
                if raw.contains("presp-analyze: mutant") {
                    mutant_lines.insert(idx + 1);
                }
            }
            self.cache.insert(
                path.to_path_buf(),
                FileData {
                    lexed,
                    test_ranges,
                    test_lines,
                    allow_lines,
                    mutant_lines,
                },
            );
        }
        self.cache.get(path)
    }

    fn rel(&self, path: &Path) -> String {
        path.strip_prefix(self.root)
            .unwrap_or(path)
            .display()
            .to_string()
    }
}

/// Run the full analysis of the tree at `root` under `manifest`.
pub fn analyze(root: &Path, manifest: &Manifest, opts: &Options) -> Analysis {
    let mut ws = Workspace {
        root,
        cache: BTreeMap::new(),
    };
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;

    // -- pass 1: pattern rules ------------------------------------------
    for rule in &manifest.pattern_rules {
        for dir in &rule.roots {
            let mut files = Vec::new();
            rust_files(&root.join(dir), &mut files);
            for file in files {
                let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if rule.exempt_files.iter().any(|e| e == name) {
                    continue;
                }
                files_scanned += 1;
                let rel = ws.rel(&file);
                let Some(data) = ws.load(&file) else {
                    continue;
                };
                for (idx, line) in data.lexed.blanked_lines().iter().enumerate() {
                    let lineno = idx + 1;
                    if data.test_lines.contains(&lineno) || data.allow_lines.contains(&lineno) {
                        continue;
                    }
                    for pattern in &rule.forbidden {
                        if line.contains(pattern.as_str()) {
                            findings.push(Finding {
                                rule: rule.name.clone(),
                                file: rel.clone(),
                                line: lineno,
                                message: format!("forbidden `{pattern}` — {}", rule.why),
                            });
                        }
                    }
                }
            }
        }
    }

    // -- pass 2: lock-order + held-guard hazards ------------------------
    let spec = &manifest.lock_order;
    let mut lock_files = Vec::new();
    for dir in &spec.roots {
        rust_files(&root.join(dir), &mut lock_files);
    }
    lock_files.sort();
    lock_files.dedup();

    // Label discovery over the whole scope, then manifest aliases on top.
    let mut labels: BTreeMap<String, String> = BTreeMap::new();
    for file in &lock_files {
        let rel = ws.rel(file);
        let Some(data) = ws.load(file) else { continue };
        let (found, conflicts) = guards::discover_labels(&data.lexed.tokens);
        for (name, line) in conflicts {
            if !spec.aliases.contains_key(&name) {
                findings.push(Finding {
                    rule: "ambiguous-lock-label".into(),
                    file: rel.clone(),
                    line,
                    message: format!(
                        "binding `{name}` is labeled inconsistently across \
                         `mutex_labeled` sites; add a lock_order alias"
                    ),
                });
            }
        }
        for (name, label) in found {
            labels.entry(name).or_insert(label);
        }
    }
    for (name, label) in &spec.aliases {
        labels.insert(name.clone(), label.clone());
    }

    let hazard_roots: BTreeSet<PathBuf> = {
        let mut set = BTreeSet::new();
        for dir in &manifest.hazards.guard_roots {
            let mut fs = Vec::new();
            rust_files(&root.join(dir), &mut fs);
            set.extend(fs);
        }
        set
    };

    let mut scans: Vec<(PathBuf, FileScan)> = Vec::new();
    for file in &lock_files {
        files_scanned += 1;
        let rel = ws.rel(file);
        let Some(data) = ws.load(file) else { continue };
        let mut skip: BTreeSet<usize> = data.allow_lines.clone();
        if !opts.include_mutants {
            skip.extend(data.mutant_lines.iter().copied());
        }
        let ctx = ScanContext {
            facades: &spec.facades,
            labels: &labels,
            skip_lines: &skip,
            excluded: &data.test_ranges,
        };
        let scan = guards::scan_file(&data.lexed.tokens, &ctx);
        if hazard_roots.contains(file) {
            for hz in &scan.hazards {
                findings.push(Finding {
                    rule: hz.rule.clone(),
                    file: rel.clone(),
                    line: hz.line,
                    message: hz.message.clone(),
                });
            }
        }
        scans.push((file.clone(), scan));
    }
    // Hazard-only files not already covered by the lock scope.
    for file in &hazard_roots {
        if lock_files.contains(file) {
            continue;
        }
        files_scanned += 1;
        let rel = ws.rel(file);
        let Some(data) = ws.load(file) else { continue };
        let mut skip: BTreeSet<usize> = data.allow_lines.clone();
        if !opts.include_mutants {
            skip.extend(data.mutant_lines.iter().copied());
        }
        let ctx = ScanContext {
            facades: &spec.facades,
            labels: &labels,
            skip_lines: &skip,
            excluded: &data.test_ranges,
        };
        let scan = guards::scan_file(&data.lexed.tokens, &ctx);
        for hz in &scan.hazards {
            findings.push(Finding {
                rule: hz.rule.clone(),
                file: rel.clone(),
                line: hz.line,
                message: hz.message.clone(),
            });
        }
        scans.push((file.clone(), scan));
    }

    // Build the graph: direct edges, then one level of call propagation
    // through callees whose bare name is unique in the scope.
    let mut graph = LockGraph::new();
    let mut fn_table: BTreeMap<String, (usize, Vec<String>)> = BTreeMap::new();
    for (_, scan) in &scans {
        for f in &scan.functions {
            let entry = fn_table
                .entry(f.name.clone())
                .or_insert_with(|| (0, Vec::new()));
            entry.0 += 1;
            entry.1.extend(f.acquired.iter().cloned());
        }
    }
    for (file, scan) in &scans {
        let rel = ws.rel(file);
        for f in &scan.functions {
            for (outer, inner, line) in &f.edges {
                graph.add_edge(
                    outer,
                    inner,
                    EdgeSite {
                        file: rel.clone(),
                        line: *line,
                        chain: vec![f.name.clone()],
                    },
                );
            }
            for call in &f.calls {
                let Some((count, acquired)) = fn_table.get(&call.callee) else {
                    continue;
                };
                if *count != 1 || acquired.is_empty() {
                    continue;
                }
                for held in &call.held {
                    for acq in acquired {
                        graph.add_edge(
                            held,
                            acq,
                            EdgeSite {
                                file: rel.clone(),
                                line: call.line,
                                chain: vec![f.name.clone(), call.callee.clone()],
                            },
                        );
                    }
                }
            }
        }
    }

    // Diff against the declared DAG.
    let declared: BTreeSet<(String, String)> = spec.edges.iter().cloned().collect();
    for ((outer, inner), site) in graph.edges() {
        if !declared.contains(&(outer.clone(), inner.clone())) {
            findings.push(Finding {
                rule: "lock-order".into(),
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "undeclared lock-order edge `{outer} -> {inner}`: {}",
                    site.describe(outer, inner)
                ),
            });
        }
    }
    for cycle in graph.cycles() {
        let mut sites = Vec::new();
        for outer in &cycle {
            for inner in &cycle {
                if let Some(site) = graph.site(outer, inner) {
                    sites.push(format!(
                        "{} at {}:{}",
                        site.describe(outer, inner),
                        site.file,
                        site.line
                    ));
                }
            }
        }
        let anchor = cycle
            .iter()
            .flat_map(|o| cycle.iter().filter_map(|i| graph.site(o, i)))
            .next();
        findings.push(Finding {
            rule: "lock-cycle".into(),
            file: anchor.map(|s| s.file.clone()).unwrap_or_default(),
            line: anchor.map(|s| s.line).unwrap_or_default(),
            message: format!(
                "potential deadlock cycle among {{{}}}: {}",
                cycle.join(", "),
                sites.join("; ")
            ),
        });
    }

    // -- pass 3: unwrap-on-lock outside the poison doorways -------------
    for dir in &manifest.hazards.unwrap_roots {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        for file in files {
            let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if manifest.hazards.unwrap_doorways.iter().any(|d| d == name) {
                continue;
            }
            files_scanned += 1;
            let rel = ws.rel(&file);
            let Some(data) = ws.load(&file) else { continue };
            for line in guards::scan_unwrap_on_lock(
                &data.lexed.tokens,
                &data.test_ranges,
                &data.allow_lines,
            ) {
                findings.push(Finding {
                    rule: "unwrap-on-lock".into(),
                    file: rel.clone(),
                    line,
                    message: "lock result unwrapped outside a poison-recovering \
                              doorway; use the facade's lock/lock_recover"
                        .into(),
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Analysis {
        findings,
        graph,
        files_scanned,
    }
}

/// Walk up from `start` to the workspace root (the directory containing
/// `analyze.json`, falling back to the one containing `crates/`).
pub(crate) fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("analyze.json").is_file() || dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// CLI driver for `presp-analyze`; `tool` names it in messages.
/// Returns the process exit code (0 clean, 1 findings, 2 usage/IO error).
pub fn run_cli(tool: &str, args: &[String]) -> i32 {
    let mut opts = Options::default();
    let mut json_out: Option<Option<PathBuf>> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--mutants" => opts.include_mutants = true,
            "--json" => {
                let file = args
                    .get(i + 1)
                    .filter(|a| !a.starts_with("--"))
                    .map(PathBuf::from);
                if file.is_some() {
                    i += 1;
                }
                json_out = Some(file);
            }
            "--manifest" => {
                i += 1;
                match args.get(i) {
                    Some(p) => manifest_path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("{tool}: --manifest requires a path");
                        return 2;
                    }
                }
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root_arg = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("{tool}: --root requires a path");
                        return 2;
                    }
                }
            }
            other => {
                eprintln!(
                    "{tool}: unknown argument `{other}` \
                     (usage: {tool} [--json [FILE]] [--mutants] [--manifest FILE] [--root DIR])"
                );
                return 2;
            }
        }
        i += 1;
    }

    let root =
        match root_arg.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
            Some(r) => r,
            None => {
                eprintln!("{tool}: workspace root (containing analyze.json or crates/) not found");
                return 2;
            }
        };
    let manifest_file = manifest_path.unwrap_or_else(|| root.join("analyze.json"));
    let manifest = match Manifest::load(&manifest_file) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{tool}: {e}");
            return 2;
        }
    };

    let analysis = analyze(&root, &manifest, &opts);
    if let Some(dest) = &json_out {
        let doc = analysis.to_json(&opts).pretty() + "\n";
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &doc) {
                    eprintln!("{tool}: cannot write {}: {e}", path.display());
                    return 2;
                }
                eprintln!("{tool}: findings written to {}", path.display());
            }
            None => print!("{doc}"),
        }
    }
    if analysis.is_clean() {
        eprintln!("{tool}: {} files clean", analysis.files_scanned);
        0
    } else {
        for finding in &analysis.findings {
            eprintln!("{finding}");
        }
        eprintln!(
            "{tool}: {} finding(s) in {} files",
            analysis.findings.len(),
            analysis.files_scanned
        );
        1
    }
}
