//! The declarative rule manifest (`analyze.json`).
//!
//! Everything the analyzer enforces is data: the doorway/discipline
//! pattern rules that used to be hard-coded in `presp-lint`, the declared
//! lock-order DAG the static graph is diffed against, and the scopes of
//! the held-guard hazard passes.

use presp_events::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag expected at the top of `analyze.json`.
pub(crate) const MANIFEST_SCHEMA: &str = "presp-analyze/v1";

/// One line-oriented forbidden-pattern rule (the old `presp-lint` rules,
/// now data). Patterns are matched against blanked source lines, so
/// strings and comments can never trigger a rule.
#[derive(Debug, Clone)]
pub struct PatternRule {
    /// Rule name used in findings and JSON output.
    pub name: String,
    /// Directories (or single files) to scan, relative to the root.
    pub roots: Vec<String>,
    /// File names exempt from this rule (the doorway implementations).
    pub exempt_files: Vec<String>,
    /// Substrings that must not appear outside tests/doorways.
    pub forbidden: Vec<String>,
    /// Human rationale, echoed in findings.
    pub why: String,
}

/// Configuration of the static lock-order pass.
#[derive(Debug, Clone, Default)]
pub struct LockOrderSpec {
    /// Subtrees whose functions are analyzed for lock acquisitions.
    pub roots: Vec<String>,
    /// Facade type idents through which locks are taken (e.g. `S`).
    pub facades: Vec<String>,
    /// Extra binding-name → label aliases where discovery is ambiguous.
    pub aliases: BTreeMap<String, String>,
    /// The declared DAG: `(outer, inner)` pairs that are allowed.
    pub edges: Vec<(String, String)>,
}

/// Configuration of the held-guard hazard pass.
#[derive(Debug, Clone, Default)]
pub struct HazardSpec {
    /// Subtrees scanned for send/recv/wait-while-locked hazards.
    pub guard_roots: Vec<String>,
    /// Subtrees scanned for `.lock().unwrap()` outside doorways.
    pub unwrap_roots: Vec<String>,
    /// File names allowed to unwrap/expect lock results (poison doorways).
    pub unwrap_doorways: Vec<String>,
}

/// The full parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Pattern rules (doorway and discipline checks).
    pub pattern_rules: Vec<PatternRule>,
    /// Lock-order pass configuration.
    pub lock_order: LockOrderSpec,
    /// Hazard pass configuration.
    pub hazards: HazardSpec,
}

fn str_list(v: &JsonValue, what: &str) -> Result<Vec<String>, String> {
    let items = v
        .as_array()
        .ok_or_else(|| format!("{what} must be an array of strings"))?;
    items
        .iter()
        .map(|it| {
            it.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{what} entries must be strings"))
        })
        .collect()
}

fn require<'v>(obj: &'v JsonValue, key: &str, what: &str) -> Result<&'v JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what} is missing required key `{key}`"))
}

impl Manifest {
    /// Parse a manifest from JSON text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let schema = require(&doc, "schema", "manifest")?
            .as_str()
            .ok_or("manifest `schema` must be a string")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "manifest schema `{schema}` unsupported (expected `{MANIFEST_SCHEMA}`)"
            ));
        }

        let mut pattern_rules = Vec::new();
        if let Some(rules) = doc.get("pattern_rules") {
            for rule in rules.as_array().ok_or("`pattern_rules` must be an array")? {
                let name = require(rule, "name", "pattern rule")?
                    .as_str()
                    .ok_or("pattern rule `name` must be a string")?
                    .to_string();
                let what = format!("pattern rule `{name}`");
                pattern_rules.push(PatternRule {
                    roots: str_list(require(rule, "roots", &what)?, &format!("{what} roots"))?,
                    exempt_files: match rule.get("exempt_files") {
                        Some(v) => str_list(v, &format!("{what} exempt_files"))?,
                        None => Vec::new(),
                    },
                    forbidden: str_list(
                        require(rule, "forbidden", &what)?,
                        &format!("{what} forbidden"),
                    )?,
                    why: require(rule, "why", &what)?
                        .as_str()
                        .ok_or("pattern rule `why` must be a string")?
                        .to_string(),
                    name,
                });
            }
        }

        let mut lock_order = LockOrderSpec {
            facades: vec!["S".to_string()],
            ..LockOrderSpec::default()
        };
        if let Some(lo) = doc.get("lock_order") {
            lock_order.roots = str_list(require(lo, "roots", "lock_order")?, "lock_order roots")?;
            lock_order.facades = match lo.get("facades") {
                Some(v) => str_list(v, "lock_order facades")?,
                None => vec!["S".to_string()],
            };
            if let Some(aliases) = lo.get("aliases") {
                match aliases {
                    JsonValue::Object(fields) => {
                        for (k, v) in fields {
                            let label = v
                                .as_str()
                                .ok_or("lock_order alias values must be strings")?;
                            lock_order.aliases.insert(k.clone(), label.to_string());
                        }
                    }
                    _ => return Err("lock_order `aliases` must be an object".into()),
                }
            }
            for pair in require(lo, "edges", "lock_order")?
                .as_array()
                .ok_or("lock_order `edges` must be an array")?
            {
                let pair = pair
                    .as_array()
                    .ok_or("lock_order edges must be [outer, inner] pairs")?;
                if pair.len() != 2 {
                    return Err("lock_order edges must be [outer, inner] pairs".into());
                }
                let outer = pair[0]
                    .as_str()
                    .ok_or("lock_order edge endpoints must be strings")?;
                let inner = pair[1]
                    .as_str()
                    .ok_or("lock_order edge endpoints must be strings")?;
                lock_order
                    .edges
                    .push((outer.to_string(), inner.to_string()));
            }
        }

        let mut hazards = HazardSpec::default();
        if let Some(hz) = doc.get("hazards") {
            hazards.guard_roots = match hz.get("guard_roots") {
                Some(v) => str_list(v, "hazards guard_roots")?,
                None => Vec::new(),
            };
            hazards.unwrap_roots = match hz.get("unwrap_roots") {
                Some(v) => str_list(v, "hazards unwrap_roots")?,
                None => Vec::new(),
            };
            hazards.unwrap_doorways = match hz.get("unwrap_doorways") {
                Some(v) => str_list(v, "hazards unwrap_doorways")?,
                None => Vec::new(),
            };
        }

        let manifest = Manifest {
            pattern_rules,
            lock_order,
            hazards,
        };
        manifest.check_declared_dag()?;
        Ok(manifest)
    }

    /// Load a manifest from a file on disk.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Manifest::parse(&text)
    }

    /// The declared edge set must itself be acyclic — otherwise "matches
    /// the declared DAG" is meaningless.
    fn check_declared_dag(&self) -> Result<(), String> {
        let mut graph = crate::graph::LockGraph::new();
        for (outer, inner) in &self.lock_order.edges {
            graph.add_edge(outer, inner, crate::graph::EdgeSite::default());
        }
        let cycles = graph.cycles();
        if cycles.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "declared lock-order edges contain a cycle: {}",
                cycles[0].join(" -> ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_manifest() {
        let m = Manifest::parse(
            r#"{
  "schema": "presp-analyze/v1",
  "pattern_rules": [
    {"name": "r", "roots": ["src"], "forbidden": ["std::sync"], "why": "w"}
  ],
  "lock_order": {
    "roots": ["src"],
    "aliases": {"worker_stats": "scrub_stats"},
    "edges": [["a", "b"]]
  },
  "hazards": {"guard_roots": ["src"], "unwrap_roots": ["src"], "unwrap_doorways": ["f.rs"]}
}"#,
        )
        .unwrap();
        assert_eq!(m.pattern_rules.len(), 1);
        assert_eq!(m.lock_order.edges, vec![("a".into(), "b".into())]);
        assert_eq!(m.lock_order.facades, vec!["S".to_string()]);
        assert_eq!(m.lock_order.aliases["worker_stats"], "scrub_stats");
        assert_eq!(m.hazards.unwrap_doorways, vec!["f.rs".to_string()]);
    }

    #[test]
    fn rejects_cyclic_declared_edges() {
        let err = Manifest::parse(
            r#"{
  "schema": "presp-analyze/v1",
  "lock_order": {"roots": [], "edges": [["a", "b"], ["b", "a"]]}
}"#,
        )
        .unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(Manifest::parse(r#"{"schema": "nope/v0"}"#).is_err());
    }
}
