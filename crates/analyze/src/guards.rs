//! The guard-scope tracker: a per-function walk over the token stream
//! that models which facade lock guards are live at each point.
//!
//! The model is deliberately lexical — guards bound by `let` die at the
//! close of their enclosing block or at an explicit `drop(name)`;
//! temporary guards (a lock result immediately method-chained or used in
//! expression position) die at the end of their statement. That is enough
//! to witness every nested acquisition in this workspace, and the
//! dynamic-graph cross-check (static ⊇ dynamic) keeps the approximation
//! honest.

use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// A call made while at least one guard is live (propagation candidate).
#[derive(Debug, Clone)]
pub(crate) struct HeldCall {
    /// Bare callee identifier.
    pub callee: String,
    /// 1-based call line.
    pub line: usize,
    /// Labels of the guards live at the call.
    pub held: Vec<String>,
}

/// A held-guard hazard observed during the walk.
#[derive(Debug, Clone)]
pub(crate) struct Hazard {
    /// Hazard rule name (`send-while-locked`, `wait-wrong-lock`).
    pub rule: String,
    /// 1-based source line.
    pub line: usize,
    /// Human description including the held labels.
    pub message: String,
}

/// Everything the walk learned about one function.
#[derive(Debug, Clone, Default)]
pub(crate) struct FnScan {
    /// Bare function name.
    pub name: String,
    /// `(outer, inner, line)` — `inner` acquired while `outer` was live.
    pub edges: Vec<(String, String, usize)>,
    /// The resolved label (declared name, alias, or raw binding ident)
    /// of every acquisition in the body, for one-level call propagation.
    pub acquired: Vec<String>,
    /// Calls made while guards were live.
    pub calls: Vec<HeldCall>,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub(crate) struct FileScan {
    /// Per-function results, in source order.
    pub functions: Vec<FnScan>,
    /// Held-guard hazards.
    pub hazards: Vec<Hazard>,
}

/// Inputs shared by the walks over one file.
pub(crate) struct ScanContext<'a> {
    /// Facade type idents (`S`) through which locks are acquired.
    pub facades: &'a [String],
    /// Binding/field name → declared lock label.
    pub labels: &'a BTreeMap<String, String>,
    /// Lines whose acquisitions are skipped (mutant markers, allow markers).
    pub skip_lines: &'a BTreeSet<usize>,
    /// Token-index ranges of `#[cfg(test)] mod` regions.
    pub excluded: &'a [(usize, usize)],
}

fn in_excluded(excluded: &[(usize, usize)], i: usize) -> Option<usize> {
    excluded
        .iter()
        .find(|&&(a, b)| i >= a && i <= b)
        .map(|&(_, b)| b)
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "move", "unsafe", "in",
    "as", "break", "continue", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static",
];

#[derive(Debug)]
struct Guard {
    label: String,
    names: Vec<String>,
    depth: usize,
    temp: bool,
}

/// Scan one file: find every function body and walk it.
pub(crate) fn scan_file(tokens: &[Token], ctx: &ScanContext<'_>) -> FileScan {
    let mut out = FileScan::default();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(end) = in_excluded(ctx.excluded, i) {
            i = end + 1;
            continue;
        }
        if tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            let name = tokens[i + 1].text.clone();
            // Find the parameter list, then the body `{` (or `;` for a
            // bodiless trait method).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct("(") {
                j += 1;
            }
            let mut depth = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct("(") {
                    depth += 1;
                } else if tokens[j].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                j += 1;
            }
            if j >= tokens.len() || tokens[j].is_punct(";") {
                i = j.min(tokens.len() - 1) + 1;
                continue;
            }
            let (scan, end) = walk_body(tokens, j, name, ctx, &mut out.hazards);
            out.functions.push(scan);
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Match `facade :: method (` at index `i`; returns the method name.
fn facade_call<'t>(tokens: &'t [Token], i: usize, facades: &[String]) -> Option<&'t str> {
    let t = tokens.get(i)?;
    if t.kind != TokenKind::Ident || !facades.iter().any(|f| f == &t.text) {
        return None;
    }
    if !tokens.get(i + 1)?.is_punct("::") {
        return None;
    }
    let method = tokens.get(i + 2)?;
    if method.kind != TokenKind::Ident || !tokens.get(i + 3)?.is_punct("(") {
        return None;
    }
    Some(&method.text)
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < tokens.len() {
        if tokens[k].is_punct("(") {
            depth += 1;
        } else if tokens[k].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    tokens.len() - 1
}

/// The last identifier of the (possibly `&`/`mut`-prefixed, dotted or
/// `::`-separated) lock argument path: `&self.shared.core` → `core`.
fn lock_arg_base(tokens: &[Token], open: usize, close: usize) -> Option<String> {
    let mut base = None;
    for t in &tokens[open + 1..close] {
        match t.kind {
            TokenKind::Ident if t.text != "mut" => base = Some(t.text.clone()),
            TokenKind::Punct if t.text == "," => break,
            _ => {}
        }
    }
    base
}

fn walk_body(
    tokens: &[Token],
    open: usize,
    name: String,
    ctx: &ScanContext<'_>,
    hazards: &mut Vec<Hazard>,
) -> (FnScan, usize) {
    let mut scan = FnScan {
        name,
        ..FnScan::default()
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 1usize;
    // `let` binding state: Some(names) while collecting or bound.
    let mut binding: Option<Vec<String>> = None;
    let mut collecting = false;
    let mut i = open + 1;
    while i < tokens.len() {
        if let Some(end) = in_excluded(ctx.excluded, i) {
            i = end + 1;
            continue;
        }
        let t = &tokens[i];
        if collecting {
            match t.kind {
                TokenKind::Ident if t.text != "mut" && t.text != "ref" => {
                    if let Some(names) = binding.as_mut() {
                        names.push(t.text.clone());
                    }
                }
                TokenKind::Punct if t.text == "=" => collecting = false,
                TokenKind::Punct if t.text == ";" => {
                    collecting = false;
                    binding = None;
                }
                _ => {}
            }
        }
        if t.is_ident("let") {
            binding = Some(Vec::new());
            collecting = true;
            i += 1;
            continue;
        }
        if let Some(method) = facade_call(tokens, i, ctx.facades) {
            let line = t.line;
            let close = matching_paren(tokens, i + 3);
            match method {
                "lock" | "lock_recover" => {
                    if !ctx.skip_lines.contains(&line) {
                        let base = lock_arg_base(tokens, i + 3, close)
                            .unwrap_or_else(|| "<unknown>".to_string());
                        let label = ctx.labels.get(&base).cloned().unwrap_or(base);
                        for g in &guards {
                            scan.edges.push((g.label.clone(), label.clone(), line));
                        }
                        scan.acquired.push(label.clone());
                        let temp = tokens.get(close + 1).is_some_and(|n| n.is_punct("."));
                        let names = if temp {
                            Vec::new()
                        } else {
                            binding.clone().unwrap_or_default()
                        };
                        guards.push(Guard {
                            label,
                            names,
                            depth,
                            temp: temp || binding.is_none(),
                        });
                    }
                    i = close + 1;
                    continue;
                }
                "wait" | "wait_timeout" => {
                    // The guard is consumed and handed back: held set is
                    // unchanged. Waiting while a *different* lock is also
                    // held is the hazard.
                    if guards.len() >= 2 && !ctx.skip_lines.contains(&line) {
                        let held: Vec<&str> = guards.iter().map(|g| g.label.as_str()).collect();
                        hazards.push(Hazard {
                            rule: "wait-wrong-lock".to_string(),
                            line,
                            message: format!(
                                "condvar wait with multiple guards live ({}): the \
                                 non-condvar lock stays held for the whole wait",
                                held.join(", ")
                            ),
                        });
                    }
                    i = close + 1;
                    continue;
                }
                "send" | "recv" => {
                    if !guards.is_empty() && !ctx.skip_lines.contains(&line) {
                        let held: Vec<&str> = guards.iter().map(|g| g.label.as_str()).collect();
                        hazards.push(Hazard {
                            rule: "send-while-locked".to_string(),
                            line,
                            message: format!(
                                "channel {method} while holding {}: blocks (or makes \
                                 the peer block) inside a critical section",
                                held.join(", ")
                            ),
                        });
                    }
                    i = close + 1;
                    continue;
                }
                _ => {
                    // Other facade calls (spawn, notify, channel…) neither
                    // create guards nor hazard; fall through to generic
                    // call handling below so held calls still register.
                }
            }
        }
        match t.kind {
            TokenKind::Punct if t.text == "{" => depth += 1,
            TokenKind::Punct if t.text == "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                if depth == 0 {
                    return (scan, i);
                }
            }
            TokenKind::Punct if t.text == ";" => {
                let d = depth;
                guards.retain(|g| !(g.temp && g.depth == d));
                binding = None;
                collecting = false;
            }
            TokenKind::Ident
                if t.text == "drop" && tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                if let Some(arg) = tokens.get(i + 2).filter(|a| a.kind == TokenKind::Ident) {
                    guards.retain(|g| !g.names.iter().any(|n| n == &arg.text));
                }
            }
            // Generic call site: `ident (` with guards live.
            TokenKind::Ident
                if !guards.is_empty()
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && !KEYWORDS.contains(&t.text.as_str()) =>
            {
                scan.calls.push(HeldCall {
                    callee: t.text.clone(),
                    line: t.line,
                    held: guards.iter().map(|g| g.label.clone()).collect(),
                });
            }
            _ => {}
        }
        i += 1;
    }
    (scan, tokens.len() - 1)
}

/// The `.lock().unwrap()` / `.lock().expect(` pass: raw lock results must
/// only be unwrapped inside the designated poison-recovery doorways.
pub(crate) fn scan_unwrap_on_lock(
    tokens: &[Token],
    excluded: &[(usize, usize)],
    skip_lines: &BTreeSet<usize>,
) -> Vec<usize> {
    let mut lines = Vec::new();
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        if let Some(end) = in_excluded(excluded, i) {
            i = end + 1;
            continue;
        }
        if tokens[i].is_ident("lock")
            && tokens[i + 1].is_punct("(")
            && tokens[i + 2].is_punct(")")
            && tokens[i + 3].is_punct(".")
            && (tokens[i + 4].is_ident("unwrap") || tokens[i + 4].is_ident("expect"))
            && !skip_lines.contains(&tokens[i + 4].line)
            && !skip_lines.contains(&tokens[i].line)
        {
            lines.push(tokens[i].line);
            i += 5;
            continue;
        }
        i += 1;
    }
    lines
}

/// Discover `name → label` bindings from `mutex_labeled("label", …)`
/// sites: the identifier just before the nearest preceding `:` (struct
/// field) or `=` (let binding) names the lock.
///
/// Returns the map plus any conflicting rebinds (same name, two labels) —
/// those must be resolved via manifest aliases.
pub(crate) fn discover_labels(
    tokens: &[Token],
) -> (BTreeMap<String, String>, Vec<(String, usize)>) {
    let mut labels = BTreeMap::new();
    let mut conflicts = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("mutex_labeled") && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))) {
            continue;
        }
        let Some(label_tok) = tokens.get(i + 2) else {
            continue;
        };
        if label_tok.kind != TokenKind::Str {
            continue;
        }
        // Walk back over the call prefix (`Arc :: new ( S ::` …) to the
        // binding punctuation.
        let mut k = i;
        let mut name = None;
        while k > 0 {
            k -= 1;
            let b = &tokens[k];
            match b.kind {
                TokenKind::Ident => {}
                TokenKind::Punct if b.text == "::" || b.text == "(" || b.text == "&" => {}
                TokenKind::Punct if b.text == ":" || b.text == "=" => {
                    // The nearest identifier before the binder names it.
                    let mut m = k;
                    while m > 0 {
                        m -= 1;
                        if tokens[m].kind == TokenKind::Ident {
                            name = Some(tokens[m].text.clone());
                            break;
                        }
                        if matches!(tokens[m].kind, TokenKind::Punct)
                            && !matches!(tokens[m].text.as_str(), "&" | "(")
                        {
                            break;
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
        if let Some(name) = name {
            let label = label_tok.text.clone();
            match labels.get(&name) {
                Some(existing) if existing != &label => {
                    conflicts.push((name.clone(), t.line));
                }
                _ => {
                    labels.insert(name, label);
                }
            }
        }
    }
    (labels, conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx<'a>(labels: &'a BTreeMap<String, String>, skip: &'a BTreeSet<usize>) -> ScanContext<'a> {
        static FACADES: &[String] = &[];
        let _ = FACADES;
        ScanContext {
            facades: Box::leak(Box::new(vec!["S".to_string()])),
            labels,
            skip_lines: skip,
            excluded: &[],
        }
    }

    #[test]
    fn nested_acquisition_yields_edge() {
        let lexed = lex("fn f(s: &Shared) {\n    let a = S::lock(&s.alpha);\n    let b = S::lock(&s.beta);\n}\n");
        let labels = BTreeMap::new();
        let skip = BTreeSet::new();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        assert_eq!(scan.functions.len(), 1);
        assert_eq!(
            scan.functions[0].edges,
            vec![("alpha".to_string(), "beta".to_string(), 3)]
        );
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let lexed = lex(
            "fn f(s: &Shared) {\n    let at = S::lock(&s.alpha).horizon();\n    let b = S::lock(&s.beta);\n}\n",
        );
        let labels = BTreeMap::new();
        let skip = BTreeSet::new();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        assert!(
            scan.functions[0].edges.is_empty(),
            "{:?}",
            scan.functions[0].edges
        );
    }

    #[test]
    fn drop_releases_named_guard() {
        let lexed = lex(
            "fn f(s: &Shared) {\n    let a = S::lock(&s.alpha);\n    drop(a);\n    let b = S::lock(&s.beta);\n}\n",
        );
        let labels = BTreeMap::new();
        let skip = BTreeSet::new();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        assert!(scan.functions[0].edges.is_empty());
    }

    #[test]
    fn block_close_releases_guard() {
        let lexed = lex(
            "fn f(s: &Shared) {\n    let x = {\n        let a = S::lock(&s.alpha);\n        a.val()\n    };\n    let b = S::lock(&s.beta);\n}\n",
        );
        let labels = BTreeMap::new();
        let skip = BTreeSet::new();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        assert!(scan.functions[0].edges.is_empty());
    }

    #[test]
    fn skip_lines_suppress_acquisitions() {
        let lexed = lex(
            "fn f(s: &Shared) {\n    let b = S::lock(&s.beta);\n    let a = S::lock(&s.alpha);\n}\n",
        );
        let labels = BTreeMap::new();
        let skip: BTreeSet<usize> = [2usize, 3].into_iter().collect();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        assert!(scan.functions[0].edges.is_empty());
        assert!(scan.functions[0].acquired.is_empty());
    }

    #[test]
    fn held_call_is_recorded() {
        let lexed =
            lex("fn f(s: &Shared) {\n    let a = S::lock(&s.alpha);\n    helper(&mut a);\n}\n");
        let labels = BTreeMap::new();
        let skip = BTreeSet::new();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        let calls = &scan.functions[0].calls;
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].callee, "helper");
        assert_eq!(calls[0].held, vec!["alpha".to_string()]);
    }

    #[test]
    fn send_while_locked_is_a_hazard() {
        let lexed = lex(
            "fn f(s: &Shared) {\n    let a = S::lock(&s.alpha);\n    let _ = S::send(&s.tx, 1);\n}\n",
        );
        let labels = BTreeMap::new();
        let skip = BTreeSet::new();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        assert_eq!(scan.hazards.len(), 1);
        assert_eq!(scan.hazards[0].rule, "send-while-locked");
        assert_eq!(scan.hazards[0].line, 3);
    }

    #[test]
    fn wait_with_single_guard_is_fine() {
        let lexed = lex(
            "fn f(s: &Shared) {\n    let mut a = S::lock(&s.alpha);\n    a = S::wait(&s.cv, a);\n}\n",
        );
        let labels = BTreeMap::new();
        let skip = BTreeSet::new();
        let scan = scan_file(&lexed.tokens, &ctx(&labels, &skip));
        assert!(scan.hazards.is_empty());
    }

    #[test]
    fn unwrap_on_lock_pass() {
        let lexed = lex("fn f(m: &M) -> u32 {\n    *m.inner.lock().unwrap()\n}\n");
        let lines = scan_unwrap_on_lock(&lexed.tokens, &[], &BTreeSet::new());
        assert_eq!(lines, vec![2]);
    }

    #[test]
    fn discover_field_and_let_labels() {
        let lexed = lex(
            "struct X { state: S::Mutex<u32> }\nfn b() {\n    let g = Shared { state: S::mutex_labeled(\"tile_state\", 0) };\n    let stats = Arc::new(S::mutex_labeled(\"scrub_stats\", 0));\n}\n",
        );
        let (labels, conflicts) = discover_labels(&lexed.tokens);
        assert_eq!(labels["state"], "tile_state");
        assert_eq!(labels["stats"], "scrub_stats");
        assert!(conflicts.is_empty());
    }
}
