//! A small comment/string/raw-string/char-literal-aware Rust lexer.
//!
//! The analyzer never needs a full grammar: every pass works on a flat token
//! stream with line numbers, plus a "blanked" copy of the source in which
//! comment bytes and literal contents are replaced by spaces. The blanked
//! copy is what the pattern rules match against, so a forbidden pattern
//! inside a string or a comment can never fire, and — crucially — a brace
//! inside a string can never desynchronize the `#[cfg(test)]` region
//! tracker (the bug the old substring scanner had).

/// Token classification. Deliberately coarse: the passes only ever care
/// about identifiers, string literals (for lock labels), and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident,
    /// String literal (plain, raw, byte); `text` holds the inner content.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime such as `'a`.
    Lifetime,
    /// Numeric literal.
    Num,
    /// Punctuation. Everything is a single character except `::`.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    /// Coarse classification.
    pub kind: TokenKind,
    /// Token text. For `Str` this is the *inner* content (no quotes).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: usize,
}

impl Token {
    /// True when the token is punctuation with exactly this text.
    pub(crate) fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }

    /// True when the token is an identifier with exactly this text.
    pub(crate) fn is_ident(&self, id: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == id
    }
}

/// The result of lexing one file: the token stream plus a blanked copy of
/// the source (comments and literal contents replaced by spaces, newlines
/// preserved) for line-oriented pattern matching.
#[derive(Debug)]
pub(crate) struct LexedFile {
    /// Flat token stream in source order.
    pub tokens: Vec<Token>,
    /// Source with comment/literal bytes blanked; same line structure.
    pub blanked: String,
}

impl LexedFile {
    /// The blanked source split into lines (1-based access via `line - 1`).
    pub(crate) fn blanked_lines(&self) -> Vec<&str> {
        self.blanked.lines().collect()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

struct Cursor<'a> {
    src: &'a [u8],
    i: usize,
    line: usize,
    blanked: Vec<u8>,
    tokens: Vec<Token>,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.i + ahead).copied()
    }

    /// Advance one byte, keeping it visible in the blanked copy.
    fn keep(&mut self) {
        if self.src[self.i] == b'\n' {
            self.line += 1;
        }
        self.blanked.push(self.src[self.i]);
        self.i += 1;
    }

    /// Advance one byte, blanking it (newlines stay so lines align).
    fn blank(&mut self) {
        let b = self.src[self.i];
        if b == b'\n' {
            self.line += 1;
            self.blanked.push(b'\n');
        } else {
            self.blanked.push(b' ');
        }
        self.i += 1;
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.tokens.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        while self.i < self.src.len() && self.src[self.i] != b'\n' {
            self.blank();
        }
    }

    fn block_comment(&mut self) {
        // Consume the opening `/*`; nested comments are tracked by depth.
        self.blank();
        self.blank();
        let mut depth = 1usize;
        while self.i < self.src.len() && depth > 0 {
            if self.src[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.blank();
                self.blank();
            } else if self.src[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.blank();
                self.blank();
            } else {
                self.blank();
            }
        }
    }

    /// Plain (escaped) string or char/byte literal. `quote` is `"` or `'`.
    fn escaped_literal(&mut self, quote: u8) -> String {
        let mut content = Vec::new();
        self.blank(); // opening quote
        while self.i < self.src.len() {
            let b = self.src[self.i];
            if b == b'\\' && self.i + 1 < self.src.len() {
                content.push(b);
                content.push(self.src[self.i + 1]);
                self.blank();
                self.blank();
            } else if b == quote {
                self.blank();
                break;
            } else {
                content.push(b);
                self.blank();
            }
        }
        String::from_utf8_lossy(&content).into_owned()
    }

    /// Raw string starting at the current `r` (with `hashes` many `#`).
    fn raw_string(&mut self, hashes: usize) -> String {
        self.blank(); // `r`
        for _ in 0..hashes {
            self.blank();
        }
        self.blank(); // opening quote
        let mut content = Vec::new();
        'outer: while self.i < self.src.len() {
            if self.src[self.i] == b'"' {
                // A closing quote must be followed by `hashes` many `#`.
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.blank(); // quote
                    for _ in 0..hashes {
                        self.blank();
                    }
                    break 'outer;
                }
            }
            content.push(self.src[self.i]);
            self.blank();
        }
        String::from_utf8_lossy(&content).into_owned()
    }
}

/// Count the `#` characters of a raw-string opener after offset `at`
/// (pointing at `r`). Returns `Some(hashes)` when a raw string starts here.
fn raw_string_hashes(src: &[u8], at: usize) -> Option<usize> {
    let mut k = at + 1;
    let mut hashes = 0usize;
    while src.get(k) == Some(&b'#') {
        hashes += 1;
        k += 1;
    }
    if src.get(k) == Some(&b'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Lex one file into tokens plus the blanked pattern-matching copy.
pub(crate) fn lex(source: &str) -> LexedFile {
    let mut c = Cursor {
        src: source.as_bytes(),
        i: 0,
        line: 1,
        blanked: Vec::with_capacity(source.len()),
        tokens: Vec::new(),
    };
    while c.i < c.src.len() {
        let b = c.src[c.i];
        let line = c.line;
        if b == b'/' && c.peek(1) == Some(b'/') {
            c.line_comment();
        } else if b == b'/' && c.peek(1) == Some(b'*') {
            c.block_comment();
        } else if b == b'"' {
            let content = c.escaped_literal(b'"');
            c.push(TokenKind::Str, content, line);
        } else if b == b'r' && raw_string_hashes(c.src, c.i).is_some() {
            let hashes = raw_string_hashes(c.src, c.i).unwrap();
            let content = c.raw_string(hashes);
            c.push(TokenKind::Str, content, line);
        } else if b == b'b' && c.peek(1) == Some(b'"') {
            c.blank(); // `b`
            let content = c.escaped_literal(b'"');
            c.push(TokenKind::Str, content, line);
        } else if b == b'b' && c.peek(1) == Some(b'\'') {
            c.blank(); // `b`
            let content = c.escaped_literal(b'\'');
            c.push(TokenKind::Char, content, line);
        } else if b == b'b'
            && c.peek(1) == Some(b'r')
            && raw_string_hashes(c.src, c.i + 1).is_some()
        {
            c.blank(); // `b`
            let hashes = raw_string_hashes(c.src, c.i).unwrap();
            let content = c.raw_string(hashes);
            c.push(TokenKind::Str, content, line);
        } else if b == b'r' && c.peek(1) == Some(b'#') && c.peek(2).is_some_and(is_ident_start) {
            // Raw identifier `r#ident` — strip the prefix.
            c.keep();
            c.keep();
            let mut id = Vec::new();
            while c.i < c.src.len() && is_ident_continue(c.src[c.i]) {
                id.push(c.src[c.i]);
                c.keep();
            }
            c.push(
                TokenKind::Ident,
                String::from_utf8_lossy(&id).into_owned(),
                line,
            );
        } else if b == b'\'' {
            // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`, `'('`).
            if c.peek(1) == Some(b'\\') {
                let content = c.escaped_literal(b'\'');
                c.push(TokenKind::Char, content, line);
            } else if c.peek(1).is_some_and(is_ident_start) {
                // Scan the identifier run; a trailing quote makes it a char.
                let mut k = c.i + 1;
                while c.src.get(k).copied().is_some_and(is_ident_continue) {
                    k += 1;
                }
                if c.src.get(k) == Some(&b'\'') {
                    let content = c.escaped_literal(b'\'');
                    c.push(TokenKind::Char, content, line);
                } else {
                    let mut id = Vec::new();
                    c.keep(); // `'`
                    while c.i < c.src.len() && is_ident_continue(c.src[c.i]) {
                        id.push(c.src[c.i]);
                        c.keep();
                    }
                    c.push(
                        TokenKind::Lifetime,
                        String::from_utf8_lossy(&id).into_owned(),
                        line,
                    );
                }
            } else {
                // `'('`-style char literal (or stray quote at EOF).
                let content = c.escaped_literal(b'\'');
                c.push(TokenKind::Char, content, line);
            }
        } else if is_ident_start(b) {
            let mut id = Vec::new();
            while c.i < c.src.len() && is_ident_continue(c.src[c.i]) {
                id.push(c.src[c.i]);
                c.keep();
            }
            c.push(
                TokenKind::Ident,
                String::from_utf8_lossy(&id).into_owned(),
                line,
            );
        } else if b.is_ascii_digit() {
            let mut num = Vec::new();
            while c.i < c.src.len()
                && (is_ident_continue(c.src[c.i])
                    || (c.src[c.i] == b'.' && c.peek(1).is_some_and(|n| n.is_ascii_digit())))
            {
                num.push(c.src[c.i]);
                c.keep();
            }
            c.push(
                TokenKind::Num,
                String::from_utf8_lossy(&num).into_owned(),
                line,
            );
        } else if b.is_ascii_whitespace() {
            c.keep();
        } else if b == b':' && c.peek(1) == Some(b':') {
            c.keep();
            c.keep();
            c.push(TokenKind::Punct, "::".to_string(), line);
        } else {
            c.keep();
            c.push(TokenKind::Punct, (b as char).to_string(), line);
        }
    }
    LexedFile {
        tokens: c.tokens,
        blanked: String::from_utf8_lossy(&c.blanked).into_owned(),
    }
}

/// Token-index ranges (inclusive) covered by `#[cfg(test)] mod … { … }`
/// regions. Brace depth is tracked on the *token* stream, so braces inside
/// strings or comments cannot desynchronize the tracker, and scanning
/// resumes after the module closes instead of abandoning the file.
pub(crate) fn cfg_test_mod_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(end) = cfg_test_mod_end(tokens, i) {
            ranges.push((i, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// When a `#[cfg(test)]`-attributed `mod` begins at token `i`, return the
/// index of its closing `}` (or the `;` of an out-of-line module).
fn cfg_test_mod_end(tokens: &[Token], i: usize) -> Option<usize> {
    let at = |k: usize| tokens.get(i + k);
    if !(at(0)?.is_punct("#")
        && at(1)?.is_punct("[")
        && at(2)?.is_ident("cfg")
        && at(3)?.is_punct("(")
        && at(4)?.is_ident("test")
        && at(5)?.is_punct(")")
        && at(6)?.is_punct("]"))
    {
        return None;
    }
    let mut j = i + 7;
    // Skip any further attributes (e.g. `#[allow(dead_code)]`).
    while tokens.get(j)?.is_punct("#") && tokens.get(j + 1).is_some_and(|t| t.is_punct("[")) {
        let mut depth = 0usize;
        let mut k = j + 1;
        loop {
            let t = tokens.get(k)?;
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        j = k + 1;
    }
    // Skip visibility (`pub`, `pub(crate)`, …).
    if tokens.get(j)?.is_ident("pub") {
        j += 1;
        if tokens.get(j).is_some_and(|t| t.is_punct("(")) {
            while !tokens.get(j)?.is_punct(")") {
                j += 1;
            }
            j += 1;
        }
    }
    if !tokens.get(j)?.is_ident("mod") {
        return None;
    }
    j += 1; // module name
    loop {
        let t = tokens.get(j)?;
        if t.is_punct(";") {
            return Some(j);
        }
        if t.is_punct("{") {
            break;
        }
        j += 1;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    // Unterminated module: treat the rest of the file as the region.
    Some(tokens.len() - 1)
}

/// The set of 1-based lines covered by the given token ranges.
pub(crate) fn lines_of_ranges(
    tokens: &[Token],
    ranges: &[(usize, usize)],
) -> std::collections::BTreeSet<usize> {
    let mut lines = std::collections::BTreeSet::new();
    for &(a, b) in ranges {
        if a >= tokens.len() {
            continue;
        }
        let last = b.min(tokens.len() - 1);
        for line in tokens[a].line..=tokens[last].line {
            lines.insert(line);
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let lexed = lex("let a = \"std::sync\"; // std::sync\n/* std::sync */ let b = 1;\n");
        assert!(!lexed.blanked.contains("std::sync"));
        assert!(lexed.blanked.contains("let a ="));
        assert!(lexed.blanked.contains("let b = 1;"));
        assert_eq!(lexed.blanked.lines().count(), 2);
    }

    #[test]
    fn raw_strings_and_chars() {
        let lexed = lex(
            r####"let s = r#"brace { and "quote" here"#; let c = '{'; let l: &'static str = "";"####,
        );
        assert!(!lexed.blanked.contains('{'));
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs[0].text, "brace { and \"quote\" here");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "static"));
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "{"));
    }

    #[test]
    fn string_literal_content_is_captured() {
        let lexed = lex("S::mutex_labeled(\"tile_state\", x)");
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .unwrap();
        assert_eq!(s.text, "tile_state");
    }

    #[test]
    fn cfg_test_region_survives_brace_in_string() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let s = \"{\"; }\n}\nfn after() {}\n";
        let lexed = lex(src);
        let ranges = cfg_test_mod_ranges(&lexed.tokens);
        assert_eq!(ranges.len(), 1);
        let lines = lines_of_ranges(&lexed.tokens, &ranges);
        assert!(lines.contains(&2) && lines.contains(&5));
        // `fn after` on line 6 is *outside* the region.
        assert!(!lines.contains(&6));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still comment */ fn x() {}");
        assert!(lexed.blanked.contains("fn x()"));
        assert!(!lexed.blanked.contains("comment"));
    }
}
