//! Lexical model of one Rust source file.
//!
//! The scanner is deliberately *lexical*, not syntactic: it understands
//! exactly enough Rust to answer the questions the rules ask — what is
//! code vs. comment vs. string literal, which byte ranges belong to
//! `#[cfg(test)]`/`#[test]` items, and where inline
//! `lint: allow(rule/id)` markers sit — without pulling in a parser.
//! Everything downstream works on [`SourceFile::code`], a byte-for-byte
//! copy of the original text in which comment bodies and literal
//! contents have been blanked to spaces (newlines and the delimiting
//! quotes survive), so byte offsets, line numbers, and brace matching
//! all stay valid on the stripped view.

/// One string literal found in the source.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Byte offset of the opening quote in [`SourceFile::code`].
    pub offset: usize,
    /// Decoded-ish content: the raw bytes between the delimiters
    /// (escape sequences are preserved verbatim — the rules only ever
    /// compare literals that need no escaping, like metric names).
    pub content: String,
    /// 1-based line of the opening quote.
    pub line: usize,
}

/// One comment (line or block) found in the source.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text without the `//`/`/*` markers.
    pub text: String,
    /// Whether any code precedes the comment on its starting line.
    pub code_before: bool,
}

/// A resolved inline `lint: allow(rule/id)` marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// 1-based line the marker suppresses findings on.
    pub line: usize,
    /// Rule id the marker names.
    pub rule: String,
}

/// A lexed source file plus the derived maps the rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Root-relative path with `/` separators.
    pub path: String,
    /// Original text.
    pub raw: String,
    /// Same length as `raw`; comments and literal contents blanked.
    pub code: String,
    /// Byte offset of each line start (index 0 = line 1).
    pub line_starts: Vec<usize>,
    /// String literals in offset order.
    pub strings: Vec<StrLit>,
    /// Comments in offset order.
    pub comments: Vec<Comment>,
    /// Byte ranges (half-open) covered by `#[cfg(test)]`/`#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Resolved inline allow markers.
    pub allows: Vec<AllowMarker>,
}

impl SourceFile {
    /// Lexes `raw` into a source model. `path` is stored verbatim.
    pub fn new(path: String, raw: String) -> SourceFile {
        let (code, strings, comments) = strip(&raw);
        let line_starts = line_starts(&raw);
        let mut file = SourceFile {
            path,
            raw,
            code,
            line_starts,
            strings: Vec::new(),
            comments: Vec::new(),
            test_ranges: Vec::new(),
            allows: Vec::new(),
        };
        file.strings = strings
            .into_iter()
            .map(|(offset, content)| StrLit {
                line: file.line_of(offset),
                offset,
                content,
            })
            .collect();
        file.comments = comments;
        file.test_ranges = test_ranges(&file.code);
        file.allows = resolve_allows(&file);
        file
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The stripped code of a 1-based line (without trailing newline).
    pub fn line_code(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.code.len(), |&next| next.saturating_sub(1));
        &self.code[start..end.max(start)]
    }

    /// Whether byte `offset` falls inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test_range(&self, offset: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| offset >= a && offset < b)
    }

    /// Byte offsets at which `token` occurs in the stripped code as a
    /// whole word (neither neighbor is an identifier character).
    pub fn token_offsets(&self, token: &str) -> Vec<usize> {
        let bytes = self.code.as_bytes();
        let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80;
        let mut out = Vec::new();
        let mut from = 0;
        // Boundary checks apply only on edges where the token itself has
        // an identifier character: `.unwrap` starts with `.` (so `x.unwrap`
        // must match) and `panic!` ends with `!` (already a boundary).
        let head_is_ident = token.as_bytes().first().is_some_and(|&b| is_ident(b));
        let tail_is_ident = token.as_bytes().last().is_some_and(|&b| is_ident(b));
        while let Some(pos) = self.code[from..].find(token) {
            let at = from + pos;
            let before_ok = !head_is_ident || at == 0 || !is_ident(bytes[at - 1]);
            let end = at + token.len();
            let after_ok = !tail_is_ident || end >= bytes.len() || !is_ident(bytes[end]);
            if before_ok && after_ok {
                out.push(at);
            }
            from = at + token.len().max(1);
        }
        out
    }

    /// The string literal that is the first argument of a call whose
    /// opening parenthesis sits at byte `paren` — i.e. the next
    /// non-whitespace character after `paren` is a double quote, and a
    /// recorded literal starts there.
    pub fn first_arg_literal(&self, paren: usize) -> Option<&StrLit> {
        let bytes = self.code.as_bytes();
        let mut i = paren + 1;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'"' {
            return None;
        }
        self.strings.iter().find(|s| s.offset == i)
    }

    /// Whether a `SAFETY:` comment annotates 1-based `line` — on the
    /// line itself or within the `window` preceding lines.
    pub fn has_safety_comment(&self, line: usize, window: usize) -> bool {
        let lo = line.saturating_sub(window);
        self.comments
            .iter()
            .any(|c| c.line >= lo && c.line <= line && c.text.contains("SAFETY:"))
    }

    /// Whether an inline allow marker for `rule` covers 1-based `line`.
    pub fn allowed_inline(&self, line: usize, rule: &str) -> bool {
        self.allows.iter().any(|a| a.line == line && a.rule == rule)
    }
}

/// Byte offset of each line start.
fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Core lexer: returns (stripped code, string literals, comments).
#[allow(clippy::type_complexity)]
fn strip(raw: &str) -> (String, Vec<(usize, String)>, Vec<Comment>) {
    let bytes = raw.as_bytes();
    let mut code = bytes.to_vec();
    let mut strings = Vec::new();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_has_code = false;
    let blank = |code: &mut Vec<u8>, from: usize, to: usize| {
        for b in code.iter_mut().take(to).skip(from) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = raw[i..].find('\n').map_or(bytes.len(), |p| i + p);
                comments.push(Comment {
                    line,
                    text: raw[i + 2..end].to_string(),
                    code_before: line_has_code,
                });
                blank(&mut code, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let had_code = line_has_code;
                let mut depth = 1;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        if bytes[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                comments.push(Comment {
                    line: start_line,
                    text: raw[i + 2..j.saturating_sub(2).max(i + 2)].to_string(),
                    code_before: had_code,
                });
                blank(&mut code, i, j);
                i = j;
            }
            b'"' => {
                let (end, content) = scan_string(bytes, i, &mut line);
                strings.push((i, content));
                blank(&mut code, i + 1, end.saturating_sub(1).max(i + 1));
                line_has_code = true;
                i = end;
            }
            b'r' | b'b' if !prev_is_ident(bytes, i) => {
                if let Some((quote, hashes)) = raw_string_prefix(bytes, i) {
                    let (end, content) = scan_raw_string(bytes, quote, hashes, &mut line);
                    strings.push((quote, content));
                    blank(
                        &mut code,
                        quote + 1,
                        end.saturating_sub(1 + hashes).max(quote + 1),
                    );
                    line_has_code = true;
                    i = end;
                } else if bytes.get(i) == Some(&b'b') && bytes.get(i + 1) == Some(&b'"') {
                    let (end, content) = scan_string(bytes, i + 1, &mut line);
                    strings.push((i + 1, content));
                    blank(&mut code, i + 2, end.saturating_sub(1).max(i + 2));
                    line_has_code = true;
                    i = end;
                } else {
                    line_has_code = true;
                    i += 1;
                }
            }
            b'\'' => {
                // Disambiguate char literal from lifetime: a backslash
                // next is always a char; otherwise it is a char only if
                // a closing quote follows one character later.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 2;
                    if j < bytes.len() {
                        j += 1; // the escaped character
                    }
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    let end = (j + 1).min(bytes.len());
                    blank(&mut code, i + 1, end.saturating_sub(1).max(i + 1));
                    i = end;
                } else {
                    let ch_len = raw[i + 1..].chars().next().map_or(0, char::len_utf8);
                    if ch_len > 0 && bytes.get(i + 1 + ch_len) == Some(&b'\'') {
                        let end = i + 2 + ch_len;
                        blank(&mut code, i + 1, end - 1);
                        i = end;
                    } else {
                        i += 1; // lifetime
                    }
                }
                line_has_code = true;
            }
            _ => {
                if !(b as char).is_whitespace() {
                    line_has_code = true;
                }
                i += 1;
            }
        }
    }
    // Blanking replaces whole characters with ASCII spaces, so the
    // result is valid UTF-8 by construction.
    let code = String::from_utf8(code).expect("blanking preserves UTF-8");
    (code, strings, comments)
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && {
        let b = bytes[i - 1];
        b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
    }
}

/// If a raw-string opener (`r"`, `r#"`, `br##"`, …) starts at `i`,
/// returns (offset of the quote, number of hashes).
fn raw_string_prefix(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut saw_r = false;
    for _ in 0..2 {
        match bytes.get(j) {
            Some(&b'r') if !saw_r => {
                saw_r = true;
                j += 1;
            }
            Some(&b'b') if j == i => j += 1,
            _ => break,
        }
    }
    if !saw_r {
        return None;
    }
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some((j, hashes))
}

/// Scans a normal string starting at the opening quote; returns
/// (offset past the closing quote, content).
fn scan_string(bytes: &[u8], open: usize, line: &mut usize) -> (usize, String) {
    let mut j = open + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => {
                return (
                    j + 1,
                    String::from_utf8_lossy(&bytes[open + 1..j]).into_owned(),
                )
            }
            b'\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j, String::from_utf8_lossy(&bytes[open + 1..j]).into_owned())
}

/// Scans a raw string whose opening quote sits at `open` with `hashes`
/// trailing hash marks; returns (offset past the closer, content).
fn scan_raw_string(bytes: &[u8], open: usize, hashes: usize, line: &mut usize) -> (usize, String) {
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    let mut j = open + 1;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            *line += 1;
        }
        if bytes[j..].starts_with(&closer) {
            return (
                j + closer.len(),
                String::from_utf8_lossy(&bytes[open + 1..j]).into_owned(),
            );
        }
        j += 1;
    }
    (j, String::from_utf8_lossy(&bytes[open + 1..j]).into_owned())
}

/// Byte ranges covered by `#[cfg(test)]` / `#[test]` items in stripped
/// code: the attribute plus the following item (to its closing brace,
/// or to `;` for brace-less items).
fn test_ranges(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut ranges = Vec::new();
    let mut i = 0;
    while let Some(pos) = code[i..].find("#[") {
        let attr_start = i + pos;
        let Some((attr_end, attr_text)) = attribute_at(code, attr_start) else {
            i = attr_start + 2;
            continue;
        };
        if !attr_marks_test(&attr_text) {
            i = attr_end;
            continue;
        }
        // Skip whitespace and any further attributes to reach the item.
        let mut j = attr_end;
        loop {
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if code[j..].starts_with("#[") {
                match attribute_at(code, j) {
                    Some((end, _)) => j = end,
                    None => break,
                }
            } else {
                break;
            }
        }
        // The item extends to its matching close brace, or to the first
        // `;` when no brace opens first (e.g. `#[cfg(test)] use x;`).
        let mut depth = 0usize;
        let mut end = bytes.len();
        let mut k = j;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        ranges.push((attr_start, end));
        i = attr_end;
    }
    ranges
}

/// Parses the attribute starting at `start` (`#[...]` with nested
/// brackets); returns (offset past `]`, inner text). Shared with the
/// item-aware index in `items`.
pub(crate) fn attribute_at(code: &str, start: usize) -> Option<(usize, String)> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut j = start + 1; // at '['
    while j < bytes.len() {
        match bytes[j] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some((j + 1, code[start + 2..j].to_string()));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Whether an attribute body marks a test item: `test`, `cfg(test)`,
/// `cfg(all(test, …))`, `cfg(any(…, test))`, ….
fn attr_marks_test(attr: &str) -> bool {
    let t = attr.trim();
    if t == "test" {
        return true;
    }
    if !t.starts_with("cfg") {
        return false;
    }
    // Word-boundary search for `test` inside the cfg predicate.
    let b = t.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut from = 0;
    while let Some(p) = t[from..].find("test") {
        let at = from + p;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let end = at + 4;
        let after_ok = end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 4;
    }
    false
}

/// Resolves `lint: allow(rule, rule2)` comment markers to target lines:
/// a trailing comment suppresses its own line; a standalone comment
/// suppresses the next line that carries code.
fn resolve_allows(file: &SourceFile) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for c in &file.comments {
        let Some(open) = c.text.find("lint: allow(") else {
            continue;
        };
        let rest = &c.text[open + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let target = if c.code_before {
            c.line
        } else {
            // First subsequent line with any non-blank stripped code.
            let mut line = c.line + 1;
            while line <= file.line_starts.len() && file.line_code(line).trim().is_empty() {
                line += 1;
            }
            line
        };
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(AllowMarker {
                    line: target,
                    rule: rule.to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs".into(), src.to_string())
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = lex("let a = \"Instant::now\"; // Instant::now\nlet b = 1;\n");
        assert!(!f.code.contains("Instant::now"));
        assert_eq!(f.strings.len(), 1);
        assert_eq!(f.strings[0].content, "Instant::now");
        assert_eq!(f.comments.len(), 1);
        assert!(f.comments[0].code_before);
        // Offsets survive blanking: code and raw have equal length.
        assert_eq!(f.code.len(), f.raw.len());
    }

    #[test]
    fn block_comments_nest() {
        let f = lex("/* outer /* inner */ still comment */ let x = 1;\n");
        assert!(f.code.contains("let x = 1;"));
        assert!(!f.code.contains("outer"));
        assert!(!f.code.contains("still"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let f = lex("let s = r#\"panic!(\"inner\")\"#; let t = r\"plain\";\n");
        assert!(!f.code.contains("panic!"));
        assert_eq!(f.strings.len(), 2);
        assert_eq!(f.strings[0].content, "panic!(\"inner\")");
        assert_eq!(f.strings[1].content, "plain");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let f = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }\n");
        // Lifetimes survive; char contents are blanked.
        assert!(f.code.contains("<'a>"));
        assert!(!f.code.contains("'x'"));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let f = lex("let s = \"line one\nline two\";\nlet after = 1; // mark\n");
        assert_eq!(f.comments[0].line, 3);
        assert_eq!(f.strings[0].line, 1);
    }

    #[test]
    fn cfg_test_ranges_cover_items() {
        let src = "\
fn live() { x(); }
#[cfg(test)]
mod tests {
    fn helper() { y(); }
}
fn also_live() {}
";
        let f = lex(src);
        let live = f.code.find("live").unwrap();
        let helper = f.code.find("helper").unwrap();
        let also = f.code.find("also_live").unwrap();
        assert!(!f.in_test_range(live));
        assert!(f.in_test_range(helper));
        assert!(!f.in_test_range(also));
    }

    #[test]
    fn cfg_all_test_and_test_attr_count() {
        let src = "\
#[cfg(all(test, feature = \"x\"))]
fn a() {}
#[test]
fn b() {}
#[cfg(testing_utils)]
fn c() {}
";
        let f = lex(src);
        assert!(f.in_test_range(f.code.find("fn a").unwrap()));
        assert!(f.in_test_range(f.code.find("fn b").unwrap()));
        assert!(!f.in_test_range(f.code.find("fn c").unwrap()));
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let f = lex(src);
        assert!(f.in_test_range(f.code.find("HashMap").unwrap()));
        assert!(!f.in_test_range(f.code.find("live").unwrap()));
    }

    #[test]
    fn token_offsets_respect_boundaries() {
        let f = lex("let unsafe_code = 1; unsafe { x() }\n");
        assert_eq!(f.token_offsets("unsafe").len(), 1);
    }

    #[test]
    fn dot_prefixed_tokens_match_after_receivers() {
        let f = lex("let y = x.unwrap(); let z = x.unwrap_or(0); tel.incr(\"n\", 1);\n");
        assert_eq!(f.token_offsets(".unwrap").len(), 1);
        assert_eq!(f.token_offsets(".incr").len(), 1);
    }

    #[test]
    fn first_arg_literal_spans_newlines() {
        let f = lex("tel.event(\n    \"health.round\",\n    &[],\n);\n");
        let paren = f.code.find("(").unwrap();
        let lit = f.first_arg_literal(paren).unwrap();
        assert_eq!(lit.content, "health.round");
        assert_eq!(lit.line, 2);
    }

    #[test]
    fn allow_markers_resolve_to_lines() {
        let src = "\
// lint: allow(forbidden/panic) startup can die loudly
let a = x.unwrap();
let b = y.unwrap(); // lint: allow(forbidden/panic) same-line form
";
        let f = lex(src);
        assert!(f.allowed_inline(2, "forbidden/panic"));
        assert!(f.allowed_inline(3, "forbidden/panic"));
        assert!(!f.allowed_inline(1, "forbidden/panic"));
    }

    #[test]
    fn safety_comment_window() {
        let src = "\
// SAFETY: bounds checked above.
unsafe { go() }

unsafe { other() }
";
        let f = lex(src);
        assert!(f.has_safety_comment(2, 3));
        assert!(!f.has_safety_comment(4, 1));
    }
}
