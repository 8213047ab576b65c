//! Hand-written Rust lexer — just enough fidelity for contract linting.
//!
//! `attn_lint` runs in a vendored-only environment, so it cannot lean on
//! `syn` or `rustc` internals. Instead this module tokenises the handful
//! of shapes a naive text search gets wrong:
//!
//! * line comments vs **nested** block comments (a `vec!` inside
//!   `/* /* … */ */` is not an allocation),
//! * string, byte-string and raw-string literals with arbitrary hash
//!   fences (`r#"…"#`), so patterns quoted in test data never fire,
//! * char literals vs lifetimes (`'a'` vs `'a`) and raw identifiers
//!   (`r#type`),
//! * numeric literals with underscores, exponents and suffixes
//!   (`1.0e31f32` is one token; the `.copysign` after it is not),
//! * multi-char operators, so `==`/`!=`/`+=` can be matched as single
//!   tokens.
//!
//! Output is a flat token stream with 1-based line/column positions; the
//! scope tracking that turns positions into "inside `#[cfg(test)]`" or
//! "inside a rayon closure" verdicts lives in [`crate::scope`].

/// What a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers keep their `r#` prefix).
    Ident,
    /// A lifetime or loop label such as `'a` (no closing quote).
    Lifetime,
    /// Integer literal, including hex/octal/binary forms.
    Int,
    /// Float literal (has a fraction, an exponent, or an `f32`/`f64`
    /// suffix).
    Float,
    /// String literal of any flavour: `"…"`, `r"…"`, `r#"…"#`, `b"…"`,
    /// `br#"…"#`. Text is the raw source slice, quotes included.
    Str,
    /// Char or byte literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// Punctuation; multi-char operators (`==`, `+=`, `::`, …) are one
    /// token.
    Punct,
    /// A `//`-family comment. Text keeps the full prefix so directive
    /// parsing can tell `//` from `///` and `//!`.
    LineComment,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text (see [`TokKind`] for what is included).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Tok {
    /// True for identifier tokens with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for punctuation tokens with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Index of the first non-comment token at or after `i`.
pub(crate) fn next_code_idx(toks: &[Tok], i: usize) -> Option<usize> {
    (i..toks.len()).find(|&j| toks[j].kind != TokKind::LineComment)
}

/// The non-comment token before the one at `i`.
pub(crate) fn prev_code(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks[..i]
        .iter()
        .rev()
        .find(|t| t.kind != TokKind::LineComment)
}

/// The non-comment token after the one at `i`.
pub(crate) fn next_code(toks: &[Tok], i: usize) -> Option<&Tok> {
    next_code_idx(toks, i + 1).map(|j| &toks[j])
}

/// Index of the delimiter matching `open_idx` (which holds `open`).
pub(crate) fn match_delim(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Multi-char operators, longest first so maximal munch works.
const OPERATORS: [&str; 22] = [
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Tokenise `src`. Unknown bytes become single-char [`TokKind::Punct`]
/// tokens — the linter never fails on exotic input, it just sees opaque
/// punctuation.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek(1) == Some('/') {
            toks.push(lex_line_comment(&mut cur, line, col));
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            skip_block_comment(&mut cur);
            continue;
        }
        if c == '"' {
            toks.push(lex_string(&mut cur, line, col));
            continue;
        }
        if c == 'b' || c == 'r' {
            if let Some(tok) = try_lex_prefixed(&mut cur, line, col) {
                toks.push(tok);
                continue;
            }
        }
        if c == '\'' {
            toks.push(lex_quote(&mut cur, line, col));
            continue;
        }
        if c.is_ascii_digit() {
            toks.push(lex_number(&mut cur, line, col));
            continue;
        }
        if is_ident_start(c) {
            toks.push(lex_ident(&mut cur, line, col));
            continue;
        }
        toks.push(lex_punct(&mut cur, line, col));
    }
    toks
}

fn lex_line_comment(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    Tok {
        kind: TokKind::LineComment,
        text,
        line,
        col,
    }
}

fn skip_block_comment(cur: &mut Cursor) {
    // `/*` already peeked; consume with nesting.
    cur.bump();
    cur.bump();
    let mut depth = 1usize;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some('/'), Some('*')) => {
                depth += 1;
                cur.bump();
                cur.bump();
            }
            (Some('*'), Some('/')) => {
                depth -= 1;
                cur.bump();
                cur.bump();
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break,
        }
    }
}

fn lex_string(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    text.push(cur.bump().expect("opening quote")); // "
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(cur.bump().expect("escape lead"));
            if let Some(e) = cur.bump() {
                text.push(e);
            }
            continue;
        }
        text.push(c);
        cur.bump();
        if c == '"' {
            break;
        }
    }
    Tok {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

/// `b"…"`, `b'…'`, `br#"…"#`, `r"…"`, `r#"…"#`, or a raw identifier
/// (`r#type`). Returns `None` when the `b`/`r` is just an ordinary
/// identifier start.
fn try_lex_prefixed(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    let c = cur.peek(0)?;
    if c == 'b' {
        match cur.peek(1) {
            Some('"') => {
                cur.bump(); // b
                let mut tok = lex_string(cur, line, col);
                tok.text.insert(0, 'b');
                Some(tok)
            }
            Some('\'') => {
                cur.bump(); // b
                let mut tok = lex_quote(cur, line, col);
                tok.text.insert(0, 'b');
                tok.kind = TokKind::Char;
                Some(tok)
            }
            Some('r') if matches!(cur.peek(2), Some('"') | Some('#')) => {
                cur.bump(); // b
                lex_raw_string(cur, line, col)
            }
            _ => None,
        }
    } else {
        // c == 'r'
        match cur.peek(1) {
            Some('"') => lex_raw_string(cur, line, col),
            Some('#') => {
                // Either a hashed raw string or a raw identifier.
                let mut n = 0;
                while cur.peek(1 + n) == Some('#') {
                    n += 1;
                }
                if cur.peek(1 + n) == Some('"') {
                    lex_raw_string(cur, line, col)
                } else {
                    // r#ident
                    cur.bump(); // r
                    cur.bump(); // #
                    let mut tok = lex_ident(cur, line, col);
                    tok.text.insert_str(0, "r#");
                    tok.line = line;
                    tok.col = col;
                    Some(tok)
                }
            }
            _ => None,
        }
    }
}

/// At `r` of `r"…"` / `r#"…"#` (any hash count). Consumes through the
/// closing fence.
fn lex_raw_string(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    let mut text = String::new();
    text.push(cur.bump()?); // r
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        text.push(cur.bump()?);
    }
    if cur.peek(0) != Some('"') {
        return None;
    }
    text.push(cur.bump()?); // "
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '"' {
            let mut matched = 0usize;
            while matched < hashes && cur.peek(0) == Some('#') {
                matched += 1;
                text.push(cur.bump().expect("peeked hash"));
            }
            if matched == hashes {
                break;
            }
        }
    }
    Some(Tok {
        kind: TokKind::Str,
        text,
        line,
        col,
    })
}

/// At a `'`: decide char literal vs lifetime. `'a'` and `'\n'` are chars;
/// `'a`, `'static`, `'_` are lifetimes/labels.
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    text.push(cur.bump().expect("quote")); // '
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume to the closing quote.
            while let Some(c) = cur.peek(0) {
                if c == '\\' {
                    text.push(cur.bump().expect("escape lead"));
                    if let Some(e) = cur.bump() {
                        text.push(e);
                    }
                    continue;
                }
                text.push(c);
                cur.bump();
                if c == '\'' {
                    break;
                }
            }
            Tok {
                kind: TokKind::Char,
                text,
                line,
                col,
            }
        }
        Some(c) if cur.peek(1) == Some('\'') && c != '\'' => {
            // 'x'
            text.push(cur.bump().expect("char body"));
            text.push(cur.bump().expect("closing quote"));
            Tok {
                kind: TokKind::Char,
                text,
                line,
                col,
            }
        }
        Some(c) if is_ident_start(c) => {
            while let Some(c) = cur.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            Tok {
                kind: TokKind::Lifetime,
                text,
                line,
                col,
            }
        }
        _ => Tok {
            kind: TokKind::Punct,
            text,
            line,
            col,
        },
    }
}

fn lex_number(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    let mut float = false;
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x') | Some('o') | Some('b')) {
        text.push(cur.bump().expect("0"));
        text.push(cur.bump().expect("radix"));
        while let Some(c) = cur.peek(0) {
            if c.is_ascii_hexdigit() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
    } else {
        while let Some(c) = cur.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        // Fraction: `1.5` and trailing `2.` are floats; `1..3` (range) and
        // `1.max(2)` (method call) keep the int.
        if cur.peek(0) == Some('.') {
            match cur.peek(1) {
                Some(d) if d.is_ascii_digit() => {
                    float = true;
                    text.push(cur.bump().expect("dot"));
                    while let Some(c) = cur.peek(0) {
                        if c.is_ascii_digit() || c == '_' {
                            text.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                }
                Some(d) if d == '.' || is_ident_start(d) => {}
                _ => {
                    float = true;
                    text.push(cur.bump().expect("trailing dot"));
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(0), Some('e') | Some('E')) {
            let (e1, e2) = (cur.peek(1), cur.peek(2));
            let exp = match e1 {
                Some(d) if d.is_ascii_digit() => true,
                Some('+') | Some('-') => matches!(e2, Some(d) if d.is_ascii_digit()),
                _ => false,
            };
            if exp {
                float = true;
                text.push(cur.bump().expect("e"));
                if matches!(cur.peek(0), Some('+') | Some('-')) {
                    text.push(cur.bump().expect("sign"));
                }
                while let Some(c) = cur.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
            }
        }
    }
    // Type suffix (`f32`, `u64`, …) — part of the literal token.
    if matches!(cur.peek(0), Some(c) if is_ident_start(c)) {
        let mut suffix = String::new();
        while let Some(c) = cur.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            suffix.push(c);
            cur.bump();
        }
        if suffix.starts_with('f') {
            float = true;
        }
        text.push_str(&suffix);
    }
    Tok {
        kind: if float { TokKind::Float } else { TokKind::Int },
        text,
        line,
        col,
    }
}

fn lex_ident(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if !is_ident_continue(c) {
            break;
        }
        text.push(c);
        cur.bump();
    }
    Tok {
        kind: TokKind::Ident,
        text,
        line,
        col,
    }
}

fn lex_punct(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    for op in OPERATORS {
        if op
            .chars()
            .enumerate()
            .all(|(k, oc)| cur.peek(k) == Some(oc))
        {
            for _ in 0..op.chars().count() {
                cur.bump();
            }
            return Tok {
                kind: TokKind::Punct,
                text: op.to_string(),
                line,
                col,
            };
        }
    }
    let c = cur.bump().expect("peeked punct");
    Tok {
        kind: TokKind::Punct,
        text: c.to_string(),
        line,
        col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let toks = kinds("let c = 'v'; fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(toks.contains(&(TokKind::Char, "'v'".into())));
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokKind::Lifetime).count(),
            3,
            "{toks:?}"
        );
    }

    #[test]
    fn escaped_char_literals() {
        for lit in ["'\\n'", "'\\''", "'\\\\'", "'\\u{1F600}'", "b'x'"] {
            let toks = kinds(lit);
            assert_eq!(toks.len(), 1, "{lit}");
            assert_eq!(toks[0].0, TokKind::Char, "{lit}");
        }
    }

    #[test]
    fn raw_strings_swallow_their_payload() {
        let toks = kinds(r###"let s = r#"vec![1]; "quoted" .unwrap()"#; s"###);
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokKind::Str).count(),
            1,
            "{toks:?}"
        );
        assert!(!toks.iter().any(|t| t.1 == "vec"), "{toks:?}");
        assert!(!toks.iter().any(|t| t.1 == "unwrap"), "{toks:?}");
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&(TokKind::Ident, "r#type".into())));
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let toks = kinds("a /* x /* vec![] */ .unwrap() */ b");
        assert_eq!(
            toks,
            vec![(TokKind::Ident, "a".into()), (TokKind::Ident, "b".into())]
        );
    }

    #[test]
    fn float_suffix_then_method_call() {
        let toks = kinds("1.0e31f32.copysign(x); 2.; 1..3; 1.max(2)");
        assert!(toks.contains(&(TokKind::Float, "1.0e31f32".into())));
        assert!(toks.contains(&(TokKind::Ident, "copysign".into())));
        assert!(toks.contains(&(TokKind::Float, "2.".into())));
        assert!(toks.contains(&(TokKind::Punct, "..".into())));
        assert!(toks.contains(&(TokKind::Int, "1".into())));
        assert!(toks.contains(&(TokKind::Ident, "max".into())));
    }

    #[test]
    fn operators_are_single_tokens() {
        let toks = kinds("a == b != c += 1; x ..= y :: z");
        for op in ["==", "!=", "+=", "..=", "::"] {
            assert!(toks.contains(&(TokKind::Punct, op.into())), "{op}");
        }
    }

    #[test]
    fn comments_keep_their_prefix() {
        let toks = kinds("// plain\n/// doc\n//! inner\nx");
        let comments: Vec<&str> = toks
            .iter()
            .filter(|t| t.0 == TokKind::LineComment)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(comments, vec!["// plain", "/// doc", "//! inner"]);
    }

    #[test]
    fn positions_are_one_based_and_track_newlines() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
