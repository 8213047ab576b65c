//! Item-level parsing over the token stream: functions, impl/trait
//! methods, and struct field types.
//!
//! This is not a Rust parser — it is a single linear pass that recovers
//! exactly the facts the call graph needs:
//!
//! * every `fn` item with its name, owner (`impl`/`trait` type), body
//!   token range, parameter type hints, and test status
//!   (`#[cfg(test)]` / `#[test]` fns never enter the graph),
//! * every `struct` with its named fields' type last-segments, so
//!   `self.field.method(…)` receivers can be typed cheaply.
//!
//! Bodies are tracked as token index ranges into the file's stream;
//! nested fns own their sub-range (the caller excludes it when walking a
//! parent body). Closures are part of the enclosing fn — exactly what
//! reachability wants, since a closure runs on its definer's path.

use crate::lexer::{match_delim, next_code_idx, Tok, TokKind};
use crate::scope::Context;
use std::collections::BTreeMap;

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` self type for methods, `None` for free fns.
    pub owner: Option<String>,
    /// 1-based line of the name token.
    pub line: u32,
    /// Body token range `(start, end)` — exclusive of both braces.
    /// `None` for trait declarations without a default body.
    pub body: Option<(usize, usize)>,
    /// Declared inside `#[cfg(test)]` / under `#[test]`.
    pub is_test: bool,
    /// Parameter name → type last-segment, for receiver hints.
    pub params: Vec<(String, String)>,
    /// Number of parameters, the `self` receiver excluded — what a
    /// `.name(…)` call site's argument count must equal to bind here.
    pub arity: usize,
}

/// Items of one parsed file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All `fn` items, in source order.
    pub fns: Vec<FnItem>,
    /// Struct name → (field name → type last-segment).
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
}

/// What a brace scope on the stack is.
enum Scope {
    /// `mod name {`.
    Mod,
    /// `impl Type {` / `impl Trait for Type {` — carries the self type.
    Impl(String),
    /// `trait Name {` — methods get the trait name as owner.
    Trait(String),
    /// A `fn` body; index into [`ParsedFile::fns`].
    Fn,
    /// Any other brace group (blocks, match arms, struct literals…).
    Block,
}

/// Parse one file's items.
pub fn parse(toks: &[Tok], ctx: &Context) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut stack: Vec<Scope> = Vec::new();
    let n = toks.len();
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.text == "{" => {
                stack.push(Scope::Block);
            }
            TokKind::Punct if t.text == "}" => {
                stack.pop();
            }
            TokKind::Ident => match t.text.as_str() {
                "mod" => {
                    // `mod name {` or `mod name;` — consume the header so
                    // the `{` pushes a Mod scope.
                    if let Some(j) = seek(toks, i + 1, &["{", ";"]) {
                        if toks[j].is_punct("{") {
                            stack.push(Scope::Mod);
                        }
                        i = j + 1;
                        continue;
                    }
                }
                "impl" => {
                    if let Some((owner, j)) = parse_impl_header(toks, i) {
                        stack.push(Scope::Impl(owner));
                        i = j + 1;
                        continue;
                    }
                }
                "trait" => {
                    if let Some(name) = ident_after(toks, i) {
                        if let Some(j) = seek(toks, i + 1, &["{", ";"]) {
                            if toks[j].is_punct("{") {
                                stack.push(Scope::Trait(name));
                            }
                            i = j + 1;
                            continue;
                        }
                    }
                }
                "struct" => {
                    if let Some(j) = parse_struct(toks, i, &mut out.structs) {
                        i = j;
                        continue;
                    }
                }
                "fn" => {
                    // Guard: `fn(usize) -> f32` pointer types have no name.
                    if let Some(j) = parse_fn(toks, ctx, i, &stack, &mut out.fns) {
                        if toks.get(j).is_some_and(|b| b.is_punct("{")) {
                            stack.push(Scope::Fn);
                        }
                        i = j + 1;
                        continue;
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    out
}

/// Like [`parse`], but records fn body end indexes: the main loop above
/// cannot see what it popped, so body ranges are resolved here by brace
/// matching from each recorded open index.
pub fn parse_file(toks: &[Tok], ctx: &Context) -> ParsedFile {
    let mut parsed = parse(toks, ctx);
    for f in &mut parsed.fns {
        if let Some((open, _)) = f.body {
            // `open` currently holds the index of the `{`; match it.
            let end = match_delim(toks, open, "{", "}").unwrap_or(toks.len());
            f.body = Some((open + 1, end));
        }
    }
    parsed
}

/// The identifier right after token `i`, if any.
fn ident_after(toks: &[Tok], i: usize) -> Option<String> {
    let j = next_code_idx(toks, i + 1)?;
    let t = &toks[j];
    (t.kind == TokKind::Ident && !is_decl_keyword(&t.text)).then(|| t.text.clone())
}

/// Scan forward from `i` to the first token matching any of `stops`
/// (punct text), skipping nothing — brace-free headers only.
fn seek(toks: &[Tok], i: usize, stops: &[&str]) -> Option<usize> {
    toks.iter()
        .enumerate()
        .skip(i)
        .find(|(_, t)| t.kind == TokKind::Punct && stops.contains(&t.text.as_str()))
        .map(|(j, _)| j)
}

/// Parse `impl … {`: returns the self-type last-segment and the index of
/// the opening `{`. `impl Trait for Type` takes the type after `for`.
fn parse_impl_header(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut owner: Option<String> = None;
    let mut angle = 0i32;
    let mut in_where = false;
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => {
                    return owner.map(|o| (o, j));
                }
                ";" => return None,
                _ => {}
            },
            TokKind::Ident if angle == 0 && !in_where => match t.text.as_str() {
                // `impl Trait for Type`: the self type follows `for`.
                "for" => owner = None,
                "where" => in_where = true,
                name if !is_decl_keyword(name) => {
                    // Last plain path segment wins: `attn::Gateway` → Gateway.
                    owner = Some(name.to_string());
                }
                _ => {}
            },
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parse `struct Name { fields… }` into the struct map; returns the index
/// just past the item. Tuple/unit structs are consumed without fields.
fn parse_struct(
    toks: &[Tok],
    i: usize,
    structs: &mut BTreeMap<String, BTreeMap<String, String>>,
) -> Option<usize> {
    let name = ident_after(toks, i)?;
    // Find the body `{`, a tuple `(`, or `;` — skipping generics.
    let mut angle = 0i32;
    let mut j = next_code_idx(toks, i + 1)? + 1;
    loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "<" if t.kind == TokKind::Punct => angle += 1,
            ">" if t.kind == TokKind::Punct => angle -= 1,
            "{" if angle <= 0 => break,
            "(" if angle <= 0 => {
                // Tuple struct: skip to the terminating `;`.
                return seek(toks, j, &[";"]).map(|k| k + 1);
            }
            ";" => return Some(j + 1),
            _ => {}
        }
        j += 1;
    }
    // Fields at brace depth 1: `ident : Type` up to a depth-1 comma.
    let mut fields = BTreeMap::new();
    let mut depth = 1usize;
    let mut k = j + 1;
    while k < toks.len() && depth > 0 {
        let t = &toks[k];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
        } else if depth == 1 && t.kind == TokKind::Ident && !is_decl_keyword(&t.text) {
            if let Some(c) = next_code_idx(toks, k + 1) {
                if toks[c].is_punct(":") {
                    if let Some((ty, after)) = type_last_segment(toks, c + 1) {
                        fields.insert(t.text.clone(), ty);
                        k = after;
                        continue;
                    }
                }
            }
        }
        k += 1;
    }
    structs.insert(name, fields);
    Some(k)
}

/// Parse a type starting at `i`: skip `&`/`mut`/lifetimes/`dyn`/`impl`,
/// then take the **last** plain segment of the leading path (before any
/// generic args). Returns the segment and the index just past the path
/// head. Non-path types (tuples, slices, fn pointers) yield `None`.
pub(crate) fn type_last_segment(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = next_code_idx(toks, i)?;
    loop {
        let t = toks.get(j)?;
        let skip = t.is_punct("&")
            || t.kind == TokKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn")
            || t.is_ident("impl");
        if !skip {
            break;
        }
        j = next_code_idx(toks, j + 1)?;
    }
    let mut last: Option<String> = None;
    let mut at = j;
    while let Some(t) = toks.get(at) {
        match t.kind {
            TokKind::Ident if !is_decl_keyword(&t.text) => {
                last = Some(t.text.clone());
                at += 1;
            }
            TokKind::Punct if t.text == "::" => {
                at += 1;
            }
            _ => break,
        }
    }
    last.map(|l| (l, at))
}

/// Parse a `fn` item starting at keyword index `i`; pushes the item and
/// returns the index of its body `{` (or the `;` of a bodiless trait
/// method). `None` when this is a `fn(…)` pointer type, not an item.
fn parse_fn(
    toks: &[Tok],
    ctx: &Context,
    i: usize,
    stack: &[Scope],
    fns: &mut Vec<FnItem>,
) -> Option<usize> {
    let name_idx = next_code_idx(toks, i + 1)?;
    let name_tok = &toks[name_idx];
    if name_tok.kind != TokKind::Ident || is_decl_keyword(&name_tok.text) {
        return None; // `fn(usize) -> f32` pointer type
    }
    // Skip generics to the parameter list.
    let mut j = next_code_idx(toks, name_idx + 1)?;
    if toks[j].is_punct("<") {
        let mut angle = 1i32;
        while angle > 0 {
            j = next_code_idx(toks, j + 1)?;
            if toks[j].is_punct("<") {
                angle += 1;
            } else if toks[j].is_punct(">") {
                angle -= 1;
            }
        }
        j = next_code_idx(toks, j + 1)?;
    }
    if !toks[j].is_punct("(") {
        return None;
    }
    let (params, arity, close) = parse_params(toks, j)?;
    // Owner: the innermost Impl/Trait scope *not* below a Fn/Block (a
    // nested fn in a method body is free, not a method).
    let owner = stack.iter().rev().find_map(|s| match s {
        Scope::Impl(o) | Scope::Trait(o) => Some(o.clone()),
        Scope::Fn | Scope::Block => Some(String::new()),
        Scope::Mod => None,
    });
    let owner = match owner {
        Some(o) if o.is_empty() => None,
        other => other,
    };
    // Body `{` or trait-decl `;` — return types/where clauses are
    // brace-free in this codebase's grammar subset.
    let body_open = seek(toks, close + 1, &["{", ";"])?;
    fns.push(FnItem {
        name: name_tok.text.clone(),
        owner,
        line: name_tok.line,
        // Temporarily store the `{` index; parse_file resolves the range.
        body: toks[body_open]
            .is_punct("{")
            .then_some((body_open, body_open)),
        is_test: ctx.in_test.get(name_idx).copied().unwrap_or(false),
        params,
        arity,
    });
    Some(body_open)
}

/// Parameter name → type last-segment pairs.
type ParamHints = Vec<(String, String)>;

/// Parse a parameter list starting at its `(`: returns the typed-param
/// hints, the non-receiver parameter count, and the index of the closing
/// `)`.
fn parse_params(toks: &[Tok], open: usize) -> Option<(ParamHints, usize, usize)> {
    let mut params = Vec::new();
    let mut arity = 0usize;
    let mut paren = 1i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    let mut j = open + 1;
    // Start of the current parameter (depth-1 segment).
    let mut seg_start = j;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        arity += usize::from(is_value_param(toks, seg_start, j));
                        record_param(toks, seg_start, j, &mut params);
                        return Some((params, arity, j));
                    }
                }
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "," if paren == 1 && bracket == 0 && angle == 0 => {
                    arity += usize::from(is_value_param(toks, seg_start, j));
                    record_param(toks, seg_start, j, &mut params);
                    seg_start = j + 1;
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Is the token range one parameter other than the `self` receiver (not
/// the empty tail after a trailing comma)?
fn is_value_param(toks: &[Tok], start: usize, end: usize) -> bool {
    let mut code = toks[start..end]
        .iter()
        .filter(|t| t.kind != TokKind::LineComment)
        .peekable();
    code.peek().is_some() && !code.any(|t| t.is_ident("self"))
}

/// Record one `name: Type` parameter from the token range; receivers and
/// pattern params are skipped.
fn record_param(toks: &[Tok], start: usize, end: usize, params: &mut Vec<(String, String)>) {
    let Some(mut k) = next_code_idx(toks, start) else {
        return;
    };
    if k >= end {
        return;
    }
    if toks[k].is_ident("mut") {
        let Some(n) = next_code_idx(toks, k + 1) else {
            return;
        };
        k = n;
    }
    let name = &toks[k];
    if name.kind != TokKind::Ident || is_decl_keyword(&name.text) || name.text == "self" {
        return;
    }
    let Some(c) = next_code_idx(toks, k + 1) else {
        return;
    };
    if c >= end || !toks[c].is_punct(":") {
        return;
    }
    if let Some((ty, _)) = type_last_segment(toks, c + 1) {
        params.push((name.text.clone(), ty));
    }
}

/// Keywords that can never be item/type names in the positions parsed
/// here.
pub(crate) fn is_decl_keyword(s: &str) -> bool {
    matches!(
        s,
        "fn" | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "mod"
            | "pub"
            | "where"
            | "for"
            | "mut"
            | "dyn"
            | "let"
            | "if"
            | "else"
            | "match"
            | "while"
            | "loop"
            | "return"
            | "use"
            | "const"
            | "static"
            | "unsafe"
            | "extern"
            | "crate"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "type"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope;

    fn parsed(src: &str) -> ParsedFile {
        let toks = lex(src);
        let ctx = scope::analyze(&toks);
        parse_file(&toks, &ctx)
    }

    #[test]
    fn free_fn_and_method_get_their_owners() {
        let p = parsed(
            "fn free() { body(); }\n\
             struct Gate { engine: Engine }\n\
             impl Gate { pub fn tick(&mut self) { go(); } }\n",
        );
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![("free".into(), None), ("tick".into(), Some("Gate".into()))]
        );
        assert_eq!(p.structs["Gate"]["engine"], "Engine");
    }

    #[test]
    fn trait_impls_and_default_bodies() {
        let p = parsed(
            "trait Kernel { fn exec(&self); fn warm(&self) { exec_default(); } }\n\
             impl Kernel for Cpu { fn exec(&self) { fast(); } }\n",
        );
        let with_body: Vec<&str> = p
            .fns
            .iter()
            .filter(|f| f.body.is_some())
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(with_body, vec!["warm", "exec"]);
        let exec_impl = p
            .fns
            .iter()
            .find(|f| f.name == "exec" && f.body.is_some())
            .unwrap();
        assert_eq!(exec_impl.owner.as_deref(), Some("Cpu"));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let p = parsed(
            "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n#[test]\nfn check() {}\n",
        );
        let test_flags: Vec<(String, bool)> =
            p.fns.iter().map(|f| (f.name.clone(), f.is_test)).collect();
        assert_eq!(
            test_flags,
            vec![
                ("live".into(), false),
                ("helper".into(), true),
                ("check".into(), true)
            ]
        );
    }

    #[test]
    fn param_type_hints_survive_references_and_generics() {
        let p = parsed("fn f(logits: &Matrix, n: usize, s: &mut DecodeSession) {}\n");
        assert_eq!(
            p.fns[0].params,
            vec![
                ("logits".into(), "Matrix".into()),
                ("n".into(), "usize".into()),
                ("s".into(), "DecodeSession".into())
            ]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parsed("struct H { hook: fn(usize) -> f32 }\nfn real() { let g: fn(u8) = x; }\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn nested_fn_in_method_body_is_free() {
        let p = parsed("impl T { fn outer(&self) { fn inner() {} inner(); } }\n");
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.owner, None);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(outer.owner.as_deref(), Some("T"));
    }

    #[test]
    fn generic_fn_and_impl_headers_parse() {
        let p = parsed(
            "impl<T: Clone> Holder<T> { fn put<Q: Into<T>>(&mut self, q: Q) { store(q); } }\n",
        );
        assert_eq!(p.fns[0].name, "put");
        assert_eq!(p.fns[0].owner.as_deref(), Some("Holder"));
    }
}
