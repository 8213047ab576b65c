//! Intraprocedural dataflow passes over [`crate::parse`] fn bodies.
//!
//! Two lint families live here:
//!
//! * **`encoded-typestate`** — abstract-interprets matrix values through
//!   `GuardedSection` chains with the lattice {Raw, Encoded, Verified,
//!   Stale}. Variables are grouped into union-find components: a `let`
//!   binding unions its pattern names with every known variable on the
//!   right-hand side, and every producer/verifier call unions its
//!   receiver with its arguments. A component becomes *Encoded* at a
//!   producer call (`GuardedSection::gemm` & friends), *Verified* at a
//!   verify/exit/heal call, and *Stale* once a finding has been
//!   reported for it (so each bug is reported once). Findings:
//!   raw mutation of an Encoded component, an Encoded component feeding
//!   a nonlinearity, and an Encoded component escaping the fn body
//!   without ever reaching a verifier.
//! * **`unsafe-audit`** — every `unsafe` block / fn / impl / trait in a
//!   Full-profile file must carry a `// SAFETY:` directive whose target
//!   line is the `unsafe` token's line (place it directly above the
//!   `unsafe` line, *after* any attributes, or trailing on the same
//!   line). `from_raw_parts*` calls are additionally required to tie
//!   their length expression to an asserted bound in the same fn body.
//!
//! Both passes are intentionally intraprocedural: the component state
//! dies at the fn boundary, which is exactly the paper's contract — an
//! encoded operand must be verified *before* it escapes the guarded
//! section that produced it.

use crate::directives::Directives;
use crate::lexer::{Tok, TokKind};
use crate::lints::Profile;
use crate::parse::ParsedFile;
use crate::scope::Context;
use crate::Finding;
use std::collections::BTreeMap;

/// Lint name: encoded value mutated / escaping / fed onward unverified.
pub const ENCODED_TYPESTATE: &str = "encoded-typestate";
/// Lint name: undocumented or unbounded `unsafe` surface.
pub const UNSAFE_AUDIT: &str = "unsafe-audit";

/// Methods that put a component into the Encoded state.
const PRODUCERS: [&str; 3] = ["gemm", "gemm_encode_rows", "encode_cols"];

/// Methods that move a component to Verified (checksum checked, value
/// re-encoded, or ownership handed back through a checked exit).
const VERIFIERS: [&str; 5] = [
    "detect",
    "exit_cols",
    "heal_operand_cols",
    "heal_operand_rows",
    "replay_nn",
];

/// Raw mutators: writing through these invalidates live checksums.
const MUTATORS: [&str; 3] = ["set", "data_mut", "row_mut"];

/// Files where encoded-typestate does not apply: the tensor crate and
/// the guarded-section internals *implement* the encode/verify
/// machinery (their raw mutations are the checksum updates themselves),
/// and the lint crate only talks about these names.
pub fn typestate_whitelisted(rel_path: &str) -> bool {
    rel_path.starts_with("crates/tensor/")
        || rel_path.starts_with("crates/lint/")
        || matches!(
            rel_path,
            "crates/core/src/section.rs"
                | "crates/core/src/checked.rs"
                | "crates/core/src/checksum.rs"
                | "crates/core/src/eec.rs"
        )
}

/// Abstract state of one union-find component.
#[derive(Clone, Debug, PartialEq)]
enum State {
    /// No protection claimed.
    Raw,
    /// Producer ran; checksums are live and unverified.
    Encoded {
        line: u32,
        col: u32,
        name: String,
        producer: &'static str,
    },
    /// A verifier consumed the component's checksums.
    Verified,
    /// A finding was already reported; suppress follow-on reports.
    Stale,
}

/// Union-find over the variables of one fn body.
#[derive(Default)]
struct Flow {
    parent: Vec<usize>,
    state: Vec<State>,
}

impl Flow {
    fn fresh(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.state.push(State::Raw);
        self.parent.len() - 1
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        // Encoded dominates (an unverified obligation survives the
        // merge), then Verified, then Stale.
        let merged = match (&self.state[ra], &self.state[rb]) {
            (e @ State::Encoded { .. }, _) | (_, e @ State::Encoded { .. }) => e.clone(),
            (State::Verified, _) | (_, State::Verified) => State::Verified,
            (State::Stale, _) | (_, State::Stale) => State::Stale,
            _ => State::Raw,
        };
        self.parent[rb] = ra;
        self.state[ra] = merged;
        ra
    }

    fn set(&mut self, x: usize, s: State) {
        let r = self.find(x);
        self.state[r] = s;
    }

    fn state_of(&mut self, x: usize) -> State {
        let r = self.find(x);
        self.state[r].clone()
    }
}

/// Run the encoded-typestate pass over every non-test fn body.
pub fn encoded_typestate(
    rel_path: &str,
    toks: &[Tok],
    parsed: &ParsedFile,
    out: &mut Vec<Finding>,
) {
    for f in &parsed.fns {
        if f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else {
            continue;
        };
        // Nested fn bodies are separate scopes: skip their sub-ranges.
        let mut skips: Vec<(usize, usize)> = parsed
            .fns
            .iter()
            .filter_map(|g| g.body)
            .filter(|&(s, e)| s > start && e < end)
            .collect();
        skips.sort_unstable();
        scan_fn(rel_path, toks, (start, end), &skips, out);
    }
}

fn scan_fn(
    rel_path: &str,
    toks: &[Tok],
    (start, end): (usize, usize),
    skips: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let mut fl = Flow::default();
    let mut vars: BTreeMap<String, usize> = BTreeMap::new();
    let mut i = start;
    while i < end {
        if let Some(&(_, sub_end)) = skips.iter().find(|&&(s, e)| s <= i && i < e) {
            i = sub_end;
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            // Indexed writes never start at a punct; nothing else to do.
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        if name == "let" {
            handle_let(toks, i, end, &mut fl, &mut vars);
        } else if PRODUCERS.contains(&name) && is_method_call(toks, i) {
            let parts = call_participants(toks, i, &mut fl, &mut vars, true);
            if let Some(root) = union_all(&mut fl, &parts) {
                let display = parts
                    .iter()
                    .find_map(|(n, _)| (!n.is_empty()).then(|| n.clone()))
                    .unwrap_or_else(|| name.to_string());
                let producer = PRODUCERS.iter().find(|p| **p == name).copied().unwrap();
                fl.set(
                    root,
                    State::Encoded {
                        line: t.line,
                        col: t.col,
                        name: display,
                        producer,
                    },
                );
            }
        } else if VERIFIERS.contains(&name) && is_method_call(toks, i) {
            let parts = call_participants(toks, i, &mut fl, &mut vars, true);
            if let Some(root) = union_all(&mut fl, &parts) {
                fl.set(root, State::Verified);
            }
        } else if MUTATORS.contains(&name) && is_method_call(toks, i) {
            if let Some(recv) = receiver_ident(toks, i) {
                if let Some(&node) = vars.get(recv) {
                    if let State::Encoded { name: enc, .. } = fl.state_of(node) {
                        out.push(Finding::new(
                            rel_path,
                            t.line,
                            t.col,
                            ENCODED_TYPESTATE,
                            format!(
                                "raw mutation of encoded `{enc}` via `{name}()` invalidates \
                                 its checksums; verify or re-encode first"
                            ),
                        ));
                        fl.set(node, State::Stale);
                    }
                }
            }
        } else if is_nonlinearity(name) && next_is(toks, i, "(") {
            let parts = call_participants(toks, i, &mut fl, &mut vars, false);
            for (pname, node) in &parts {
                if let State::Encoded { .. } = fl.state_of(*node) {
                    out.push(Finding::new(
                        rel_path,
                        t.line,
                        t.col,
                        ENCODED_TYPESTATE,
                        format!(
                            "encoded `{pname}` feeds nonlinearity `{name}` before verification"
                        ),
                    ));
                    fl.set(*node, State::Stale);
                    break;
                }
            }
        } else if vars.contains_key(name) {
            check_indexed_write(rel_path, toks, i, end, &mut fl, &vars, out);
        }
        i += 1;
    }
    // Escape check: any component still Encoded at fn exit.
    let mut seen_roots: Vec<usize> = Vec::new();
    let nodes: Vec<usize> = vars.values().copied().collect();
    for node in nodes {
        let r = fl.find(node);
        if seen_roots.contains(&r) {
            continue;
        }
        seen_roots.push(r);
        if let State::Encoded {
            line,
            col,
            name,
            producer,
        } = fl.state_of(r)
        {
            out.push(Finding::new(
                rel_path,
                line,
                col,
                ENCODED_TYPESTATE,
                format!(
                    "value encoded by `{producer}` (`{name}`) never reaches a \
                     verify/exit point in this fn"
                ),
            ));
        }
    }
}

/// `var[..] = …` / `var[..] += …`: an indexed write through a known
/// variable; flag when its component is Encoded.
fn check_indexed_write(
    rel_path: &str,
    toks: &[Tok],
    i: usize,
    end: usize,
    fl: &mut Flow,
    vars: &BTreeMap<String, usize>,
    out: &mut Vec<Finding>,
) {
    let Some(open) = next_code_idx(toks, i + 1) else {
        return;
    };
    if open >= end || !toks[open].is_punct("[") {
        return;
    }
    let Some(close) = match_delim(toks, open, "[", "]") else {
        return;
    };
    let Some(after) = next_code_idx(toks, close + 1) else {
        return;
    };
    if after >= end {
        return;
    }
    let is_assign = toks[after].kind == TokKind::Punct
        && matches!(toks[after].text.as_str(), "=" | "+=" | "-=" | "*=" | "/=");
    if !is_assign {
        return;
    }
    let node = vars[toks[i].text.as_str()];
    if let State::Encoded { name: enc, .. } = fl.state_of(node) {
        out.push(Finding::new(
            rel_path,
            toks[i].line,
            toks[i].col,
            ENCODED_TYPESTATE,
            format!("raw indexed write to encoded `{enc}` invalidates its checksums"),
        ));
        fl.set(node, State::Stale);
    }
}

/// Handle a `let` statement: bind fresh nodes for the pattern names and
/// union them with every already-known variable on the right-hand side.
fn handle_let(
    toks: &[Tok],
    i: usize,
    end: usize,
    fl: &mut Flow,
    vars: &mut BTreeMap<String, usize>,
) {
    // `if let` / `while let` conditions terminate at their body `{`.
    let cond_let =
        prev_code_idx(toks, i).is_some_and(|p| toks[p].is_ident("if") || toks[p].is_ident("while"));
    // Pattern names: idents up to `=` (or `;`/`{` for pattern-only lets).
    let mut pat: Vec<String> = Vec::new();
    let mut j = i + 1;
    let mut eq: Option<usize> = None;
    while j < end {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct if t.text == "=" => {
                eq = Some(j);
                break;
            }
            TokKind::Punct if t.text == ";" || t.text == "{" => break,
            TokKind::Ident if !is_flow_keyword(&t.text) && t.text != "self" => {
                pat.push(t.text.clone());
            }
            _ => {}
        }
        j += 1;
    }
    // RHS variable components, collected *before* rebinding the pattern
    // names (so `let x = x.scaled();` links to the old `x`). Unknown
    // idents in variable position get fresh nodes now, so a later
    // producer call on the same statement joins the same component.
    let mut rhs_nodes: Vec<usize> = Vec::new();
    if let Some(eq) = eq {
        let mut depth = 0i32;
        let mut k = eq + 1;
        while k < end {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if cond_let && depth == 0 => break,
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && is_var_position(toks, k) {
                let node = *vars.entry(t.text.clone()).or_insert_with(|| fl.fresh());
                rhs_nodes.push(node);
            }
            k += 1;
        }
    }
    let mut all: Vec<usize> = rhs_nodes;
    for name in pat {
        let node = fl.fresh();
        vars.insert(name, node);
        all.push(node);
    }
    if all.len() > 1 {
        let first = all[0];
        for &n in &all[1..] {
            fl.union(first, n);
        }
    }
}

/// The receiver ident of `recv.method(…)` at method-name index `i`.
fn receiver_ident(toks: &[Tok], i: usize) -> Option<&str> {
    let dot = prev_code_idx(toks, i)?;
    if !toks[dot].is_punct(".") {
        return None;
    }
    let r = prev_code_idx(toks, dot)?;
    (toks[r].kind == TokKind::Ident && toks[r].text != "self").then(|| toks[r].text.as_str())
}

/// Receiver + argument variables of a call at name index `i`. With
/// `create`, unknown idents in variable position become fresh nodes
/// (producers/verifiers track values we have not seen bound locally,
/// e.g. fields lifted through `self.sec`).
fn call_participants(
    toks: &[Tok],
    i: usize,
    fl: &mut Flow,
    vars: &mut BTreeMap<String, usize>,
    create: bool,
) -> Vec<(String, usize)> {
    let mut parts: Vec<(String, usize)> = Vec::new();
    let mut add = |name: &str, fl: &mut Flow, vars: &mut BTreeMap<String, usize>| {
        if let Some(&node) = vars.get(name) {
            parts.push((name.to_string(), node));
        } else if create {
            let node = fl.fresh();
            vars.insert(name.to_string(), node);
            parts.push((name.to_string(), node));
        }
    };
    if let Some(recv) = receiver_ident(toks, i) {
        let recv = recv.to_string();
        add(&recv, fl, vars);
    }
    if let Some(open) = next_code_idx(toks, i + 1) {
        if toks[open].is_punct("(") {
            if let Some(close) = match_delim(toks, open, "(", ")") {
                for k in open + 1..close {
                    if toks[k].kind == TokKind::Ident && is_var_position(toks, k) {
                        let name = toks[k].text.clone();
                        add(&name, fl, vars);
                    }
                }
            }
        }
    }
    parts
}

fn union_all(fl: &mut Flow, parts: &[(String, usize)]) -> Option<usize> {
    let mut iter = parts.iter();
    let (_, first) = iter.next()?;
    let mut root = fl.find(*first);
    for (_, n) in iter {
        root = fl.union(root, *n);
    }
    Some(root)
}

/// Is the ident at `k` a plain variable use (not a path segment, field
/// access, call name, or macro)?
fn is_var_position(toks: &[Tok], k: usize) -> bool {
    let t = &toks[k];
    if is_flow_keyword(&t.text) || t.text == "self" {
        return false;
    }
    if let Some(p) = prev_code_idx(toks, k) {
        if toks[p].is_punct(".") || toks[p].is_punct("::") {
            return false;
        }
    }
    if let Some(n) = next_code_idx(toks, k + 1) {
        if toks[n].is_punct("(") || toks[n].is_punct("::") || toks[n].is_punct("!") {
            return false;
        }
    }
    true
}

fn is_nonlinearity(name: &str) -> bool {
    name.starts_with("softmax") || name.starts_with("gelu") || name.starts_with("layer_norm")
}

/// Keywords and value-literal idents that are never variables here.
fn is_flow_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "mut"
            | "ref"
            | "as"
            | "move"
            | "if"
            | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "in"
            | "return"
            | "break"
            | "continue"
            | "true"
            | "false"
            | "fn"
            | "unsafe"
            | "const"
            | "static"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "impl"
            | "where"
            | "dyn"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
    )
}

fn is_method_call(toks: &[Tok], i: usize) -> bool {
    prev_code_idx(toks, i).is_some_and(|p| toks[p].is_punct(".")) && next_is(toks, i, "(")
}

fn next_is(toks: &[Tok], i: usize, punct: &str) -> bool {
    next_code_idx(toks, i + 1).is_some_and(|n| toks[n].is_punct(punct))
}

fn next_code_idx(toks: &[Tok], i: usize) -> Option<usize> {
    toks.iter()
        .enumerate()
        .skip(i)
        .find(|(_, t)| t.kind != TokKind::LineComment)
        .map(|(j, _)| j)
}

fn prev_code_idx(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i]
        .iter()
        .rposition(|t| t.kind != TokKind::LineComment)
}

/// Index of the delimiter matching `open_idx` (which holds `open`).
fn match_delim(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
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

/// Tallied `unsafe` surface of one file.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnsafeTally {
    /// Non-test `unsafe` sites in Full-profile code.
    pub sites: usize,
    /// Of those, sites carrying a `// SAFETY:` directive.
    pub documented: usize,
}

/// Run the unsafe-audit pass: SAFETY adjacency for every unsafe site,
/// plus the `from_raw_parts*` asserted-length rule.
pub fn unsafe_audit(
    rel_path: &str,
    toks: &[Tok],
    ctx: &Context,
    dir: &Directives,
    parsed: &ParsedFile,
    profile: Profile,
    out: &mut Vec<Finding>,
) -> UnsafeTally {
    let mut tally = UnsafeTally::default();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let Some(kind) = classify_unsafe(toks, i) else {
            continue; // `unsafe fn(…)` pointer type, not a site
        };
        let safety = dir.safeties.iter().find(|s| s.target_line == t.line);
        let exempt = profile == Profile::Relaxed || ctx.in_test.get(i).copied().unwrap_or(false);
        if exempt {
            // Test-region unsafe is exempt, but its SAFETY comment (if
            // any) still counts as used so it is not flagged dangling.
            if let Some(s) = safety {
                s.used.set(true);
            }
            continue;
        }
        tally.sites += 1;
        match safety {
            Some(s) => {
                s.used.set(true);
                tally.documented += 1;
            }
            None => out.push(Finding::new(
                rel_path,
                t.line,
                t.col,
                UNSAFE_AUDIT,
                format!("`unsafe {kind}` without an adjacent `// SAFETY:` justification"),
            )),
        }
    }
    // `from_raw_parts*`: the length expression must mention an ident
    // that also appears inside an assert extent of the same fn body.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !t.text.starts_with("from_raw_parts") {
            continue;
        }
        if profile == Profile::Relaxed || ctx.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(open) = next_code_idx(toks, i + 1) else {
            continue;
        };
        if !toks[open].is_punct("(") {
            continue;
        }
        let Some(close) = match_delim(toks, open, "(", ")") else {
            continue;
        };
        let len_idents = second_arg_idents(toks, open, close);
        let body = parsed
            .fns
            .iter()
            .filter_map(|f| f.body)
            .filter(|&(s, e)| s <= i && i < e)
            .max_by_key(|&(s, _)| s);
        let bound = body.is_some_and(|(s, e)| {
            (s..e).any(|k| {
                ctx.in_assert.get(k).copied().unwrap_or(false)
                    && toks[k].kind == TokKind::Ident
                    && len_idents.contains(&toks[k].text)
            })
        });
        if !bound {
            out.push(Finding::new(
                rel_path,
                t.line,
                t.col,
                UNSAFE_AUDIT,
                format!(
                    "length of `{}` is not tied to an asserted bound in this fn body",
                    t.text
                ),
            ));
        }
    }
    tally
}

/// Classify the `unsafe` token at `i`: `Some("block" | "fn" | "impl" |
/// "trait")`, or `None` for `unsafe fn(…)` pointer types.
fn classify_unsafe(toks: &[Tok], i: usize) -> Option<&'static str> {
    let j = next_code_idx(toks, i + 1)?;
    match toks[j].text.as_str() {
        "{" if toks[j].kind == TokKind::Punct => Some("block"),
        "impl" => Some("impl"),
        "trait" => Some("trait"),
        "fn" => fn_item_kind(toks, j),
        "extern" => {
            // `unsafe extern "C" fn name` — skip the ABI string.
            let mut k = next_code_idx(toks, j + 1)?;
            if toks[k].kind == TokKind::Str {
                k = next_code_idx(toks, k + 1)?;
            }
            if toks[k].is_ident("fn") {
                fn_item_kind(toks, k)
            } else {
                // `unsafe extern "C" { … }` block (Rust 2024 grammar).
                Some("block")
            }
        }
        _ => None,
    }
}

/// `fn` at `j` names an item (ident follows) rather than a pointer type.
fn fn_item_kind(toks: &[Tok], j: usize) -> Option<&'static str> {
    let k = next_code_idx(toks, j + 1)?;
    (toks[k].kind == TokKind::Ident).then_some("fn")
}

/// Identifiers of the second top-level argument of the call `(open..close)`.
fn second_arg_idents(toks: &[Tok], open: usize, close: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut depth = 0i32;
    let mut arg = 0usize;
    for t in &toks[open + 1..close] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => arg += 1,
                _ => {}
            }
        } else if arg == 1 && t.kind == TokKind::Ident && !is_flow_keyword(&t.text) {
            idents.push(t.text.clone());
        }
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::{directives, parse, scope};

    fn typestate(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let ctx = scope::analyze(&toks);
        let parsed = parse::parse_file(&toks, &ctx);
        let mut out = Vec::new();
        encoded_typestate("crates/model/src/x.rs", &toks, &parsed, &mut out);
        out
    }

    fn audit(src: &str) -> (Vec<Finding>, UnsafeTally) {
        let toks = lex(src);
        let ctx = scope::analyze(&toks);
        let parsed = parse::parse_file(&toks, &ctx);
        let dir = directives::parse("crates/model/src/x.rs", &toks, &ctx.code_lines);
        let mut out = Vec::new();
        let tally = unsafe_audit(
            "crates/model/src/x.rs",
            &toks,
            &ctx,
            &dir,
            &parsed,
            Profile::Full,
            &mut out,
        );
        (out, tally)
    }

    #[test]
    fn encoded_value_escaping_unverified_is_flagged() {
        let f = typestate(
            "fn forward(sec: &mut GuardedSection) {\n\
             let scores = sec.gemm(&q, &k);\n\
             emit(&scores);\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, ENCODED_TYPESTATE);
        assert!(f[0].message.contains("never reaches"));
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn verified_value_escaping_is_clean() {
        let f = typestate(
            "fn forward() {\n\
             let scores = sec.gemm(&q, &k);\n\
             sec.detect(&scores);\n\
             emit(&scores);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn verification_travels_through_bindings() {
        // Verifying via the section variable covers the whole component.
        let f = typestate(
            "fn forward() {\n\
             let scores = sec.gemm(&q, &k);\n\
             let probs = scores;\n\
             sec.exit_cols(probs);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_mutation_of_encoded_operand_is_flagged_once() {
        let f = typestate(
            "fn forward() {\n\
             let m = sec.gemm(&q, &k);\n\
             m.set(0, 0, 1.0);\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("raw mutation"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn mutation_before_encoding_is_clean() {
        let f = typestate(
            "fn forward() {\n\
             let m = build();\n\
             m.set(0, 0, 1.0);\n\
             let e = sec.encode_cols(m);\n\
             sec.detect(&e);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn indexed_write_to_encoded_operand_is_flagged() {
        let f = typestate(
            "fn forward() {\n\
             let m = sec.gemm(&q, &k);\n\
             m[0] = 3.0;\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("indexed write"));
    }

    #[test]
    fn encoded_value_feeding_nonlinearity_is_flagged() {
        let f = typestate(
            "fn forward() {\n\
             let scores = sec.gemm(&q, &k);\n\
             softmax_rows(&mut scores);\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("nonlinearity"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn test_fns_are_not_analyzed() {
        let f = typestate("#[test]\nfn check() { let m = sec.gemm(&q, &k); emit(&m); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn undocumented_unsafe_sites_are_flagged_and_tallied() {
        let (f, tally) = audit(
            "unsafe impl Send for P {}\n\
             // SAFETY: raw pointer is unique per rayon task\n\
             unsafe impl Sync for P {}\n\
             fn go() { let x = unsafe { read() }; }\n",
        );
        assert_eq!(tally.sites, 3);
        assert_eq!(tally.documented, 1);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.lint == UNSAFE_AUDIT));
    }

    #[test]
    fn fn_pointer_types_are_not_unsafe_sites() {
        let (f, tally) = audit("struct H { hook: unsafe fn(usize) -> f32 }\n");
        assert!(f.is_empty());
        assert_eq!(tally.sites, 0);
    }

    #[test]
    fn from_raw_parts_needs_an_asserted_bound() {
        let (f, _) = audit(
            "fn stage(p: *mut f32, k: usize) {\n\
             // SAFETY: staging rows are disjoint\n\
             let s = unsafe { std::slice::from_raw_parts_mut(p, 2 * k) };\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("asserted bound"));
    }

    #[test]
    fn asserted_bound_satisfies_from_raw_parts() {
        let (f, tally) = audit(
            "fn stage(p: *mut f32, k: usize, cap: usize) {\n\
             assert!(2 * k <= cap);\n\
             // SAFETY: bound asserted above\n\
             let s = unsafe { std::slice::from_raw_parts_mut(p, 2 * k) };\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(tally.sites, 1);
        assert_eq!(tally.documented, 1);
    }

    #[test]
    fn test_region_unsafe_is_exempt_but_marks_safety_used() {
        let src = "#[cfg(test)]\nmod tests {\n\
             // SAFETY: test-only probe\n\
             fn f() { let x = unsafe { read() }; }\n\
             }\n";
        let toks = lex(src);
        let ctx = scope::analyze(&toks);
        let parsed = parse::parse_file(&toks, &ctx);
        let dir = directives::parse("crates/model/src/x.rs", &toks, &ctx.code_lines);
        let mut out = Vec::new();
        let tally = unsafe_audit(
            "crates/model/src/x.rs",
            &toks,
            &ctx,
            &dir,
            &parsed,
            Profile::Full,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(tally.sites, 0);
        assert!(dir.safeties[0].used.get());
    }
}
