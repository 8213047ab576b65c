//! Workspace symbol table and conservative call graph.
//!
//! Built once per run from every full-profile file's parsed items and
//! shared by all reachability lints. Resolution is name-based with
//! receiver-type hints where they are cheap:
//!
//! * free calls bind to free fns (same-file candidates win over
//!   same-name fns elsewhere — shadowing locality), `Type::name(…)` and
//!   `module::name(…)` paths filter by qualifier,
//! * method calls bind by receiver type when it is recoverable from
//!   `self`, a typed param/local, or a struct field
//!   (`self.engine.step(…)` uses the field's declared type),
//! * a method call binds only to methods taking as many arguments as the
//!   site passes (Rust has no overloading, so this never drops a real
//!   edge) — what keeps uniformly-named layer methods (`forward`,
//!   `backward`) apart without a receiver hint,
//! * hint-less method calls fan out **conservatively** to every
//!   same-name, same-arity workspace method, capped at [`FANOUT_CAP`]
//!   targets — beyond the cap the call is counted as unresolved and adds
//!   no edges,
//! * names that collide with ubiquitous std methods (`STD_METHODS`)
//!   resolve as external unless a receiver hint proves otherwise, and
//!   calls through locally-bound values (closures, fn params) never
//!   bind to same-name items.
//!
//! A call with no same-name workspace item is *external* (std/vendor):
//! it cannot affect the graph and counts as resolved. The resolution
//! rate reported to CI is `resolved / total` over every call site seen.

use crate::lexer::{next_code, prev_code, Tok, TokKind};
use crate::parse::ParsedFile;
use crate::scope::Context;
use std::collections::{BTreeMap, BTreeSet};

/// Max conservative fan-out for a hint-less method call.
pub const FANOUT_CAP: usize = 8;

/// Ubiquitous std method names: hint-less calls to these are external.
#[rustfmt::skip]
const STD_METHODS: [&str; 40] = [
    "map", "get", "get_mut", "iter", "iter_mut", "into_iter", "len", "is_empty", "push", "pop",
    "insert", "remove", "clone", "to_vec", "next", "last", "first", "first_mut", "chunks",
    "chunks_mut", "windows", "contains", "extend", "drain", "clear", "sum", "fold", "reduce",
    "collect", "filter", "rev", "zip", "enumerate", "take", "skip", "min", "max", "abs", "sqrt",
    "fill",
];

/// How a call site was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Bound to ≥ 1 workspace fns (possibly conservatively).
    Bound,
    /// No workspace candidate / std-colliding / locally shadowed: the
    /// call cannot add graph edges and is exact by construction.
    External,
    /// Workspace candidates exist but could not be bound (fan-out over
    /// [`FANOUT_CAP`], or a free call naming only methods).
    Unresolved,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// File index (into the graph's file list).
    pub file: usize,
    /// 1-based source position of the callee name.
    pub line: u32,
    pub col: u32,
    /// Callee name as written.
    pub name: String,
    /// Calling function (index into [`Graph::fns`]).
    pub caller: usize,
    /// Resolved workspace targets (fn indexes).
    pub targets: Vec<usize>,
    /// Whether this is a `.name(…)` method call.
    pub is_method: bool,
    /// How the site resolved.
    pub resolution: Resolution,
}

/// A function in the graph: parsed item plus the per-body facts the
/// reachability lints consume.
#[derive(Debug)]
pub struct FnNode {
    /// Bare name.
    pub name: String,
    /// `impl`/`trait` owner for methods.
    pub owner: Option<String>,
    /// File index.
    pub file: usize,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Declared under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// Parameter count, `self` receiver excluded.
    pub arity: usize,
    /// Has a `{ … }` body (false for bodiless trait declarations).
    pub has_body: bool,
    /// Call sites in this body (indexes into [`Graph::sites`]).
    pub calls: Vec<usize>,
    /// Panic-capable constructs: (line, col, description).
    pub panic_sites: Vec<(u32, u32, &'static str)>,
}

impl FnNode {
    /// `Owner::name` for methods, bare `name` for free fns.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Workspace-relative paths, indexed by `CallSite::file`/`FnNode::file`.
    pub files: Vec<String>,
    /// Every non-test fn with a body, plus bodiless trait declarations
    /// (no calls, no sites — they exist for owner lookups only).
    pub fns: Vec<FnNode>,
    /// Every call site, in (file, body, position) order.
    pub sites: Vec<CallSite>,
    /// Total calls seen / resolved (bound + external) / unresolved.
    pub calls_total: usize,
    pub calls_resolved: usize,
    pub calls_unresolved: usize,
}

impl Graph {
    /// `resolved / total`, 1.0 for an empty graph.
    pub fn resolution_rate(&self) -> f64 {
        if self.calls_total == 0 {
            1.0
        } else {
            self.calls_resolved as f64 / self.calls_total as f64
        }
    }

    /// Find fns by `(owner, name)`.
    pub fn find_methods(&self, owner: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name && f.owner.as_deref() == Some(owner))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-file inputs to the graph build.
pub struct FileInput<'a> {
    pub rel: &'a str,
    pub toks: &'a [Tok],
    pub ctx: &'a Context,
    pub parsed: &'a ParsedFile,
}

/// Build the graph from every full-profile file.
pub fn build(files: &[FileInput<'_>]) -> Graph {
    let mut g = Graph::default();
    // Pass 1: register fns and struct fields.
    let mut field_types: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut field_unique: BTreeMap<String, Option<String>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        g.files.push(f.rel.to_string());
        for (sname, fields) in &f.parsed.structs {
            for (fname, fty) in fields {
                field_types.insert((sname.clone(), fname.clone()), fty.clone());
                field_unique
                    .entry(fname.clone())
                    .and_modify(|e| {
                        if e.as_deref() != Some(fty.as_str()) {
                            *e = None; // ambiguous across structs
                        }
                    })
                    .or_insert_with(|| Some(fty.clone()));
            }
        }
        for item in &f.parsed.fns {
            if item.is_test {
                continue;
            }
            g.fns.push(FnNode {
                name: item.name.clone(),
                owner: item.owner.clone(),
                file: fi,
                line: item.line,
                is_test: item.is_test,
                arity: item.arity,
                has_body: item.body.is_some(),
                calls: Vec::new(),
                panic_sites: Vec::new(),
            });
        }
    }
    // Symbol table: name → fn indexes.
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(i);
    }
    // File stems (`crates/tensor/src/float.rs` → `float`), for binding
    // module-qualified free calls to the module that defines them.
    let stems: Vec<String> = g
        .files
        .iter()
        .map(|f| {
            f.rsplit('/')
                .next()
                .unwrap_or(f)
                .trim_end_matches(".rs")
                .to_string()
        })
        .collect();

    // Pass 2: walk bodies — extract sites and panic facts, resolve.
    let mut fn_cursor = 0usize;
    for (fi, f) in files.iter().enumerate() {
        // Map parsed items (with bodies) back to graph nodes, in order.
        let nodes: Vec<(usize, &crate::parse::FnItem)> = f
            .parsed
            .fns
            .iter()
            .filter(|it| !it.is_test)
            .map(|it| {
                let id = fn_cursor;
                fn_cursor += 1;
                (id, it)
            })
            .collect();
        // Nested-fn body ranges, for exclusion from parents.
        let ranges: Vec<(usize, usize)> = nodes.iter().filter_map(|(_, it)| it.body).collect();
        for (id, item) in &nodes {
            let Some((lo, hi)) = item.body else { continue };
            let nested: Vec<(usize, usize)> = ranges
                .iter()
                .copied()
                .filter(|&(a, b)| a > lo && b < hi)
                .collect();
            let owner = g.fns[*id].owner.clone();
            let facts = walk_body(
                f,
                fi,
                *id,
                (lo, hi),
                &nested,
                item,
                owner.as_deref(),
                &by_name,
                &field_types,
                &field_unique,
                &g.fns,
                &stems,
            );
            g.fns[*id].panic_sites = facts.panic_sites;
            for site in facts.sites {
                g.calls_total += 1;
                match site.resolution {
                    Resolution::Unresolved => g.calls_unresolved += 1,
                    _ => g.calls_resolved += 1,
                }
                let si = g.sites.len();
                g.fns[*id].calls.push(si);
                g.sites.push(site);
            }
        }
    }
    g
}

/// Facts extracted from one body walk.
#[derive(Default)]
struct BodyFacts {
    sites: Vec<CallSite>,
    panic_sites: Vec<(u32, u32, &'static str)>,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

#[allow(clippy::too_many_arguments)] // internal plumbing of one build pass
fn walk_body(
    f: &FileInput<'_>,
    file_idx: usize,
    caller: usize,
    (lo, hi): (usize, usize),
    nested: &[(usize, usize)],
    item: &crate::parse::FnItem,
    owner: Option<&str>,
    by_name: &BTreeMap<String, Vec<usize>>,
    field_types: &BTreeMap<(String, String), String>,
    field_unique: &BTreeMap<String, Option<String>>,
    fns: &[FnNode],
    stems: &[String],
) -> BodyFacts {
    let toks = f.toks;
    let ctx = f.ctx;
    let mut out = BodyFacts::default();

    // Local value bindings: typed lets become receiver hints; every let
    // (and every param) shadows same-name items for call resolution.
    let mut local_types: BTreeMap<String, String> = item.params.iter().cloned().collect();
    let mut local_values: BTreeSet<String> = item.params.iter().map(|(n, _)| n.clone()).collect();
    let mut i = lo;
    while i < hi {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                local_values.insert(name.text.clone());
                if toks.get(j + 1).is_some_and(|t| t.is_punct(":")) {
                    if let Some((ty, _)) = crate::parse::type_last_segment(toks, j + 2) {
                        local_types.insert(name.text.clone(), ty);
                    }
                }
            }
        }
        i += 1;
    }

    let in_nested = |i: usize| nested.iter().any(|&(a, b)| i >= a && i < b);

    let mut i = lo;
    while i < hi {
        if in_nested(i) || toks[i].kind == TokKind::LineComment || ctx.in_test[i] {
            i += 1;
            continue;
        }
        // Skip attribute groups (`#[…]`) — their idents are not calls.
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|b| b.is_punct("[")) {
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < hi {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        let t = &toks[i];

        // --- panic facts -------------------------------------------------
        if t.kind == TokKind::Ident {
            if (t.text == "unwrap" || t.text == "expect")
                && prev_code(toks, i).is_some_and(|p| p.is_punct("."))
                && next_code(toks, i).is_some_and(|n| n.is_punct("("))
            {
                let desc = if t.text == "unwrap" {
                    "`.unwrap()`"
                } else {
                    "`.expect(…)`"
                };
                out.panic_sites.push((t.line, t.col, desc));
            }
            if PANIC_MACROS.contains(&t.text.as_str())
                && next_code(toks, i).is_some_and(|n| n.is_punct("!"))
            {
                out.panic_sites.push((t.line, t.col, "panic-family macro"));
            }
        }
        if t.is_punct("[") && !ctx.in_assert[i] {
            let expr_head = matches!(
                prev_code(toks, i),
                Some(p) if (p.kind == TokKind::Ident && !is_bracket_keyword(&p.text))
                    || p.is_punct(")")
                    || p.is_punct("]")
            );
            if expr_head {
                out.panic_sites.push((t.line, t.col, "slice indexing"));
            }
        }

        // --- call sites --------------------------------------------------
        if t.kind == TokKind::Ident && !is_call_keyword(&t.text) {
            let next = next_code(toks, i);
            let is_direct_call = next.is_some_and(|n| n.is_punct("("));
            // Turbofish: `name::<T>(…)`.
            let is_turbofish_call =
                next.is_some_and(|n| n.is_punct("::")) && after_turbofish_is_paren(toks, i);
            if is_direct_call || is_turbofish_call {
                let prev = prev_code(toks, i);
                let is_def = prev.is_some_and(|p| p.is_ident("fn"));
                let is_macro = false; // `name!(` never matches: next is `!`
                if !is_def && !is_macro {
                    let site = resolve_site(
                        toks,
                        i,
                        file_idx,
                        caller,
                        owner,
                        &local_types,
                        &local_values,
                        by_name,
                        field_types,
                        field_unique,
                        fns,
                        stems,
                    );
                    out.sites.push(site);
                }
            }
        }
        i += 1;
    }
    out
}

/// After `name::`, skip one `<…>` group; is the next token `(`?
fn after_turbofish_is_paren(toks: &[Tok], name_idx: usize) -> bool {
    let mut j = name_idx + 1;
    // skip to `::`
    while j < toks.len() && toks[j].kind == TokKind::LineComment {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct("::")) {
        return false;
    }
    j += 1;
    while j < toks.len() && toks[j].kind == TokKind::LineComment {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct("<")) {
        return false;
    }
    let mut angle = 1i32;
    j += 1;
    while j < toks.len() && angle > 0 {
        if toks[j].is_punct("<") {
            angle += 1;
        } else if toks[j].is_punct(">") {
            angle -= 1;
        }
        j += 1;
    }
    while j < toks.len() && toks[j].kind == TokKind::LineComment {
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.is_punct("("))
}

#[allow(clippy::too_many_arguments)] // internal plumbing of one build pass
fn resolve_site(
    toks: &[Tok],
    i: usize,
    file_idx: usize,
    caller: usize,
    owner: Option<&str>,
    local_types: &BTreeMap<String, String>,
    local_values: &BTreeSet<String>,
    by_name: &BTreeMap<String, Vec<usize>>,
    field_types: &BTreeMap<(String, String), String>,
    field_unique: &BTreeMap<String, Option<String>>,
    fns: &[FnNode],
    stems: &[String],
) -> CallSite {
    let t = &toks[i];
    let name = t.text.clone();
    let is_method = prev_code(toks, i).is_some_and(|p| p.is_punct("."));
    let mut site = CallSite {
        file: file_idx,
        line: t.line,
        col: t.col,
        name: name.clone(),
        caller,
        targets: Vec::new(),
        is_method,
        resolution: Resolution::External,
    };
    let candidates = by_name.get(name.as_str()).cloned().unwrap_or_default();
    if candidates.is_empty() {
        return site; // external — std/vendor, cannot affect the graph
    }

    if !is_method {
        // Locally-bound values (closures, fn-pointer params) shadow items.
        if local_values.contains(&name) {
            return site;
        }
        let qualifier = free_call_qualifier(toks, i);
        match qualifier {
            Some(q) => {
                let q = if q == "Self" {
                    owner.unwrap_or("Self").to_string()
                } else {
                    q
                };
                let filtered: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| fns[c].owner.as_deref() == Some(q.as_str()))
                    .collect();
                if !filtered.is_empty() {
                    site.targets = filtered;
                    site.resolution = Resolution::Bound;
                } else {
                    // Module-qualified free fn: `crate::`/`super::`/`self::`
                    // paths are workspace-internal, so any free candidate
                    // binds; other qualifiers (`float::exactly_zero`) bind
                    // only to free fns whose defining file matches the
                    // module name — a std path sharing a name with a
                    // workspace fn (`std::mem::take` vs `workspace::take`)
                    // must stay external.
                    let internal = matches!(q.as_str(), "crate" | "super" | "self");
                    let free: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| {
                            fns[c].owner.is_none() && (internal || stems[fns[c].file] == q)
                        })
                        .collect();
                    if !free.is_empty() {
                        site.targets = free;
                        site.resolution = Resolution::Bound;
                    } else if internal {
                        site.resolution = Resolution::Unresolved;
                    } else {
                        site.resolution = Resolution::External;
                    }
                }
            }
            None => {
                let free: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| fns[c].owner.is_none())
                    .collect();
                if free.is_empty() {
                    site.resolution = Resolution::Unresolved; // UFCS? methods only
                } else {
                    // Same-file candidates shadow same-name fns elsewhere.
                    let local: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&c| fns[c].file == file_idx)
                        .collect();
                    site.targets = if local.is_empty() { free } else { local };
                    site.resolution = Resolution::Bound;
                }
            }
        }
        return site;
    }

    // Method call: recover a receiver type where cheap.
    let hint = receiver_hint(toks, i, owner, local_types, field_types, field_unique);
    let mut methods: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].owner.is_some())
        .collect();
    // Arity filter; an argument list this walker miscounts (no method of
    // that arity) keeps every candidate rather than dropping edges.
    let args = call_arg_count(toks, i);
    if methods.iter().any(|&c| Some(fns[c].arity) == args) {
        methods.retain(|&c| Some(fns[c].arity) == args);
    }
    match hint {
        Some(ty) => {
            let exact: Vec<usize> = methods
                .iter()
                .copied()
                .filter(|&c| fns[c].owner.as_deref() == Some(ty.as_str()))
                .collect();
            if exact.iter().any(|&c| fns[c].has_body) {
                site.targets = exact;
                site.resolution = Resolution::Bound;
            } else if !exact.is_empty() {
                // The receiver is typed as the trait itself (`&dyn T` /
                // `&impl T`): the bodiless declaration says nothing about
                // behaviour, so fan out conservatively to every impl.
                if methods.len() <= FANOUT_CAP {
                    site.targets = methods;
                    site.resolution = Resolution::Bound;
                } else {
                    site.resolution = Resolution::Unresolved;
                }
            } else if STD_METHODS.contains(&name.as_str()) || methods.is_empty() {
                site.resolution = Resolution::External;
            } else if methods.len() <= FANOUT_CAP {
                site.targets = methods;
                site.resolution = Resolution::Bound;
            } else {
                site.resolution = Resolution::Unresolved;
            }
        }
        None => {
            if STD_METHODS.contains(&name.as_str()) || methods.is_empty() {
                site.resolution = Resolution::External;
            } else if methods.len() <= FANOUT_CAP {
                site.targets = methods;
                site.resolution = Resolution::Bound;
            } else {
                site.resolution = Resolution::Unresolved;
            }
        }
    }
    site
}

/// Number of arguments the call whose callee name sits at `i` passes:
/// non-empty top-level segments of its `( … )`, commas inside nested
/// brackets, closure parameter lists and turbofish generics not counted.
/// `None` when the parenthesis is unbalanced.
fn call_arg_count(toks: &[Tok], i: usize) -> Option<usize> {
    let open = i + 1 + toks[i + 1..].iter().position(|t| t.is_punct("("))?;
    let (mut depth, mut count, mut seg_has_code, mut seg_start) = (0i32, 0usize, false, true);
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind != TokKind::Punct {
            if t.kind != TokKind::LineComment {
                seg_has_code = true;
                seg_start = t.is_ident("move");
            }
            j += 1;
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(count + usize::from(seg_has_code));
                }
            }
            "," if depth == 1 => {
                count += usize::from(seg_has_code);
                (seg_has_code, seg_start) = (false, true);
                j += 1;
                continue;
            }
            // Closure parameter list opening an argument: `|a, b| …`.
            "|" if depth == 1 && seg_start => {
                j += 1;
                while j < toks.len() && !toks[j].is_punct("|") {
                    j += 1;
                }
            }
            // Turbofish generics: `::<A, B>`.
            "::" if next_code(toks, j).is_some_and(|n| n.is_punct("<")) => {
                let mut angle = 0i32;
                loop {
                    j += 1;
                    match toks.get(j)?.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        _ => continue,
                    }
                    if angle <= 0 {
                        break;
                    }
                }
            }
            _ => {}
        }
        if j > open {
            (seg_has_code, seg_start) = (true, false);
        }
        j += 1;
    }
    None
}

/// For a free call at `i`, the immediately-preceding path segment
/// (`Type::name(` → `Type`), if any.
fn free_call_qualifier(toks: &[Tok], i: usize) -> Option<String> {
    let mut it = toks[..i]
        .iter()
        .rev()
        .filter(|t| t.kind != TokKind::LineComment);
    let sep = it.next()?;
    if !sep.is_punct("::") {
        return None;
    }
    let seg = it.next()?;
    // `<T>::name` / `>::name` — give up on qualified-generic paths.
    (seg.kind == TokKind::Ident).then(|| seg.text.clone())
}

/// Receiver-type hint for a method call at `i`, where cheap:
/// `self.m(…)` → impl owner; `x.m(…)` → typed param/local; `self.f.m(…)`
/// → owner struct's field type; `x.f.m(…)` → typed base's field type or
/// a globally-unique field name.
fn receiver_hint(
    toks: &[Tok],
    i: usize,
    owner: Option<&str>,
    local_types: &BTreeMap<String, String>,
    field_types: &BTreeMap<(String, String), String>,
    field_unique: &BTreeMap<String, Option<String>>,
) -> Option<String> {
    let mut it = toks[..i]
        .iter()
        .rev()
        .filter(|t| t.kind != TokKind::LineComment);
    let dot = it.next()?; // the `.` before the method name
    if !dot.is_punct(".") {
        return None;
    }
    let recv = it.next()?;
    if recv.kind != TokKind::Ident {
        return None; // `(expr).m()`, `a[i].m()`, chained `… ).m()`
    }
    // What precedes the receiver: another `.` makes it a field access.
    let before = it.next();
    let prev_is_dot = before.as_ref().is_some_and(|t| t.is_punct("."));
    if !prev_is_dot {
        if recv.text == "self" {
            return owner.map(str::to_string);
        }
        return local_types.get(&recv.text).cloned();
    }
    // `base.field.m(…)`: type the base, then the field.
    let base = it.next()?;
    if base.kind != TokKind::Ident {
        return None;
    }
    let base_ty = if base.text == "self" {
        owner.map(str::to_string)
    } else {
        local_types.get(&base.text).cloned()
    };
    if let Some(bt) = base_ty {
        if let Some(ft) = field_types.get(&(bt, recv.text.clone())) {
            return Some(ft.clone());
        }
    }
    // Fall back: field name unique across all structs.
    field_unique.get(&recv.text).cloned().flatten()
}

fn is_bracket_keyword(s: &str) -> bool {
    matches!(s, "mut" | "dyn" | "in" | "return" | "break")
}

/// Identifiers that look like calls when followed by `(` but are syntax.
fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "return"
            | "loop"
            | "for"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "break"
            | "continue"
            | "else"
            | "unsafe"
            | "await"
            | "where"
            | "let"
            | "mut"
            | "impl"
            | "dyn"
            | "fn"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse;
    use crate::scope;

    fn graph(srcs: &[(&str, &str)]) -> Graph {
        let lexed: Vec<(String, Vec<Tok>)> = srcs
            .iter()
            .map(|(rel, src)| (rel.to_string(), lex(src)))
            .collect();
        let ctxs: Vec<Context> = lexed.iter().map(|(_, t)| scope::analyze(t)).collect();
        let parsed: Vec<parse::ParsedFile> = lexed
            .iter()
            .zip(&ctxs)
            .map(|((_, t), c)| parse::parse_file(t, c))
            .collect();
        let inputs: Vec<FileInput<'_>> = lexed
            .iter()
            .zip(&ctxs)
            .zip(&parsed)
            .map(|(((rel, toks), ctx), p)| FileInput {
                rel,
                toks,
                ctx,
                parsed: p,
            })
            .collect();
        build(&inputs)
    }

    fn targets_of(g: &Graph, caller: &str, callee: &str) -> Vec<String> {
        let site = g
            .sites
            .iter()
            .find(|s| s.name == callee && g.fns[s.caller].name == caller)
            .unwrap_or_else(|| panic!("no site {caller} → {callee}"));
        site.targets.iter().map(|&t| g.fns[t].qualified()).collect()
    }

    #[test]
    fn free_call_binds_to_free_fn_not_method() {
        let g = graph(&[(
            "a.rs",
            "fn refresh() {}\n\
             struct S;\n\
             impl S { fn refresh(&self) {} fn go(&self) { refresh(); } }\n",
        )]);
        assert_eq!(targets_of(&g, "go", "refresh"), vec!["refresh"]);
    }

    #[test]
    fn self_method_binds_to_impl_owner() {
        let g = graph(&[(
            "a.rs",
            "struct A; struct B;\n\
             impl A { fn m(&self) {} fn go(&self) { self.m(); } }\n\
             impl B { fn m(&self) {} }\n",
        )]);
        assert_eq!(targets_of(&g, "go", "m"), vec!["A::m"]);
    }

    #[test]
    fn field_receiver_uses_struct_field_type() {
        let g = graph(&[(
            "a.rs",
            "struct Engine;\n\
             impl Engine { fn step(&mut self) {} }\n\
             struct Gate { engine: Engine }\n\
             struct Other;\n\
             impl Other { fn step(&mut self) {} }\n\
             impl Gate { fn tick(&mut self) { self.engine.step(); } }\n",
        )]);
        assert_eq!(targets_of(&g, "tick", "step"), vec!["Engine::step"]);
    }

    #[test]
    fn hintless_method_fans_out_conservatively() {
        let g = graph(&[(
            "a.rs",
            "struct A; struct B;\n\
             impl A { fn fire(&self) {} }\n\
             impl B { fn fire(&self) {} }\n\
             fn go(xs: &[Box<X>]) { for x in xs { x.fire(); } }\n",
        )]);
        let mut t = targets_of(&g, "go", "fire");
        t.sort();
        assert_eq!(t, vec!["A::fire", "B::fire"]);
    }

    #[test]
    fn hintless_method_binds_by_argument_count() {
        // Uniformly-named layer methods: only arity tells them apart.
        let g = graph(&[(
            "a.rs",
            "struct A; struct B; struct C;\n\
             impl A { fn forward(&self, x: u8) {} }\n\
             impl B { fn forward(&self, x: u8, g: u8) {} }\n\
             impl C { fn forward(&self, x: u8, f: u8,) {} }\n\
             fn one(l: &[X]) { for a in l { a.forward(f(1, 2)); } }\n\
             fn two(l: &[X]) { for b in l { b.forward(v.iter().map(|p, q| p), [1, 2],); } }\n\
             fn odd(l: &[X]) { for c in l { c.forward(1, 2, 3); } }\n",
        )]);
        assert_eq!(targets_of(&g, "one", "forward"), vec!["A::forward"]);
        let mut t = targets_of(&g, "two", "forward");
        t.sort();
        assert_eq!(t, vec!["B::forward", "C::forward"]);
        // No method takes three: keep the conservative fan-out.
        assert_eq!(targets_of(&g, "odd", "forward").len(), 3);
    }

    #[test]
    fn std_colliding_names_stay_external_without_hints() {
        let g = graph(&[(
            "a.rs",
            "struct M;\n\
             impl M { fn map(&self) {} }\n\
             fn go(v: &[u8]) { let _ = v.iter().map(|x| x); }\n",
        )]);
        let site = g
            .sites
            .iter()
            .find(|s| s.name == "map" && g.fns[s.caller].name == "go")
            .unwrap();
        assert_eq!(site.resolution, Resolution::External);
        assert!(site.targets.is_empty());
    }

    #[test]
    fn local_closures_shadow_same_name_fns() {
        let g = graph(&[(
            "a.rs",
            "fn run() {}\n\
             fn go() { let run = || {}; run(); }\n",
        )]);
        let site = g
            .sites
            .iter()
            .find(|s| s.name == "run" && g.fns[s.caller].name == "go")
            .unwrap();
        assert_eq!(site.resolution, Resolution::External);
    }

    #[test]
    fn panic_facts_are_per_fn() {
        let g = graph(&[(
            "a.rs",
            "fn risky(v: &[u8]) -> u8 { v[0] }\n\
             fn safe() -> Vec<u8> { vec![0] }\n",
        )]);
        let risky = g.fns.iter().find(|f| f.name == "risky").unwrap();
        assert_eq!(risky.panic_sites.len(), 1);
        let safe = g.fns.iter().find(|f| f.name == "safe").unwrap();
        assert!(safe.panic_sites.is_empty());
    }

    #[test]
    fn test_fns_never_enter_the_graph() {
        let g = graph(&[(
            "a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() { super::live(); } }\n",
        )]);
        assert!(g.fns.iter().all(|f| f.name != "helper"));
    }

    #[test]
    fn resolution_rate_counts_externals_as_resolved() {
        let g = graph(&[("a.rs", "fn go(v: &[u8]) { v.len(); }\n")]);
        assert!(g.resolution_rate() >= 1.0 - 1e-9);
    }
}
