//! # attn_lint
//!
//! A contract-enforcing static-analysis pass for this workspace. The
//! repo's correctness story rests on four invariants that regression
//! tests can only sample; this tool makes violating them a CI failure:
//!
//! 1. **Determinism** — bit-identical results at any worker count
//!    (fixed-order reduction): [`lints::NONDET_REDUCE`] plus the
//!    interprocedural [`reach::NONDET_REDUCE_REACH`].
//! 2. **Alloc-free steady state** — hot paths draw scratch from the
//!    workspace arena, never the global allocator:
//!    [`lints::HOT_PATH_ALLOC`] plus [`reach::HOT_PATH_ALLOC_REACH`].
//! 3. **Total ABFT coverage** — every model-layer GEMM flows through
//!    `GuardedSection`/`ProtectedLinear`: [`lints::UNGUARDED_GEMM`] plus
//!    [`reach::UNGUARDED_GEMM_REACH`].
//! 4. **No-panic serving** — nothing transitively reachable from the
//!    gateway/engine entry points may panic: [`reach::PANIC_REACH`]
//!    (plus [`lints::FLOAT_EQ`] for the sentinel-comparison hygiene the
//!    gates depend on).
//! 5. **Sound protection dataflow** — encoded operands reach a
//!    verify/exit point before escaping or feeding a nonlinearity
//!    ([`dataflow::ENCODED_TYPESTATE`]), every `unsafe` site carries a
//!    checked `// SAFETY:` justification ([`dataflow::UNSAFE_AUDIT`]),
//!    and `#[target_feature]` kernels are only callable through
//!    `is_x86_feature_detected!`-gated dispatch
//!    ([`reach::TARGET_FEATURE_REACH`]).
//!
//! Since PR 8 the tool is *interprocedural*: an item-level parser
//! ([`parse`]) over the hand-written lexer builds a workspace symbol
//! table, [`callgraph`] resolves a conservative call graph from it
//! (receiver-type hints where cheap, bounded fan-out where not), and
//! [`reach`] runs five reachability analyses whose findings carry the
//! shortest entry→violation call path. Since PR 10 it is also a
//! *dataflow* tool: [`dataflow`] abstract-interprets matrix values
//! through {Raw, Encoded, Verified, Stale} typestates per fn body, and
//! the whole workspace is lexed/parsed exactly once per run
//! ([`prepare_tree`]) and shared between `check` and `--coverage`.
//! The tool stays self-contained
//! (no external deps — this environment is vendored-only) and scans
//! every `crates/*/src` file plus, with a relaxed lint set, the root
//! `tests/` and `examples/` trees. Suppression is per-line and
//! justification-carrying:
//!
//! ```text
//! // attn-lint: allow(hot-path-alloc) — construction, not steady state
//! // attn-lint: allow-path(panic-reach) — model boundary: decode_step is total
//! ```
//!
//! The second form cuts *call-graph edges* leaving the targeted line
//! instead of silencing one sink, so a reviewed boundary is vouched for
//! once. Unknown lint names, missing justifications, and allows that
//! suppress nothing are themselves errors, so the suppression inventory
//! stays exact. Run it as:
//!
//! ```text
//! cargo run -p attn_lint --release -- check
//! cargo run -p attn_lint --release -- check --coverage
//! ```
//!
//! The second command also emits `BENCH_coverage.json`: every op on the
//! forward/decode/train paths with its guarded/unguarded status — the
//! tracked artifact behind ROADMAP item 3.

pub mod callgraph;
pub mod dataflow;
pub mod directives;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod reach;
pub mod report;
pub mod scope;

pub use lints::Profile;

use directives::Allow;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The eleven contract lints, in report order: four syntactic, two
/// dataflow, five interprocedural.
pub const LINT_NAMES: [&str; 11] = [
    lints::NONDET_REDUCE,
    lints::HOT_PATH_ALLOC,
    lints::UNGUARDED_GEMM,
    lints::FLOAT_EQ,
    dataflow::ENCODED_TYPESTATE,
    dataflow::UNSAFE_AUDIT,
    reach::PANIC_REACH,
    reach::HOT_PATH_ALLOC_REACH,
    reach::UNGUARDED_GEMM_REACH,
    reach::NONDET_REDUCE_REACH,
    reach::TARGET_FEATURE_REACH,
];

/// The reachability subset — the only lints `allow-path` may name.
pub const REACH_NAMES: [&str; 5] = [
    reach::PANIC_REACH,
    reach::HOT_PATH_ALLOC_REACH,
    reach::UNGUARDED_GEMM_REACH,
    reach::NONDET_REDUCE_REACH,
    reach::TARGET_FEATURE_REACH,
];

/// Meta diagnostics about the suppression inventory itself.
pub const META_NAMES: [&str; 4] = [
    "unknown-allow",
    "missing-justification",
    "unused-allow",
    "unused-safety",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`crates/…/src/….rs`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lint name (one of [`LINT_NAMES`] or [`META_NAMES`]).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(
        file: &str,
        line: u32,
        col: u32,
        lint: &'static str,
        message: String,
    ) -> Self {
        Self {
            file: file.to_string(),
            line,
            col,
            lint,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} · {} · {}",
            self.file, self.line, self.col, self.lint, self.message
        )
    }
}

/// One suppression honoured during a scan: where the directive sits and
/// which lint it silenced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Workspace-relative path of the directive.
    pub file: String,
    /// 1-based position of the directive comment.
    pub line: u32,
    pub col: u32,
    /// Lint name(s) it suppressed (comma-joined for allow-paths).
    pub lint: String,
}

/// Result of scanning a tree (or a set of sources, for tests).
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings that survived suppression, sorted by file/line/col.
    pub findings: Vec<Finding>,
    /// Justified allows (and allow-paths) that suppressed something.
    pub suppressions_used: usize,
    /// Every suppression honoured, sorted by (file, line, col, lint).
    pub suppressions: Vec<Suppression>,
    /// Wall time of the scan, in milliseconds.
    pub wall_ms: u128,
    /// Wall time of the shared lex/scope/directive/parse pass, in
    /// microseconds — the work `--coverage` reuses instead of redoing.
    pub prepare_us: u128,
    /// Microseconds saved by reusing the prepared workspace for
    /// `--coverage` (0 when coverage did not run).
    pub coverage_reuse_saved_us: u128,
    /// Per-pass wall time in microseconds, in run order (lints first,
    /// then the `callgraph` infrastructure entry; the shared prepare
    /// pass is [`Report::prepare_us`]).
    pub lint_us: Vec<(&'static str, u128)>,
    /// Call sites seen by the graph.
    pub calls_total: usize,
    /// Sites bound to a workspace fn or proven external.
    pub calls_resolved: usize,
    /// Sites the conservative resolver gave up on.
    pub calls_unresolved: usize,
    /// Non-test `unsafe` sites in Full-profile code.
    pub unsafe_sites: usize,
    /// Of those, sites carrying a checked `// SAFETY:` justification.
    pub unsafe_documented: usize,
    /// Serving entry points found in this tree, qualified.
    pub entry_points: Vec<String>,
}

impl Report {
    /// Findings counted per lint name (zero entries included, so the
    /// JSON trajectory is diffable across runs).
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        LINT_NAMES
            .iter()
            .chain(META_NAMES.iter())
            .map(|&name| {
                (
                    name,
                    self.findings.iter().filter(|f| f.lint == name).count(),
                )
            })
            .collect()
    }

    /// True when the tree honours every contract.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Fraction of call sites bound or proven external (1.0 when no
    /// calls were seen).
    pub fn resolution_rate(&self) -> f64 {
        if self.calls_total == 0 {
            1.0
        } else {
            self.calls_resolved as f64 / self.calls_total as f64
        }
    }

    /// Fraction of non-test `unsafe` sites carrying a checked
    /// `// SAFETY:` justification (1.0 when there are no sites).
    pub fn safety_coverage(&self) -> f64 {
        if self.unsafe_sites == 0 {
            1.0
        } else {
            self.unsafe_documented as f64 / self.unsafe_sites as f64
        }
    }

    /// Suppressions honoured per lint name (zero entries included).
    pub fn suppression_counts(&self) -> Vec<(&'static str, usize)> {
        LINT_NAMES
            .iter()
            .map(|&name| {
                (
                    name,
                    self.suppressions.iter().filter(|s| s.lint == name).count(),
                )
            })
            .collect()
    }
}

/// Lint profile by path: root `tests/` and `examples/` get the relaxed
/// set and stay out of the call graph; everything else is library code.
pub fn profile_for(rel_path: &str) -> Profile {
    if rel_path.starts_with("tests/") || rel_path.starts_with("examples/") {
        Profile::Relaxed
    } else {
        Profile::Full
    }
}

/// One file prepared for graph construction.
struct Prepared {
    rel: String,
    profile: Profile,
    toks: Vec<lexer::Tok>,
    ctx: scope::Context,
    dir: directives::Directives,
    parsed: Option<parse::ParsedFile>,
}

/// A lexed/scoped/parsed workspace: the shared artifact behind both
/// `check` and `--coverage`, built once per run.
pub struct PreparedTree {
    prepared: Vec<Prepared>,
    /// Wall time of the lex/scope/directive/parse pass, in microseconds.
    pub prepare_us: u128,
}

/// Lex, scope-analyze, directive-parse, and item-parse a set of
/// `(workspace-relative path, source)` pairs once.
pub fn prepare_sources(files: &[(String, String)]) -> PreparedTree {
    let started = Instant::now();
    let mut prepared: Vec<Prepared> = Vec::new();
    for (rel, src) in files {
        let toks = lexer::lex(src);
        let ctx = scope::analyze(&toks);
        let dir = directives::parse(rel, &toks, &ctx.code_lines);
        let profile = profile_for(rel);
        let parsed = (profile == Profile::Full).then(|| parse::parse_file(&toks, &ctx));
        prepared.push(Prepared {
            rel: rel.clone(),
            profile,
            toks,
            ctx,
            dir,
            parsed,
        });
    }
    PreparedTree {
        prepared,
        prepare_us: started.elapsed().as_micros(),
    }
}

/// Scan a prepared workspace: syntactic and dataflow lints per file,
/// then one shared call graph over the `Full`-profile files, then the
/// reachability lints, then suppression filtering and the meta findings.
pub fn scan_prepared(tree: &PreparedTree) -> Report {
    let started = Instant::now();
    let mut lint_us: Vec<(&'static str, u128)> = LINT_NAMES.iter().map(|&n| (n, 0u128)).collect();
    lint_us.push(("callgraph", 0));
    let bump = |v: &mut Vec<(&'static str, u128)>, name: &str, t0: Instant| {
        let us = t0.elapsed().as_micros();
        if let Some(e) = v.iter_mut().find(|e| e.0 == name) {
            e.1 += us;
        }
    };

    let prepared = &tree.prepared;
    let mut raw: Vec<Finding> = Vec::new();
    let mut unsafe_sites = 0usize;
    let mut unsafe_documented = 0usize;
    for p in prepared {
        let rel = p.rel.as_str();
        let (toks, ctx) = (&p.toks, &p.ctx);
        let t0 = Instant::now();
        lints::nondet_reduce(rel, toks, ctx, &mut raw);
        bump(&mut lint_us, lints::NONDET_REDUCE, t0);
        if p.profile == Profile::Full {
            if p.dir.hot_path {
                let t0 = Instant::now();
                lints::hot_path_alloc(rel, toks, ctx, &mut raw);
                bump(&mut lint_us, lints::HOT_PATH_ALLOC, t0);
            }
            if !lints::unguarded_gemm_whitelisted(rel) {
                if let Some(parsed) = &p.parsed {
                    let t0 = Instant::now();
                    lints::unguarded_gemm(rel, toks, ctx, parsed, &mut raw);
                    bump(&mut lint_us, lints::UNGUARDED_GEMM, t0);
                }
            }
        }
        let t0 = Instant::now();
        lints::float_eq(rel, toks, ctx, &mut raw);
        bump(&mut lint_us, lints::FLOAT_EQ, t0);

        if let Some(parsed) = &p.parsed {
            if !dataflow::typestate_whitelisted(rel) {
                let t0 = Instant::now();
                dataflow::encoded_typestate(rel, toks, parsed, &mut raw);
                bump(&mut lint_us, dataflow::ENCODED_TYPESTATE, t0);
            }
            let t0 = Instant::now();
            let tally = dataflow::unsafe_audit(rel, toks, ctx, &p.dir, parsed, p.profile, &mut raw);
            bump(&mut lint_us, dataflow::UNSAFE_AUDIT, t0);
            unsafe_sites += tally.sites;
            unsafe_documented += tally.documented;
        }
    }

    // One shared call graph over the Full-profile files.
    let full: Vec<&Prepared> = prepared
        .iter()
        .filter(|p| p.profile == Profile::Full)
        .collect();
    let inputs: Vec<callgraph::FileInput<'_>> = full
        .iter()
        .filter_map(|p| {
            p.parsed.as_ref().map(|parsed| callgraph::FileInput {
                rel: &p.rel,
                toks: &p.toks,
                ctx: &p.ctx,
                parsed,
            })
        })
        .collect();
    let t0 = Instant::now();
    let graph = callgraph::build(&inputs);
    bump(&mut lint_us, "callgraph", t0);
    let hot: Vec<bool> = full.iter().map(|p| p.dir.hot_path).collect();
    let path_allows: Vec<(&str, &[Allow])> = prepared
        .iter()
        .map(|p| (p.rel.as_str(), p.dir.allow_paths.as_slice()))
        .collect();
    let cuts = reach::PathAllows::new(&graph.files, &path_allows);

    let t0 = Instant::now();
    reach::panic_reach(&graph, &cuts, &mut raw);
    bump(&mut lint_us, reach::PANIC_REACH, t0);
    let t0 = Instant::now();
    reach::hot_path_alloc_reach(&graph, &hot, &cuts, &mut raw);
    bump(&mut lint_us, reach::HOT_PATH_ALLOC_REACH, t0);
    let t0 = Instant::now();
    reach::unguarded_gemm_reach(&graph, &cuts, &mut raw);
    bump(&mut lint_us, reach::UNGUARDED_GEMM_REACH, t0);
    let t0 = Instant::now();
    reach::nondet_reduce_reach(&graph, &cuts, &mut raw);
    bump(&mut lint_us, reach::NONDET_REDUCE_REACH, t0);
    let t0 = Instant::now();
    reach::target_feature_reach(&graph, &cuts, &mut raw);
    bump(&mut lint_us, reach::TARGET_FEATURE_REACH, t0);

    // Suppression filtering against each finding's own file.
    let dirs: BTreeMap<&str, &directives::Directives> =
        prepared.iter().map(|p| (p.rel.as_str(), &p.dir)).collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        let allow = dirs.get(f.file.as_str()).and_then(|d| {
            d.allows
                .iter()
                .find(|a| a.target_line == f.line && a.names.iter().any(|n| n == f.lint))
        });
        match allow {
            Some(a) => {
                a.used.set(true);
                suppressed += 1;
                suppressions.push(Suppression {
                    file: f.file.clone(),
                    line: a.line,
                    col: a.col,
                    lint: f.lint.to_string(),
                });
            }
            None => findings.push(f),
        }
    }
    // Directive errors, unused allows, and unused SAFETY comments are
    // findings too — the suppression inventory must stay exact.
    for p in prepared {
        findings.extend(p.dir.errors.iter().cloned());
        for a in &p.dir.allows {
            if !a.used.get() {
                findings.push(Finding::new(
                    &p.rel,
                    a.line,
                    a.col,
                    "unused-allow",
                    format!(
                        "allow({}) suppresses nothing on line {}; remove it",
                        a.names.join(", "),
                        a.target_line
                    ),
                ));
            }
        }
        for a in &p.dir.allow_paths {
            if a.used.get() {
                suppressed += 1;
                suppressions.push(Suppression {
                    file: p.rel.clone(),
                    line: a.line,
                    col: a.col,
                    lint: a.names.join(","),
                });
            } else {
                findings.push(Finding::new(
                    &p.rel,
                    a.line,
                    a.col,
                    "unused-allow",
                    format!(
                        "allow-path({}) cuts no call edge on line {}; remove it",
                        a.names.join(", "),
                        a.target_line
                    ),
                ));
            }
        }
        if p.profile == Profile::Full {
            for s in &p.dir.safeties {
                if !s.used.get() {
                    findings.push(Finding::new(
                        &p.rel,
                        s.line,
                        s.col,
                        "unused-safety",
                        format!(
                            "`// SAFETY:` on line {} documents no unsafe site; move it \
                             directly above (or onto) the `unsafe` line, after any \
                             attributes",
                            s.line
                        ),
                    ));
                }
            }
        }
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    suppressions
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.lint).cmp(&(&b.file, b.line, b.col, &b.lint)));

    Report {
        files_scanned: prepared.len(),
        findings,
        suppressions_used: suppressed,
        suppressions,
        wall_ms: started.elapsed().as_millis(),
        prepare_us: tree.prepare_us,
        coverage_reuse_saved_us: 0,
        lint_us,
        calls_total: graph.calls_total,
        calls_resolved: graph.calls_resolved,
        calls_unresolved: graph.calls_unresolved,
        unsafe_sites,
        unsafe_documented,
        entry_points: reach::entry_points(&graph),
    }
}

/// Prepare and scan in one call (tests and single-shot callers).
pub fn scan_sources(files: &[(String, String)]) -> Report {
    scan_prepared(&prepare_sources(files))
}

/// Scan one source file (given its workspace-relative path, which drives
/// the per-crate lint scoping) and return surviving findings plus the
/// number of suppressions honoured. Single-file convenience over
/// [`scan_sources`] — the call graph is built from this file alone.
pub fn scan_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let report = scan_sources(&[(rel_path.to_string(), src.to_string())]);
    (report.findings, report.suppressions_used)
}

/// Collect the scan set: every `crates/*/src/**/*.rs` (Full profile)
/// plus root `tests/*.rs` and `examples/*.rs` (Relaxed profile).
fn collect_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files)?;
    }
    for flat in ["tests", "examples"] {
        let dir = root.join(flat);
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        entries.sort();
        files.extend(entries);
    }
    files.sort();

    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        out.push((rel, src));
    }
    Ok(out)
}

/// Prepare the workspace tree under `root` once, for [`scan_prepared`]
/// and [`run_coverage_prepared`] to share.
pub fn prepare_tree(root: &Path) -> std::io::Result<PreparedTree> {
    Ok(prepare_sources(&collect_tree(root)?))
}

/// Scan the workspace tree under `root`.
pub fn run_check(root: &Path) -> std::io::Result<Report> {
    Ok(scan_prepared(&prepare_tree(root)?))
}

/// Build the call graph from an already-prepared workspace and walk the
/// forward/decode/train entry points, cataloguing every op with its
/// protection status.
pub fn run_coverage_prepared(tree: &PreparedTree) -> reach::Coverage {
    let inputs: Vec<callgraph::FileInput<'_>> = tree
        .prepared
        .iter()
        .filter(|p| p.profile == Profile::Full)
        .filter_map(|p| {
            p.parsed.as_ref().map(|parsed| callgraph::FileInput {
                rel: &p.rel,
                toks: &p.toks,
                ctx: &p.ctx,
                parsed,
            })
        })
        .collect();
    let graph = callgraph::build(&inputs);
    reach::coverage(&graph)
}

/// Prepare-and-walk convenience over [`run_coverage_prepared`].
pub fn run_coverage(root: &Path) -> std::io::Result<reach::Coverage> {
    Ok(run_coverage_prepared(&prepare_tree(root)?))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
