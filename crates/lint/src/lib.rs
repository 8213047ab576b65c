//! # attn_lint
//!
//! A contract-enforcing static-analysis pass for this workspace. One rule
//! decides what lives here: a contract keeps a lint only when neither a
//! test nor the compiler can observe it, and a lint ships only with a row
//! in the real-tree mutation table (`tests/mutations.rs`) showing it fires
//! on a seeded violation. Three lints survive it, over two contracts:
//!
//! 1. **Total ABFT coverage** — every model-layer GEMM flows through
//!    `GuardedSection`/`ProtectedLinear`: [`lints::UNGUARDED_GEMM`], plus
//!    the guarded-op ratchet on the `--coverage` walk.
//! 2. **No-panic serving** — nothing transitively reachable from the
//!    gateway/engine entry points may panic: [`reach::PANIC_REACH`]
//!    (plus [`lints::FLOAT_EQ`] for the sentinel-comparison hygiene the
//!    gates depend on).
//!
//! The other contracts are held where they can be observed. Tests hold
//! the arena-miss-free steady state and its heap-allocation budget
//! (`tests/heap_budget.rs`, `workspace::thread_alloc_events`), one
//! detection point per guarded section (the
//! `each_section_alone_corrects_its_own_sites` tests) and bit-identical
//! results at any worker count (`parallel_parity`). The toolchain holds
//! the rest:
//!
//! * **Fixed-order reduction** — the vendored rayon shim has no `sum`,
//!   `reduce`, `fold` or `product` and takes `Fn` closures, so an
//!   order-sensitive reducer or a captured float accumulator in a
//!   parallel chain does not compile (its `compile_fail` doctests pin
//!   both); the root `clippy.toml` disallows `HashMap`, `HashSet`,
//!   `Mutex` and `RwLock`, the containers whose iteration or lock order
//!   could reorder a float merge.
//! * **Sound `unsafe`** — every crate but `attn_tensor` is
//!   `#![forbid(unsafe_code)]`; `attn_tensor` denies
//!   `unsafe_op_in_unsafe_fn` (rustc) and
//!   `clippy::undocumented_unsafe_blocks`, so every `unsafe` block and
//!   impl carries a `// SAFETY:` comment.
//! * **SIMD dispatch** — a `#[target_feature]` kernel runs only after CPU
//!   detection, because `attn_tensor::lanes` keeps its kernels private
//!   behind a detection token and target_feature 1.1 makes every call to
//!   one `unsafe`.
//!
//! The tool is *interprocedural*: an item-level parser ([`parse`]) over
//! the hand-written lexer builds a workspace symbol table, [`callgraph`]
//! resolves a conservative call graph from it (receiver-type hints where
//! cheap, bounded fan-out where not), and [`reach`] runs the reachability
//! lint and the coverage walk over it. The whole workspace
//! is lexed, parsed and graphed exactly once per run ([`prepare_tree`])
//! and shared between `check` and `--coverage`.
//! The tool stays self-contained
//! (no external deps — this environment is vendored-only) and scans
//! every `crates/*/src` file plus, with a relaxed lint set, the root
//! `tests/` and `examples/` trees. Suppression is per-line and
//! justification-carrying:
//!
//! ```text
//! // attn-lint: allow(float-eq) — 0.0 is the exact "never check" sentinel
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

#![forbid(unsafe_code)]

pub mod callgraph;
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

/// The three contract lints, in report order: two per-file, one
/// interprocedural.
pub const LINT_NAMES: [&str; 3] = [lints::UNGUARDED_GEMM, lints::FLOAT_EQ, reach::PANIC_REACH];

/// The reachability subset — the only lints `allow-path` may name.
pub const REACH_NAMES: [&str; 1] = [reach::PANIC_REACH];

/// Coverage ratchet: at most this many op instances on the
/// forward/decode/train paths run without a guard
/// ([`reach::Coverage::ops_unguarded`]). It only moves down. A count, not
/// a rate, so deleting guarded code cannot trip it while a new unguarded
/// op always does. Today all 15 are on the committed by-design exemption
/// ([`lints::UNGUARDED_GEMM_BY_DESIGN`]: the `Linear` head and the backward
/// GEMMs); a raw GEMM outside that list is an `unguarded-gemm` finding
/// besides. Enforced by the binary's `--coverage` run and by the
/// `clean_tree` test.
pub const MAX_UNGUARDED_OPS: usize = 15;

/// Meta diagnostics about the suppression inventory itself.
pub const META_NAMES: [&str; 3] = ["unknown-allow", "missing-justification", "unused-allow"];

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
    /// Wall time from the start of the prepare pass to the end of the
    /// scan, in milliseconds (text summary only — the JSON is byte-stable).
    pub wall_ms: u128,
    /// Call sites seen by the graph.
    pub calls_total: usize,
    /// Sites bound to a workspace fn or proven external.
    pub calls_resolved: usize,
    /// Sites the conservative resolver gave up on.
    pub calls_unresolved: usize,
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

/// One file prepared for the per-file lints and graph construction.
struct Prepared {
    rel: String,
    toks: Vec<lexer::Tok>,
    ctx: scope::Context,
    dir: directives::Directives,
    parsed: Option<parse::ParsedFile>,
}

/// A lexed/scoped/parsed workspace and its call graph: the shared
/// artifact behind both `check` and `--coverage`, built once per run.
pub struct PreparedTree {
    prepared: Vec<Prepared>,
    /// One call graph over the `Full`-profile files.
    graph: callgraph::Graph,
    started: Instant,
}

/// Lex, scope-analyze, directive-parse, and item-parse a set of
/// `(workspace-relative path, source)` pairs once, then resolve the call
/// graph over them.
pub fn prepare_sources(files: &[(String, String)]) -> PreparedTree {
    let started = Instant::now();
    let mut prepared: Vec<Prepared> = Vec::new();
    for (rel, src) in files {
        let toks = lexer::lex(src);
        let ctx = scope::analyze(&toks);
        let dir = directives::parse(rel, &toks, &ctx.code_lines);
        let parsed = (profile_for(rel) == Profile::Full).then(|| parse::parse_file(&toks, &ctx));
        prepared.push(Prepared {
            rel: rel.clone(),
            toks,
            ctx,
            dir,
            parsed,
        });
    }
    let inputs: Vec<callgraph::FileInput<'_>> = prepared
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
    let graph = callgraph::build(&inputs);
    PreparedTree {
        prepared,
        graph,
        started,
    }
}

/// Scan a prepared workspace: the per-file lints, then the reachability
/// lints over the shared call graph, then suppression filtering and the
/// meta findings.
pub fn scan_prepared(tree: &PreparedTree) -> Report {
    let (prepared, graph) = (&tree.prepared, &tree.graph);
    let mut raw: Vec<Finding> = Vec::new();
    for p in prepared {
        let rel = p.rel.as_str();
        let (toks, ctx) = (&p.toks, &p.ctx);
        lints::float_eq(rel, toks, ctx, &mut raw);
        if let Some(parsed) = &p.parsed {
            if !lints::unguarded_gemm_whitelisted(rel) {
                lints::unguarded_gemm(rel, toks, ctx, parsed, &mut raw);
            }
        }
    }

    let path_allows: Vec<(&str, &[Allow])> = prepared
        .iter()
        .map(|p| (p.rel.as_str(), p.dir.allow_paths.as_slice()))
        .collect();
    let cuts = reach::PathAllows::new(&graph.files, &path_allows);
    reach::panic_reach(graph, &cuts, &mut raw);

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
    // Directive errors and unused allows are findings too — the
    // suppression inventory must stay exact.
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
        wall_ms: tree.started.elapsed().as_millis(),
        calls_total: graph.calls_total,
        calls_resolved: graph.calls_resolved,
        calls_unresolved: graph.calls_unresolved,
        entry_points: reach::entry_points(graph),
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

/// Read the scan set as `(workspace-relative path, source)` pairs: every
/// `crates/*/src/**/*.rs` (Full profile) plus root `tests/*.rs` and
/// `examples/*.rs` (Relaxed profile).
pub fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
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
    Ok(prepare_sources(&read_tree(root)?))
}

/// Scan the workspace tree under `root`.
pub fn run_check(root: &Path) -> std::io::Result<Report> {
    Ok(scan_prepared(&prepare_tree(root)?))
}

/// Walk the forward/decode/train entry points over an already-prepared
/// workspace's call graph, cataloguing every op with its protection status.
pub fn run_coverage_prepared(tree: &PreparedTree) -> reach::Coverage {
    reach::coverage(&tree.graph)
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
