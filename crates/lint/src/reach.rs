//! Reachability analyses over the workspace call graph, plus the
//! protection-coverage traversal behind `--coverage`.
//!
//! Two lints run here:
//!
//! * **panic-reach** — panic-capable constructs (unwrap/expect/
//!   panic-family macros/expression-position indexing) transitively
//!   reachable from the serving entry points (`Gateway::admit/tick/
//!   run_trace`, `DecodeEngine::step_batch/step_batch_mixed`); findings
//!   carry the shortest entry→violation call path,
//! * **target-feature-reach** — calls to `#[target_feature]` fns from
//!   sites not inside an `is_x86_feature_detected!`-gated branch (callers
//!   that are themselves `#[target_feature]` are already in the gated
//!   world and exempt).
//!
//! Suppression: a regular `allow(<reach-lint>)` on the violating line
//! kills the sink; `// attn-lint: allow-path(<reach-lint>) —
//! justification` on a call line cuts that call's outgoing edges for that
//! analysis, so a reviewed boundary (e.g. engine → model) can be vouched
//! for once.

use crate::callgraph::Graph;
use crate::directives::Allow;
use crate::lints::{is_raw_gemm_entry, unguarded_by_design, BARRIER_FILES};
use crate::Finding;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Per-fn predecessor map from a reachability BFS: reached fn →
/// `(caller fn, call-site line)`; entries map to themselves.
type PredMap = BTreeMap<usize, (usize, u32)>;

/// Panic reachability from serving entries.
pub const PANIC_REACH: &str = "panic-reach";
/// `#[target_feature]` fns called outside a feature-detected gate.
pub const TARGET_FEATURE_REACH: &str = "target-feature-reach";

/// Serving entry points for panic reachability: `(owner, method)`.
pub const SERVE_ENTRIES: [(&str, &str); 5] = [
    ("Gateway", "admit"),
    ("Gateway", "tick"),
    ("Gateway", "run_trace"),
    ("DecodeEngine", "step_batch"),
    ("DecodeEngine", "step_batch_mixed"),
];

/// Model forward/decode/train entry points for the coverage walk:
/// `(owner, method, path-kind)`.
pub const OP_PATH_ENTRIES: [(&str, &str, &str); 7] = [
    ("TransformerModel", "forward", "forward"),
    ("TransformerModel", "extend", "decode"),
    ("DecodeEngine", "step_batch", "decode"),
    ("DecodeEngine", "step_batch_mixed", "decode"),
    ("Gateway", "tick", "decode"),
    ("Trainer", "train_step", "train"),
    ("Trainer", "train_step_injected", "train"),
];

/// The `GuardedSection` methods that constitute the guarded GEMM API.
const GUARDED_GEMM_METHODS: [&str; 3] = ["gemm", "gemm_nt", "gemm_encode_rows"];

/// Edge-cut suppressions, indexed by `(file, line)` per lint name.
pub struct PathAllows<'a> {
    by_site: BTreeMap<(usize, u32), Vec<&'a Allow>>,
}

impl<'a> PathAllows<'a> {
    /// Build the index from per-file allow-path directives (borrowed in
    /// place from each file's parsed `Directives`, so one prepared
    /// workspace serves both check and coverage); `files` maps rel paths
    /// to graph file indexes.
    pub fn new(files: &[String], per_file: &[(&str, &'a [Allow])]) -> Self {
        let idx: BTreeMap<&str, usize> = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.as_str(), i))
            .collect();
        let mut by_site: BTreeMap<(usize, u32), Vec<&'a Allow>> = BTreeMap::new();
        for (rel, allows) in per_file {
            let Some(&fi) = idx.get(rel) else {
                continue;
            };
            for a in *allows {
                by_site.entry((fi, a.target_line)).or_default().push(a);
            }
        }
        Self { by_site }
    }

    /// An index with no edge cuts (coverage traversals).
    pub fn none() -> Self {
        Self {
            by_site: BTreeMap::new(),
        }
    }

    /// Does an allow-path cover this call site for `lint`? Marks it used.
    fn cuts(&self, file: usize, line: u32, lint: &str) -> bool {
        if let Some(allows) = self.by_site.get(&(file, line)) {
            for a in allows {
                if a.names.iter().any(|n| n == lint) {
                    a.used.set(true);
                    return true;
                }
            }
        }
        false
    }
}

/// BFS over call edges from `entries`; returns per-fn predecessor
/// `(caller fn, call-site line)` for path rendering (entries map to
/// themselves).
fn bfs(g: &Graph, entries: &[usize], lint: &str, cuts: &PathAllows<'_>) -> PredMap {
    let mut pred: PredMap = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in entries {
        if pred.insert(e, (e, g.fns[e].line)).is_none() {
            queue.push_back(e);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &si in &g.fns[u].calls {
            let site = &g.sites[si];
            if site.targets.is_empty() {
                continue;
            }
            if cuts.cuts(site.file, site.line, lint) {
                continue;
            }
            for &v in &site.targets {
                if g.fns[v].is_test {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(v) {
                    e.insert((u, site.line));
                    queue.push_back(v);
                }
            }
        }
    }
    pred
}

/// Render the entry→fn call path: `Gateway::tick → Engine::step → f`.
fn render_path(g: &Graph, pred: &PredMap, sink: usize) -> String {
    let mut chain = vec![sink];
    let mut cur = sink;
    while let Some(&(p, _)) = pred.get(&cur) {
        if p == cur {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
        .iter()
        .map(|&f| g.fns[f].qualified())
        .collect::<Vec<_>>()
        .join(" → ")
}

/// Resolve the fn indexes for `(owner, name)` entry specs.
fn resolve_entries(g: &Graph, specs: &[(&str, &str)]) -> Vec<usize> {
    let mut out = Vec::new();
    for (owner, name) in specs {
        out.extend(g.find_methods(owner, name));
    }
    out
}

/// The serving entry points present in this graph, qualified — reported
/// in the JSON so entry drift is visible in review.
pub fn entry_points(g: &Graph) -> Vec<String> {
    resolve_entries(g, &SERVE_ENTRIES)
        .into_iter()
        .map(|f| g.fns[f].qualified())
        .collect()
}

/// panic-reach: every panic-capable construct in fns reachable from the
/// serving entries.
pub fn panic_reach(g: &Graph, cuts: &PathAllows<'_>, out: &mut Vec<Finding>) {
    let entries = resolve_entries(g, &SERVE_ENTRIES);
    let pred = bfs(g, &entries, PANIC_REACH, cuts);
    for &fid in pred.keys() {
        let f = &g.fns[fid];
        let path = render_path(g, &pred, fid);
        for &(line, col, desc) in &f.panic_sites {
            out.push(Finding::new(
                &g.files[f.file],
                line,
                col,
                PANIC_REACH,
                format!(
                    "{desc} reachable from a serving entry: {path} → {desc} at {}:{line}; \
                     return a typed error, restructure, or prove unreachability in an allow",
                    g.files[f.file]
                ),
            ));
        }
    }
}

/// target-feature-reach: calls to `#[target_feature]` fns whose call
/// site is not inside an `is_x86_feature_detected!`-gated branch.
/// Callers that are themselves `#[target_feature]` run only after some
/// dispatcher proved the feature, so their internal calls are exempt —
/// the lint pins the obligation on the dispatch boundary.
pub fn target_feature_reach(g: &Graph, cuts: &PathAllows<'_>, out: &mut Vec<Finding>) {
    for f in &g.fns {
        if f.has_target_feature {
            continue;
        }
        for &si in &f.calls {
            let site = &g.sites[si];
            if site.gated || site.targets.is_empty() {
                continue;
            }
            if cuts.cuts(site.file, site.line, TARGET_FEATURE_REACH) {
                continue;
            }
            for &t in &site.targets {
                let tf = &g.fns[t];
                if tf.has_target_feature {
                    out.push(Finding::new(
                        &g.files[site.file],
                        site.line,
                        site.col,
                        TARGET_FEATURE_REACH,
                        format!(
                            "`{}` is `#[target_feature]` but this call site is not inside an \
                             `is_x86_feature_detected!`-gated branch; dispatch through a \
                             detected gate or vouch for it with an allow-path",
                            tf.qualified()
                        ),
                    ));
                    break; // one finding per site, not per candidate
                }
            }
        }
    }
}

/// One operator instance on a forward/decode/train path.
#[derive(Debug)]
pub struct CoverageOp {
    /// Operator kind (`gemm`, `softmax`, `layernorm`, …).
    pub kind: &'static str,
    /// Callee as written at the site.
    pub name: String,
    /// Call-site position.
    pub file: String,
    pub line: u32,
    /// Whether the op runs under ABFT protection.
    pub guarded: bool,
    /// Unguarded on purpose: a raw GEMM issued from a fn on the committed
    /// [`UNGUARDED_GEMM_BY_DESIGN`](crate::lints::UNGUARDED_GEMM_BY_DESIGN)
    /// list.
    pub by_design: bool,
    /// Path kinds that reach it (`forward`/`decode`/`train`), sorted.
    pub paths: Vec<&'static str>,
    /// Shortest entry→caller call path (first reaching path kind).
    pub via: String,
}

/// The `--coverage` result.
#[derive(Debug, Default)]
pub struct Coverage {
    /// Every op instance, sorted by (file, line).
    pub ops: Vec<CoverageOp>,
    /// Entry points per path kind, qualified.
    pub entries: Vec<(String, String)>,
    /// Call-resolution stats copied from the graph.
    pub calls_total: usize,
    pub calls_resolved: usize,
}

impl Coverage {
    pub fn resolution_rate(&self) -> f64 {
        if self.calls_total == 0 {
            1.0
        } else {
            self.calls_resolved as f64 / self.calls_total as f64
        }
    }

    /// Guarded fraction over all op instances (1.0 when no ops).
    pub fn coverage_rate(&self) -> f64 {
        if self.ops.is_empty() {
            return 1.0;
        }
        (self.ops.len() - self.ops_unguarded()) as f64 / self.ops.len() as f64
    }

    /// Op instances that run without a guard, by-design ones included —
    /// the count [`crate::MAX_UNGUARDED_OPS`] caps.
    pub fn ops_unguarded(&self) -> usize {
        self.ops.iter().filter(|o| !o.guarded).count()
    }

    /// GEMM instances that are NOT guarded, by-design ones included.
    pub fn unguarded_gemms(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.kind == "gemm" && !o.guarded)
            .count()
    }

    /// Unguarded GEMMs outside the by-design exemption (the report's `✗`
    /// rows; `unguarded-gemm` is the lint that fails on them).
    pub fn unguarded_gemms_outside_exemption(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.kind == "gemm" && !o.guarded && !o.by_design)
            .count()
    }
}

/// Operator catalog: callee name (+ optional required owner) →
/// `(kind, guarded)`. Plain kernel names are unguarded; the `*_checked`
/// wrappers — and the layer / loss / sampler / optimizer entry points
/// that take an `OpGuard` and are those wrappers — run an invariant
/// screen with exact recompute-from-inputs fallback
/// (`attn_tensor::guard`), so sites that call them count as guarded.
fn catalog_op(name: &str, owner_hint: Option<&str>) -> Option<(&'static str, bool)> {
    match name {
        // Plain (unguarded) op entry points.
        "softmax_rows" | "softmax_rows_inplace" | "softmax_rows_backward" => {
            Some(("softmax", false))
        }
        "layer_norm" | "layer_norm_backward" => Some(("layernorm", false)),
        "gelu" | "gelu_matrix" | "gelu_backward" => Some(("gelu", false)),
        "add" if owner_hint == Some("Matrix") => Some(("residual-add", false)),
        // Guarded wrappers (screen + exact recompute on violation).
        "softmax_rows_checked"
        | "softmax_rows_checked_inplace"
        | "softmax_rows_backward_checked" => Some(("softmax", true)),
        "layer_norm_checked" | "layer_norm_backward_checked" => Some(("layernorm", true)),
        "forward" | "backward" if owner_hint == Some("LayerNorm") => Some(("layernorm", true)),
        "gelu_matrix_checked" | "gelu_backward_checked" => Some(("gelu", true)),
        "residual_add_checked" => Some(("residual-add", true)),
        "verify_rowsum_add" => Some(("embedding", true)),
        "cross_entropy" => Some(("loss", true)),
        "sample_token" => Some(("sampling", true)),
        "forward" if owner_hint == Some("Embedding") => Some(("embedding", true)),
        "step" | "step_batched" if owner_hint == Some("AdamW") => Some(("optimizer", true)),
        _ => None,
    }
}

/// Walk the op-path entries (descending through barriers — coverage must
/// see the guarded GEMMs inside them) and catalog every op call site.
pub fn coverage(g: &Graph) -> Coverage {
    let mut cov = Coverage {
        calls_total: g.calls_total,
        calls_resolved: g.calls_resolved,
        ..Default::default()
    };
    // Reachable sets per path kind, each with its own predecessors.
    let no_cuts = PathAllows::none();
    let mut preds: Vec<(&'static str, PredMap)> = Vec::new();
    for kind in ["forward", "decode", "train"] {
        let specs: Vec<(&str, &str)> = OP_PATH_ENTRIES
            .iter()
            .filter(|&&(_, _, k)| k == kind)
            .map(|&(o, n, _)| (o, n))
            .collect();
        let entries = resolve_entries(g, &specs);
        for &e in &entries {
            cov.entries.push((kind.to_string(), g.fns[e].qualified()));
        }
        preds.push((kind, bfs(g, &entries, "coverage", &no_cuts)));
    }

    let mut seen: BTreeMap<(usize, u32, u32), usize> = BTreeMap::new();
    for (kind, pred) in &preds {
        for &fid in pred.keys() {
            let f = &g.fns[fid];
            let file = g.files[f.file].as_str();
            if file.starts_with("crates/bench/") || file.starts_with("crates/lint/") {
                continue;
            }
            let in_barrier = BARRIER_FILES.contains(&file);
            let in_kernel = file.starts_with("crates/tensor/");
            for &si in &f.calls {
                let site = &g.sites[si];
                let key = (site.file, site.line, site.col);
                if let Some(&op_idx) = seen.get(&key) {
                    if !cov.ops[op_idx].paths.contains(kind) {
                        cov.ops[op_idx].paths.push(kind);
                    }
                    continue;
                }
                // Classify the site.
                let owner_hint: Option<&str> = site
                    .targets
                    .first()
                    .and_then(|&t| g.fns[t].owner.as_deref());
                let entry: Option<(&'static str, bool)> = if site.is_method
                    && GUARDED_GEMM_METHODS.contains(&site.name.as_str())
                    && owner_hint == Some("GuardedSection")
                {
                    Some(("gemm", true))
                } else if !site.is_method && is_raw_gemm_entry(&site.name) {
                    // Raw kernel call: guarded iff issued from barrier
                    // code; kernel-internal calls are plumbing, not ops.
                    (!in_kernel).then_some(("gemm", in_barrier))
                } else if in_kernel {
                    // Calls issued from inside the kernel crate are SIMD /
                    // tiling plumbing (e.g. `f32x8::add` in the writeback),
                    // not path-level operators.
                    None
                } else {
                    catalog_op(&site.name, owner_hint)
                };
                if let Some((k, guarded)) = entry {
                    seen.insert(key, cov.ops.len());
                    cov.ops.push(CoverageOp {
                        kind: k,
                        name: site.name.clone(),
                        file: g.files[site.file].clone(),
                        line: site.line,
                        guarded,
                        by_design: k == "gemm"
                            && !guarded
                            && unguarded_by_design(f.owner.as_deref(), &f.name),
                        paths: vec![kind],
                        via: render_path(g, pred, fid),
                    });
                }
            }
        }
    }
    cov.ops
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    cov
}
