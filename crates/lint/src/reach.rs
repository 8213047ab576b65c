//! Reachability analysis over the workspace call graph.
//!
//! One lint runs here: **panic-reach** — panic-capable constructs
//! (unwrap/expect/panic-family macros/expression-position indexing)
//! transitively reachable from the serving entry points (`Gateway::admit/
//! tick/run_trace`, `DecodeEngine::step_batch/step_batch_mixed`); findings
//! carry the shortest entry→violation call path.
//!
//! Suppression: a regular `allow(panic-reach)` on the violating line
//! kills the sink; `// attn-lint: allow-path(panic-reach) —
//! justification` on a call line cuts that call's outgoing edges, so a
//! reviewed boundary (e.g. engine → model) can be vouched for once.

use crate::callgraph::Graph;
use crate::directives::Allow;
use crate::Finding;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Per-fn predecessor map from a reachability BFS: reached fn →
/// `(caller fn, call-site line)`; entries map to themselves.
type PredMap = BTreeMap<usize, (usize, u32)>;

/// Panic reachability from serving entries.
pub const PANIC_REACH: &str = "panic-reach";

/// Serving entry points for panic reachability: `(owner, method)`.
pub const SERVE_ENTRIES: [(&str, &str); 5] = [
    ("Gateway", "admit"),
    ("Gateway", "tick"),
    ("Gateway", "run_trace"),
    ("DecodeEngine", "step_batch"),
    ("DecodeEngine", "step_batch_mixed"),
];

/// Edge-cut suppressions, indexed by `(file, line)` per lint name.
pub struct PathAllows<'a> {
    by_site: BTreeMap<(usize, u32), Vec<&'a Allow>>,
}

impl<'a> PathAllows<'a> {
    /// Build the index from per-file allow-path directives (borrowed in
    /// place from each file's parsed `Directives`); `files` maps rel paths
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
