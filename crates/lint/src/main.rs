//! CLI: `cargo run -p attn_lint --release -- check [--json [PATH]]
//! [--coverage [PATH]] [--root DIR]`.
//!
//! Exit codes: `0` clean, `1` findings or a coverage floor violated,
//! `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: attn_lint check [--json [PATH]] [--coverage [PATH]] [--root DIR]\n\
\n\
  check              scan crates/*/src plus tests/ and examples/ and report\n\
                     contract violations\n\
  --json [PATH]      also write a machine-readable report (default: BENCH_lint.json)\n\
  --coverage [PATH]  also walk the forward/decode/train paths, write the\n\
                     protection-coverage artifact (default: BENCH_coverage.json),\n\
                     and enforce the coverage floors\n\
  --root DIR         workspace root (default: inferred from CARGO_MANIFEST_DIR,\n\
                     else the current directory)\n";

/// CI floors, enforced whenever `--coverage` runs. `MIN_RESOLUTION_RATE`
/// keeps the call graph honest (a conservative resolver that gives up
/// everywhere would make every reachability lint vacuous).
/// [`attn_lint::MAX_UNGUARDED_OPS`] caps the unguarded op count: a ratchet
/// that only moves down.
const MIN_RESOLUTION_RATE: f64 = 0.90;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("check") {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut json_path: Option<PathBuf> = None;
    let mut coverage_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                match next {
                    Some(p) => {
                        json_path = Some(PathBuf::from(p));
                        i += 1;
                    }
                    None => json_path = Some(PathBuf::from("BENCH_lint.json")),
                }
            }
            "--coverage" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                match next {
                    Some(p) => {
                        coverage_path = Some(PathBuf::from(p));
                        i += 1;
                    }
                    None => coverage_path = Some(PathBuf::from("BENCH_coverage.json")),
                }
            }
            "--root" => match args.get(i + 1) {
                Some(p) => {
                    root = Some(PathBuf::from(p));
                    i += 1;
                }
                None => {
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("attn_lint: unknown argument `{other}`");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    // `cargo run` sets `CARGO_MANIFEST_DIR` (crates/lint) in the process
    // environment. Read it at run time, not through `env!`: a binary reused
    // from a copied `target/` must scan the tree it runs in.
    let root = root.unwrap_or_else(|| {
        std::env::var_os("CARGO_MANIFEST_DIR")
            .and_then(|dir| PathBuf::from(dir).join("../..").canonicalize().ok())
            .unwrap_or_else(|| PathBuf::from("."))
    });

    // Parse and graph the workspace exactly once; `check` and `--coverage`
    // both consume the same prepared artifact.
    let tree = match attn_lint::prepare_tree(&root) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("attn_lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = attn_lint::scan_prepared(&tree);
    print!("{}", attn_lint::report::render_text(&report));

    let mut floors_ok = true;
    if let Some(path) = coverage_path {
        let cov = attn_lint::run_coverage_prepared(&tree);
        print!("{}", attn_lint::report::render_coverage_text(&cov));
        let json = attn_lint::report::render_coverage_json(&cov);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("attn_lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("attn_lint: coverage written to {}", path.display());

        if cov.resolution_rate() < MIN_RESOLUTION_RATE {
            eprintln!(
                "attn_lint: FLOOR: call resolution rate {:.4} < {MIN_RESOLUTION_RATE}",
                cov.resolution_rate()
            );
            floors_ok = false;
        }
        if cov.ops_unguarded() > attn_lint::MAX_UNGUARDED_OPS {
            eprintln!(
                "attn_lint: FLOOR: {} unguarded ops > {} (ratchet: this cap only moves down)",
                cov.ops_unguarded(),
                attn_lint::MAX_UNGUARDED_OPS
            );
            floors_ok = false;
        }
    }

    if let Some(path) = json_path {
        let json = attn_lint::report::render_json(&report);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("attn_lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("attn_lint: report written to {}", path.display());
    }

    if report.is_clean() && floors_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
