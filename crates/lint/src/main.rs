//! CLI: `cargo run -p attn_lint --release -- check [--json [PATH]]
//! [--root DIR]`.
//!
//! Exit codes: `0` clean, `1` findings or the call-resolution floor
//! violated, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: attn_lint check [--json [PATH]] [--root DIR]\n\
\n\
  check              scan crates/*/src plus tests/ and examples/, report\n\
                     contract violations and enforce the call-resolution floor\n\
  --json [PATH]      also write a machine-readable report (default: BENCH_lint.json)\n\
  --root DIR         workspace root (default: inferred from CARGO_MANIFEST_DIR,\n\
                     else the current directory)\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("check") {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut json_path: Option<PathBuf> = None;
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

    let report = match attn_lint::run_check(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("attn_lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", attn_lint::report::render_text(&report));
    // A conservative resolver that gives up everywhere would make the
    // reachability lint vacuous.
    let floor_ok = report.resolution_rate() >= attn_lint::MIN_RESOLUTION_RATE;
    if !floor_ok {
        eprintln!(
            "attn_lint: FLOOR: call resolution rate {:.4} < {}",
            report.resolution_rate(),
            attn_lint::MIN_RESOLUTION_RATE
        );
    }

    if let Some(path) = json_path {
        let json = attn_lint::report::render_json(&report);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("attn_lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("attn_lint: report written to {}", path.display());
    }

    if report.is_clean() && floor_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
