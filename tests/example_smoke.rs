//! Smoke coverage for every `examples/` binary, so they cannot silently
//! rot: each one must build, run to completion, and print something.
//!
//! The examples are run in release mode — the tier-1 pipeline builds
//! release artifacts first, so these are cheap re-invocations; from a cold
//! cache the first spawn pays one compile.

use std::process::Command;

const EXAMPLES: [&str; 6] = [
    "quickstart",
    "adaptive_tuning",
    "fault_injection_study",
    "protected_decode",
    "protected_ffn",
    "train_with_protection",
];

#[test]
fn all_examples_run_cleanly() {
    // Read at run time, not through `env!`: a test binary reused from a
    // copied `target/` must build and run the examples of its own tree.
    let root = std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets CARGO_MANIFEST_DIR");
    for name in EXAMPLES {
        let out = Command::new(env!("CARGO"))
            .args(["run", "--release", "--quiet", "--example", name])
            .current_dir(&root)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
        assert!(
            out.status.success(),
            "example `{name}` exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(
            !out.stdout.is_empty(),
            "example `{name}` ran but printed nothing"
        );
    }
}
