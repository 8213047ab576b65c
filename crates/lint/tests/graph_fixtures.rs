//! Interprocedural behaviour tests over the mini-workspace under
//! `tests/fixtures/graph/` (three files, two crates). The fixture wires
//! a serving entry (`Gateway::admit`) through the three resolution
//! shapes the call graph must get right — exact receiver-type binding,
//! free-fn/method shadowing, and conservative trait-object fan-out —
//! plus a `#[cfg(test)]`-only caller that must stay invisible.

use std::path::Path;

fn fixture_root() -> std::path::PathBuf {
    Path::new(&std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
}

fn scan() -> attn_lint::Report {
    attn_lint::run_check(&fixture_root()).expect("fixture scan")
}

#[test]
fn the_fixture_workspace_pins_exactly_two_reach_findings() {
    let report = scan();
    assert_eq!(report.files_scanned, 3, "fixture discovery");
    let names: Vec<_> = report.findings.iter().map(|f| f.lint).collect();
    assert_eq!(
        names,
        vec!["panic-reach", "panic-reach"],
        "free-fn indexing + trait-object expect, nothing else: {:?}",
        report.findings
    );
}

#[test]
fn shadowed_free_fn_flags_while_the_method_stays_clean() {
    let report = scan();
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    // The free `head` is reached through the free call and renders the
    // exact entry → sink trace.
    assert!(
        rendered.iter().any(|l| l.contains(
            "slice indexing reachable from a serving entry: \
             Gateway::admit → head → slice indexing \
             at crates/core/src/queue.rs:24"
        )),
        "free-fn path trace: {rendered:?}"
    );
    // The method `Queue::head` is total; no finding may anchor on it.
    assert!(
        rendered.iter().all(|l| !l.contains("Queue::head")),
        "receiver-typed call must bind to the method, not the shadow: {rendered:?}"
    );
}

#[test]
fn trait_object_calls_fan_out_to_every_impl() {
    let report = scan();
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.iter().any(|l| l.contains(
            "`.expect(…)` reachable from a serving entry: \
             Gateway::admit → GpuBackend::exec → `.expect(…)` \
             at crates/core/src/backend.rs:21"
        )),
        "dyn dispatch must reach the panicking impl: {rendered:?}"
    );
}

#[test]
fn an_allow_path_cuts_the_free_call_and_keeps_the_trait_object_finding() {
    let mut tree = attn_lint::read_tree(&fixture_root()).expect("fixture read");
    let (_, gateway) = tree
        .iter_mut()
        .find(|(rel, _)| rel == "crates/serve/src/gateway.rs")
        .expect("gateway fixture");
    let call = "        let risky = head(items);";
    assert_eq!(gateway.matches(call).count(), 1, "replacement must hit");
    let vouched = format!(
        "        // attn-lint: allow-path(panic-reach) — callers pass non-empty items\n{call}"
    );
    *gateway = gateway.replacen(call, &vouched, 1);
    let report = attn_lint::scan_sources(&tree);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert!(
        rendered[0].contains("Gateway::admit → GpuBackend::exec"),
        "the trait-object finding survives the cut: {rendered:?}"
    );
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn cfg_test_callers_do_not_make_code_reachable() {
    let report = scan();
    assert!(
        report
            .findings
            .iter()
            .all(|f| !f.to_string().contains("test_only_brittle")),
        "the unwrap behind the test module must not flag: {:?}",
        report.findings
    );
}

#[test]
fn the_binary_exits_nonzero_on_the_fixture_workspace() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_attn_lint"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn attn_lint");
    assert!(
        !status.success(),
        "seeded violations must fail the gate: {status:?}"
    );
}
