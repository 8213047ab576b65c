//! Runs the benchmark binary at the `--smoke` shape, every workload, untraced
//! and traced, and checks that each run prints exactly the metrics
//! `BENCHMARK.json` lists, once each, with the listed unit.

use attn_benchmark::json::{self, Value};
use attn_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository root")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric in one list of `BENCHMARK.json`.
fn listed(spec: &Value, list: &str) -> Vec<(String, String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list}: metric without {k}"))
                    .to_owned()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn registered(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_registry() {
    let spec = benchmark_json();
    assert_eq!(listed(&spec, "end_to_end"), registered(END_TO_END));
    assert_eq!(listed(&spec, "per_layer"), registered(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for m in spec.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
    let keys: Vec<&str> = spec
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn every_run_prints_every_listed_metric_once() {
    let spec = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_attn-benchmark"))
                .current_dir(repo_root())
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {}\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
            let keys: Vec<&str> = result
                .as_object()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} trace {trace}:\n{stdout}"
            );

            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).expect("value");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    assert!(
                        list == "per_layer" || value != 0.0,
                        "{workload}: end-to-end metric {name} reads 0"
                    );
                    assert!(name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            let expected: Vec<(String, String)> = listed(&spec, list)
                .into_iter()
                .map(|(name, unit, _)| (name, unit))
                .collect();
            assert_eq!(printed, expected, "{workload} trace {trace}");
        }
    }
    let trace = repo_root().join("benchmark/out/trace-serve_open.json");
    let spans =
        json::parse(&std::fs::read_to_string(&trace).expect("trace file")).expect("trace parses");
    let spans = spans.get("spans").and_then(Value::as_array).expect("spans");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Value::as_str) == Some("tick")));
}

#[test]
fn harness_errors_exit_non_zero_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_attn-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
