//! The metric registry: every name the benchmark prints, with its unit and
//! where it is measured. `BENCHMARK.json` repeats names and units and adds
//! the regression bounds; `tests/smoke.rs` keeps the two in step.

use crate::harness::{HarnessError, Result};
use std::fmt::Write as _;

pub const TRAIN_CLEAN: &str = "train_clean";
pub const TRAIN_FAULTY: &str = "train_faulty";
pub const DECODE_OFFLINE: &str = "decode_offline";
pub const SERVE_OPEN: &str = "serve_open";
pub const SERVE_CLOSED_KV: &str = "serve_closed_kv";

pub const WORKLOADS: [&str; 5] = [
    TRAIN_CLEAN,
    TRAIN_FAULTY,
    DECODE_OFFLINE,
    SERVE_OPEN,
    SERVE_CLOSED_KV,
];

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// The untraced run of every workload.
    EndToEnd,
    /// A layer probe, run the same way in every traced run.
    Probe,
    /// The traced run of these workloads; printed as 0 on the others, whose
    /// path does not cross the layer.
    Workloads(&'static [&'static str]),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub source: Source,
}

const fn lower(name: &'static str, unit: &'static str, source: Source) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        source,
    }
}

const fn higher(name: &'static str, unit: &'static str, source: Source) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        source,
    }
}

use Source::{EndToEnd as E2E, Probe};
const ALL: Source = Source::Workloads(&WORKLOADS);
const TRAIN: Source = Source::Workloads(&[TRAIN_CLEAN, TRAIN_FAULTY]);
const FAULTY: Source = Source::Workloads(&[TRAIN_FAULTY]);
const DECODE: Source = Source::Workloads(&[DECODE_OFFLINE]);
const TOKEN_STREAMS: Source = Source::Workloads(&[DECODE_OFFLINE, SERVE_OPEN]);
const OPEN: Source = Source::Workloads(&[SERVE_OPEN]);
const SERVE: Source = Source::Workloads(&[SERVE_OPEN, SERVE_CLOSED_KV]);

/// Printed by every workload's untraced run. Each has a bound in
/// `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s", E2E),
    lower("peak_rss_mb", "MB", E2E),
    lower("protected_ratio", "x", E2E),
    higher("slo_share", "share", E2E),
];

/// Printed by every workload's traced run, without bounds: the layers'
/// metrics, and the whole-system metrics that are in absolute time or exist
/// on some workloads only.
pub const PER_LAYER: &[MetricDef] = &[
    higher("tok_s", "tok/s", ALL),
    lower("step_p50_ms", "ms", ALL),
    lower("req_p50_ms", "ms", ALL),
    higher("tensor.gemm_gflops.train", "gflop/s", Probe),
    higher("tensor.gemm_gflops.m1", "gflop/s", Probe),
    lower("tensor.guard_ratio.train", "x", Probe),
    lower("tensor.guard_ratio.m1", "x", Probe),
    lower("tensor.guard_ns_per_elem.softmax", "ns", Probe),
    lower("tensor.guard_ns_per_elem.layernorm", "ns", Probe),
    lower("tensor.guard_ns_per_elem.gelu", "ns", Probe),
    lower("tensor.guard_ns_per_elem.residual", "ns", Probe),
    lower("tensor.kv_push_ns_per_row", "ns", Probe),
    lower("tensor.ws_allocs_per_op", "count", ALL),
    lower("core.attn_fwd_ms.on", "ms", Probe),
    lower("core.attn_fwd_ms.off", "ms", Probe),
    lower("core.attn_fwd_ratio", "x", Probe),
    lower("core.section_ratio.s_as", "x", Probe),
    lower("core.section_ratio.s_cl", "x", Probe),
    lower("core.section_ratio.s_o", "x", Probe),
    lower("core.decode_step_us.on", "us", Probe),
    lower("core.decode_step_us.off", "us", Probe),
    lower("core.decode_step_ratio.ctx32", "x", Probe),
    lower("core.decode_step_ratio.ctx224", "x", Probe),
    lower("core.correct_us.0d", "us", Probe),
    lower("core.correct_us.1d", "us", Probe),
    higher("core.detections", "count", ALL),
    higher("core.corrections", "count", ALL),
    lower("core.false_positives", "count", ALL),
    lower("model.step_ms.off", "ms", TRAIN),
    lower("model.step_ratio.attn_only", "x", TRAIN),
    lower("model.attn_share", "share", TRAIN),
    lower("model.ffn_share", "share", TRAIN),
    lower("model.prefill_ms.on", "ms", Probe),
    lower("model.prefill_ms.off", "ms", Probe),
    lower("model.decode_step_us.on", "us", Probe),
    lower("model.decode_step_us.off", "us", Probe),
    lower("infer.step_us.on", "us", Probe),
    lower("infer.step_us.off", "us", Probe),
    lower("infer.self_us", "us", Probe),
    lower("infer.batch_step_us_per_session.b1", "us", Probe),
    lower("infer.batch_step_us_per_session.b6", "us", Probe),
    lower("infer.park_us", "us", Probe),
    lower("infer.unpark_us", "us", Probe),
    lower("prefill_protected_ratio", "x", DECODE),
    lower("ttft_p50_ms", "ms", TOKEN_STREAMS),
    lower("itl_p50_ms", "ms", TOKEN_STREAMS),
    lower("itl_p95_ms", "ms", TOKEN_STREAMS),
    lower("serve.tick_ms_p50", "ms", SERVE),
    lower("serve.tick_ms_p95", "ms", SERVE),
    lower("serve.busy_share", "share", SERVE),
    higher("serve.batch_mean", "count", SERVE),
    lower("serve.fed_share", "share", SERVE),
    lower("serve.queue_wait_ticks_p50", "count", OPEN),
    lower("serve.queue_wait_ticks_mean", "count", OPEN),
    lower("serve.park_events", "count", SERVE),
    lower("serve.unpark_events", "count", SERVE),
    lower("serve.peak_hot_rows", "count", SERVE),
    lower("serve.rejected", "count", SERVE),
    lower("serve.expired", "count", SERVE),
    higher("serve.gateway_over_serial", "x", Probe),
    lower("ckpt.save_ms", "ms", FAULTY),
    lower("ckpt.load_ms", "ms", FAULTY),
    lower("ckpt.replay_ms", "ms", FAULTY),
    lower("ckpt.bytes", "B", FAULTY),
    higher("ckpt.cr_over_abft", "x", FAULTY),
    higher("fault.injected", "count", FAULTY),
    higher("fault.corrected", "count", FAULTY),
    lower("fault.unrecovered", "count", FAULTY),
    lower("bench.trace_overhead", "share", ALL),
];

/// Values measured in one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

/// Pair every metric of `defs` with its value on `workload`. A metric that
/// applies and is missing, measured twice, not finite, or not in `defs` is a
/// harness error; one that does not apply to this workload reads 0.
pub fn assemble(
    defs: &'static [MetricDef],
    workload: &str,
    values: &Values,
) -> Result<Vec<(&'static MetricDef, f64)>> {
    if let Some((stray, _)) = values
        .0
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(HarnessError(format!(
            "metric {stray} is not in the registry"
        )));
    }
    defs.iter()
        .map(|def| {
            let found: Vec<f64> = values
                .0
                .iter()
                .filter(|(n, _)| *n == def.name)
                .map(|(_, v)| *v)
                .collect();
            let applies = match def.source {
                Source::EndToEnd | Source::Probe => true,
                Source::Workloads(list) => list.contains(&workload),
            };
            match (applies, found.as_slice()) {
                (true, [v]) if v.is_finite() => Ok((def, *v)),
                (false, []) => Ok((def, 0.0)),
                (true, []) => Err(HarnessError(format!(
                    "metric {} missing on {workload}",
                    def.name
                ))),
                _ => Err(HarnessError(format!(
                    "metric {} on {workload}: {} values {found:?}",
                    def.name,
                    found.len()
                ))),
            }
        })
        .collect()
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&MetricDef, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
    }

    #[test]
    fn assemble_fills_other_workloads_with_zero_and_refuses_gaps() {
        let mut v = Values::default();
        for def in PER_LAYER {
            let applies = match def.source {
                Source::Workloads(list) => list.contains(&TRAIN_CLEAN),
                _ => true,
            };
            if applies {
                v.put(def.name, 1.5);
            }
        }
        let rows = assemble(PER_LAYER, TRAIN_CLEAN, &v).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        let of = |name: &str| rows.iter().find(|(d, _)| d.name == name).unwrap().1;
        assert_eq!(of("model.attn_share"), 1.5);
        assert_eq!(of("serve.park_events"), 0.0);

        assert!(
            assemble(PER_LAYER, TRAIN_FAULTY, &v).is_err(),
            "ckpt.* missing"
        );
        v.put("core.detections", 2.0);
        assert!(
            assemble(PER_LAYER, TRAIN_CLEAN, &v).is_err(),
            "measured twice"
        );

        let mut stray = Values::default();
        stray.put("no.such.metric", 1.0);
        assert!(assemble(END_TO_END, TRAIN_CLEAN, &stray).is_err());
        let mut nan = Values::default();
        for def in END_TO_END {
            nan.put(def.name, f64::NAN);
        }
        assert!(assemble(END_TO_END, TRAIN_CLEAN, &nan).is_err());
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let rows = [(&END_TO_END[0], 0.8127), (&PER_LAYER[0], 1203.456789)];
        let v = json::parse(&result_line(40, 1, &rows)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("tok_s")
                .and_then(|x| x.get("value"))
                .and_then(json::Value::as_f64),
            Some(1203.456789)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("unit"))
                .and_then(json::Value::as_str),
            Some("s")
        );
    }
}
