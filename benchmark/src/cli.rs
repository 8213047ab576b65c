//! Command line: one run of one workload (what `BENCHMARK.json`'s command
//! and the driver invoke), one full set, or `--repeat N` sets with a
//! spread table.

use crate::harness::{HarnessError, Result};
use crate::metrics::{
    assemble, result_line, MetricDef, DECODE_OFFLINE, END_TO_END, PER_LAYER, SERVE_CLOSED_KV,
    SERVE_OPEN, TRAIN_CLEAN, TRAIN_FAULTY, WORKLOADS,
};
use crate::trace::Tracer;
use crate::workloads::{self, Run, Scale, TRACED_WORKLOAD_SHARE};
use crate::{json, probes};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub const USAGE: &str = "\
usage, from the repository root:
  <bin> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
        one run of one workload; the last line of stdout is the result
  <bin> [--seed <n>] [--seconds <s>] [--smoke]
        one set: every workload, untraced then traced, each in its own process
  <bin> --repeat <N> [--seed <n>] [--seconds <s>] [--smoke]
        N untraced sets on seeds n..n+N, then min / median / max / spread of
        every end-to-end metric against its bound in BENCHMARK.json
workloads: train_clean train_faulty decode_offline serve_open serve_closed_kv";

/// Checkpoints and traces go here, relative to the working directory, which
/// is the root of the checkout.
const OUT_DIR: &str = "benchmark/out";
const BENCHMARK_JSON: &str = "BENCHMARK.json";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: Option<usize>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
            repeat: None,
        };
        let bad = |what: &str| HarnessError(format!("{what}\n{USAGE}"));
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| bad(&format!("{flag} needs a value")))?;
            let invalid = || bad(&format!("{flag} {value}: not valid"));
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    args.workload = Some(value.clone());
                }
                "--seed" => args.seed = value.parse().map_err(|_| invalid())?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(invalid)?;
                }
                "--trace" if value == "0" || value == "1" => args.trace = value == "1",
                "--repeat" => {
                    args.repeat = Some(value.parse().ok().filter(|n| *n > 0).ok_or_else(invalid)?);
                }
                _ => return Err(invalid()),
            }
        }
        if args.repeat.is_some() && args.workload.is_some() {
            return Err(bad("--repeat runs every workload; drop --workload"));
        }
        Ok(args)
    }
}

pub fn run(args: &Args) -> Result<()> {
    match (&args.workload, args.repeat) {
        (Some(workload), _) => single(args, workload),
        (None, None) => full_set(args),
        (None, Some(sets)) => repeat(args, sets),
    }
}

// ---------------------------------------------------------------- one run

fn single(args: &Args, workload: &str) -> Result<()> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let mut tracer = Tracer::new(args.trace);
    let run = Run {
        workload,
        scale: &scale,
        seed: args.seed,
        budget_s: if args.trace {
            args.seconds * TRACED_WORKLOAD_SHARE
        } else {
            args.seconds
        },
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut outcome = match workload {
        TRAIN_CLEAN | TRAIN_FAULTY => workloads::train(&run, &mut tracer)?,
        DECODE_OFFLINE => workloads::decode(&run, &mut tracer)?,
        SERVE_OPEN | SERVE_CLOSED_KV => workloads::serve(&run, &mut tracer)?,
        other => return Err(HarnessError(format!("unknown workload {other}"))),
    };
    let defs = if args.trace {
        let probe_s = args.seconds * (1.0 - TRACED_WORKLOAD_SHARE);
        outcome
            .values
            .extend(probes::run(&scale, args.seed, probe_s, &mut tracer)?);
        PER_LAYER
    } else {
        outcome.values.put("peak_rss_mb", peak_rss_mb()?);
        END_TO_END
    };
    let rows = assemble(defs, workload, &outcome.values)?;

    println!("# attn-benchmark {workload}");
    for (key, value) in header(args) {
        println!("# {key}: {value}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
        let written = tracer
            .write(&path, workload, args.seed)
            .map_err(|e| HarnessError(format!("{}: {e}", path.display())))?;
        println!("# {written} spans in {}", path.display());
        println!("# span                     calls    total ms     self ms");
        for t in tracer.totals() {
            println!(
                "# {:<22} {:>7} {:>11.3} {:>11.3}",
                t.name,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for (def, value) in &rows {
        println!(
            "{:<38} {:>16.6} {:<8} {}",
            def.name,
            value,
            def.unit,
            if def.higher_is_better {
                "higher is better"
            } else {
                "lower is better"
            }
        );
    }
    println!("{}", result_line(outcome.attempted, outcome.failed, &rows));
    Ok(())
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| HarnessError(format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| HarnessError("no VmHWM in /proc/self/status".into()))
}

/// The recorded machine and run: what a reader needs to compare two outputs.
fn header(args: &Args) -> Vec<(&'static str, String)> {
    let first_line = |program: &str, argv: &[&str]| -> String {
        Command::new(program)
            .args(argv)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_else(|| "unknown".into())
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_field = |key: &str| -> String {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_owned())
    };
    let features: Vec<&str> = ["sse4_2", "avx", "avx2", "fma", "avx512f"]
        .into_iter()
        .filter(|f| cpu_field("flags").split(' ').any(|x| x == *f))
        .collect();
    vec![
        ("git_rev", first_line("git", &["rev-parse", "HEAD"])),
        ("rustc", first_line("rustc", &["--version"])),
        ("cpu", cpu_field("model name")),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("cpu_features", features.join(" ")),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.smoke.to_string()),
    ]
}

// ------------------------------------------------------------ many runs

fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Command> {
    let exe = std::env::current_exe().map_err(|e| HarnessError(format!("current_exe: {e}")))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

fn full_set(args: &Args) -> Result<()> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let status = child(args, workload, args.seed, trace)?
                .status()
                .map_err(|e| HarnessError(format!("{workload}: {e}")))?;
            if !status.success() {
                return Err(HarnessError(format!(
                    "{workload} (trace {}) exited with {status}",
                    u8::from(trace)
                )));
            }
        }
    }
    Ok(())
}

/// The metrics of a child's result line, and whether it reported failures.
fn read_result(stdout: &str) -> Result<(Vec<(String, f64)>, bool)> {
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| HarnessError("child printed nothing".into()))?;
    let v = json::parse(line)?;
    let correct = v.get("correct") == Some(&json::Value::Bool(true));
    let metrics = v
        .get("metrics")
        .and_then(json::Value::as_object)
        .ok_or_else(|| HarnessError("result line has no metrics".into()))?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(json::Value::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| HarnessError(format!("metric {name} has no value")))
        })
        .collect::<Result<_>>()?;
    Ok((metrics, correct))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them: the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the working
/// directory.
fn bounds() -> Result<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| {
        HarnessError(format!(
            "{BENCHMARK_JSON}: {e} (run from the repository root)"
        ))
    })?;
    json::parse(&text)?
        .get("end_to_end")
        .and_then(json::Value::as_array)
        .ok_or_else(|| HarnessError(format!("{BENCHMARK_JSON}: no end_to_end list")))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(json::Value::as_str);
            let bound = m.get("bound").and_then(json::Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| {
                    HarnessError(format!("{BENCHMARK_JSON}: metric without name or bound"))
                })
        })
        .collect()
}

fn repeat(args: &Args, sets: usize) -> Result<()> {
    let bounds = bounds()?;
    // series[workload][metric] = one value per set.
    let mut series: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut incorrect = 0usize;
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let output = child(args, workload, args.seed + set as u64, false)?
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| HarnessError(format!("{workload}: {e}")))?;
            if !output.status.success() {
                return Err(HarnessError(format!(
                    "{workload} exited with {}",
                    output.status
                )));
            }
            let (metrics, correct) = read_result(&String::from_utf8_lossy(&output.stdout))?;
            incorrect += usize::from(!correct);
            for (m, def) in END_TO_END.iter().enumerate() {
                let value = metrics
                    .iter()
                    .find(|(n, _)| n == def.name)
                    .ok_or_else(|| HarnessError(format!("{workload}: no {}", def.name)))?
                    .1;
                series[w][m].push(value);
            }
            eprintln!("set {} of {sets}: {workload} done", set + 1);
        }
    }
    println!(
        "{:<16} {:<16} {:>6} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "min", "median", "max", "spread", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            println!("{}", spread_row(workload, def, &series[w][m], &bounds));
        }
    }
    println!("runs with oracle violations: {incorrect}");
    Ok(())
}

fn spread_row(workload: &str, def: &MetricDef, values: &[f64], bounds: &[(String, f64)]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    let spread = if sorted.len() >= 2 {
        let (q1, q3) = quartiles(&sorted);
        (q3 - q1) / median
    } else {
        0.0
    };
    let bound = bounds
        .iter()
        .find(|(n, _)| n == def.name)
        .map_or(f64::NAN, |(_, b)| *b);
    // The driver gates set-up time on its median only, not on its spread.
    let verdict = if def.name == "setup_s" {
        "spread not gated"
    } else if spread <= bound / 3.0 {
        "steady"
    } else if spread <= bound {
        "above a third of the bound"
    } else {
        "WIDER THAN THE BOUND"
    };
    format!(
        "{workload:<16} {:<16} {:>6} {:>12.4} {median:>12.4} {:>12.4} {spread:>8.4} {bound:>6.2}  {verdict}",
        def.name,
        def.unit,
        sorted[0],
        sorted[sorted.len() - 1],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = Args::parse(&argv(
            "--workload serve_open --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_open"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 15.0, true, false)
        );
        assert_eq!(
            Args::parse(&argv("--repeat 5 --smoke")).unwrap().repeat,
            Some(5)
        );
    }

    #[test]
    fn refuses_what_it_does_not_know() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate 1",
            "--repeat 0",
            "--repeat 2 --workload train_clean",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn reads_a_result_line_after_other_output() {
        let out = "# header\nsetup_s 0.5 s\n{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        let (metrics, correct) = read_result(out).unwrap();
        assert_eq!(metrics, vec![("setup_s".to_owned(), 0.5)]);
        assert!(!correct);
        assert!(read_result("no json here").is_err());
    }
}
