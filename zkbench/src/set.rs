//! `zkbench set`: several runs of every workload, each in a process of its
//! own, gathered into one result file.
//!
//! A pass runs the four workloads one after the other, so a noisy minute on
//! a shared machine falls on all of them; pass `i` uses seed `seed + i`.
//! One traced run per workload follows. The file holds every run's value of
//! every end-to-end metric with their median and quartile spread, the
//! per-layer values, and per run the digest of the inputs and of the first
//! proof, so two commits can be checked for byte-identical proofs.

use std::process::{Command, ExitCode};

use zkspeed::rt::JsonValue;

use crate::json;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::{Workload, THREADS};
use crate::{flag, host, parsed};

/// Runs per workload: what the acceptance rule takes its quartiles over.
/// Like the run length (`run_seconds` in `BENCHMARK.json`) it is fixed by
/// the benchmark, so that any two result files were measured alike.
const RUNS: u64 = 10;

/// One child run: its result line and its annotations.
struct ChildRun {
    result: JsonValue,
    detail: JsonValue,
}

fn child(workload: Workload, seed: u64, seconds: u64, trace: u8) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--force"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{}: the run printed nothing", workload.name()))
        .and_then(json::parse)
        .map_err(|e| {
            format!(
                "{} seed {seed}: no result ({e}): {}",
                workload.name(),
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    let detail = lines
        .find_map(|line| line.strip_prefix("detail "))
        .map(json::parse)
        .transpose()?
        .unwrap_or(JsonValue::Null);
    Ok(ChildRun { result, detail })
}

fn metric_value(run: &ChildRun, name: &str) -> Result<f64, String> {
    json::get(&run.result, "metrics")
        .and_then(|m| json::get(m, name))
        .and_then(|m| json::get(m, "value"))
        .and_then(json::number)
        .ok_or_else(|| format!("{name}: missing from a run's result"))
}

fn count(run: &ChildRun, key: &str) -> u64 {
    json::get(&run.result, key)
        .and_then(json::number)
        .map_or(0, |n| n as u64)
}

fn detail(run: &ChildRun, key: &str) -> JsonValue {
    json::get(&run.detail, key)
        .cloned()
        .unwrap_or(JsonValue::Null)
}

pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(1);
    let out = flag(args, "--out").ok_or("set: --out <file> is required")?;
    let seconds = json::get(&spec::benchmark_json()?, "run_seconds")
        .and_then(json::number)
        .ok_or("BENCHMARK.json: run_seconds missing")? as u64;

    let mut environment = host::environment(&spec::repo_root(), THREADS);
    let mut timed: Vec<Vec<ChildRun>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for pass in 0..RUNS {
        for (runs_of, workload) in timed.iter_mut().zip(Workload::ALL) {
            eprintln!("set: pass {}/{RUNS} {}", pass + 1, workload.name());
            runs_of.push(child(workload, seed + pass, seconds, 0)?);
        }
    }
    let mut failed_total = 0;
    let mut workloads = Vec::new();
    for (runs_of, workload) in timed.iter().zip(Workload::ALL) {
        eprintln!("set: traced {}", workload.name());
        let traced = child(workload, seed, seconds, 1)?;
        println!("workload {}", workload.name());
        let mut end_to_end = Vec::new();
        for spec in END_TO_END {
            let values = runs_of
                .iter()
                .map(|run| metric_value(run, spec.name))
                .collect::<Result<Vec<f64>, String>>()?;
            println!(
                "  {:<20} median {:>14.4} {:<6} spread {:>7.4} over {} runs",
                spec.name,
                median(&values),
                spec.unit,
                spread(&values),
                values.len()
            );
            end_to_end.push((
                spec.name.to_string(),
                JsonValue::Object(vec![
                    ("unit".into(), JsonValue::Str(spec.unit.into())),
                    ("median".into(), JsonValue::Float(median(&values))),
                    ("spread".into(), JsonValue::Float(spread(&values))),
                    (
                        "values".into(),
                        JsonValue::Array(values.into_iter().map(JsonValue::Float).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for spec in PER_LAYER {
            per_layer.push((
                spec.name.to_string(),
                JsonValue::Object(vec![
                    ("unit".into(), JsonValue::Str(spec.unit.into())),
                    (
                        "value".into(),
                        JsonValue::Float(metric_value(&traced, spec.name)?),
                    ),
                ]),
            ));
        }
        let all_runs = || runs_of.iter().chain([&traced]);
        let attempted: u64 = all_runs().map(|r| count(r, "attempted")).sum();
        let failed: u64 = all_runs().map(|r| count(r, "failed")).sum();
        failed_total += failed;
        println!("  attempted {attempted} failed {failed}");
        let per_run =
            |key: &str| JsonValue::Array(runs_of.iter().map(|r| detail(r, key)).collect());
        workloads.push((
            workload.name().to_string(),
            JsonValue::Object(vec![
                ("attempted".into(), JsonValue::UInt(attempted)),
                ("failed".into(), JsonValue::UInt(failed)),
                ("samples".into(), per_run("samples")),
                ("speed".into(), per_run("speed")),
                ("as_measured".into(), per_run("as_measured")),
                ("input_digest".into(), per_run("input_digest")),
                ("proof_sha3".into(), per_run("proof_sha3")),
                ("end_to_end".into(), JsonValue::Object(end_to_end)),
                ("per_layer".into(), JsonValue::Object(per_layer)),
            ]),
        ));
    }
    environment.push(("load_1m_end".into(), JsonValue::Float(host::load_average())));
    let file = JsonValue::Object(vec![
        ("schema".into(), JsonValue::Str("zkbench-set/1".into())),
        ("seed".into(), JsonValue::UInt(seed)),
        ("runs".into(), JsonValue::UInt(RUNS)),
        ("seconds".into(), JsonValue::UInt(seconds)),
        ("environment".into(), JsonValue::Object(environment)),
        ("workloads".into(), JsonValue::Object(workloads)),
    ]);
    std::fs::write(out, file.pretty() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
