//! `zkbench` — the repository's one benchmark.
//!
//! ```text
//! zkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! zkbench --smoke [--seed <n>]
//! zkbench set --seed <n> --out <file>
//! zkbench compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload: it generates the inputs from
//! the seed, measures for the given time, checks every proof it produced,
//! prints the metrics by name with their units, and ends with one JSON
//! line. `--trace 0` is the timed pass (end-to-end metrics, tracing off),
//! `--trace 1` the traced pass (per-layer metrics and a Chrome trace).
//! `set` runs every workload several times, each run in a process of its
//! own, and writes one result file; `compare` judges two such files against
//! the bounds in `BENCHMARK.json`. See `README.md` beside this package.

mod compare;
mod host;
mod json;
mod layers;
mod pace;
mod set;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use zkspeed::rt::JsonValue;

use spec::{MetricSpec, END_TO_END, PER_LAYER};
use workloads::{Budget, Report, Scale, Workload, MIN_CORES, THREADS};

/// The value following `flag` on the command line.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("{name}: cannot read '{v}'")))
        .transpose()
}

/// Where the traced pass writes its Chrome traces.
fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.json", workload.name()))
}

/// Prints a report for people, then returns it in the one-line form:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
fn print_report(workload: Workload, table: &[MetricSpec], report: &Report) -> JsonValue {
    println!("workload {}", workload.name());
    assert_eq!(
        report.metrics.len(),
        table.len(),
        "a pass measures exactly the metrics its table lists"
    );
    let mut metrics = Vec::with_capacity(table.len());
    for spec in table {
        let value = report
            .metrics
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{}: not measured", spec.name));
        println!("  {:<34} {:>16.4} {}", spec.name, value, spec.unit);
        metrics.push((
            spec.name.to_string(),
            JsonValue::Object(vec![
                ("value".into(), JsonValue::Float(value)),
                ("unit".into(), JsonValue::Str(spec.unit.into())),
            ]),
        ));
    }
    for (key, value) in &report.detail {
        println!("  {key:<34} {}", value.render());
    }
    println!(
        "  attempted {} failed {} (every proof verified against its session key)",
        report.attempted, report.failed
    );
    JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(report.failed == 0)),
        ("attempted".into(), JsonValue::UInt(report.attempted as u64)),
        ("failed".into(), JsonValue::UInt(report.failed as u64)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
}

/// One run of one workload, the form the driver calls.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = parsed(args, "--seconds")?.ok_or("--seconds <s> is required")?;
    let trace: u8 = parsed(args, "--trace")?.unwrap_or(0);
    let budget = Budget {
        seconds,
        max_ops: usize::MAX,
    };
    let mut environment = host::environment(&spec::repo_root(), THREADS);
    let (table, mut report) = if trace == 0 {
        // The timed pass runs on one CPU, so that the reference clock's
        // ticks read the core the proofs run on (see `pace`).
        let pinned = host::pin_to_one_cpu();
        environment.push((
            "pinned_cpu".into(),
            pinned.map_or(JsonValue::Null, |cpu| JsonValue::UInt(cpu as u64)),
        ));
        (
            END_TO_END,
            workloads::end_to_end(workload, Scale::Full, seed, budget, pinned.is_some()),
        )
    } else {
        let path = trace_path(workload);
        (
            PER_LAYER,
            workloads::traced(workload, Scale::Full, seed, budget, &path),
        )
    };
    report.detail.extend(environment);
    report
        .detail
        .push(("load_1m_end".into(), JsonValue::Float(host::load_average())));
    let line = print_report(workload, table, &report);
    // The annotations ride on their own line; the result line stays exact.
    println!("detail {}", JsonValue::Object(report.detail).render());
    println!("{}", line.render());
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload and both passes at small sizes, three operations each.
fn smoke(seed: u64) -> usize {
    let budget = Budget {
        seconds: f64::INFINITY,
        max_ops: 3,
    };
    let mut failed = 0;
    for workload in Workload::ALL {
        let report = workloads::end_to_end(workload, Scale::Smoke, seed, budget, false);
        print_report(workload, END_TO_END, &report);
        failed += report.failed;
        let path = trace_path(workload).with_extension("smoke.json");
        let report = workloads::traced(workload, Scale::Smoke, seed, budget, &path);
        print_report(workload, PER_LAYER, &report);
        failed += report.failed;
    }
    failed
}

/// Refuses to measure on fewer cores than a run needs (unless `--force`),
/// and warns when the machine is not idle.
fn guard(args: &[String]) -> Result<(), String> {
    if host::cores() < MIN_CORES && !args.iter().any(|a| a == "--force") {
        return Err(format!(
            "{} core(s) available, {MIN_CORES} needed; timings would not mean what they say (--force to run anyway)",
            host::cores()
        ));
    }
    if host::load_average() > 0.5 {
        eprintln!(
            "zkbench: warning: 1-minute load average is {:.2}; the machine is not idle",
            host::load_average()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        // `compare` measures nothing, so it runs on any machine.
        Some("compare") => compare::command(&args[1..]),
        Some("set") => guard(&args).and_then(|()| set::command(&args[1..])),
        _ if args.iter().any(|a| a == "--smoke") => guard(&args)
            .and_then(|()| parsed(&args, "--seed"))
            .map(|seed| {
                if smoke(seed.unwrap_or(1)) == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
        _ => guard(&args).and_then(|()| run(&args)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("zkbench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in Workload::ALL {
            let a = workloads::input_digest(workload, Scale::Smoke, 7);
            assert_eq!(a, workloads::input_digest(workload, Scale::Smoke, 7));
            assert_ne!(a, workloads::input_digest(workload, Scale::Smoke, 8));
        }
    }

    /// The whole benchmark at small sizes: all four workloads, loopback TCP
    /// included, both passes, every metric of both tables present, no
    /// failed operation. An optimised build takes under ten seconds of an
    /// undisturbed machine (8 s at a speed of 0.9); this one runs up to 1.7
    /// times slower for minutes at a time, so the test allows twenty.
    #[test]
    fn smoke_runs_every_workload_and_prints_every_metric() {
        let start = std::time::Instant::now();
        // `print_report` panics on a metric that was not measured.
        assert_eq!(smoke(3), 0);
        if !cfg!(debug_assertions) {
            assert!(start.elapsed().as_secs() < 20, "{:?}", start.elapsed());
        }
    }
}
