//! `zkbench compare A.json B.json`: two result files of `zkbench set`, one
//! row per workload and end-to-end metric, judged against the bounds in
//! `BENCHMARK.json`. `A` is the base of every ratio.

use std::process::ExitCode;

use zkspeed::rt::JsonValue;

use crate::json;
use crate::spec::{self, END_TO_END};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound, so a difference
    /// within it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the base `a`: worse or better when the medians differ
/// by more than `bound` (a share of `a`) in that direction, unresolved when
/// either side's quartile spread exceeds the bound.
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let gain = if lower_is_better { a - b } else { b - a } / a.abs();
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn number_at(value: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(value, |v, key| json::get(v, key))
        .and_then(json::number)
}

/// Two files can be compared only when they were measured alike: the same
/// seed, number of runs and run length.
pub fn same_settings(a: &JsonValue, b: &JsonValue) -> Result<(), String> {
    for key in ["seed", "runs", "seconds"] {
        let (va, vb) = (number_at(a, &[key]), number_at(b, &[key]));
        if va.is_none() || va != vb {
            return Err(format!(
                "compare: `{key}` is {va:?} in A and {vb:?} in B; the files were not measured alike"
            ));
        }
    }
    Ok(())
}

/// Compares two parsed result files; returns the printed rows and whether
/// any is `worse`.
pub fn compare(a: &JsonValue, b: &JsonValue, bounds: &[(String, f64)]) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut any_worse = false;
    // A row, judged or (per layer) only shown.
    let mut row = |text: String, verdict: Option<Verdict>| {
        any_worse |= verdict == Some(Verdict::Worse);
        rows.push(format!("{text} {}", verdict.map_or("", Verdict::label)));
    };
    let none = JsonValue::Null;
    let workloads_b = json::get(b, "workloads").unwrap_or(&none);
    for (name, wa) in json::fields(json::get(a, "workloads").unwrap_or(&none)) {
        let Some(wb) = json::get(workloads_b, name) else {
            row(format!("{name:<15} missing from B"), Some(Verdict::Worse));
            continue;
        };
        for spec in END_TO_END {
            let at = |w: &JsonValue, field: &str| number_at(w, &["end_to_end", spec.name, field]);
            let (Some(ma), Some(mb)) = (at(wa, "median"), at(wb, "median")) else {
                row(
                    format!("{name:<15} {:<16} missing", spec.name),
                    Some(Verdict::Worse),
                );
                continue;
            };
            let spread = at(wa, "spread")
                .unwrap_or(0.0)
                .max(at(wb, "spread").unwrap_or(0.0));
            let bound = bounds
                .iter()
                .find(|(n, _)| n == spec.name)
                .map_or(0.0, |(_, b)| *b);
            row(
                format!(
                    "{name:<15} {:<16} A {ma:>12.4} B {mb:>12.4} {:<5} B/A {:>7.4} bound {bound:<5} spread {spread:.4}",
                    spec.name,
                    spec.unit,
                    mb / ma
                ),
                Some(verdict(ma, mb, spec.better == "lower", bound, spread)),
            );
        }
        // Byte-identical proofs for identical inputs, run by run.
        let digests = |w: &JsonValue, key| json::get(w, key).cloned();
        let same_inputs = digests(wa, "input_digest") == digests(wb, "input_digest");
        if same_inputs {
            let same = digests(wa, "proof_sha3") == digests(wb, "proof_sha3");
            row(
                format!("{name:<15} proof_sha3       same inputs"),
                Some(if same { Verdict::Same } else { Verdict::Worse }),
            );
        } else {
            row(
                format!("{name:<15} proof_sha3       different inputs, not compared"),
                None,
            );
        }
        let share = |w: &JsonValue| {
            number_at(w, &["failed"]).unwrap_or(0.0) / number_at(w, &["attempted"]).unwrap_or(1.0)
        };
        row(
            format!(
                "{name:<15} failed_share     A {:.6} B {:.6}",
                share(wa),
                share(wb)
            ),
            Some(if share(wb) > share(wa) {
                Verdict::Worse
            } else {
                Verdict::Same
            }),
        );
        // Per layer: both values and the ratio, no bound. Only a count has
        // a verdict: on the same inputs it repeats exactly or it is `worse`.
        let layers_b = json::get(wb, "per_layer").unwrap_or(&none);
        for (metric, la) in json::fields(json::get(wa, "per_layer").unwrap_or(&none)) {
            let (Some(va), Some(vb)) = (
                number_at(la, &["value"]),
                number_at(layers_b, &[metric, "value"]),
            ) else {
                continue;
            };
            let unit = json::get(la, "unit").and_then(json::string).unwrap_or("");
            let (note, verdict) = match (unit, va == vb) {
                ("count", true) => ("count repeats".to_string(), Some(Verdict::Same)),
                ("count", false) if same_inputs => {
                    ("count differs".to_string(), Some(Verdict::Worse))
                }
                ("count", false) => ("count differs, different inputs".to_string(), None),
                _ if va != 0.0 => (format!("B/A {:.4}", vb / va), None),
                _ => (String::new(), None),
            };
            row(
                format!("{name:<15}   {metric:<34} A {va:>14.4} B {vb:>14.4} {unit:<9} {note}"),
                verdict,
            );
        }
    }
    (rows, any_worse)
}

pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare: two result files are required".into());
    };
    let bounds = spec::bounds(&spec::benchmark_json()?);
    let (a, b) = (load(a)?, load(b)?);
    same_settings(&a, &b)?;
    let (rows, any_worse) = compare(&a, &b, &bounds);
    for row in rows {
        println!("{row}");
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(100.0, 105.0, true, 0.10, 0.02), Verdict::Same);
        assert_eq!(verdict(100.0, 111.0, true, 0.10, 0.02), Verdict::Worse);
        assert_eq!(verdict(100.0, 89.0, true, 0.10, 0.02), Verdict::Better);
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(100.0, 111.0, false, 0.10, 0.02), Verdict::Better);
        assert_eq!(verdict(100.0, 89.0, false, 0.10, 0.02), Verdict::Worse);
        // Runs that spread wider than the bound resolve nothing.
        assert_eq!(verdict(100.0, 150.0, true, 0.10, 0.11), Verdict::Unresolved);
        // A bound of zero makes any worsening count.
        assert_eq!(verdict(9167.0, 9168.0, true, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(9167.0, 9167.0, true, 0.0, 0.0), Verdict::Same);
    }

    fn file(proof_ms: f64, sha: &str, failed: u64) -> JsonValue {
        file_with(proof_ms, sha, failed, 5, 15)
    }

    fn file_with(proof_ms: f64, sha: &str, failed: u64, count: u64, seconds: u64) -> JsonValue {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let median = if m.name == "proof_ms_p50" { proof_ms } else { 1.0 };
                format!(
                    "\"{}\":{{\"unit\":\"{}\",\"median\":{median},\"spread\":0.01,\"values\":[{median}]}}",
                    m.name, m.unit
                )
            })
            .collect();
        json::parse(&format!(
            "{{\"seed\":1,\"runs\":10,\"seconds\":{seconds},\
             \"workloads\":{{\"w\":{{\"attempted\":10,\"failed\":{failed},\
             \"input_digest\":[\"i\"],\"proof_sha3\":[\"{sha}\"],\
             \"end_to_end\":{{{}}},\
             \"per_layer\":{{\"x.count\":{{\"unit\":\"count\",\"value\":{count}}}}}}}}}}}",
            metrics.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn compare_flags_slower_proofs_changed_bytes_and_new_failures() {
        let bounds: Vec<(String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 0.10))
            .collect();
        let base = file(100.0, "aa", 0);
        let (rows, worse) = compare(&base, &file(104.0, "aa", 0), &bounds);
        assert!(!worse, "{rows:#?}");
        assert!(rows.iter().any(|r| r.contains("count repeats")));
        assert!(compare(&base, &file(120.0, "aa", 0), &bounds).1);
        assert!(compare(&base, &file(100.0, "bb", 0), &bounds).1);
        assert!(compare(&base, &file(100.0, "aa", 1), &bounds).1);
        // A count that does not repeat on the same inputs.
        assert!(compare(&base, &file_with(100.0, "aa", 0, 6, 15), &bounds).1);
        let (rows, worse) = compare(&base, &file(80.0, "aa", 0), &bounds);
        assert!(!worse);
        assert!(rows.iter().any(|r| r.ends_with("better")));
    }

    #[test]
    fn files_measured_with_different_settings_are_refused() {
        let base = file(100.0, "aa", 0);
        assert!(same_settings(&base, &file(120.0, "bb", 1)).is_ok());
        assert!(same_settings(&base, &file_with(100.0, "aa", 0, 5, 30)).is_err());
        assert!(same_settings(&base, &JsonValue::Object(Vec::new())).is_err());
    }
}
