//! The benchmark's contract with `BENCHMARK.json`: the metric names and
//! units this program prints, and the bounds and run length it reads back.

use std::path::{Path, PathBuf};

use zkspeed::rt::JsonValue;

use crate::json;

/// One metric as `BENCHMARK.json` lists it.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", "lower"),
    m("proof_ms_p50", "ms", "lower"),
    m("proofs_per_s", "1/s", "higher"),
    m("cpu_s_per_proof", "s", "lower"),
    m("verify_ms_p50", "ms", "lower"),
    m("proof_bytes", "bytes", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Single layers; measured in the traced pass only.
pub const PER_LAYER: &[MetricSpec] = &[
    m("field.fr_mul_ns", "ns", "lower"),
    m("field.fq_mul_ns", "ns", "lower"),
    m("field.fr_inv_ns", "ns", "lower"),
    m("field.fr_muls_per_proof", "count", "lower"),
    m("field.fq_muls_per_proof", "count", "lower"),
    m("curve.msm_dense_ms", "ms", "lower"),
    m("curve.msm_sparse_ms", "ms", "lower"),
    m("curve.msm_small_ms", "ms", "lower"),
    m("curve.msm_dense_fq_muls", "count", "lower"),
    m("curve.msm_dense_point_adds", "count", "lower"),
    m("curve.msm_sparse_fq_muls", "count", "lower"),
    m("poly.fraction_mle_ms", "ms", "lower"),
    m("poly.product_mle_ms", "ms", "lower"),
    m("poly.eq_mle_ms", "ms", "lower"),
    m("poly.fix_first_variable_ms", "ms", "lower"),
    m("poly.evaluate_ms", "ms", "lower"),
    m("sumcheck.zerocheck_gate_ms", "ms", "lower"),
    m("sumcheck.zerocheck_perm_ms", "ms", "lower"),
    m("sumcheck.opencheck_ms", "ms", "lower"),
    m("sumcheck.round_poly_us", "us", "lower"),
    m("transcript.hashes_per_proof", "count", "lower"),
    m("transcript.challenge_us", "us", "lower"),
    m("pcs.srs_setup_s", "s", "lower"),
    m("pcs.commit_dense_ms", "ms", "lower"),
    m("pcs.commit_sparse_ms", "ms", "lower"),
    m("pcs.open_ms", "ms", "lower"),
    m("pcs.verify_opening_ms", "ms", "lower"),
    m("hyperplonk.prove_ms", "ms", "lower"),
    m("hyperplonk.prove_2t_ms", "ms", "lower"),
    m("hyperplonk.witness_commit_ms", "ms", "lower"),
    m("hyperplonk.gate_identity_ms", "ms", "lower"),
    m("hyperplonk.wire_identity_ms", "ms", "lower"),
    m("hyperplonk.batch_eval_ms", "ms", "lower"),
    m("hyperplonk.poly_open_ms", "ms", "lower"),
    m("hyperplonk.unattributed_ms", "ms", "lower"),
    m("hyperplonk.first_proof_ms", "ms", "lower"),
    m("hyperplonk.preprocess_ms", "ms", "lower"),
    m("hyperplonk.circuit_build_ms", "ms", "lower"),
    m("hyperplonk.witness_check_ms", "ms", "lower"),
    m("hyperplonk.proof_encode_us", "us", "lower"),
    m("hyperplonk.proof_decode_us", "us", "lower"),
    m("hyperplonk.msm_fq_muls_per_proof", "count", "lower"),
    m("rt.pool_fanout_us", "us", "lower"),
    m("rt.codec_witness_encode_us", "us", "lower"),
    m("rt.codec_witness_decode_us", "us", "lower"),
    m("svc.job_ms_p50", "ms", "lower"),
    m("svc.overhead_ms", "ms", "lower"),
    m("svc.register_ms", "ms", "lower"),
    m("svc.wave_mean_occupancy", "jobs/wave", "higher"),
    m("svc.queue_wait_ms_p50", "ms", "lower"),
    m("svc.rejected", "count", "lower"),
    m("net.rtt_us", "us", "lower"),
    m("net.submit_ms", "ms", "lower"),
    m("net.job_ms_p50", "ms", "lower"),
    m("net.overhead_ms", "ms", "lower"),
    m("net.wire_bytes_per_job", "bytes", "lower"),
    m("proof_ms_tail", "ms", "lower"),
    m("proof_tail_pct", "%", "higher"),
    m("trace_overhead_pct", "%", "lower"),
];

/// The repository root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in a directory of the repository")
        .to_path_buf()
}

/// `BENCHMARK.json`, parsed.
pub fn benchmark_json() -> Result<JsonValue, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// The regression bound of every end-to-end metric.
pub fn bounds(benchmark: &JsonValue) -> Vec<(String, f64)> {
    json::items(json::get(benchmark, "end_to_end").unwrap_or(&JsonValue::Null))
        .iter()
        .filter_map(|metric| {
            Some((
                json::string(json::get(metric, "name")?)?.to_string(),
                json::number(json::get(metric, "bound")?)?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn listed(benchmark: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        json::items(json::get(benchmark, key).unwrap())
            .iter()
            .map(|metric| {
                let field = |f| {
                    json::string(json::get(metric, f).unwrap())
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_prints() {
        let benchmark = benchmark_json().unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<_> = table
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(listed(&benchmark, key), want, "{key}");
            for (name, unit, better) in &want {
                assert!(valid_name(name), "{name}");
                assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
                assert!(
                    unit.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "{unit}"
                );
                assert!(better == "lower" || better == "higher");
            }
        }
        let workloads: Vec<&str> = json::items(json::get(&benchmark, "workloads").unwrap())
            .iter()
            .map(|w| json::string(json::get(w, "name").unwrap()).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert!(workloads.iter().all(|w| valid_name(w)));
        let bounds = bounds(&benchmark);
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|(_, b)| (0.0..=0.25).contains(b)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
