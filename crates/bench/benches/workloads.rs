//! Real-circuit workload suite benchmarks (suite `workloads`, history file
//! `target/bench-history/workloads.json`).
//!
//! Each suite member — hash-chain, Merkle-membership, state-transition —
//! is built at test scale, its measured `CircuitStats` are printed and
//! persisted to `target/bench-history/workload-stats.json` (the CI build
//! artifact), and circuit construction, proving and verification are
//! timed through the backend-threaded prover entry points.

use zkspeed_hyperplonk::workloads::WorkloadSpec;
use zkspeed_hyperplonk::{prove, try_preprocess, verify, CircuitStats, ExecCtx};
use zkspeed_pcs::{PrecomputeBudget, Srs};
use zkspeed_rt::bench::{black_box, history_dir, Harness};
use zkspeed_rt::pool;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::{JsonValue, SeedableRng, ToJson};

fn main() {
    let mut rng = StdRng::seed_from_u64(21);
    let ctx = ExecCtx {
        backend: std::sync::Arc::clone(pool::global()),
        ..ExecCtx::default()
    };
    let budget = PrecomputeBudget::disabled();
    // All test-scale workloads fit one μ = 14 setup.
    let srs = Srs::try_setup(14, &mut rng, &**pool::global()).expect("setup fits");

    let mut h = Harness::new("workloads");
    let mut stats_docs: Vec<(String, JsonValue)> = Vec::new();
    for spec in WorkloadSpec::test_suite() {
        h.bench(format!("build/{}", spec.label()), || {
            black_box(spec.build(&mut StdRng::seed_from_u64(21)))
        });
        let (circuit, witness) = spec.build(&mut rng);
        let stats = CircuitStats::measure(&circuit, &witness);
        println!(
            "stats {}: mu={} zero={:.3} one={:.3} dense={:.3} sparsity={:.3}",
            spec.name(),
            stats.num_vars,
            stats.zero_fraction(),
            stats.one_fraction(),
            stats.dense_fraction(),
            stats.sparsity(),
        );
        stats_docs.push((spec.name(), stats.to_json()));

        let (pk, vk) = try_preprocess(circuit, &srs, &*ctx.backend, &budget).expect("circuit fits");
        h.bench(format!("prove/{}", spec.label()), || {
            prove(&pk, &witness, &ctx).expect("valid witness")
        });
        let (proof, _) = prove(&pk, &witness, &ctx).expect("valid witness");
        h.bench(format!("verify/{}", spec.label()), || {
            verify(&vk, &proof).expect("valid proof")
        });
    }

    // Persist the measured statistics next to the timing history so CI can
    // archive them as a build artifact.
    if let Some(dir) = history_dir() {
        let doc = JsonValue::Object(stats_docs);
        let path = dir.join("workload-stats.json");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc.pretty().as_bytes()));
        match written {
            Ok(()) => println!("workload stats: wrote {}", path.display()),
            Err(e) => eprintln!("workload stats: could not write {}: {e}", path.display()),
        }
    }
    h.finish();
}
