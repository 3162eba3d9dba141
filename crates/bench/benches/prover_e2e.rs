//! End-to-end HyperPlonk prover and verifier benchmarks (the CPU baseline
//! this repository measures directly, at laptop-scale problem sizes),
//! driven through the backend-threaded session entry points so key setup
//! happens once per size.

use std::sync::Arc;

use zkspeed_hyperplonk::{
    mock_circuit, prove, prove_batch, try_preprocess, verify, ExecCtx, SparsityProfile,
};
use zkspeed_pcs::{PrecomputeBudget, Srs};
use zkspeed_rt::bench::Harness;
use zkspeed_rt::pool;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut h = Harness::new("hyperplonk");
    let ctx = ExecCtx {
        backend: Arc::clone(pool::global()),
        ..ExecCtx::default()
    };
    let budget = PrecomputeBudget::disabled();
    for num_vars in [6usize, 8] {
        let srs = Srs::try_setup(num_vars, &mut rng, &**pool::global()).expect("setup fits");
        let (circuit, witness) = mock_circuit(num_vars, SparsityProfile::paper_default(), &mut rng);
        let (pk, vk) = try_preprocess(circuit, &srs, &*ctx.backend, &budget).expect("circuit fits");
        h.bench(format!("prove/{}", 1 << num_vars), || {
            prove(&pk, &witness, &ctx).expect("valid witness")
        });
        let batch: Vec<_> = (0..4).map(|job| (job, witness.clone())).collect();
        h.bench(format!("prove_batch4/{}", 1 << num_vars), || {
            prove_batch(&pk, &batch, &ctx).expect("valid witnesses")
        });
        let (proof, _) = prove(&pk, &witness, &ctx).expect("valid witness");
        h.bench(format!("verify/{}", 1 << num_vars), || {
            verify(&vk, &proof).expect("valid proof")
        });
        h.bench(format!("proof_to_bytes/{}", 1 << num_vars), || {
            proof.to_bytes()
        });
    }
    h.finish();
}
