//! A rollup workload: prove a batch of private balance transfers with the
//! state-transition circuit of the workload suite (authorization flags,
//! range-checked amounts/balances, conservation constraints), then compare
//! the measured witness statistics against the paper's 45/45/10 assumption
//! on the zkSpeed chip model — the scenario Table 3's "Rollup of 10 Pvt Tx"
//! workload represents at scale.
//!
//! Run with: `cargo run --release --example private_transaction_rollup`

use zkspeed::prelude::*;
use zkspeed_core::{ChipConfig, CpuModel, Workload};
use zkspeed_hyperplonk::workloads::state_transition_circuit;
use zkspeed_hyperplonk::ProtocolStep;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);

    let spec = StateTransitionSpec {
        transfers: 16,
        balance_bits: 32,
    };
    let (circuit, witness) = state_transition_circuit(&spec, &mut rng);
    let stats = CircuitStats::measure(&circuit, &witness);
    println!(
        "rollup of {} transfers -> 2^{} = {} gates, witness split {:.0}% zero / {:.0}% one / {:.0}% dense",
        spec.transfers,
        stats.num_vars,
        stats.num_gates,
        stats.zero_fraction() * 100.0,
        stats.one_fraction() * 100.0,
        stats.dense_fraction() * 100.0
    );

    let srs = Srs::try_setup(circuit.num_vars(), &mut rng, &Serial)?;
    let system = ProofSystem::setup(srs);
    let (prover, verifier) = system.preprocess(circuit)?;
    let (proof, report) = prover.prove_with_report(&witness)?;
    verifier.verify(&proof)?;
    println!("proof verified ({} bytes)", proof.to_bytes().len());

    // A rollup operator proves many batches against the same keys: the
    // handle fans independent proofs out across the session's worker pool.
    let batch = prover.prove_batch(&[witness.clone(), witness.clone(), witness.clone()])?;
    println!(
        "batch of {} proofs on the '{}' backend, all bit-identical: {}",
        batch.len(),
        prover.backend().name(),
        batch.iter().all(|p| *p == proof)
    );

    println!("\nmeasured prover step breakdown (this machine):");
    for step in ProtocolStep::ALL {
        println!(
            "  {:<18} {:>8.3} ms",
            step.name(),
            report.seconds(step) * 1e3
        );
    }

    // Paper scale: the same measured witness statistics at 2^23 gates, next
    // to the paper's assumed split.
    let chip = ChipConfig::table5_design().with_max_num_vars(20);
    let measured = measured_workload(&stats)?.with_num_vars(23);
    let assumed = Workload::standard(23);
    let sim_measured = chip.simulate(&measured);
    let sim_assumed = chip.simulate(&assumed);
    println!(
        "\nzkSpeed model for a 2^23 rollup:\n  measured split: {:.1} ms   paper 45/45/10: {:.1} ms   (CPU baseline: {:.1} s, speedup {:.0}x)",
        sim_measured.total_seconds() * 1e3,
        sim_assumed.total_seconds() * 1e3,
        CpuModel::total_seconds(23),
        CpuModel::total_seconds(23) / sim_measured.total_seconds()
    );
    Ok(())
}
