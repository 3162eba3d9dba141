//! Quickstart: build a small circuit, run the universal setup, prove it with
//! HyperPlonk, verify the proof, and estimate what the zkSpeed accelerator
//! would do with the same workload.
//!
//! Run with: `cargo run --release --example quickstart`

use zkspeed::prelude::*;
use zkspeed_core::{ChipConfig, CpuModel, Workload};
use zkspeed_field::Fr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Express a statement as a circuit: "I know x such that x^3 + x + 5 = 35".
    let mut builder = CircuitBuilder::new();
    let x = builder.input(Fr::from_u64(3)); // the secret witness
    let x2 = builder.mul(x, x);
    let x3 = builder.mul(x2, x);
    let t = builder.add(x3, x);
    let five = builder.constant(Fr::from_u64(5));
    let lhs = builder.add(t, five);
    let target = builder.constant(Fr::from_u64(35));
    builder.assert_equal(lhs, target);
    let (circuit, witness) = builder.build();
    println!(
        "circuit: 2^{} = {} gates",
        circuit.num_vars(),
        circuit.num_gates()
    );

    // 2. One session owns the universal setup and the worker pool; a
    //    preprocessing pass per circuit yields long-lived handles.
    let mut rng = StdRng::seed_from_u64(42);
    let srs = Srs::try_setup(circuit.num_vars(), &mut rng, &Serial)?;
    let system = ProofSystem::setup(srs);
    let (prover, verifier) = system.preprocess(circuit)?;

    // 3. Prove, ship as canonical bytes, verify.
    let (proof, report) = prover.prove_with_report(&witness)?;
    let bytes = proof.to_bytes();
    verifier.verify(&Proof::from_bytes(&bytes)?)?;
    println!(
        "proof verified; {} canonical bytes (backend: {})",
        bytes.len(),
        prover.backend().name()
    );
    println!("prover wall-clock: {:.3} ms", report.total_seconds() * 1e3);

    // 4. What would zkSpeed do with a realistic problem size?
    let chip = ChipConfig::table5_design();
    let workload = Workload::standard(20);
    let sim = chip.simulate(&workload);
    println!(
        "zkSpeed model @ 2^20 gates: {:.2} ms on a {:.0} mm^2 chip ({}x faster than the paper's CPU baseline)",
        sim.total_seconds() * 1e3,
        chip.area().total_mm2(),
        (CpuModel::total_seconds(20) / sim.total_seconds()).round()
    );
    Ok(())
}
