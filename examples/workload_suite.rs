//! The real-circuit workload suite end to end: build the hash-chain,
//! Merkle-membership and state-transition circuits, measure their actual
//! witness statistics, prove and verify each through the session API, and
//! compare the measured splits against the paper's 45/45/10 assumption on
//! the zkSpeed chip model.
//!
//! Run with: `cargo run --release --example workload_suite`

use std::time::Instant;

use zkspeed::prelude::*;
use zkspeed_core::{ChipConfig, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(5);
    let suite = WorkloadSpec::example_suite();

    // All suite circuits fit one μ = 15 setup.
    let t0 = Instant::now();
    let srs = Srs::try_setup(15, &mut rng, &Serial)?;
    println!(
        "universal setup (μ = 15): {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    let system = ProofSystem::setup(srs);
    let chip = ChipConfig::table5_design();

    println!(
        "\n{:<38} {:>4} {:>7} {:>7} {:>7} {:>10} {:>10}",
        "workload", "μ", "zero%", "one%", "dense%", "prove(s)", "model(ms)"
    );
    let assumed = Workload::standard(20);
    for spec in suite {
        let (circuit, witness) = spec.build(&mut rng);
        let stats = CircuitStats::measure(&circuit, &witness);
        let (prover, verifier) = system.preprocess(circuit)?;

        let t = Instant::now();
        let proof = prover.prove(&witness)?;
        let prove_seconds = t.elapsed().as_secs_f64();
        verifier.verify(&proof)?;

        let workload = measured_workload(&stats)?.with_num_vars(20);
        let sim = chip.simulate(&workload);
        println!(
            "{:<38} {:>4} {:>6.1}% {:>6.1}% {:>6.1}% {:>10.2} {:>10.2}",
            spec.name(),
            stats.num_vars,
            stats.zero_fraction() * 100.0,
            stats.one_fraction() * 100.0,
            stats.dense_fraction() * 100.0,
            prove_seconds,
            sim.total_seconds() * 1e3
        );
    }
    let sim_assumed = chip.simulate(&assumed);
    println!(
        "{:<38} {:>4} {:>6.1}% {:>6.1}% {:>6.1}% {:>10} {:>10.2}",
        "paper assumption (45/45/10)",
        20,
        45.0,
        45.0,
        10.0,
        "-",
        sim_assumed.total_seconds() * 1e3
    );
    println!(
        "\nall model runtimes are for the Table 5 design at 2^20 gates; the\n\
         measured splits come from the compiled circuits above, projected to μ = 20."
    );
    Ok(())
}
