//! End-to-end tests for the real-circuit workload suite: every workload
//! proves and verifies through the session API, tampered witnesses are
//! rejected, and the measured statistics drive the hardware model without
//! panicking.

use std::sync::OnceLock;

use zkspeed::prelude::*;
use zkspeed_core::ChipConfig;
use zkspeed_field::Fr;
use zkspeed_hw::MsmDatapath;
use zkspeed_hyperplonk::gadgets::KeccakState;
use zkspeed_hyperplonk::CircuitStats;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::{keccak_f1600_rounds, Rng, SeedableRng};

/// The test-suite circuits all fit μ = 14; one shared setup keeps the
/// suite fast (SRS generation dominates otherwise).
fn srs() -> &'static Srs {
    static SRS: OnceLock<Srs> = OnceLock::new();
    SRS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5e70_0001);
        Srs::try_setup(14, &mut rng, &Serial).expect("setup fits")
    })
}

#[test]
fn all_suite_workloads_prove_and_verify_via_session_api() {
    let mut rng = StdRng::seed_from_u64(41);
    let system = ProofSystem::setup(srs().clone());
    for spec in WorkloadSpec::test_suite() {
        let (circuit, witness) = spec.build(&mut rng);
        let stats = CircuitStats::measure(&circuit, &witness);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits the SRS");
        let proof = prover.prove(&witness).expect("witness satisfies circuit");
        verifier.verify(&proof).expect("honest proof verifies");
        // Proofs round-trip through canonical bytes like any other circuit.
        let restored = Proof::from_bytes(&proof.to_bytes()).expect("canonical bytes");
        verifier.verify(&restored).expect("restored proof verifies");
        assert_eq!(stats.num_gates, 1 << prover.num_vars(), "{}", spec.name());
    }
}

#[test]
fn in_circuit_sha3_matches_native_keccak_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    for trial in 0..4 {
        let rounds = 1 + (trial % 2);
        let lanes: [u64; 25] = core::array::from_fn(|_| rng.gen());
        let mut b = CircuitBuilder::new();
        let state = KeccakState::input(&mut b, lanes);
        let out = state.permute(&mut b, rounds);
        let mut expected = lanes;
        keccak_f1600_rounds(&mut expected, rounds);
        assert_eq!(out.values(&b), expected, "trial {trial}");
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
    }
}

#[test]
fn flipping_a_witness_bit_unsatisfies_every_workload() {
    let mut rng = StdRng::seed_from_u64(43);
    for spec in WorkloadSpec::test_suite() {
        let (circuit, mut witness) = spec.build(&mut rng);
        assert!(circuit.check_witness(&witness).is_ok());
        // Flip the first input gate's output: 0 ↔ 1. Input gates are
        // no-ops, so the violation surfaces through the wiring/boolean
        // constraints that consume the bit.
        let old = witness.columns[2][0];
        witness.columns[2].evaluations_mut()[0] = Fr::one() - old;
        assert!(
            circuit.check_witness(&witness).is_err(),
            "{}: tampered witness still satisfies the circuit",
            spec.name()
        );
    }
}

#[test]
fn proof_over_tampered_witness_is_rejected_by_the_verifier() {
    let mut rng = StdRng::seed_from_u64(44);
    let spec = WorkloadSpec::StateTransition(StateTransitionSpec {
        transfers: 4,
        balance_bits: 16,
    });
    let (circuit, mut witness) = spec.build(&mut rng);
    let system = ProofSystem::setup(srs().clone());
    let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");

    // Steal one unit: bump the sender's post-balance. Gate constraints
    // break, so the honest prover refuses and the forced proof fails.
    let n = witness.columns[2].evaluations().len();
    let idx = (0..n)
        .find(|&i| {
            let v = witness.columns[2][i];
            !v.is_zero() && !v.is_one()
        })
        .expect("a dense balance value exists");
    let bumped = witness.columns[2][idx] + Fr::one();
    witness.columns[2].evaluations_mut()[idx] = bumped;

    assert!(prover.prove(&witness).is_err(), "honest prover must refuse");
    let (forged, _) = prover.prove_unchecked(&witness);
    assert!(
        verifier.verify(&forged).is_err(),
        "verifier accepted a proof over a tampered witness"
    );
}

#[test]
fn measured_stats_drive_the_hardware_model_without_panicking() {
    let mut rng = StdRng::seed_from_u64(45);
    let chip = ChipConfig::table5_design();
    for spec in WorkloadSpec::test_suite() {
        let (circuit, witness) = spec.build(&mut rng);
        let stats = CircuitStats::measure(&circuit, &witness);
        let workload = measured_workload(&stats).expect("measured fractions are valid");
        // The exact-rounding invariant holds for every measured split.
        let n = workload.num_gates();
        let (z, o, d) = workload.witness_split();
        assert_eq!(z + o + d, n, "{}", spec.name());
        for j in 0..3 {
            let (z, o, d) = workload.column_split(j);
            assert_eq!(z + o + d, n, "{} column {j}", spec.name());
        }
        let sim = chip.simulate(&workload);
        assert!(sim.total_seconds().is_finite() && sim.total_seconds() > 0.0);
        // Projection to paper scale keeps the measured fractions.
        let projected = workload.with_num_vars(20);
        let sim20 = chip.simulate(&projected);
        assert!(sim20.total_seconds() > sim.total_seconds());
    }
}

#[test]
fn precomputed_msm_datapath_simulates_all_measured_workloads() {
    let mut rng = StdRng::seed_from_u64(46);
    let baseline = ChipConfig::table5_design();
    let mut chip = ChipConfig::table5_design();
    chip.msm.datapath = MsmDatapath::Precomputed { batch_affine: true };
    for spec in WorkloadSpec::test_suite() {
        let (circuit, witness) = spec.build(&mut rng);
        let stats = CircuitStats::measure(&circuit, &witness);
        let workload = measured_workload(&stats).expect("measured fractions are valid");
        let sim = chip.simulate(&workload);
        assert!(
            sim.total_seconds().is_finite() && sim.total_seconds() > 0.0,
            "{}: precomputed datapath must simulate",
            spec.name()
        );
        // The table-backed datapath removes every doubling from the commit
        // MSMs; the MSM unit's busy (compute) time must not exceed the
        // classic datapath's (the extra HBM traffic for table reads is
        // accounted separately in the memory model).
        let base = baseline.simulate(&workload);
        assert!(
            sim.busy[0] <= base.busy[0] * 1.01,
            "{}: precomputed MSM busy {} vs baseline {}",
            spec.name(),
            sim.busy[0],
            base.busy[0]
        );
        // The datapath reports a non-trivial table footprint at this size.
        let n = 1usize << workload.num_vars;
        assert!(chip.msm.table_bytes(n) > 0.0);
    }
}
