//! Cross-crate integration tests: the full HyperPlonk pipeline through the
//! session API — circuit construction, preprocessing into handles, proving,
//! verification and canonical byte serialization — exercising every
//! substrate crate together.

use std::sync::Arc;

use zkspeed::prelude::*;
use zkspeed_field::Fr;
use zkspeed_hyperplonk::{mock_circuit, ProtocolStep};
use zkspeed_rt::codec::DecodeError;

fn session(mu: usize, rng: &mut StdRng) -> (ProofSystem, ProverHandle, VerifierHandle, Witness) {
    let srs = Srs::try_setup(mu, rng, &Serial).expect("setup fits");
    let system = ProofSystem::setup(srs);
    let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), rng);
    let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
    (system, prover, verifier, witness)
}

#[test]
fn mock_circuit_proof_roundtrip_multiple_sizes() {
    let mut rng = StdRng::seed_from_u64(101);
    for mu in [2usize, 5, 7] {
        let (_, prover, verifier, witness) = session(mu, &mut rng);
        let proof = prover.prove(&witness).expect("valid witness proves");
        verifier.verify(&proof).expect("honest proof verifies");
        // Succinctness: proof is tiny compared to the witness.
        let witness_bytes = 3 * (1 << mu) * 32;
        assert!(proof.size_in_bytes() < witness_bytes.max(6000) * 4);
    }
}

#[test]
fn builder_circuit_proof_roundtrip() {
    // The quickstart statement: x^3 + x + 5 = 35.
    let mut rng = StdRng::seed_from_u64(102);
    let mut builder = CircuitBuilder::new();
    let x = builder.input(Fr::from_u64(3));
    let x2 = builder.mul(x, x);
    let x3 = builder.mul(x2, x);
    let t = builder.add(x3, x);
    let five = builder.constant(Fr::from_u64(5));
    let lhs = builder.add(t, five);
    let target = builder.constant(Fr::from_u64(35));
    builder.assert_equal(lhs, target);
    let (circuit, witness) = builder.build();
    let srs = Srs::try_setup(circuit.num_vars(), &mut rng, &Serial).expect("setup fits");
    let system = ProofSystem::setup(srs);
    let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
    let proof = prover.prove(&witness).expect("valid witness");
    verifier.verify(&proof).expect("valid proof");
}

#[test]
fn srs_is_universal_across_circuits() {
    // One setup serves two different circuits of different sizes — the
    // universal-setup property that motivates HyperPlonk over Groth16. The
    // session owns the SRS once; each circuit gets its own handle pair.
    let mut rng = StdRng::seed_from_u64(103);
    let srs = Srs::try_setup(6, &mut rng, &Serial).expect("setup fits");
    let system = ProofSystem::setup(srs);
    for mu in [4usize, 6] {
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        let proof = prover.prove(&witness).expect("valid witness");
        verifier.verify(&proof).expect("valid proof");
    }
}

#[test]
fn oversized_circuit_is_a_structured_error() {
    let mut rng = StdRng::seed_from_u64(106);
    let srs = Srs::try_setup(3, &mut rng, &Serial).expect("setup fits");
    let system = ProofSystem::setup(srs);
    let (circuit, _) = mock_circuit(5, SparsityProfile::paper_default(), &mut rng);
    let err = system.preprocess(circuit).unwrap_err();
    assert!(matches!(err, Error::Preprocess(_)));
    assert!(err.to_string().contains("SRS supports up to 2^3"));
}

#[test]
fn prover_report_step_times_cover_all_steps() {
    let mut rng = StdRng::seed_from_u64(104);
    let (_, prover, verifier, witness) = session(6, &mut rng);
    let (proof, report) = prover.prove_with_report(&witness).expect("valid witness");
    verifier.verify(&proof).expect("valid proof");
    for step in ProtocolStep::ALL {
        assert!(report.seconds(step) > 0.0, "{:?} has zero time", step);
    }
    assert!(report.witness_msm.ones > 0, "sparse witness expected");
    assert!(report.wiring_msm.fq_muls() > 0);
    assert!(report.opening_msm.fq_muls() > 0);
    // The witness sparsity assumption holds for the generated workload.
    assert!(witness.sparsity() > 0.5);
}

#[test]
fn dense_witness_circuits_also_prove() {
    let mut rng = StdRng::seed_from_u64(105);
    let srs = Srs::try_setup(4, &mut rng, &Serial).expect("setup fits");
    let system = ProofSystem::setup_with_backend(srs, Arc::new(ThreadPool::new(2)));
    let (circuit, witness) = mock_circuit(4, SparsityProfile::dense(), &mut rng);
    let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
    let proof = prover.prove(&witness).expect("valid witness");
    verifier.verify(&proof).expect("valid proof");
}

// ------------------------------------------------- serialization ----

#[test]
fn proof_serialization_roundtrips_structurally() {
    let mut rng = StdRng::seed_from_u64(107);
    let (_, prover, verifier, witness) = session(5, &mut rng);
    let proof = prover.prove(&witness).expect("valid witness");

    // Byte round-trip is exact: PartialEq on Proof covers every component
    // (commitments, round evaluations, batch evaluations, openings).
    let bytes = proof.to_bytes();
    let decoded = Proof::from_bytes(&bytes).expect("valid encoding");
    assert_eq!(decoded, proof);
    assert_eq!(decoded.to_bytes(), bytes, "encoding is canonical");
    verifier.verify(&decoded).expect("decoded proof verifies");

    // The verifying key round-trips too and still verifies the proof.
    let vk_bytes = verifier.verifying_key().to_bytes();
    let restored = VerifierHandle::from_bytes(&vk_bytes).expect("valid key");
    restored.verify(&proof).expect("verifies with restored key");
}

#[test]
fn corrupt_proof_encodings_are_rejected() {
    let mut rng = StdRng::seed_from_u64(108);
    let (_, prover, verifier, witness) = session(4, &mut rng);
    let proof = prover.prove(&witness).expect("valid witness");
    let bytes = proof.to_bytes();

    // Corrupt magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0x20;
    assert!(matches!(
        Proof::from_bytes(&bad),
        Err(DecodeError::BadMagic { .. })
    ));

    // Unsupported version.
    let mut bad = bytes.clone();
    bad[4] = 99;
    assert!(matches!(
        Proof::from_bytes(&bad),
        Err(DecodeError::UnsupportedVersion { found: 99 })
    ));

    // Wrong artifact kind: feeding verifying-key bytes to the proof decoder.
    let vk_bytes = verifier.verifying_key().to_bytes();
    assert!(matches!(
        Proof::from_bytes(&vk_bytes),
        Err(DecodeError::WrongKind { .. })
    ));

    // Truncation and trailing bytes.
    assert!(Proof::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    let mut long = bytes.clone();
    long.extend_from_slice(&[0, 1, 2]);
    assert!(matches!(
        Proof::from_bytes(&long),
        Err(DecodeError::TrailingBytes { count: 3 })
    ));

    // A flipped coordinate byte lands off the curve.
    let mut bad = bytes.clone();
    bad[9] ^= 1;
    assert!(Proof::from_bytes(&bad).is_err());

    // The untampered original still decodes (sanity).
    assert_eq!(Proof::from_bytes(&bytes).unwrap(), proof);
}
