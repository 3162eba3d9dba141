//! Soundness-oriented integration tests: proofs produced from invalid
//! witnesses or tampered proof objects must be rejected by the verifier.

use zkspeed::prelude::*;
use zkspeed_curve::G1Projective;
use zkspeed_field::Fr;
use zkspeed_hyperplonk::{mock_circuit, verify, VerifyError};
use zkspeed_pcs::Commitment;

fn setup(mu: usize, seed: u64) -> (ProverHandle, VerifierHandle, Witness) {
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::try_setup(mu, &mut rng, &Serial).expect("setup fits");
    let system = ProofSystem::setup(srs);
    let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
    (prover, verifier, witness)
}

#[test]
fn gate_violating_witness_is_rejected() {
    let (prover, verifier, mut witness) = setup(5, 201);
    // Corrupt a single output value: some gate constraint breaks.
    witness.columns[2].evaluations_mut()[7] += Fr::from_u64(1);
    let (proof, _) = prover.prove_unchecked(&witness);
    assert!(
        verifier.verify(&proof).is_err(),
        "gate violation must be caught"
    );
}

#[test]
fn wiring_violating_witness_is_rejected() {
    let (prover, verifier, witness) = setup(5, 202);
    // Find a wired slot pair and break the copy while keeping both gates
    // individually satisfied (turn both gates into no-op-compatible values is
    // hard generically, so instead swap a wired value with a fresh one and
    // repair the local gate by brute force on the output column).
    let n = prover.proving_key().circuit.num_gates();
    let mut tampered = witness.clone();
    let mut broke_something = false;
    'outer: for j in 0..3usize {
        for i in 0..n {
            let target = prover.proving_key().circuit.sigma_slot(j, i);
            if target != j * n + i {
                // Change this slot's value only.
                let col = j;
                let new_val = tampered.columns[col][i] + Fr::from_u64(1);
                tampered.columns[col].evaluations_mut()[i] = new_val;
                // Repair the gate constraint by recomputing the output.
                // Hand-written on purpose: independent of `constraints::GATE`.
                let g = prover.proving_key().circuit.gate(i);
                let w1 = tampered.columns[0][i];
                let w2 = tampered.columns[1][i];
                if !g.q_o.is_zero() {
                    let out = (g.q_l * w1 + g.q_r * w2 + g.q_m * w1 * w2 + g.q_c)
                        * g.q_o.invert().unwrap();
                    tampered.columns[2].evaluations_mut()[i] = out;
                }
                broke_something = true;
                break 'outer;
            }
        }
    }
    assert!(
        broke_something,
        "mock circuit should have nontrivial wiring"
    );
    let (proof, _) = prover.prove_unchecked(&tampered);
    assert!(
        verifier.verify(&proof).is_err(),
        "wiring violation must be caught"
    );
}

#[test]
fn proof_for_different_witness_does_not_transfer() {
    // A proof is bound to the witness commitments inside it; swapping in the
    // commitments of a different witness must fail.
    let (prover, verifier, witness) = setup(4, 203);
    let mut rng = StdRng::seed_from_u64(204);
    let (_, other_witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
    let proof = prover.prove(&witness).expect("valid witness");
    let other_srs_proof = prover.prove(&other_witness);
    // The other witness almost surely violates this circuit's constraints.
    if let Ok(other) = other_srs_proof {
        // If by chance it satisfies, mixing the two proofs must still fail.
        let mut mixed = proof.clone();
        mixed.witness_commitments = other.witness_commitments;
        assert!(verifier.verify(&mixed).is_err());
    } else {
        let mut mixed = proof;
        mixed.evaluations.values[0][5] += Fr::from_u64(1);
        assert!(verifier.verify(&mixed).is_err());
    }
}

/// Every scalar a proof sends, in encoding order: the rows of the gate
/// ZeroCheck, the PermCheck and the OpenCheck, value by value, the 21 batch
/// evaluations, then the 5 combined evaluations.
fn scalars(proof: &mut Proof) -> Vec<&mut Fr> {
    let Proof {
        gate_zerocheck,
        perm_zerocheck,
        opencheck,
        evaluations,
        combined_evaluations,
        ..
    } = proof;
    [gate_zerocheck, perm_zerocheck, opencheck]
        .into_iter()
        .flat_map(|sumcheck| sumcheck.rows.iter_mut().flatten())
        .chain(evaluations.values.iter_mut().flatten())
        .chain(combined_evaluations)
        .collect()
}

/// The low bit flipped, plus one, zero, and `other`: the same field of
/// another valid proof.
fn scalar_mutations(x: Fr, other: Fr) -> [(&'static str, Fr); 4] {
    let flipped = if x.bit(0) {
        x - Fr::one()
    } else {
        x + Fr::one()
    };
    [
        ("low bit flipped", flipped),
        ("+ 1", x + Fr::one()),
        ("zero", Fr::zero()),
        ("another proof's", other),
    ]
}

#[test]
fn every_proof_component_is_binding() {
    // Each scalar of a valid proof mutated four ways. A mutation that
    // leaves the value as it was is counted apart: it is the valid proof.
    // Round 0 of a ZeroCheck sends t₀(0) = 0 for any satisfied witness, and
    // the mock circuits' constant q_O and π at the grand-product point read
    // the same in every valid proof.
    let (mut rejected, mut unchanged) = (0, 0);
    let mut proofs = Vec::new();
    for mu in [2, 3, 8] {
        let (prover, verifier, witness) = setup(mu, 300 + mu as u64);
        let (other_prover, _, other_witness) = setup(mu, 500 + mu as u64);
        let vk = verifier.verifying_key();
        let mut proof = prover.prove(&witness).expect("valid witness");
        let mut other = other_prover.prove(&other_witness).expect("valid witness");
        verify(vk, &proof).expect("baseline proof verifies");
        let originals: Vec<Fr> = scalars(&mut proof).into_iter().map(|x| *x).collect();
        let others: Vec<Fr> = scalars(&mut other).into_iter().map(|x| *x).collect();
        assert_eq!(originals.len(), 9 * mu + 21 + 5, "μ = {mu}");
        for (field, (&x, &y)) in originals.iter().zip(&others).enumerate() {
            for (name, value) in scalar_mutations(x, y) {
                if value == x {
                    unchanged += 1;
                    continue;
                }
                let mut tampered = proof.clone();
                *scalars(&mut tampered)[field] = value;
                assert!(
                    verify(vk, &tampered).is_err(),
                    "μ = {mu}, scalar {field}: {name} accepted"
                );
                rejected += 1;
            }
        }
        proofs.push((mu, proof, vk.clone()));
    }
    println!("{rejected} scalar mutations rejected, {unchanged} left the value unchanged");
    assert_eq!(rejected + unchanged, 4 * (9 * (2 + 3 + 8) + 3 * (21 + 5)));

    // A proof decoded from its bytes, checked against a key of another μ.
    for (mu, proof, _) in &proofs {
        let decoded = Proof::from_bytes(&proof.to_bytes()).expect("valid encoding");
        for (key_mu, _, vk) in proofs.iter().filter(|(other, ..)| other != mu) {
            assert_eq!(
                verify(vk, &decoded),
                Err(VerifyError::NumVarsMismatch {
                    proof: *mu,
                    key: *key_mu
                })
            );
        }
    }
}

/// The G1 element of `proof` numbered `field`: the three witness
/// commitments, φ, π, then the opening quotients in order.
fn g1_field(proof: &mut Proof, field: usize) -> &mut Commitment {
    match field {
        0..=2 => &mut proof.witness_commitments[field],
        3 => &mut proof.phi_commitment,
        4 => &mut proof.pi_commitment,
        quotient => &mut proof.gprime_opening.quotients[quotient - 5],
    }
}

/// The G1 element of `vk` numbered `field`: the five selector commitments,
/// then the three σ commitments.
fn key_field(vk: &mut VerifyingKey, field: usize) -> &mut Commitment {
    match field {
        0..=4 => &mut vk.selector_commitments[field],
        sigma => &mut vk.sigma_commitments[sigma - 5],
    }
}

/// φ(C) = λ·C (same y, β·x: what the MSM engine's endomorphism produces),
/// −C, the identity and C + G.
fn replacements(c: G1Projective) -> [(&'static str, G1Projective); 4] {
    let z = Fr::from_u64(0xd201_0000_0001_0000);
    let image = c.mul_scalar(&(z * z - Fr::one()));
    assert_eq!(image.to_affine().y, c.to_affine().y);
    [
        ("φ(C)", image),
        ("−C", -c),
        ("identity", G1Projective::identity()),
        ("C + G", c + G1Projective::generator()),
    ]
}

#[test]
fn every_g1_field_of_a_proof_is_binding() {
    // Each G1 element C of a valid proof and of its verifying key replaced
    // four ways: the verifier, whose single MSM runs through the same
    // scalar split, must reject every case at every size. The opening
    // quotients are never absorbed into the transcript, so only that MSM
    // can catch them: they must fail the opening check itself.
    let (mut proof_cases, mut key_cases) = (0, 0);
    for mu in [2, 3, 8] {
        // Seeds whose circuits use all five selectors: a selector that is
        // zero everywhere commits to the identity, which three of the four
        // replacements leave unchanged.
        let (prover, verifier, witness) = setup(mu, 300 + mu as u64);
        let vk = verifier.verifying_key();
        let proof = prover.prove(&witness).expect("valid witness");
        verify(vk, &proof).expect("baseline proof verifies");
        let fields = 5 + proof.gprime_opening.quotients.len();
        for field in 0..fields {
            let c = g1_field(&mut proof.clone(), field).0;
            assert!(!c.is_identity(), "μ = {mu}, proof field {field}");
            for (name, replacement) in replacements(c) {
                let mut tampered = proof.clone();
                g1_field(&mut tampered, field).0 = replacement;
                let result = verify(vk, &tampered);
                if field < 5 {
                    assert!(result.is_err(), "μ = {mu}, field {field}: {name} accepted");
                } else {
                    assert_eq!(
                        result,
                        Err(VerifyError::OpeningFailed),
                        "μ = {mu}, quotient {}: {name}",
                        field - 5
                    );
                }
                proof_cases += 1;
            }
        }
        for field in 0..8 {
            let c = key_field(&mut vk.clone(), field).0;
            assert!(!c.is_identity(), "μ = {mu}, key field {field}");
            for (name, replacement) in replacements(c) {
                let mut tampered = vk.clone();
                key_field(&mut tampered, field).0 = replacement;
                assert!(
                    verify(&tampered, &proof).is_err(),
                    "μ = {mu}, key field {field}: {name} accepted"
                );
                key_cases += 1;
            }
        }
    }
    println!("{proof_cases} proof and {key_cases} key G1 replacements rejected");
    assert_eq!(proof_cases, 4 * (5 + 2 + 5 + 3 + 5 + 8));
    assert_eq!(key_cases, 4 * 8 * 3);
}

#[test]
fn a_key_of_another_size_or_circuit_rejects_the_proof() {
    // The key's non-G1 fields: μ moved by one either way, and a key of a
    // different circuit of the same μ. Every case must be an `Err`, not a
    // panic: the verifier reads the round counts, the opening's quotient
    // count and the SRS level from the key, not from the proof.
    let mut cases = 0;
    for mu in [3, 8] {
        let mut rng = StdRng::seed_from_u64(400 + mu as u64);
        // One variable more than the circuits need, so that μ + 1 also has a
        // key within its SRS.
        let wide_srs = Srs::try_setup(mu + 1, &mut rng, &Serial).expect("setup fits");
        let system = ProofSystem::setup(wide_srs.clone());
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
        let (other_circuit, _) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        let (_, other_verifier) = system.preprocess(other_circuit).expect("circuit fits");
        let vk = verifier.verifying_key();
        let proof = prover.prove(&witness).expect("valid witness");
        verify(vk, &proof).expect("baseline proof verifies");
        assert_eq!(vk.srs.num_vars(), mu, "the key holds the SRS prefix");

        let resized = |num_vars: usize, srs: &Srs| {
            let mut key = vk.clone();
            key.num_vars = num_vars;
            key.srs = srs.clone();
            verify(&key, &proof)
        };
        assert!(resized(mu - 1, &vk.srs).is_err(), "μ = {mu}: μ − 1");
        assert_eq!(
            resized(mu + 1, &vk.srs),
            Err(VerifyError::MalformedKey),
            "μ = {mu}: μ + 1 beyond the key's SRS"
        );
        assert!(resized(mu + 1, &wide_srs).is_err(), "μ = {mu}: μ + 1");
        assert!(
            verify(other_verifier.verifying_key(), &proof).is_err(),
            "μ = {mu}: another circuit's key"
        );
        cases += 4;
    }
    println!("{cases} resized or swapped keys rejected");
    assert_eq!(cases, 4 * 2);
}
