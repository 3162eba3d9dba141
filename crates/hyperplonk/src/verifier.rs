//! The HyperPlonk verifier.
//!
//! The verifier replays the prover's transcript, checks the three SumCheck
//! instances (Gate Identity, Wiring Identity, OpenCheck), discharges their
//! sub-claims against the claimed batch evaluations, checks the grand
//! product, and finally checks the single polynomial-commitment opening that
//! binds every claimed evaluation.

use core::fmt;

use zkspeed_field::Fr;
use zkspeed_pcs::verify_combined_opening;
use zkspeed_poly::MultilinearPoly;
use zkspeed_sumcheck::{verify as sumcheck_verify, verify_zerocheck, SumcheckError};
use zkspeed_transcript::Transcript;

use crate::constraints::{derived_at, GATE, SHIFTED, WIRING};
use crate::keys::VerifyingKey;
use crate::proof::{query_groups, PolyLabel, Proof};
use crate::prover::{powers, GATE_SUMCHECK_DEGREE, OPENCHECK_DEGREE, PERM_SUMCHECK_DEGREE};

/// Reasons a proof can be rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The Gate Identity ZeroCheck failed.
    GateZerocheck(SumcheckError),
    /// The Gate Identity sub-claim does not match the claimed evaluations.
    GateIdentityMismatch,
    /// The Wiring Identity ZeroCheck failed.
    PermZerocheck(SumcheckError),
    /// The Wiring Identity sub-claim does not match the claimed evaluations.
    PermIdentityMismatch,
    /// The grand product of the Fraction MLE is not one.
    GrandProductMismatch,
    /// The claimed batch evaluations have the wrong shape.
    MalformedEvaluations,
    /// The OpenCheck SumCheck failed.
    OpenCheck(SumcheckError),
    /// The OpenCheck sub-claim does not match the claimed combined
    /// evaluations.
    CombinedEvaluationMismatch,
    /// The final polynomial-commitment opening failed.
    OpeningFailed,
    /// The verifying key's `μ` is zero or larger than its SRS supports.
    MalformedKey,
    /// The proof is for another number of variables than the key.
    NumVarsMismatch {
        /// The proof's `μ`.
        proof: usize,
        /// The key's `μ`.
        key: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::GateZerocheck(e) => write!(f, "gate identity zerocheck failed: {e}"),
            VerifyError::GateIdentityMismatch => write!(f, "gate identity evaluation mismatch"),
            VerifyError::PermZerocheck(e) => write!(f, "wiring identity zerocheck failed: {e}"),
            VerifyError::PermIdentityMismatch => write!(f, "wiring identity evaluation mismatch"),
            VerifyError::GrandProductMismatch => write!(f, "grand product is not one"),
            VerifyError::MalformedEvaluations => write!(f, "malformed batch evaluations"),
            VerifyError::OpenCheck(e) => write!(f, "opencheck failed: {e}"),
            VerifyError::CombinedEvaluationMismatch => {
                write!(f, "combined evaluation mismatch at the opencheck point")
            }
            VerifyError::OpeningFailed => write!(f, "polynomial opening verification failed"),
            VerifyError::MalformedKey => {
                write!(f, "malformed verifying key: μ must be in 1..=the SRS's")
            }
            VerifyError::NumVarsMismatch { proof, key } => {
                write!(f, "proof is for μ = {proof}, the key for μ = {key}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a HyperPlonk proof against a verifying key.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first check that failed.
pub fn verify(vk: &VerifyingKey, proof: &Proof) -> Result<(), VerifyError> {
    let mu = vk.num_vars;
    if mu == 0 || mu > vk.srs.num_vars() {
        return Err(VerifyError::MalformedKey);
    }
    if proof.num_vars != mu {
        return Err(VerifyError::NumVarsMismatch {
            proof: proof.num_vars,
            key: mu,
        });
    }
    let mut transcript = Transcript::new(b"zkspeed-hyperplonk");
    vk.bind_to_transcript(&mut transcript);

    // ----- Step 1: Witness commitments -------------------------------------
    for com in &proof.witness_commitments {
        transcript.append_message(b"witness-commitment", &com.to_transcript_bytes());
    }

    // ----- Step 2: Gate Identity -------------------------------------------
    let gate_sub = verify_zerocheck(
        mu,
        GATE_SUMCHECK_DEGREE,
        &proof.gate_zerocheck,
        &mut transcript,
    )
    .map_err(VerifyError::GateZerocheck)?;

    // ----- Step 3: Wiring Identity ------------------------------------------
    let beta = transcript.challenge_scalar(b"beta");
    let gamma = transcript.challenge_scalar(b"gamma");
    transcript.append_message(
        b"phi-commitment",
        &proof.phi_commitment.to_transcript_bytes(),
    );
    transcript.append_message(b"pi-commitment", &proof.pi_commitment.to_transcript_bytes());
    let alpha = transcript.challenge_scalar(b"alpha");
    let perm_sub = verify_zerocheck(
        mu,
        PERM_SUMCHECK_DEGREE,
        &proof.perm_zerocheck,
        &mut transcript,
    )
    .map_err(VerifyError::PermZerocheck)?;

    // ----- Step 4: Batch evaluations ----------------------------------------
    let groups = query_groups(&gate_sub.point, &perm_sub.point);
    if proof.evaluations.values.len() != groups.len()
        || proof
            .evaluations
            .values
            .iter()
            .zip(groups.iter())
            .any(|(vals, g)| vals.len() != g.labels.len())
    {
        return Err(VerifyError::MalformedEvaluations);
    }
    transcript.append_scalars(b"batch-evaluations", &proof.evaluations.flatten());

    let eval_of = |group: usize, label: PolyLabel| -> Fr {
        let idx = groups[group]
            .labels
            .iter()
            .position(|l| *l == label)
            .expect("label present in group");
        proof.evaluations.values[group][idx]
    };

    // The Gate and Wiring Identity sub-claims: each identity at the batch
    // evaluations, the derived wiring columns by their rules at `s`, times
    // `eq` at its ZeroCheck's point must be that ZeroCheck's expected
    // evaluation.
    let shifted = [2, 3].map(|g| SHIFTED.map(|label| eval_of(g, label)));
    let derived = derived_at(&perm_sub.point, beta, gamma, |l| eval_of(1, l), shifted);
    let claims = [
        (
            GATE.evaluate(alpha, |l| eval_of(0, l), &[]),
            &gate_sub,
            VerifyError::GateIdentityMismatch,
        ),
        (
            WIRING.evaluate(alpha, |l| eval_of(1, l), &derived),
            &perm_sub,
            VerifyError::PermIdentityMismatch,
        ),
    ];
    for (value, sub, mismatch) in claims {
        let eq = MultilinearPoly::eq_eval(&sub.point, &sub.build_mle_challenges);
        if value * eq != sub.expected_evaluation {
            return Err(mismatch);
        }
    }

    // Grand product: π evaluated at the fixed point must be exactly one.
    if eval_of(4, PolyLabel::Pi) != Fr::one() {
        return Err(VerifyError::GrandProductMismatch);
    }

    // ----- Step 5: Polynomial opening ----------------------------------------
    // Per-group RLC challenges and combined claimed values. The combined
    // commitments are never formed: g′ = Σ_g d_g·Σ_i e_gⁱ·f_{g,i} is folded
    // into one scalar per polynomial below, and its commitment into the
    // opening check's MSM.
    let mut rlc_coeffs = Vec::with_capacity(groups.len());
    let mut combined_values = Vec::with_capacity(groups.len());
    for (gi, group) in groups.iter().enumerate() {
        let e = transcript.challenge_scalar(b"rlc-challenge");
        let coeffs = powers(e, group.labels.len());
        let v: Fr = coeffs
            .iter()
            .zip(proof.evaluations.values[gi].iter())
            .map(|(c, val)| *c * *val)
            .sum();
        combined_values.push(v);
        rlc_coeffs.push(coeffs);
    }
    let c = transcript.challenge_scalar(b"opencheck-combine");
    let c_powers = powers(c, groups.len());
    let claim: Fr = c_powers
        .iter()
        .zip(combined_values.iter())
        .map(|(cp, v)| *cp * *v)
        .sum();
    let open_sub = sumcheck_verify(
        claim,
        mu,
        OPENCHECK_DEGREE,
        &proof.opencheck,
        &mut transcript,
    )
    .map_err(VerifyError::OpenCheck)?;
    let rho = open_sub.point.clone();

    if proof.combined_evaluations.len() != groups.len() {
        return Err(VerifyError::MalformedEvaluations);
    }
    transcript.append_scalars(b"combined-evaluations", &proof.combined_evaluations);
    // The OpenCheck sub-claim must match Σ_i cⁱ·yᵢ(ρ)·eq(pᵢ, ρ).
    let reconstructed: Fr = groups
        .iter()
        .zip(c_powers.iter().zip(proof.combined_evaluations.iter()))
        .map(|(group, (cp, y_rho))| *cp * *y_rho * MultilinearPoly::eq_eval(&group.point, &rho))
        .sum();
    if reconstructed != open_sub.expected_evaluation {
        return Err(VerifyError::CombinedEvaluationMismatch);
    }

    // Final combined polynomial g′ = Σ_l s_l·f_l, with
    // s_l = Σ_g d_g·e_g^{i(l,g)} over the groups that query f_l, and its
    // opening: one MSM over the 13 commitments, G and the μ quotients.
    let d = transcript.challenge_scalars(b"gprime-challenge", groups.len());
    let gprime_value: Fr = d
        .iter()
        .zip(proof.combined_evaluations.iter())
        .map(|(di, yi)| *di * *yi)
        .sum();
    // Indexed by `PolyLabel as usize`: the labels' declaration order.
    let mut terms: Vec<(Fr, _)> = [
        &vk.selector_commitments[..],
        &proof.witness_commitments,
        &vk.sigma_commitments,
        &[proof.phi_commitment, proof.pi_commitment],
    ]
    .concat()
    .into_iter()
    .map(|com| (Fr::zero(), com))
    .collect();
    for ((group, coeffs), d_g) in groups.iter().zip(&rlc_coeffs).zip(&d) {
        for (label, e_i) in group.labels.iter().zip(coeffs) {
            terms[*label as usize].0 += *d_g * *e_i;
        }
    }
    if !verify_combined_opening(&vk.srs, &terms, &rho, gprime_value, &proof.gprime_opening) {
        return Err(VerifyError::OpeningFailed);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, Witness};
    use crate::keys::{try_preprocess, ProvingKey};
    use crate::mock::{mock_circuit, SparsityProfile};
    use crate::prover::{prove_unchecked, ExecCtx};
    use zkspeed_pcs::{Commitment, Srs};
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0011)
    }

    fn preprocess(circuit: Circuit, srs: &Srs) -> (ProvingKey, VerifyingKey) {
        try_preprocess(circuit, srs, &Serial).unwrap()
    }

    /// A proof on one thread, with no satisfiability check.
    fn prove(pk: &ProvingKey, witness: &Witness) -> Proof {
        prove_unchecked(pk, witness, &ExecCtx::default()).0
    }

    #[test]
    fn honest_proof_verifies_across_sizes() {
        let mut r = rng();
        for mu in [1usize, 2, 4, 6] {
            let srs = Srs::try_setup(mu, &mut r, &Serial).unwrap();
            let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
            let (pk, vk) = preprocess(circuit, &srs);
            let proof = prove(&pk, &witness);
            assert_eq!(verify(&vk, &proof), Ok(()), "mu = {mu}");
        }
    }

    #[test]
    fn gate_violation_is_rejected() {
        let mut r = rng();
        let mu = 4;
        let srs = Srs::try_setup(mu, &mut r, &Serial).unwrap();
        let (circuit, mut witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = preprocess(circuit, &srs);
        // Break one gate output.
        witness.columns[2].evaluations_mut()[3] += Fr::one();
        let proof = prove(&pk, &witness);
        assert!(verify(&vk, &proof).is_err());
    }

    #[test]
    fn tampered_proof_fields_are_rejected() {
        let mut r = rng();
        let mu = 3;
        let srs = Srs::try_setup(mu, &mut r, &Serial).unwrap();
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = preprocess(circuit, &srs);
        let proof = prove(&pk, &witness);

        // Tamper with a claimed evaluation.
        let mut p1 = proof.clone();
        p1.evaluations.values[0][5] += Fr::one();
        assert!(verify(&vk, &p1).is_err());

        // Tamper with a witness commitment.
        let mut p2 = proof.clone();
        p2.witness_commitments[0] =
            Commitment(p2.witness_commitments[0].0 + zkspeed_curve::G1Projective::generator());
        assert!(verify(&vk, &p2).is_err());

        // Tamper with the combined evaluations.
        let mut p3 = proof.clone();
        p3.combined_evaluations[2] += Fr::one();
        assert!(verify(&vk, &p3).is_err());

        // Tamper with a zerocheck round polynomial.
        let mut p4 = proof.clone();
        p4.perm_zerocheck.rows[0][0] += Fr::one();
        assert!(verify(&vk, &p4).is_err());

        // Truncate the batch evaluations.
        let mut p5 = proof.clone();
        p5.evaluations.values.pop();
        assert_eq!(verify(&vk, &p5), Err(VerifyError::MalformedEvaluations));
    }

    #[test]
    fn proof_is_not_transferable_across_circuits() {
        let mut r = rng();
        let mu = 3;
        let srs = Srs::try_setup(mu, &mut r, &Serial).unwrap();
        let (circuit_a, witness_a) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (circuit_b, _) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk_a, _vk_a) = preprocess(circuit_a, &srs);
        let (_pk_b, vk_b) = preprocess(circuit_b, &srs);
        let proof = prove(&pk_a, &witness_a);
        assert!(verify(&vk_b, &proof).is_err());
    }

    #[test]
    fn keys_of_no_variables_or_beyond_their_srs_are_errors() {
        let mut r = rng();
        let srs = Srs::try_setup(2, &mut r, &Serial).unwrap();
        let (circuit, witness) = mock_circuit(2, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = preprocess(circuit, &srs);
        let proof = prove(&pk, &witness);
        for num_vars in [0, 3] {
            let bad = VerifyingKey {
                num_vars,
                ..vk.clone()
            };
            assert_eq!(verify(&bad, &proof), Err(VerifyError::MalformedKey));
        }
    }

    #[test]
    fn error_display_strings() {
        assert!(VerifyError::GrandProductMismatch
            .to_string()
            .contains("grand product"));
        assert!(VerifyError::OpeningFailed.to_string().contains("opening"));
        assert!(
            VerifyError::GateZerocheck(SumcheckError::FinalEvaluationMismatch)
                .to_string()
                .contains("gate identity")
        );
    }
}
