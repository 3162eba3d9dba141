//! ZeroCheck: proving that a virtual polynomial vanishes on the whole
//! Boolean hypercube.
//!
//! As described in Section 3.3.2 of the zkSpeed paper, summing `f(X)` alone
//! is necessary but not sufficient, so the prover first obtains `μ` random
//! challenges `r` and runs SumCheck on `f(X)·eq(X, r)` with claimed sum
//! zero. The prover never materialises that product: `eq` factors out of
//! every round polynomial (see [`crate::prover`]), leaving a half-size
//! `eq` table (**Build MLE**, Multifunction Tree unit) to weigh `f` with.
//! [`mask_with_eq`] builds the product explicitly; it is the definition the
//! tests hold the prover to.

use zkspeed_field::Fr;
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::pool::{Backend, Serial};
use zkspeed_rt::trace::TraceSink;
use zkspeed_transcript::Transcript;

use crate::error::SumcheckError;
use crate::prover::{prove_rounds, ProverOutput, SumcheckProof};
use crate::verifier::{verify_rounds, SubClaim};

/// A ZeroCheck proof is a SumCheck proof over the `eq`-masked polynomial,
/// whose rows sample the cofactor `t_i` instead of the round polynomial.
pub type ZerocheckProof = SumcheckProof;

/// Output of the ZeroCheck prover.
#[derive(Clone, Debug)]
pub struct ZerocheckProverOutput {
    /// The underlying SumCheck output: proof, point, and the evaluations of
    /// the polynomial's own MLEs at the point (`eq` is not one of them; the
    /// verifier's rounds divide `eq(point, r)` out of the claim).
    pub sumcheck: ProverOutput,
    /// The Build-MLE challenges `r` used to construct `eq(X, r)`.
    pub build_mle_challenges: Vec<Fr>,
}

/// Builds the masked polynomial `f(X)·eq(X, r)` from `f` and the challenges:
/// re-registers the original MLEs (shared, not cloned), appends the `eq`
/// table, and extends every term with it.
pub fn mask_with_eq(poly: &VirtualPolynomial, challenges: &[Fr]) -> VirtualPolynomial {
    assert_eq!(
        challenges.len(),
        poly.num_vars(),
        "mask_with_eq: challenge count must equal the number of variables"
    );
    let mut masked = VirtualPolynomial::new(poly.num_vars());
    for mle in poly.mles() {
        masked.add_shared_mle(mle.clone());
    }
    let eq_index = masked.add_mle(MultilinearPoly::eq_mle(challenges, &Serial));
    for term in poly.terms() {
        let mut indices = term.mle_indices.clone();
        indices.push(eq_index);
        masked.add_term(term.coefficient, indices);
    }
    masked
}

/// Runs the ZeroCheck prover: draws the Build-MLE challenges `r` from the
/// transcript and runs SumCheck on `poly(X)·eq(X, r)` with claimed sum zero.
/// The Build-MLE `eq` construction and the SumCheck rounds fan out over
/// `backend`'s workers and record spans into `trace` as [`crate::prove`]
/// does; the proof is the same on any backend, traced or not.
///
/// Like [`crate::prove`], it takes the polynomial: the tables only it holds
/// fold in place from round one and die inside it, and the ones the caller
/// shares are copied by the first fold. [`prove_zerocheck_on`] borrows and
/// so copies every table on the first fold.
///
/// # Panics
///
/// Panics if `poly` has no variables or no terms.
pub fn prove_zerocheck(
    poly: VirtualPolynomial,
    transcript: &mut Transcript,
    backend: &dyn Backend,
    trace: &TraceSink,
    round_label: &'static str,
) -> ZerocheckProverOutput {
    let challenges = transcript.challenge_scalars(b"zerocheck-r", poly.num_vars());
    let eq_point = Some(&challenges[..]);
    let sumcheck = prove_rounds(poly, eq_point, transcript, backend, trace, round_label);
    ZerocheckProverOutput {
        sumcheck,
        build_mle_challenges: challenges,
    }
}

/// [`prove_zerocheck`] untraced, under the name the benchmark imports. It
/// proves a clone of `poly`, which shares its tables: the first fold copies
/// them.
pub fn prove_zerocheck_on(
    poly: &VirtualPolynomial,
    transcript: &mut Transcript,
    backend: &dyn Backend,
) -> ZerocheckProverOutput {
    prove_zerocheck(
        poly.clone(),
        transcript,
        backend,
        &TraceSink::disabled(),
        "round",
    )
}

/// Verifies a ZeroCheck proof for a `num_vars`-variate polynomial `f`
/// whose masked degree (original degree + 1 for the `eq` factor) is
/// `masked_degree`: each row holds `masked_degree − 1` values of the
/// cofactor `t_i`. The sub-claim is the value `f` itself must have at the
/// point, the `eq(point, r)` factor divided out by the rounds.
///
/// # Errors
///
/// Returns a [`SumcheckError`] if the proof has the wrong shape or a
/// Build-MLE coordinate is zero.
pub fn verify_zerocheck(
    num_vars: usize,
    masked_degree: usize,
    proof: &ZerocheckProof,
    transcript: &mut Transcript,
) -> Result<SubClaim, SumcheckError> {
    let challenges = transcript.challenge_scalars(b"zerocheck-r", num_vars);
    verify_rounds(
        Fr::zero(),
        num_vars,
        masked_degree - 1,
        Some(&challenges),
        proof,
        transcript,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_000a)
    }

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    /// Builds a virtual polynomial that vanishes on the hypercube:
    /// f·g − g·f (trivially zero) plus h·(1−h)·c where h is boolean-valued.
    fn vanishing_poly(num_vars: usize, rng: &mut StdRng) -> VirtualPolynomial {
        let f = MultilinearPoly::random(num_vars, rng);
        let g = MultilinearPoly::random(num_vars, rng);
        // h takes only 0/1 values on the hypercube, so h·(1−h) = h − h² = 0.
        let h = MultilinearPoly::from_fn(num_vars, |i| u(((i * 7 + 3) % 2) as u64));
        let c = MultilinearPoly::random(num_vars, rng);
        let mut vp = VirtualPolynomial::new(num_vars);
        let fi = vp.add_mle(f);
        let gi = vp.add_mle(g);
        let hi = vp.add_mle(h);
        let ci = vp.add_mle(c);
        vp.add_term(u(1), vec![fi, gi]);
        vp.add_term(-u(1), vec![gi, fi]);
        vp.add_term(u(5), vec![hi, ci]);
        vp.add_term(-u(5), vec![hi, hi, ci]);
        vp
    }

    #[test]
    fn mask_with_eq_zeroes_the_sum_for_vanishing_polynomials() {
        let mut r = rng();
        let vp = vanishing_poly(4, &mut r);
        assert_eq!(vp.sum_over_hypercube(), Fr::zero());
        let challenges: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let masked = mask_with_eq(&vp, &challenges);
        assert_eq!(masked.sum_over_hypercube(), Fr::zero());
        assert_eq!(masked.degree(), vp.degree() + 1);
        // Non-vanishing polynomials masked with eq generally do NOT sum to 0.
        let mut nonzero = VirtualPolynomial::new(4);
        let i = nonzero.add_mle(MultilinearPoly::constant(u(1), 4));
        nonzero.add_term(u(1), vec![i]);
        let masked_nonzero = mask_with_eq(&nonzero, &challenges);
        assert_ne!(masked_nonzero.sum_over_hypercube(), Fr::zero());
    }

    #[test]
    fn honest_zerocheck_roundtrip() {
        let mut r = rng();
        for num_vars in 2..=5usize {
            let vp = vanishing_poly(num_vars, &mut r);
            let mut pt = Transcript::new(b"zerocheck");
            let out = prove_zerocheck_on(&vp, &mut pt, &Serial);
            let mut vt = Transcript::new(b"zerocheck");
            let sub = verify_zerocheck(num_vars, vp.degree() + 1, &out.sumcheck.proof, &mut vt)
                .expect("honest zerocheck verifies");
            assert_eq!(sub.point, out.sumcheck.point);
            // The sub-claim is discharged by the real polynomial evaluation.
            assert_eq!(sub.expected_evaluation, vp.evaluate(&sub.point));
        }
    }

    /// Whether a ZeroCheck proof of `vp`'s vanishing verifies and its
    /// sub-claim holds at the oracle: a row cannot contradict the running
    /// claim, so a false one surfaces there.
    fn holds(vp: &VirtualPolynomial, proof: &ZerocheckProof) -> bool {
        let mut vt = Transcript::new(b"zerocheck");
        let sub =
            verify_zerocheck(vp.num_vars(), vp.degree() + 1, proof, &mut vt).expect("well-shaped");
        sub.expected_evaluation == vp.evaluate(&sub.point)
    }

    #[test]
    fn cheating_prover_is_caught() {
        let mut r = rng();
        // A polynomial that does not vanish everywhere: a single random MLE.
        let f = MultilinearPoly::random(4, &mut r);
        let mut vp = VirtualPolynomial::new(4);
        let fi = vp.add_mle(f);
        vp.add_term(u(1), vec![fi]);
        assert_ne!(vp.sum_over_hypercube(), Fr::zero());

        let mut pt = Transcript::new(b"zerocheck");
        let out = prove_zerocheck_on(&vp, &mut pt, &Serial);
        assert!(
            !holds(&vp, &out.sumcheck.proof),
            "non-vanishing polynomial must not verify"
        );
    }

    #[test]
    fn tampered_proof_is_caught() {
        let mut r = rng();
        let vp = vanishing_poly(3, &mut r);
        let mut pt = Transcript::new(b"zerocheck");
        let out = prove_zerocheck_on(&vp, &mut pt, &Serial);
        assert!(holds(&vp, &out.sumcheck.proof));
        // Every value of every row, moved by one.
        for round in 0..3 {
            for k in 0..vp.degree() {
                let mut tampered = out.sumcheck.proof.clone();
                tampered.rows[round][k] += u(1);
                assert!(!holds(&vp, &tampered), "row {round}, value {k}");
            }
        }
    }

    #[test]
    fn a_zero_build_mle_coordinate_is_an_error() {
        let mut r = rng();
        let vp = vanishing_poly(3, &mut r);
        let mut pt = Transcript::new(b"zerocheck");
        let out = prove_zerocheck_on(&vp, &mut pt, &Serial);
        for round in 0..3 {
            let mut challenges = out.build_mle_challenges.clone();
            challenges[round] = Fr::zero();
            let mut vt = Transcript::new(b"zerocheck");
            let rows = &out.sumcheck.proof;
            assert_eq!(
                verify_rounds(Fr::zero(), 3, vp.degree(), Some(&challenges), rows, &mut vt),
                Err(SumcheckError::ZeroBuildMleCoordinate { round })
            );
        }
    }
}
