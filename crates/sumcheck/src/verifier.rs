//! The SumCheck verifier.
//!
//! The verifier replays the prover's transcript interaction: each round it
//! checks `gᵢ(0) + gᵢ(1)` against the running claim, derives the same
//! challenge the prover saw, and folds the claim to `gᵢ(rᵢ)` by evaluating
//! the round polynomial from its evaluations at `0..=d` (barycentric-style
//! Lagrange interpolation over uniform nodes — the same fixed interpolation
//! step the paper's SumCheck unit performs at the end of each round).

use std::sync::OnceLock;

use zkspeed_field::{batch_invert, Fr};
use zkspeed_transcript::Transcript;

use crate::error::SumcheckError;
use crate::prover::SumcheckProof;

/// What a successful SumCheck verification reduces the original claim to: the
/// statement that the proved polynomial evaluates to `expected_evaluation` at
/// `point`. The caller discharges this sub-claim with polynomial-commitment
/// openings (or direct evaluation in tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubClaim {
    /// The challenge point accumulated over the rounds.
    pub point: Vec<Fr>,
    /// The evaluation the proved polynomial must have at `point`.
    pub expected_evaluation: Fr,
}

/// Verifies a SumCheck proof of `claimed_sum` for a `num_vars`-variate
/// polynomial of per-round degree at most `degree`.
///
/// # Errors
///
/// Returns a [`SumcheckError`] if the proof shape is wrong or any round
/// polynomial is inconsistent with the running claim.
pub fn verify(
    claimed_sum: Fr,
    num_vars: usize,
    degree: usize,
    proof: &SumcheckProof,
    transcript: &mut Transcript,
) -> Result<SubClaim, SumcheckError> {
    if proof.round_evaluations.len() != num_vars {
        return Err(SumcheckError::WrongNumberOfRounds {
            got: proof.round_evaluations.len(),
            expected: num_vars,
        });
    }
    let mut claim = claimed_sum;
    let mut point = Vec::with_capacity(num_vars);
    for (round, evals) in proof.round_evaluations.iter().enumerate() {
        if evals.len() != degree + 1 {
            return Err(SumcheckError::WrongRoundPolynomialSize {
                round,
                got: evals.len(),
                expected: degree + 1,
            });
        }
        if evals[0] + evals[1] != claim {
            return Err(SumcheckError::RoundClaimMismatch { round });
        }
        transcript.append_scalars(b"sumcheck-round", evals);
        let challenge = transcript.challenge_scalar(b"sumcheck-challenge");
        claim = interpolate_uniform(evals, challenge);
        point.push(challenge);
    }
    Ok(SubClaim {
        point,
        expected_evaluation: claim,
    })
}

/// Node counts whose barycentric weights are tabled: the round polynomials
/// of HyperPlonk's three SumChecks have at most six evaluations.
const TABLED_NODES: usize = 6;

/// Evaluates at `x` the unique degree-`n−1` polynomial passing through the
/// points `(0, evals[0]), (1, evals[1]), …, (n−1, evals[n−1])`.
///
/// Uses the barycentric form over uniform nodes; for the small degrees that
/// occur in HyperPlonk (≤ 4) this costs a handful of modmuls, matching the
/// "fixed interpolation step" the paper adds at the end of each round. The
/// weights of up to `TABLED_NODES` nodes are computed once and read from a
/// table; more nodes compute theirs on every call.
pub fn interpolate_uniform(evals: &[Fr], x: Fr) -> Fr {
    let n = evals.len();
    assert!(n > 0, "interpolate_uniform: empty evaluations");
    if n <= TABLED_NODES {
        static WEIGHTS: OnceLock<Vec<Vec<Fr>>> = OnceLock::new();
        let weights = WEIGHTS.get_or_init(|| (0..=TABLED_NODES).map(barycentric_weights).collect());
        interpolate_with(evals, x, &weights[n], &mut [Fr::zero(); TABLED_NODES])
    } else {
        interpolate_with(evals, x, &barycentric_weights(n), &mut vec![Fr::zero(); n])
    }
}

/// The barycentric weights of the nodes `0..n`:
/// `wᵢ = 1 / (i!·(n−1−i)!·(−1)^{n−1−i})`.
fn barycentric_weights(n: usize) -> Vec<Fr> {
    let mut factorials = vec![Fr::one(); n];
    for i in 1..n {
        factorials[i] = factorials[i - 1] * Fr::from_u64(i as u64);
    }
    let mut weights: Vec<Fr> = (0..n)
        .map(|i| {
            let d = factorials[i] * factorials[n - 1 - i];
            if (n - 1 - i) % 2 == 1 {
                -d
            } else {
                d
            }
        })
        .collect();
    batch_invert(&mut weights);
    weights
}

/// `Σ evals[i]·wᵢ·Π_{j≠i} (x − j)`, or `evals[i]` when `x` is node `i`;
/// `suffix` is scratch of at least `n` elements.
fn interpolate_with(evals: &[Fr], x: Fr, weights: &[Fr], suffix: &mut [Fr]) -> Fr {
    let n = evals.len();
    // suffix[i] = Π_{j>i} (x − j), from the top node down; a node hit on
    // the way is the answer (and would zero every other term).
    let mut diff = x - Fr::from_u64(n as u64 - 1);
    let mut product = Fr::one();
    for i in (0..n).rev() {
        if diff.is_zero() {
            return evals[i];
        }
        suffix[i] = product;
        product *= diff;
        diff += Fr::one();
    }
    let (mut acc, mut prefix, mut diff) = (Fr::zero(), Fr::one(), x);
    for i in 0..n {
        acc += evals[i] * weights[i] * prefix * suffix[i];
        prefix *= diff;
        diff -= Fr::one();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::{prove_on, round_polynomial};
    use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0009)
    }

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    fn example_poly(num_vars: usize, rng: &mut StdRng) -> VirtualPolynomial {
        let f = MultilinearPoly::random(num_vars, rng);
        let g = MultilinearPoly::random(num_vars, rng);
        let mut vp = VirtualPolynomial::new(num_vars);
        let fi = vp.add_mle(f);
        let gi = vp.add_mle(g);
        vp.add_term(u(1), vec![fi, gi, gi]);
        vp.add_term(u(4), vec![fi]);
        vp
    }

    #[test]
    fn interpolation_recovers_polynomial_values() {
        // p(t) = 3t^3 + 2t + 7 sampled at 0..=3, evaluated elsewhere.
        let p = |t: Fr| u(3) * t * t * t + u(2) * t + u(7);
        let evals: Vec<Fr> = (0..4).map(|i| p(u(i))).collect();
        for x in [u(0), u(1), u(3), u(17), u(123_456)] {
            assert_eq!(interpolate_uniform(&evals, x), p(x));
        }
        // Degenerate cases.
        assert_eq!(interpolate_uniform(&[u(9)], u(42)), u(9));
        let linear: Vec<Fr> = vec![u(5), u(8)];
        assert_eq!(interpolate_uniform(&linear, u(10)), u(35));
    }

    /// The barycentric formula with every denominator rebuilt and inverted
    /// on each call.
    fn interpolate_reference(evals: &[Fr], x: Fr) -> Fr {
        let n = evals.len();
        if let Some(i) = (0..n).find(|&i| x == u(i as u64)) {
            return evals[i];
        }
        (0..n)
            .map(|i| {
                let (mut num, mut den) = (Fr::one(), Fr::one());
                for j in (0..n).filter(|&j| j != i) {
                    num *= x - u(j as u64);
                    den *= u(i as u64) - u(j as u64);
                }
                evals[i] * num * den.invert().expect("distinct nodes")
            })
            .sum()
    }

    #[test]
    fn tabled_weights_interpolate_like_the_formula() {
        // One to eight nodes: the tabled counts and the general path past
        // them, at random points and at every node.
        let mut r = rng();
        for n in 1..=8usize {
            let evals: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
            let points = (0..n as u64)
                .map(u)
                .chain((0..20).map(|_| Fr::random(&mut r)));
            for x in points.chain([u(n as u64), -Fr::one()]) {
                assert_eq!(
                    interpolate_uniform(&evals, x),
                    interpolate_reference(&evals, x),
                    "n = {n}, x = {x}"
                );
            }
        }
    }

    #[test]
    fn honest_prover_verifies() {
        let mut r = rng();
        for num_vars in 1..=6usize {
            let vp = example_poly(num_vars, &mut r);
            let claim = vp.sum_over_hypercube();
            let mut pt = Transcript::new(b"sumcheck");
            let out = prove_on(&vp, &mut pt, &Serial);
            let mut vt = Transcript::new(b"sumcheck");
            let sub = verify(claim, num_vars, vp.degree(), &out.proof, &mut vt)
                .expect("honest proof verifies");
            assert_eq!(sub.point, out.point);
            // The sub-claim's expected evaluation matches the real polynomial.
            assert_eq!(sub.expected_evaluation, vp.evaluate(&sub.point));
        }
    }

    #[test]
    fn wrong_claim_is_rejected() {
        let mut r = rng();
        let vp = example_poly(4, &mut r);
        let claim = vp.sum_over_hypercube() + u(1);
        let mut pt = Transcript::new(b"sumcheck");
        let out = prove_on(&vp, &mut pt, &Serial);
        let mut vt = Transcript::new(b"sumcheck");
        let err = verify(claim, 4, vp.degree(), &out.proof, &mut vt).unwrap_err();
        assert_eq!(err, SumcheckError::RoundClaimMismatch { round: 0 });
    }

    #[test]
    fn tampered_round_is_rejected() {
        let mut r = rng();
        let vp = example_poly(4, &mut r);
        let claim = vp.sum_over_hypercube();
        let mut pt = Transcript::new(b"sumcheck");
        let mut out = prove_on(&vp, &mut pt, &Serial);
        out.proof.round_evaluations[2][1] += u(1);
        let mut vt = Transcript::new(b"sumcheck");
        let err = verify(claim, 4, vp.degree(), &out.proof, &mut vt).unwrap_err();
        // Either the tampered round itself or a later consistency check must
        // fail; it can never verify.
        match err {
            SumcheckError::RoundClaimMismatch { round } => assert!(round >= 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let mut r = rng();
        let vp = example_poly(3, &mut r);
        let claim = vp.sum_over_hypercube();
        let mut pt = Transcript::new(b"sumcheck");
        let out = prove_on(&vp, &mut pt, &Serial);
        let mut vt = Transcript::new(b"sumcheck");
        assert_eq!(
            verify(claim, 4, vp.degree(), &out.proof, &mut vt).unwrap_err(),
            SumcheckError::WrongNumberOfRounds {
                got: 3,
                expected: 4
            }
        );
        let mut vt = Transcript::new(b"sumcheck");
        assert!(matches!(
            verify(claim, 3, vp.degree() + 2, &out.proof, &mut vt).unwrap_err(),
            SumcheckError::WrongRoundPolynomialSize { .. }
        ));
    }

    #[test]
    fn final_subclaim_uses_interpolated_round_polynomials() {
        // The last claim equals g_last(r_last); cross-check against a manual
        // recomputation of the final round polynomial.
        let mut r = rng();
        let vp = example_poly(3, &mut r);
        let claim = vp.sum_over_hypercube();
        let mut pt = Transcript::new(b"sumcheck");
        let out = prove_on(&vp, &mut pt, &Serial);
        let mut vt = Transcript::new(b"sumcheck");
        let sub = verify(claim, 3, vp.degree(), &out.proof, &mut vt).unwrap();
        let fixed = vp
            .fix_first_variable(out.point[0])
            .fix_first_variable(out.point[1]);
        let last_round = round_polynomial(&fixed, vp.degree(), &Serial);
        assert_eq!(
            sub.expected_evaluation,
            interpolate_uniform(&last_round, out.point[2])
        );
    }
}
