//! The SumCheck verifier.
//!
//! The verifier replays the prover's transcript interaction. A proof row
//! carries a round polynomial's evaluations at `0, 2, …, d` (see
//! [`crate::prover`]); the verifier rebuilds the value at 1 as
//! `gᵢ(1) = claimᵢ − gᵢ(0)`, absorbs the full vector `gᵢ(0..=d)` exactly as
//! the prover did, derives the same challenge, and folds the claim to
//! `gᵢ(rᵢ)` by evaluating the round polynomial from its evaluations
//! (barycentric-style Lagrange interpolation over uniform nodes — the same
//! fixed interpolation step the paper's SumCheck unit performs at the end of
//! each round). Since the row cannot contradict the running claim, a false
//! claim surfaces in the final sub-claim, which the caller checks against
//! the oracle. The ZeroCheck verifier rebuilds its rows the same way from
//! the cofactor `tᵢ` ([`crate::verify_zerocheck`]).

use std::iter::successors;
use std::sync::OnceLock;

use zkspeed_field::{batch_invert, Fr};
use zkspeed_poly::MultilinearPoly;
use zkspeed_transcript::Transcript;

use crate::error::SumcheckError;
use crate::prover::{extrapolate, SumcheckProof};

/// What a successful SumCheck verification reduces the original claim to: the
/// statement that the proved polynomial evaluates to `expected_evaluation` at
/// `point` (in a ZeroCheck of `f·eq(X, r)`, the polynomial `f`). The caller
/// discharges this sub-claim with polynomial-commitment openings (or direct
/// evaluation in tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubClaim {
    /// The challenge point accumulated over the rounds.
    pub point: Vec<Fr>,
    /// The evaluation the proved polynomial must have at `point`.
    pub expected_evaluation: Fr,
}

/// Verifies a SumCheck proof of `claimed_sum` for a `num_vars`-variate
/// polynomial of per-round degree at most `degree`: each row holds `degree`
/// values.
///
/// # Errors
///
/// Returns a [`SumcheckError`] if the proof has the wrong shape.
pub fn verify(
    claimed_sum: Fr,
    num_vars: usize,
    degree: usize,
    proof: &SumcheckProof,
    transcript: &mut Transcript,
) -> Result<SubClaim, SumcheckError> {
    verify_rounds(claimed_sum, num_vars, degree, None, proof, transcript)
}

/// The round loop of [`verify`], and with the Build-MLE challenges `r` as
/// `eq_point` the ZeroCheck verifier's. `degree` is that of the polynomial
/// the rows sample: `g_i`, or in a ZeroCheck the cofactor `t_i`.
///
/// A ZeroCheck's round polynomial is `s_i(X) = P_i·eq(r_i, X)·t_i(X)` with
/// `P_i = eq(r_{<i}, ρ_{<i})`, so the loop tracks `claim_i / P_i` instead of
/// the claim: from it `t_i(1) = (claim_i/P_i − (1 − r_i)·t_i(0))·r_i⁻¹`
/// (every `r_i` inverted in one batch), `t_i(degree + 1)` follows by finite
/// differences, and the transcript absorbs `s_i(0..=degree + 1)`, the values
/// the prover absorbed. The next claim over `P_{i+1}` is `t_i(ρ_i)`; the
/// last is `f(ρ)`, the claim with `eq(r, ρ)` divided out, and the sub-claim
/// carries it.
pub(crate) fn verify_rounds(
    claimed_sum: Fr,
    num_vars: usize,
    degree: usize,
    eq_point: Option<&[Fr]>,
    proof: &SumcheckProof,
    transcript: &mut Transcript,
) -> Result<SubClaim, SumcheckError> {
    if proof.rows.len() != num_vars {
        return Err(SumcheckError::WrongNumberOfRounds {
            got: proof.rows.len(),
            expected: num_vars,
        });
    }
    if let Some(round) = proof.rows.iter().position(|row| row.len() != degree) {
        return Err(SumcheckError::WrongRoundPolynomialSize {
            round,
            got: proof.rows[round].len(),
            expected: degree,
        });
    }
    let eq = match eq_point {
        Some(r) => match r.iter().position(Fr::is_zero) {
            Some(round) => return Err(SumcheckError::ZeroBuildMleCoordinate { round }),
            None => {
                let mut inverses = r.to_vec();
                batch_invert(&mut inverses);
                Some((r, inverses))
            }
        },
        None => None,
    };
    let (mut claim, mut prefix) = (claimed_sum, Fr::one());
    let mut point = Vec::with_capacity(num_vars);
    let mut evals = vec![Fr::zero(); degree + 1];
    for (round, row) in proof.rows.iter().enumerate() {
        evals.truncate(degree + 1);
        evals[0] = row[0];
        evals[2..].copy_from_slice(&row[1..]);
        let challenge = match &eq {
            None => {
                evals[1] = claim - row[0];
                transcript.append_scalars(b"sumcheck-round", &evals);
                transcript.challenge_scalar(b"sumcheck-challenge")
            }
            Some((r, inverses)) => {
                let r_i = r[round];
                evals[1] = (claim - (Fr::one() - r_i) * row[0]) * inverses[round];
                extrapolate(&mut evals, degree + 2);
                // `eq(r_i, X)` is linear in `X`: `1 − r_i` at 0, `r_i` at 1.
                let step = r_i + r_i - Fr::one();
                let factors = successors(Some(Fr::one() - r_i), |f| Some(*f + step));
                let s: Vec<Fr> = evals
                    .iter()
                    .zip(factors)
                    .map(|(t, f)| *t * (prefix * f))
                    .collect();
                transcript.append_scalars(b"sumcheck-round", &s);
                let challenge = transcript.challenge_scalar(b"sumcheck-challenge");
                prefix *= MultilinearPoly::eq_eval(&[r_i], &[challenge]);
                challenge
            }
        };
        claim = interpolate_uniform(&evals[..=degree], challenge);
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

    /// Whether the sub-claim of `proof` for `claim` holds at the oracle:
    /// a row cannot contradict the running claim, so a false one surfaces
    /// there.
    fn holds(vp: &VirtualPolynomial, claim: Fr, proof: &SumcheckProof) -> bool {
        let mut vt = Transcript::new(b"sumcheck");
        let sub = verify(claim, vp.num_vars(), vp.degree(), proof, &mut vt).expect("well-shaped");
        sub.expected_evaluation == vp.evaluate(&sub.point)
    }

    #[test]
    fn wrong_claim_is_rejected() {
        let mut r = rng();
        let vp = example_poly(4, &mut r);
        let claim = vp.sum_over_hypercube();
        let mut pt = Transcript::new(b"sumcheck");
        let out = prove_on(&vp, &mut pt, &Serial);
        assert!(holds(&vp, claim, &out.proof));
        assert!(!holds(&vp, claim + u(1), &out.proof));
    }

    #[test]
    fn tampered_round_is_rejected() {
        let mut r = rng();
        let vp = example_poly(4, &mut r);
        let claim = vp.sum_over_hypercube();
        let mut pt = Transcript::new(b"sumcheck");
        let out = prove_on(&vp, &mut pt, &Serial);
        // Every value of every row, moved by one.
        for round in 0..4 {
            for k in 0..vp.degree() {
                let mut tampered = out.proof.clone();
                tampered.rows[round][k] += u(1);
                assert!(!holds(&vp, claim, &tampered), "row {round}, value {k}");
            }
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
