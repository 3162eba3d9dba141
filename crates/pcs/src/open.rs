//! Opening proofs: proving the value of a committed multilinear polynomial
//! at an arbitrary point.
//!
//! The prover decomposes `f(X) − f(z) = Σ_k (X_k − z_k)·q_k(X_{k+1}, …, X_μ)`
//! and commits to every quotient `q_k`. Because `q_k` has `μ − k − 1`
//! variables, the commitments form exactly the halving MSM sequence
//! (`2^{μ−1}`-point, then `2^{μ−2}`-point, … down to a single point) that the
//! zkSpeed paper describes for the Polynomial Opening step (Section 3.3.5).
//!
//! Verification uses the trapdoor substitution documented in [`crate::srs`]:
//! the verifier checks the same identity a pairing check would —
//! `Com(f) − v·G = Σ_k (τ_k − z_k)·Com(q_k)` — directly in G1. When `f` is a
//! linear combination of committed polynomials, the combination of their
//! commitments joins the same MSM ([`verify_combined_opening`]).

use std::sync::Arc;

use zkspeed_curve::{msm, G1Projective, MsmStats};
use zkspeed_field::Fr;
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{DecodeError, Fixed, Reader, Via};
use zkspeed_rt::pool::{self, Backend, Serial};

use crate::commit::{commit, Commitment};
use crate::srs::Srs;

/// An opening proof: one quotient commitment per variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpeningProof {
    /// `quotients[k]` commits to `q_k(X_{k+1}, …, X_μ)`.
    pub quotients: Vec<Commitment>,
}

/// An [`OpeningProof`]'s encoding: its `μ` quotient commitments back to
/// back, with no length prefix. The enclosing format implies `μ`, which
/// decoding takes.
pub struct Quotients;

impl Via<OpeningProof> for Quotients {
    type Args = (usize,);

    fn encode(value: &OpeningProof, out: &mut Vec<u8>) {
        Fixed::encode(&value.quotients, out);
    }

    fn decode(r: &mut Reader<'_>, num_vars: (usize,)) -> Result<OpeningProof, DecodeError> {
        let quotients = Fixed::decode(r, num_vars)?;
        Ok(OpeningProof { quotients })
    }
}

/// Opens `poly` at `point`, returning the evaluation, the proof, and the MSM
/// operation counts of the halving commitments (for the hardware model).
///
/// The quotient construction, the halving MSMs and the MLE Updates of every
/// round fan out over `backend`'s workers. The proof is the same on any
/// backend.
///
/// # Panics
///
/// Panics if the point length does not match the polynomial or the SRS is too
/// small.
pub fn open(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    point: &[Fr],
) -> (Fr, OpeningProof, MsmStats) {
    /// Below this many quotient entries the construction stays serial.
    const MIN_CHUNK: usize = 1 << 12;
    assert_eq!(
        point.len(),
        poly.num_vars(),
        "open: point length must match the polynomial"
    );
    let mut stats = MsmStats::default();
    let mut quotients = Vec::with_capacity(poly.num_vars());
    let mut cur = poly.clone();
    for z_k in point.iter() {
        let half = cur.len() / 2;
        let q_evals = if half < MIN_CHUNK || backend.threads() == 1 {
            let mut q_evals = Vec::with_capacity(half);
            for i in 0..half {
                q_evals.push(cur[2 * i + 1] - cur[2 * i]);
            }
            q_evals
        } else {
            let evals = cur.shared_evaluations();
            let chunks = pool::map_ranges(backend, half, MIN_CHUNK, move |range| {
                range
                    .map(|i| evals[2 * i + 1] - evals[2 * i])
                    .collect::<Vec<Fr>>()
            });
            let mut q_evals = Vec::with_capacity(half);
            for chunk in chunks {
                q_evals.extend(chunk);
            }
            q_evals
        };
        let q = MultilinearPoly::new(q_evals);
        let (com, s) = commit(backend, srs, &q);
        stats.merge(&s);
        quotients.push(com);
        cur = cur.fix_first_variable(*z_k, backend);
    }
    (cur[0], OpeningProof { quotients }, stats)
}

/// [`open`], under the name the benchmark imports.
///
/// # Panics
///
/// Panics if the point length does not match the polynomial or the SRS is too
/// small.
pub fn open_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    point: &[Fr],
) -> (Fr, OpeningProof, MsmStats) {
    open(backend, srs, poly, point)
}

/// Verifies an opening proof.
///
/// Checks `Com(f) = v·G + Σ_k (τ_k − z_k)·Com(q_k)` in G1 — the identity the
/// production pairing check enforces, evaluated with the retained trapdoor.
/// The single-term case of [`verify_combined_opening`].
pub fn verify_opening(
    srs: &Srs,
    commitment: &Commitment,
    point: &[Fr],
    value: Fr,
    proof: &OpeningProof,
) -> bool {
    verify_combined_opening(srs, &[(Fr::one(), *commitment)], point, value, proof)
}

/// Verifies an opening proof of a linear combination `Σ_l s_l·f_l` of
/// committed polynomials, given its terms `(s_l, Com(f_l))`.
///
/// The combination's commitment is `Σ_l s_l·Com(f_l)` by linearity, so the
/// opening identity becomes one MSM over `terms.len() + 1 + μ` points,
/// normalised with one shared inversion:
/// `Σ_l s_l·Com(f_l) − v·G − Σ_k (τ_k − z_k)·Com(q_k) = O`.
/// A commitment may occur in several terms, be the identity or carry a zero
/// scalar; no terms at all is the zero polynomial.
pub fn verify_combined_opening(
    srs: &Srs,
    terms: &[(Fr, Commitment)],
    point: &[Fr],
    value: Fr,
    proof: &OpeningProof,
) -> bool {
    if point.len() != proof.quotients.len() || point.len() > srs.num_vars() {
        return false;
    }
    let tau = &srs.trapdoor()[srs.num_vars() - point.len()..];
    let len = terms.len() + 1 + point.len();
    let mut points = Vec::with_capacity(len);
    let mut scalars = Vec::with_capacity(len);
    for (s, com) in terms {
        points.push(com.0);
        scalars.push(*s);
    }
    points.push(G1Projective::generator());
    scalars.push(-value);
    for ((q, t), z) in proof.quotients.iter().zip(tau).zip(point) {
        points.push(q.0);
        scalars.push(*z - *t);
    }
    let points = Arc::new(G1Projective::batch_to_affine(&points));
    msm(&Serial, &points, &scalars).0.is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::commit_on;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_000d)
    }

    #[test]
    fn honest_opening_verifies() {
        let mut r = rng();
        let srs = Srs::try_setup(5, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(5, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point: Vec<Fr> = (0..5).map(|_| Fr::random(&mut r)).collect();
        let (value, proof, stats) = open_on(&Serial, &srs, &f, &point);
        assert_eq!(value, f.evaluate(&point));
        assert_eq!(proof.quotients.len(), 5);
        assert!(stats.fq_muls() > 0);
        assert!(verify_opening(&srs, &com, &point, value, &proof));
    }

    #[test]
    fn opening_at_boolean_point_returns_table_entry() {
        let mut r = rng();
        let srs = Srs::try_setup(3, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(3, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point = vec![Fr::one(), Fr::zero(), Fr::one()]; // index 0b101 = 5
        let (value, proof, _) = open_on(&Serial, &srs, &f, &point);
        assert_eq!(value, f[5]);
        assert!(verify_opening(&srs, &com, &point, value, &proof));
    }

    #[test]
    fn wrong_value_is_rejected() {
        let mut r = rng();
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(4, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let (value, proof, _) = open_on(&Serial, &srs, &f, &point);
        assert!(!verify_opening(
            &srs,
            &com,
            &point,
            value + Fr::one(),
            &proof
        ));
    }

    #[test]
    fn wrong_commitment_is_rejected() {
        let mut r = rng();
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(4, &mut r);
        let g = MultilinearPoly::random(4, &mut r);
        let com_g = commit_on(&Serial, &srs, &g);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let (value, proof, _) = open_on(&Serial, &srs, &f, &point);
        assert!(!verify_opening(&srs, &com_g, &point, value, &proof));
    }

    #[test]
    fn tampered_quotient_is_rejected() {
        let mut r = rng();
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(4, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let (value, mut proof, _) = open_on(&Serial, &srs, &f, &point);
        proof.quotients[1] = Commitment(proof.quotients[1].0 + G1Projective::generator());
        assert!(!verify_opening(&srs, &com, &point, value, &proof));
    }

    #[test]
    fn one_variable_and_constant_polynomials_open() {
        let mut r = rng();
        let srs = Srs::try_setup(3, &mut r, &Serial).unwrap();
        for mu in [0usize, 1] {
            let f = MultilinearPoly::random(mu, &mut r);
            let com = commit_on(&Serial, &srs, &f);
            let point: Vec<Fr> = (0..mu).map(|_| Fr::random(&mut r)).collect();
            let (value, proof, _) = open_on(&Serial, &srs, &f, &point);
            assert_eq!(value, f.evaluate(&point));
            assert!(verify_opening(&srs, &com, &point, value, &proof), "μ={mu}");
            let wrong = value + Fr::one();
            assert!(!verify_opening(&srs, &com, &point, wrong, &proof), "μ={mu}");
        }
    }

    #[test]
    fn identity_commitments_verify_only_the_zero_value() {
        // The zero polynomial: its commitment and every quotient commitment
        // are the identity, which the verifier's MSM has to take as a point.
        let mut r = rng();
        let srs = Srs::try_setup(3, &mut r, &Serial).unwrap();
        let zero = MultilinearPoly::new(vec![Fr::zero(); 8]);
        let com = commit_on(&Serial, &srs, &zero);
        assert_eq!(com, Commitment::identity());
        let point: Vec<Fr> = (0..3).map(|_| Fr::random(&mut r)).collect();
        let (value, proof, _) = open_on(&Serial, &srs, &zero, &point);
        assert!(proof.quotients.iter().all(|q| *q == Commitment::identity()));
        assert!(verify_opening(&srs, &com, &point, value, &proof));
        assert!(!verify_opening(&srs, &com, &point, Fr::one(), &proof));
        // A constant polynomial has identity quotients and a commitment that
        // is not the identity.
        let seven = MultilinearPoly::new(vec![Fr::from_u64(7); 8]);
        let (value, proof, _) = open_on(&Serial, &srs, &seven, &point);
        assert!(verify_opening(
            &srs,
            &commit_on(&Serial, &srs, &seven),
            &point,
            value,
            &proof
        ));
        assert!(!verify_opening(&srs, &com, &point, value, &proof));
    }

    #[test]
    fn malformed_proof_shapes_are_rejected() {
        let mut r = rng();
        let srs = Srs::try_setup(3, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(3, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point: Vec<Fr> = (0..3).map(|_| Fr::random(&mut r)).collect();
        let (value, proof, _) = open_on(&Serial, &srs, &f, &point);
        // Too few quotients.
        let short = OpeningProof {
            quotients: proof.quotients[..2].to_vec(),
        };
        assert!(!verify_opening(&srs, &com, &point, value, &short));
        // Point longer than the SRS supports.
        let long_point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let long = OpeningProof {
            quotients: vec![Commitment::identity(); 4],
        };
        assert!(!verify_opening(&srs, &com, &long_point, value, &long));
    }

    #[test]
    fn srs_bytes_hand_a_prover_tau_to_forge_openings_with() {
        // The encoded SRS carries the trapdoor the verifier substitutes for
        // a pairing. Whoever reads the file can open any commitment `C` to
        // any value `v′`: the quotient `(τ₁ − z₁)⁻¹·(C − v′·G)`, every other
        // quotient the identity, satisfies the opening identity. Once the
        // prover's parameters encode no τ, this test must decode none.
        use zkspeed_rt::codec::{Decode, Kind, Reader};

        let mut r = rng();
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let bytes = srs.to_bytes();
        let mut reader = Reader::new(&bytes);
        reader.header(Kind::Srs).expect("an SRS header");
        let mu = u32::decode(&mut reader).expect("num_vars") as usize;
        let tau: Vec<Fr> = (0..mu)
            .map(|_| Fr::decode(&mut reader).expect("a τ coordinate"))
            .collect();
        assert_eq!(tau, srs.trapdoor());

        let f = MultilinearPoly::random(4, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let forged_value = f.evaluate(&point) + Fr::one();
        let g = srs.generator().to_projective();
        let scale = (tau[0] - point[0]).invert().expect("τ₁ ≠ z₁");
        let mut quotients = vec![Commitment::identity(); 4];
        quotients[0] = Commitment((com.0 - g.mul_scalar(&forged_value)).mul_scalar(&scale));
        let forged = OpeningProof { quotients };
        assert!(verify_opening(&srs, &com, &point, forged_value, &forged));
    }

    /// Opens `Σ cᵢ·fᵢ` for the polynomials and coefficients given and
    /// returns the terms `(cᵢ, Com(fᵢ))` with the opening.
    fn open_combination(
        srs: &Srs,
        coeffs: &[Fr],
        polys: &[&MultilinearPoly],
        point: &[Fr],
    ) -> (Vec<(Fr, Commitment)>, Fr, OpeningProof) {
        let terms = coeffs
            .iter()
            .zip(polys)
            .map(|(c, f)| (*c, commit_on(&Serial, srs, f)))
            .collect();
        let combined = MultilinearPoly::linear_combination(coeffs, polys);
        let (value, proof, _) = open_on(&Serial, srs, &combined, point);
        (terms, value, proof)
    }

    #[test]
    fn combined_openings_with_identity_terms_repeats_and_no_terms() {
        let mut r = rng();
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(4, &mut r);
        let g = MultilinearPoly::random(4, &mut r);
        let zero = MultilinearPoly::new(vec![Fr::zero(); 16]);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let (a, b, c) = (Fr::random(&mut r), Fr::random(&mut r), Fr::random(&mut r));
        // `f` twice, the zero polynomial's identity commitment, and `g` with
        // a zero coefficient.
        let polys = [&f, &zero, &g, &f];
        let (terms, value, proof) = open_combination(&srs, &[a, b, Fr::zero(), c], &polys, &point);
        assert_eq!(terms[1].1, Commitment::identity());
        assert_eq!(value, (a + c) * f.evaluate(&point));
        assert!(verify_combined_opening(&srs, &terms, &point, value, &proof));
        // Equal to the single-term opening of `(a + c)·f`.
        let com_f = terms[0].1;
        assert!(verify_combined_opening(
            &srs,
            &[(a + c, com_f)],
            &point,
            value,
            &proof
        ));
        // A term and its negation cancel to the zero polynomial, as does the
        // empty combination.
        let (terms, value, proof) = open_combination(&srs, &[a, -a], &[&g, &g], &point);
        assert_eq!(value, Fr::zero());
        assert!(verify_combined_opening(&srs, &terms, &point, value, &proof));
        assert!(verify_combined_opening(&srs, &[], &point, value, &proof));
        assert!(!verify_combined_opening(
            &srs,
            &[],
            &point,
            Fr::one(),
            &proof
        ));
        // The shim is the one-term case.
        let (terms, value, proof) = open_combination(&srs, &[Fr::one()], &[&g], &point);
        assert!(verify_opening(&srs, &terms[0].1, &point, value, &proof));
    }

    #[test]
    fn every_perturbation_of_a_combined_opening_is_rejected() {
        let mut r = rng();
        let srs = Srs::try_setup(5, &mut r, &Serial).unwrap();
        let polys: Vec<MultilinearPoly> =
            (0..4).map(|_| MultilinearPoly::random(5, &mut r)).collect();
        let refs: Vec<&MultilinearPoly> = polys.iter().collect();
        let coeffs: Vec<Fr> = (0..4).map(|_| Fr::random(&mut r)).collect();
        let point: Vec<Fr> = (0..5).map(|_| Fr::random(&mut r)).collect();
        let (terms, value, proof) = open_combination(&srs, &coeffs, &refs, &point);
        assert!(verify_combined_opening(&srs, &terms, &point, value, &proof));
        let g = G1Projective::generator();
        for i in 0..terms.len() {
            let mut t = terms.clone();
            t[i].0 += Fr::one();
            assert!(!verify_combined_opening(&srs, &t, &point, value, &proof));
            let mut t = terms.clone();
            t[i].1 = Commitment(t[i].1 .0 + g);
            assert!(!verify_combined_opening(&srs, &t, &point, value, &proof));
        }
        let wrong = value + Fr::one();
        assert!(!verify_combined_opening(
            &srs, &terms, &point, wrong, &proof
        ));
        for k in 0..proof.quotients.len() {
            let mut p = proof.clone();
            p.quotients[k] = Commitment(p.quotients[k].0 + g);
            assert!(!verify_combined_opening(&srs, &terms, &point, value, &p));
            let mut z = point.clone();
            z[k] += Fr::one();
            assert!(!verify_combined_opening(&srs, &terms, &z, value, &proof));
        }
    }

    #[test]
    fn smaller_polynomials_open_against_suffix_trapdoor() {
        let mut r = rng();
        let srs = Srs::try_setup(5, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(3, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point: Vec<Fr> = (0..3).map(|_| Fr::random(&mut r)).collect();
        let (value, proof, _) = open_on(&Serial, &srs, &f, &point);
        assert_eq!(value, f.evaluate(&point));
        assert!(verify_opening(&srs, &com, &point, value, &proof));
    }
}
