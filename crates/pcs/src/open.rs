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
//! `Com(f) − v·G = Σ_k (τ_k − z_k)·Com(q_k)` — directly in G1.

use std::sync::Arc;

use zkspeed_curve::{msm, G1Projective, MsmStats};
use zkspeed_field::Fr;
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{DecodeError, Reader};
use zkspeed_rt::pool::{self, Backend, Serial};

use crate::commit::{commit, Commitment};
use crate::precompute::CommitTables;
use crate::srs::Srs;

/// An opening proof: one quotient commitment per variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpeningProof {
    /// `quotients[k]` commits to `q_k(X_{k+1}, …, X_μ)`.
    pub quotients: Vec<Commitment>,
}

impl OpeningProof {
    /// Proof size in G1 points.
    pub fn size_in_points(&self) -> usize {
        self.quotients.len()
    }

    /// Appends the canonical encoding: a `u32` quotient count followed by
    /// the canonical commitment encodings.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.quotients.len() as u32).to_le_bytes());
        for q in &self.quotients {
            q.write_canonical(out);
        }
    }

    /// Reads a canonical encoding produced by [`Self::write_canonical`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if a count or point is malformed.
    pub fn read_canonical(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = reader.count(97, "opening-proof quotients")?;
        let mut quotients = Vec::with_capacity(count);
        for _ in 0..count {
            quotients.push(Commitment::read_canonical(reader)?);
        }
        Ok(Self { quotients })
    }
}

/// Opens `poly` at `point`, returning the evaluation, the proof, and the MSM
/// operation counts of the halving commitments (for the hardware model).
///
/// The quotient construction, the halving MSMs and the MLE Updates of every
/// round fan out over `backend`'s workers. Each round's quotient commits at
/// one level higher than the last, so rounds whose level has a table in
/// `tables` run on the zero-doubling engine and the (tiny) tail rounds do
/// not. The proof is the same on any backend, with or without tables.
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
    tables: Option<&CommitTables>,
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
        let (com, s) = commit(backend, srs, &q, tables);
        stats.merge(&s);
        quotients.push(com);
        cur = cur.fix_first_variable(*z_k, backend);
    }
    (cur[0], OpeningProof { quotients }, stats)
}

/// [`open`] without tables, under the name the benchmark imports.
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
    open(backend, srs, poly, point, None)
}

/// Verifies an opening proof.
///
/// Checks `Com(f) = v·G + Σ_k (τ_k − z_k)·Com(q_k)` in G1 — the identity the
/// production pairing check enforces, evaluated with the retained trapdoor.
pub fn verify_opening(
    srs: &Srs,
    commitment: &Commitment,
    point: &[Fr],
    value: Fr,
    proof: &OpeningProof,
) -> bool {
    if point.len() != proof.quotients.len() {
        return false;
    }
    if point.len() > srs.num_vars() {
        return false;
    }
    // One MSM over `[G, Com(q_1), …]` with scalars `[v, τ_1 − z_1, …]`, the
    // points normalised with one shared inversion.
    let tau = &srs.trapdoor()[srs.num_vars() - point.len()..];
    let mut points = vec![G1Projective::generator()];
    points.extend(proof.quotients.iter().map(|q| q.0));
    let mut scalars = vec![value];
    scalars.extend(tau.iter().zip(point).map(|(t, z)| *t - *z));
    let points = Arc::new(G1Projective::batch_to_affine(&points));
    commitment.0 == msm(&Serial, &points, &scalars).0
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
        assert_eq!(proof.size_in_points(), 5);
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
    fn table_openings_are_bit_identical() {
        use crate::PrecomputeBudget;

        let mut r = rng();
        let srs = Srs::try_setup(6, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(6, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let point: Vec<Fr> = (0..6).map(|_| Fr::random(&mut r)).collect();
        let (value, proof, stats) = open(&Serial, &srs, &f, &point, None);
        let tables = CommitTables::build(&srs, &PrecomputeBudget::unlimited(), &Serial)
            .expect("unlimited budget builds");
        let (tvalue, tproof, tstats) = open(&Serial, &srs, &f, &point, Some(&tables));
        assert_eq!(value, tvalue);
        assert_eq!(proof, tproof, "quotient commitments must be identical");
        assert!(verify_opening(&srs, &com, &point, tvalue, &tproof));
        // The rounds at levels with a table run on it: no images of points,
        // which only the table-free engine computes.
        assert!(tstats.endomorphisms < stats.endomorphisms);
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
