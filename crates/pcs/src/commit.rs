//! Commitments to multilinear polynomials.
//!
//! A commitment is the MSM between an MLE's evaluation table and the SRS
//! Lagrange basis — exactly the operation the zkSpeed MSM unit accelerates
//! in the Witness Commit and Wiring Identity steps.

use zkspeed_curve::{msm, sparse_msm, G1Affine, G1Projective, MsmStats, SparseMsmStats};
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{Decode, DecodeError, Encode, Reader};
use zkspeed_rt::pool::Backend;

use crate::srs::Srs;

/// A commitment to a multilinear polynomial (one G1 point).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Commitment(pub G1Projective);

impl Commitment {
    /// The identity commitment (commitment to the zero polynomial).
    pub fn identity() -> Self {
        Self(G1Projective::identity())
    }

    /// Serializes the commitment for the Fiat–Shamir transcript (affine x, y
    /// coordinates plus an infinity byte).
    pub fn to_transcript_bytes(&self) -> Vec<u8> {
        let affine = self.0.to_affine();
        let mut bytes = Vec::with_capacity(97);
        affine.x.encode(&mut bytes);
        affine.y.encode(&mut bytes);
        bytes.push(u8::from(affine.infinity));
        bytes
    }
}

/// The point's canonical 97-byte affine encoding (see [`G1Affine`]).
impl Encode for Commitment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.to_affine().encode(out);
    }
}

impl Decode for Commitment {
    const MIN_LEN: usize = G1Affine::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self(G1Affine::decode(r)?.to_projective()))
    }
}

/// Commits to a multilinear polynomial with one dense MSM over the SRS basis
/// of its size, its windows fanned out over `backend`, and returns the
/// operation counts for the hardware model.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit(backend: &dyn Backend, srs: &Srs, poly: &MultilinearPoly) -> (Commitment, MsmStats) {
    let basis = srs.shared_lagrange_basis(level_for(srs, poly));
    let (point, stats) = msm(backend, basis, poly.evaluations());
    (Commitment(point), stats)
}

/// [`commit`] without its counts, under the name the benchmark imports.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_on(backend: &dyn Backend, srs: &Srs, poly: &MultilinearPoly) -> Commitment {
    commit(backend, srs, poly).0
}

/// Commits to a (typically sparse) witness polynomial with the Sparse MSM of
/// Section 3.3.1: 0-valued scalars are skipped, 1-valued scalars are summed
/// with the tree adder, and the dense remainder goes through Pippenger.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
) -> (Commitment, SparseMsmStats) {
    let basis = srs.lagrange_basis(level_for(srs, poly));
    let (point, stats) = sparse_msm(backend, basis, poly.evaluations());
    (Commitment(point), stats)
}

/// [`commit_sparse`], under the name the benchmark imports.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
) -> (Commitment, SparseMsmStats) {
    commit_sparse(backend, srs, poly)
}

/// The SRS level a polynomial commits at, with the size check both commits
/// share.
fn level_for(srs: &Srs, poly: &MultilinearPoly) -> usize {
    assert!(
        poly.num_vars() <= srs.num_vars(),
        "polynomial has {} variables but the SRS supports at most {}",
        poly.num_vars(),
        srs.num_vars()
    );
    srs.num_vars() - poly.num_vars()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_field::Fr;
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_000c)
    }

    #[test]
    fn commitment_is_evaluation_at_tau_times_g() {
        // Com(f) = Σ f[i]·eq(τ, i)·G = f(τ)·G.
        let mut r = rng();
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(4, &mut r);
        let com = commit_on(&Serial, &srs, &f);
        let expected = G1Projective::generator().mul_scalar(&f.evaluate(srs.trapdoor()));
        assert_eq!(com.0, expected);
    }

    #[test]
    fn sparse_and_dense_commit_agree() {
        let mut r = rng();
        let srs = Srs::try_setup(5, &mut r, &Serial).unwrap();
        // Witness-like sparsity: mostly 0/1 with a few dense values.
        let f = MultilinearPoly::from_fn(5, |i| match i % 10 {
            0..=3 => Fr::zero(),
            4..=8 => Fr::one(),
            _ => Fr::from_u64(i as u64 * 1_000_003),
        });
        let dense = commit_on(&Serial, &srs, &f);
        let (sparse, stats) = commit_sparse(&Serial, &srs, &f);
        assert_eq!(dense, sparse);
        assert!(stats.zeros > 0 && stats.ones > 0 && stats.dense > 0);
        let (dense2, msm_stats) = commit(&Serial, &srs, &f);
        assert_eq!(dense2, dense);
        assert!(msm_stats.fq_muls() > 0);
    }

    #[test]
    fn commitment_is_homomorphic() {
        let mut r = rng();
        let srs = Srs::try_setup(3, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(3, &mut r);
        let g = MultilinearPoly::random(3, &mut r);
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let combined_poly = MultilinearPoly::linear_combination(&[a, b], &[&f, &g]);
        let com_combined = commit_on(&Serial, &srs, &combined_poly);
        let (com_f, com_g) = (commit_on(&Serial, &srs, &f), commit_on(&Serial, &srs, &g));
        assert_eq!(
            com_combined.0,
            com_f.0.mul_scalar(&a) + com_g.0.mul_scalar(&b)
        );
    }

    #[test]
    fn smaller_polynomials_use_halved_bases() {
        let mut r = rng();
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let small = MultilinearPoly::random(2, &mut r);
        let com = commit_on(&Serial, &srs, &small);
        // Equals the evaluation at the τ suffix times G.
        let expected = G1Projective::generator().mul_scalar(&small.evaluate(&srs.trapdoor()[2..]));
        assert_eq!(com.0, expected);
    }

    #[test]
    fn transcript_bytes_distinguish_commitments() {
        let mut r = rng();
        let srs = Srs::try_setup(3, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(3, &mut r);
        let g = MultilinearPoly::random(3, &mut r);
        let cf = commit_on(&Serial, &srs, &f);
        let cg = commit_on(&Serial, &srs, &g);
        assert_ne!(cf.to_transcript_bytes(), cg.to_transcript_bytes());
        assert_eq!(cf.to_transcript_bytes().len(), 97);
        assert_eq!(
            Commitment::identity().to_transcript_bytes()[96],
            1,
            "identity commitment marks the infinity flag"
        );
    }

    #[test]
    #[should_panic(expected = "SRS supports at most")]
    fn oversized_polynomial_is_rejected() {
        let mut r = rng();
        let srs = Srs::try_setup(2, &mut r, &Serial).unwrap();
        let f = MultilinearPoly::random(3, &mut r);
        let _ = commit_on(&Serial, &srs, &f);
    }
}
