//! Commitments to multilinear polynomials.
//!
//! A commitment is the MSM between an MLE's evaluation table and the SRS
//! Lagrange basis — exactly the operation the zkSpeed MSM unit accelerates
//! in the Witness Commit and Wiring Identity steps.

use std::sync::Arc;

use zkspeed_curve::{
    msm, msm_precomputed, sparse_msm, sparse_msm_precomputed, G1Projective, MsmStats,
    SparseMsmStats,
};
use zkspeed_field::Fr;
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{DecodeError, Reader};
use zkspeed_rt::pool::{Backend, Serial};

use crate::precompute::CommitTables;
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
        bytes.extend_from_slice(&affine.x.to_bytes_le());
        bytes.extend_from_slice(&affine.y.to_bytes_le());
        bytes.push(u8::from(affine.infinity));
        bytes
    }

    /// Appends the canonical 97-byte encoding (affine coordinates plus an
    /// infinity flag, see [`zkspeed_curve::G1Affine::write_canonical`]).
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        self.0.to_affine().write_canonical(out);
    }

    /// Reads a canonical encoding, rejecting off-curve or non-canonical
    /// points.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bytes are not a valid point.
    pub fn read_canonical(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self(
            zkspeed_curve::G1Affine::read_canonical(reader)?.to_projective(),
        ))
    }

    /// Homomorphic linear combination of commitments:
    /// `Com(Σ cᵢ·fᵢ) = Σ cᵢ·Com(fᵢ)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn linear_combination(coeffs: &[Fr], commitments: &[Commitment]) -> Self {
        assert_eq!(
            coeffs.len(),
            commitments.len(),
            "linear_combination: length mismatch"
        );
        let points: Vec<G1Projective> = commitments.iter().map(|com| com.0).collect();
        let points = Arc::new(G1Projective::batch_to_affine(&points));
        Self(msm(&Serial, &points, coeffs).0)
    }
}

/// Commits to a multilinear polynomial with one dense MSM over the SRS basis
/// of its size, and returns the operation counts for the hardware model.
/// The MSM runs on the zero-doubling table engine when `tables` holds a
/// table for that level, otherwise on the table-free engine, with its
/// windows fanned out over `backend`; the group element is the same either
/// way.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    tables: Option<&CommitTables>,
) -> (Commitment, MsmStats) {
    let level = level_for(srs, poly);
    let (point, stats) = match tables.and_then(|t| t.level(level)) {
        Some(table) => msm_precomputed(backend, table, poly.evaluations()),
        None => msm(
            backend,
            srs.shared_lagrange_basis(level),
            poly.evaluations(),
        ),
    };
    (Commitment(point), stats)
}

/// [`commit`] without tables, under the name the benchmark imports.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_on(backend: &dyn Backend, srs: &Srs, poly: &MultilinearPoly) -> Commitment {
    commit(backend, srs, poly, None).0
}

/// Commits to a (typically sparse) witness polynomial with the Sparse MSM of
/// Section 3.3.1: 0-valued scalars are skipped, 1-valued scalars are summed
/// with the tree adder, and the dense remainder goes through Pippenger — on
/// a table of the level when `tables` holds one, as in [`commit`].
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    tables: Option<&CommitTables>,
) -> (Commitment, SparseMsmStats) {
    let level = level_for(srs, poly);
    let (point, stats) = match tables.and_then(|t| t.level(level)) {
        Some(table) => sparse_msm_precomputed(backend, table, poly.evaluations()),
        None => sparse_msm(backend, srs.lagrange_basis(level), poly.evaluations()),
    };
    (Commitment(point), stats)
}

/// [`commit_sparse`] without tables, under the name the benchmark imports.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
) -> (Commitment, SparseMsmStats) {
    commit_sparse(backend, srs, poly, None)
}

/// The SRS level a polynomial commits at, with the size check both the
/// table and table-free paths share.
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
        let (sparse, stats) = commit_sparse(&Serial, &srs, &f, None);
        assert_eq!(dense, sparse);
        assert!(stats.zeros > 0 && stats.ones > 0 && stats.dense > 0);
        let (dense2, msm_stats) = commit(&Serial, &srs, &f, None);
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
        let com_lc = Commitment::linear_combination(
            &[a, b],
            &[commit_on(&Serial, &srs, &f), commit_on(&Serial, &srs, &g)],
        );
        assert_eq!(com_combined, com_lc);
    }

    #[test]
    fn linear_combinations_with_identity_terms_and_no_terms() {
        let mut r = rng();
        let srs = Srs::try_setup(2, &mut r, &Serial).unwrap();
        let com = commit_on(&Serial, &srs, &MultilinearPoly::random(2, &mut r));
        let (a, b) = (Fr::random(&mut r), Fr::random(&mut r));
        let terms = [com, Commitment::identity(), com];
        let lc = Commitment::linear_combination(&[a, b, Fr::zero()], &terms);
        assert_eq!(lc.0, com.0.mul_scalar(&a));
        let empty = Commitment::linear_combination(&[], &[]);
        assert_eq!(empty, Commitment::identity());
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
    fn table_commits_match_table_free_commits() {
        use crate::precompute::PrecomputeBudget;

        let mut r = rng();
        let srs = Srs::try_setup(6, &mut r, &Serial).unwrap();
        let tables = CommitTables::build(&srs, &PrecomputeBudget::unlimited(), &Serial)
            .expect("unlimited budget builds");
        // Dense commit: covered level, uncovered level, and sparse commit
        // all agree with the table-free engine.
        let f = MultilinearPoly::random(6, &mut r);
        let (plain, _) = commit(&Serial, &srs, &f, None);
        let (tabled, stats) = commit(&Serial, &srs, &f, Some(&tables));
        assert_eq!(plain, tabled);
        // Tables present means tables used: no images of points (the
        // table-free engine computes one per point), and no window
        // doublings — all that doubles is the aggregation multiplying its
        // row term by the row length of the bucket grid, 2^⌈(w−1)/2⌉.
        assert_eq!(stats.endomorphisms, 0);
        let aggregation_doublings = (tables.window_bits() as u64 - 1).div_ceil(2);
        assert_eq!(stats.doublings, aggregation_doublings);
        let small = MultilinearPoly::random(2, &mut r); // below the table floor
        let (plain_small, _) = commit(&Serial, &srs, &small, None);
        let (tabled_small, small_stats) = commit(&Serial, &srs, &small, Some(&tables));
        assert_eq!(plain_small, tabled_small);
        assert_eq!(small_stats.endomorphisms, 4);
        let sparse = MultilinearPoly::from_fn(6, |i| match i % 10 {
            0..=3 => Fr::zero(),
            4..=8 => Fr::one(),
            _ => Fr::from_u64(i as u64 + 7),
        });
        let (plain_sparse, _) = commit_sparse(&Serial, &srs, &sparse, None);
        let (tabled_sparse, sparse_stats) = commit_sparse(&Serial, &srs, &sparse, Some(&tables));
        assert_eq!(plain_sparse, tabled_sparse);
        // Six dense scalars fill projective buckets: one running sum.
        assert_eq!(sparse_stats.ops.doublings, 0);
        assert_eq!(sparse_stats.ops.endomorphisms, 0);
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
