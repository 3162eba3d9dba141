//! Commitments to multilinear polynomials.
//!
//! A commitment is the MSM between an MLE's evaluation table and the SRS
//! Lagrange basis — exactly the operation the zkSpeed MSM unit accelerates
//! in the Witness Commit and Wiring Identity steps.

use zkspeed_curve::{msm, G1Projective, MsmStats, SparseMsmStats};
use zkspeed_field::Fr;
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{DecodeError, Reader};
use zkspeed_rt::pool::{Ambient, Backend};

use crate::precompute::{wants_tables, CommitTables};
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
        Self(msm(&G1Projective::batch_to_affine(&points), coeffs))
    }
}

/// Commits to a multilinear polynomial with a dense Pippenger MSM.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit(srs: &Srs, poly: &MultilinearPoly) -> Commitment {
    commit_on(&Ambient, srs, poly)
}

/// [`commit`] on an explicit execution backend. The MSM windows fan out
/// over the backend's workers, sharing the SRS basis without copying it.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_on(backend: &dyn Backend, srs: &Srs, poly: &MultilinearPoly) -> Commitment {
    commit_with_stats_on(backend, srs, poly).0
}

/// Commits with a dense MSM and returns the operation counts for the
/// hardware model.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_with_stats(srs: &Srs, poly: &MultilinearPoly) -> (Commitment, MsmStats) {
    commit_with_stats_on(&Ambient, srs, poly)
}

/// [`commit_with_stats`] on an explicit execution backend.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_with_stats_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
) -> (Commitment, MsmStats) {
    commit_with_config_on(backend, srs, poly, zkspeed_curve::MsmConfig::default())
}

/// [`commit_with_stats_on`] with an explicit MSM engine configuration
/// (window size, signed digits, schedule, batch-affine threshold — see
/// [`zkspeed_curve::MsmConfig`]). Every configuration commits to the same
/// group element; only the operation schedule differs.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_with_config_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    config: zkspeed_curve::MsmConfig,
) -> (Commitment, MsmStats) {
    let basis = shared_basis_for(srs, poly);
    let (point, stats) =
        zkspeed_curve::msm_with_config_shared(backend, basis, poly.evaluations(), config);
    (Commitment(point), stats)
}

/// Commits to a (typically sparse) witness polynomial with the Sparse MSM of
/// Section 3.3.1: 0-valued scalars are skipped, 1-valued scalars are summed
/// with the tree adder, and the dense remainder goes through Pippenger.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse(srs: &Srs, poly: &MultilinearPoly) -> (Commitment, SparseMsmStats) {
    commit_sparse_on(&Ambient, srs, poly)
}

/// [`commit_sparse`] on an explicit execution backend.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
) -> (Commitment, SparseMsmStats) {
    commit_sparse_with_config_on(backend, srs, poly, zkspeed_curve::MsmConfig::default())
}

/// [`commit_sparse_on`] with an explicit MSM engine configuration for the
/// dense remainder of the sparse split.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse_with_config_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    config: zkspeed_curve::MsmConfig,
) -> (Commitment, SparseMsmStats) {
    let basis = shared_basis_for(srs, poly);
    let (point, stats) = zkspeed_curve::sparse_msm_with_config_on(
        backend,
        basis.as_slice(),
        poly.evaluations(),
        config,
    );
    (Commitment(point), stats)
}

/// [`commit_with_config_on`] consulting per-session precomputed tables:
/// when the configuration selects
/// [`MsmSchedule::Precomputed`](zkspeed_curve::MsmSchedule) and the
/// polynomial's SRS level has a built table, the commitment runs through
/// the zero-doubling table engine; otherwise it transparently falls back
/// to the table-free path. The group element is identical either way.
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_with_tables_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    config: zkspeed_curve::MsmConfig,
    tables: Option<&CommitTables>,
) -> (Commitment, MsmStats) {
    if wants_tables(config) {
        if let Some(table) = tables.and_then(|t| t.level(level_for(srs, poly))) {
            let (point, stats) =
                zkspeed_curve::msm_precomputed_on(backend, table, poly.evaluations(), config);
            return (Commitment(point), stats);
        }
    }
    commit_with_config_on(backend, srs, poly, config)
}

/// [`commit_sparse_with_config_on`] consulting per-session precomputed
/// tables for the dense remainder and the 1-valued tree sum (see
/// [`commit_with_tables_on`] for the fallback rules).
///
/// # Panics
///
/// Panics if the polynomial is larger than the SRS supports.
pub fn commit_sparse_with_tables_on(
    backend: &dyn Backend,
    srs: &Srs,
    poly: &MultilinearPoly,
    config: zkspeed_curve::MsmConfig,
    tables: Option<&CommitTables>,
) -> (Commitment, SparseMsmStats) {
    if wants_tables(config) {
        if let Some(table) = tables.and_then(|t| t.level(level_for(srs, poly))) {
            let (point, stats) = zkspeed_curve::sparse_msm_precomputed_on(
                backend,
                table,
                poly.evaluations(),
                config,
            );
            return (Commitment(point), stats);
        }
    }
    commit_sparse_with_config_on(backend, srs, poly, config)
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

fn shared_basis_for<'a>(
    srs: &'a Srs,
    poly: &MultilinearPoly,
) -> &'a std::sync::Arc<Vec<zkspeed_curve::G1Affine>> {
    let level = level_for(srs, poly);
    srs.shared_lagrange_basis(level)
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
        let srs = Srs::setup(4, &mut r);
        let f = MultilinearPoly::random(4, &mut r);
        let com = commit(&srs, &f);
        let expected = G1Projective::generator().mul_scalar(&f.evaluate(srs.trapdoor()));
        assert_eq!(com.0, expected);
    }

    #[test]
    fn sparse_and_dense_commit_agree() {
        let mut r = rng();
        let srs = Srs::setup(5, &mut r);
        // Witness-like sparsity: mostly 0/1 with a few dense values.
        let f = MultilinearPoly::from_fn(5, |i| match i % 10 {
            0..=3 => Fr::zero(),
            4..=8 => Fr::one(),
            _ => Fr::from_u64(i as u64 * 1_000_003),
        });
        let dense = commit(&srs, &f);
        let (sparse, stats) = commit_sparse(&srs, &f);
        assert_eq!(dense, sparse);
        assert!(stats.zeros > 0 && stats.ones > 0 && stats.dense > 0);
        let (dense2, msm_stats) = commit_with_stats(&srs, &f);
        assert_eq!(dense2, dense);
        assert!(msm_stats.fq_muls() > 0);
    }

    #[test]
    fn commitment_is_homomorphic() {
        let mut r = rng();
        let srs = Srs::setup(3, &mut r);
        let f = MultilinearPoly::random(3, &mut r);
        let g = MultilinearPoly::random(3, &mut r);
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let combined_poly = MultilinearPoly::linear_combination(&[a, b], &[&f, &g]);
        let com_combined = commit(&srs, &combined_poly);
        let com_lc = Commitment::linear_combination(&[a, b], &[commit(&srs, &f), commit(&srs, &g)]);
        assert_eq!(com_combined, com_lc);
    }

    #[test]
    fn linear_combinations_with_identity_terms_and_no_terms() {
        let mut r = rng();
        let srs = Srs::setup(2, &mut r);
        let com = commit(&srs, &MultilinearPoly::random(2, &mut r));
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
        let srs = Srs::setup(4, &mut r);
        let small = MultilinearPoly::random(2, &mut r);
        let com = commit(&srs, &small);
        // Equals the evaluation at the τ suffix times G.
        let expected = G1Projective::generator().mul_scalar(&small.evaluate(&srs.trapdoor()[2..]));
        assert_eq!(com.0, expected);
    }

    #[test]
    fn transcript_bytes_distinguish_commitments() {
        let mut r = rng();
        let srs = Srs::setup(3, &mut r);
        let f = MultilinearPoly::random(3, &mut r);
        let g = MultilinearPoly::random(3, &mut r);
        let cf = commit(&srs, &f);
        let cg = commit(&srs, &g);
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
        use crate::precompute::{CommitTables, PrecomputeBudget};
        use zkspeed_rt::pool::Serial;

        let mut r = rng();
        let srs = Srs::setup(6, &mut r);
        let tables = CommitTables::build_on(&srs, &PrecomputeBudget::unlimited(), &Serial)
            .expect("unlimited budget builds");
        let config = zkspeed_curve::MsmConfig::precomputed();
        // Dense commit: covered level, uncovered level, and sparse commit
        // all agree with the table-free engine.
        let f = MultilinearPoly::random(6, &mut r);
        let (plain, _) = commit_with_config_on(&Serial, &srs, &f, config);
        let (tabled, stats) = commit_with_tables_on(&Serial, &srs, &f, config, Some(&tables));
        assert_eq!(plain, tabled);
        // No window doublings on the table path: all that doubles is the
        // aggregation multiplying its row term by the row length of the
        // bucket grid, 2^⌈(w−1)/2⌉.
        let aggregation_doublings = (tables.window_bits() as u64 - 1).div_ceil(2);
        assert_eq!(stats.doublings, aggregation_doublings);
        let small = MultilinearPoly::random(2, &mut r); // below the table floor
        let (plain_small, _) = commit_with_config_on(&Serial, &srs, &small, config);
        let (tabled_small, _) = commit_with_tables_on(&Serial, &srs, &small, config, Some(&tables));
        assert_eq!(plain_small, tabled_small);
        let sparse = MultilinearPoly::from_fn(6, |i| match i % 10 {
            0..=3 => Fr::zero(),
            4..=8 => Fr::one(),
            _ => Fr::from_u64(i as u64 + 7),
        });
        let (plain_sparse, _) = commit_sparse_with_config_on(&Serial, &srs, &sparse, config);
        let (tabled_sparse, sparse_stats) =
            commit_sparse_with_tables_on(&Serial, &srs, &sparse, config, Some(&tables));
        assert_eq!(plain_sparse, tabled_sparse);
        // Six dense scalars fill projective buckets: one running sum.
        assert_eq!(sparse_stats.ops.doublings, 0);
        // A non-precomputed schedule ignores the tables entirely.
        let (default_com, _) = commit_with_tables_on(
            &Serial,
            &srs,
            &f,
            zkspeed_curve::MsmConfig::default(),
            Some(&tables),
        );
        assert_eq!(default_com, plain);
    }

    #[test]
    #[should_panic(expected = "SRS supports at most")]
    fn oversized_polynomial_is_rejected() {
        let mut r = rng();
        let srs = Srs::setup(2, &mut r);
        let f = MultilinearPoly::random(3, &mut r);
        let _ = commit(&srs, &f);
    }
}
