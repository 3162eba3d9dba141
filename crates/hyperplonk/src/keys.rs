//! Preprocessing ("indexing"): turning a circuit plus the universal SRS into
//! proving and verifying keys.
//!
//! The selector and wiring-permutation MLEs are fixed per circuit, so their
//! commitments are computed once here and reused by every proof — this is
//! the circuit-independent, universal-setup property that motivates
//! HyperPlonk over Groth16 in the zkSpeed paper's introduction.

use core::fmt;
use std::sync::Arc;

use zkspeed_pcs::{commit, CommitTables, Commitment, PrecomputeBudget, Srs};
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::pool::{self, Backend, Serial};
use zkspeed_transcript::Transcript;

use crate::circuit::Circuit;

/// Why preprocessing rejected a circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PreprocessError {
    /// The SRS supports fewer variables than the circuit needs.
    SrsTooSmall {
        /// Variables supported by the SRS.
        srs_num_vars: usize,
        /// Variables required by the circuit.
        circuit_num_vars: usize,
    },
}

impl fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreprocessError::SrsTooSmall {
                srs_num_vars,
                circuit_num_vars,
            } => write!(
                f,
                "SRS supports up to 2^{srs_num_vars} gates but the circuit has 2^{circuit_num_vars}"
            ),
        }
    }
}

impl std::error::Error for PreprocessError {}

/// The prover's key: the circuit tables plus the SRS.
#[derive(Clone, Debug)]
pub struct ProvingKey {
    /// The compiled circuit (selectors and wiring).
    pub circuit: Circuit,
    /// The universal SRS.
    pub srs: Srs,
    /// Commitments to `q_L, q_R, q_M, q_O, q_C`.
    pub selector_commitments: [Commitment; 5],
    /// Commitments to `σ₁, σ₂, σ₃`.
    pub sigma_commitments: [Commitment; 3],
    /// Per-session precomputed commit tables over the SRS Lagrange bases
    /// ([`try_preprocess`] builds them within the opt-in
    /// [`PrecomputeBudget`]). Every commit and opening at a level with a
    /// table runs on it; `None` keeps them all on the table-free engine.
    /// Proof bytes are identical either way.
    pub commit_tables: Option<Arc<CommitTables>>,
}

/// The verifier's key: circuit commitments plus the SRS.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// Number of variables `μ` (the circuit has `2^μ` gates).
    pub num_vars: usize,
    /// The universal SRS (retaining the mock-verification trapdoor).
    pub srs: Srs,
    /// Commitments to `q_L, q_R, q_M, q_O, q_C`.
    pub selector_commitments: [Commitment; 5],
    /// Commitments to `σ₁, σ₂, σ₃`.
    pub sigma_commitments: [Commitment; 3],
}

impl VerifyingKey {
    /// Binds the verifying key into a transcript (both prover and verifier
    /// call this first so all challenges depend on the circuit).
    pub fn bind_to_transcript(&self, transcript: &mut Transcript) {
        bind_circuit_to_transcript(
            transcript,
            self.num_vars,
            &self.selector_commitments,
            &self.sigma_commitments,
        );
    }
}

/// Binds a circuit's size and preprocessed commitments into a transcript.
/// Both the prover and the verifier call this before any other message so
/// that every challenge depends on the circuit being proven.
pub fn bind_circuit_to_transcript(
    transcript: &mut Transcript,
    num_vars: usize,
    selector_commitments: &[Commitment; 5],
    sigma_commitments: &[Commitment; 3],
) {
    transcript.append_message(b"num-vars", &(num_vars as u64).to_le_bytes());
    for c in selector_commitments {
        transcript.append_message(b"selector-commitment", &c.to_transcript_bytes());
    }
    for c in sigma_commitments {
        transcript.append_message(b"sigma-commitment", &c.to_transcript_bytes());
    }
}

/// Preprocessing: commits to the circuit's five selector and three wiring
/// tables, one job each on `backend`, and builds the per-session commit
/// tables ([`CommitTables`]) `budget` allows on the same backend. A
/// disabled budget (the default) builds none.
///
/// # Errors
///
/// Returns [`PreprocessError::SrsTooSmall`] if the circuit does not fit.
pub fn try_preprocess(
    circuit: Circuit,
    srs: &Srs,
    backend: &dyn Backend,
    budget: &PrecomputeBudget,
) -> Result<(ProvingKey, VerifyingKey), PreprocessError> {
    if circuit.num_vars() > srs.num_vars() {
        return Err(PreprocessError::SrsTooSmall {
            srs_num_vars: srs.num_vars(),
            circuit_num_vars: circuit.num_vars(),
        });
    }
    // A smaller circuit preprocesses against the prefix view of the shared
    // SRS: the same Arc-shared point levels, scoped to the circuit's μ.
    // Commitments and proofs are byte-identical to an exact-size setup with
    // the matching τ suffix, and any precomputed commit tables below cover
    // the session's own levels instead of the full SRS's.
    let prefix_view;
    let srs = if circuit.num_vars() < srs.num_vars() {
        prefix_view = srs.prefix(circuit.num_vars());
        &prefix_view
    } else {
        srs
    };
    let sigmas = circuit.sigma_mles();
    // Eight independent MSMs: one job each (the MSMs themselves stay serial
    // inside their job so eight workers split the level evenly). Results are
    // consumed in table order, so keys are identical at any thread count.
    let tables: Vec<MultilinearPoly> = circuit
        .selectors()
        .iter()
        .chain(sigmas.iter())
        .cloned()
        .collect();
    let job_srs = srs.clone();
    let commitments = pool::map_indices_on(backend, tables.len(), move |i| {
        zkspeed_field::measure_modmuls(|| commit(&Serial, &job_srs, &tables[i], None).0)
    });
    let mut ordered = Vec::with_capacity(commitments.len());
    for (com, muls) in commitments {
        zkspeed_field::add_modmul_count(muls);
        ordered.push(com);
    }
    let selector_commitments = [0, 1, 2, 3, 4].map(|i| ordered[i]);
    let sigma_commitments = [0, 1, 2].map(|i| ordered[5 + i]);
    // The session's table build rides the same backend; commitments above
    // were computed table-free, which yields the same group elements.
    let commit_tables = CommitTables::build(srs, budget, backend).map(Arc::new);
    let vk = VerifyingKey {
        num_vars: circuit.num_vars(),
        srs: srs.clone(),
        selector_commitments,
        sigma_commitments,
    };
    let pk = ProvingKey {
        circuit,
        srs: srs.clone(),
        selector_commitments,
        sigma_commitments,
        commit_tables,
    };
    Ok((pk, vk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateSelectors;
    use crate::mock::{mock_circuit, SparsityProfile};
    use zkspeed_pcs::commit_on;
    use zkspeed_rt::pool::ThreadPool;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_000f)
    }

    fn srs(mu: usize, r: &mut StdRng) -> Srs {
        Srs::try_setup(mu, r, &Serial).unwrap()
    }

    /// Serial preprocessing without commit tables.
    fn preprocess(
        circuit: Circuit,
        srs: &Srs,
    ) -> Result<(ProvingKey, VerifyingKey), PreprocessError> {
        try_preprocess(circuit, srs, &Serial, &PrecomputeBudget::disabled())
    }

    #[test]
    fn preprocess_commits_to_circuit_tables() {
        let mut r = rng();
        let srs = srs(4, &mut r);
        let (circuit, _) = mock_circuit(4, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = preprocess(circuit.clone(), &srs).expect("circuit fits");
        assert_eq!(vk.num_vars, 4);
        assert_eq!(pk.selector_commitments, vk.selector_commitments);
        // Commitments match direct commitment of the tables.
        assert_eq!(
            vk.selector_commitments[0],
            commit_on(&Serial, &srs, &circuit.selectors()[0])
        );
        assert_eq!(
            vk.sigma_commitments[2],
            commit_on(&Serial, &srs, &circuit.sigma_mles()[2])
        );
    }

    #[test]
    fn different_circuits_give_different_keys() {
        let mut r = rng();
        let srs = srs(3, &mut r);
        let add = Circuit::with_identity_wiring(&vec![GateSelectors::addition(); 8]);
        let mul = Circuit::with_identity_wiring(&vec![GateSelectors::multiplication(); 8]);
        let (_, vk_add) = preprocess(add, &srs).unwrap();
        let (_, vk_mul) = preprocess(mul, &srs).unwrap();
        assert_ne!(vk_add.selector_commitments, vk_mul.selector_commitments);
        // Binding to a transcript therefore yields different challenges.
        let mut ta = Transcript::new(b"t");
        let mut tm = Transcript::new(b"t");
        vk_add.bind_to_transcript(&mut ta);
        vk_mul.bind_to_transcript(&mut tm);
        assert_ne!(ta.challenge_scalar(b"c"), tm.challenge_scalar(b"c"));
    }

    #[test]
    fn undersized_srs_is_a_structured_error() {
        let mut r = rng();
        let srs = srs(2, &mut r);
        let (circuit, _) = mock_circuit(3, SparsityProfile::paper_default(), &mut r);
        let err = preprocess(circuit, &srs).unwrap_err();
        assert_eq!(
            err,
            PreprocessError::SrsTooSmall {
                srs_num_vars: 2,
                circuit_num_vars: 3
            }
        );
        assert!(err.to_string().contains("SRS supports up to 2^2"));
    }

    #[test]
    fn budgeted_preprocess_builds_tables_and_identical_keys() {
        let mut r = rng();
        let srs = srs(6, &mut r);
        let (circuit, _) = mock_circuit(6, SparsityProfile::paper_default(), &mut r);
        let (pk_plain, vk_plain) = preprocess(circuit.clone(), &srs).unwrap();
        assert!(
            pk_plain.commit_tables.is_none(),
            "a disabled budget builds no tables"
        );
        let (pk, vk) =
            try_preprocess(circuit, &srs, &Serial, &PrecomputeBudget::unlimited()).unwrap();
        let tables = pk.commit_tables.as_ref().expect("unlimited budget builds");
        assert!(tables.levels_covered() > 0);
        assert!(tables.size_in_bytes() > 0);
        // Tables change nothing about the keys themselves.
        assert_eq!(pk.selector_commitments, pk_plain.selector_commitments);
        assert_eq!(pk.sigma_commitments, pk_plain.sigma_commitments);
        assert_eq!(vk.selector_commitments, vk_plain.selector_commitments);
        assert_eq!(vk.sigma_commitments, vk_plain.sigma_commitments);
    }

    #[test]
    fn undersized_circuits_preprocess_against_the_srs_prefix() {
        let mut r = rng();
        let full = srs(6, &mut r);
        let (circuit, _) = mock_circuit(4, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = preprocess(circuit.clone(), &full).expect("circuit fits");
        // The keys hold the 4-variable view, not the 6-variable SRS …
        assert_eq!(pk.srs.num_vars(), 4);
        assert_eq!(vk.srs.num_vars(), 4);
        // … and the commitments equal both a direct commit against the full
        // SRS (level sharing) and an exact-size preprocess over the view.
        assert_eq!(
            vk.selector_commitments[0],
            commit_on(&Serial, &full, &circuit.selectors()[0])
        );
        let (_, vk_exact) = preprocess(circuit, &full.prefix(4)).unwrap();
        assert_eq!(vk.selector_commitments, vk_exact.selector_commitments);
        assert_eq!(vk.sigma_commitments, vk_exact.sigma_commitments);
    }

    #[test]
    fn backend_preprocess_matches_serial() {
        let mut r = rng();
        let srs = srs(5, &mut r);
        let (circuit, _) = mock_circuit(5, SparsityProfile::paper_default(), &mut r);
        let budget = PrecomputeBudget::disabled();
        let (_, vk_a) = preprocess(circuit.clone(), &srs).unwrap();
        let (_, vk_b) = try_preprocess(circuit, &srs, &ThreadPool::new(4), &budget).unwrap();
        assert_eq!(vk_a.selector_commitments, vk_b.selector_commitments);
        assert_eq!(vk_a.sigma_commitments, vk_b.sigma_commitments);
    }
}
