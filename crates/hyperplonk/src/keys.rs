//! Preprocessing ("indexing"): turning a circuit plus the universal SRS into
//! proving and verifying keys.
//!
//! The selector and wiring-permutation MLEs are fixed per circuit, so their
//! commitments are computed once here and reused by every proof — this is
//! the circuit-independent, universal-setup property that motivates
//! HyperPlonk over Groth16 in the zkSpeed paper's introduction.

use core::fmt;

use zkspeed_pcs::{commit, commit_sparse, Commitment, Srs};
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
    /// The circuit has a single gate (`μ = 0`): the protocol's SumChecks
    /// and shifted query points need at least one variable.
    NoVariables,
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
            PreprocessError::NoVariables => {
                write!(
                    f,
                    "the circuit has 2^0 gates; the protocol needs at least 2^1"
                )
            }
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
/// tables, one job each on `backend`.
///
/// # Errors
///
/// Returns [`PreprocessError::SrsTooSmall`] if the circuit does not fit, and
/// [`PreprocessError::NoVariables`] for a one-gate circuit.
pub fn try_preprocess(
    circuit: Circuit,
    srs: &Srs,
    backend: &dyn Backend,
) -> Result<(ProvingKey, VerifyingKey), PreprocessError> {
    if circuit.num_vars() == 0 {
        return Err(PreprocessError::NoVariables);
    }
    if circuit.num_vars() > srs.num_vars() {
        return Err(PreprocessError::SrsTooSmall {
            srs_num_vars: srs.num_vars(),
            circuit_num_vars: circuit.num_vars(),
        });
    }
    // A smaller circuit preprocesses against the prefix view of the shared
    // SRS: the same Arc-shared point levels, scoped to the circuit's μ.
    // Commitments and proofs are byte-identical to an exact-size setup with
    // the matching τ suffix.
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
    // The selectors, mostly 0 and 1, take the sparse MSM; σ tables are dense.
    let tables: Vec<MultilinearPoly> = circuit
        .selectors()
        .iter()
        .chain(sigmas.iter())
        .cloned()
        .collect();
    let job_srs = srs.clone();
    // Each commitment is stored normalised (Z = 1), as a decoded key's are,
    // so binding the key into every proof's and every verification's
    // transcript inverts nothing.
    let commitments = pool::map_indices_on(backend, tables.len(), move |i| {
        let commitment = match i {
            0..=4 => commit_sparse(&Serial, &job_srs, &tables[i]).0,
            _ => commit(&Serial, &job_srs, &tables[i]).0,
        };
        Commitment(commitment.0.to_affine().to_projective())
    });
    let selector_commitments = [0, 1, 2, 3, 4].map(|i| commitments[i]);
    let sigma_commitments = [0, 1, 2].map(|i| commitments[5 + i]);
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
    };
    Ok((pk, vk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateSelectors;
    use crate::mock::{mock_circuit, SparsityProfile};
    use zkspeed_field::Fr;
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

    /// Serial preprocessing.
    fn preprocess(
        circuit: Circuit,
        srs: &Srs,
    ) -> Result<(ProvingKey, VerifyingKey), PreprocessError> {
        try_preprocess(circuit, srs, &Serial)
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
    fn one_gate_circuit_is_a_structured_error() {
        let mut r = rng();
        let srs = srs(2, &mut r);
        let circuit = Circuit::with_identity_wiring(&[GateSelectors::addition()]);
        assert_eq!(circuit.num_vars(), 0);
        let err = preprocess(circuit, &srs).unwrap_err();
        assert_eq!(err, PreprocessError::NoVariables);
        assert!(err.to_string().contains("2^0 gates"));
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

    /// A μ = 10 circuit of one-gate bit operations over random input bits:
    /// XOR (`q_M = −2`), AND-NOT (`q_M = −1`) and NOT (`q_L = −1`), so every
    /// selector entry is −2, −1, 0 or 1.
    fn bit_gadget_circuit(r: &mut StdRng) -> Circuit {
        use crate::builder::CircuitBuilder;
        use crate::gadgets::{and_not, not, xor};
        use zkspeed_rt::Rng;
        let mut b = CircuitBuilder::new();
        let mut bits: Vec<_> = (0..64)
            .map(|_| b.input(Fr::from_u64(r.gen::<u64>() & 1)))
            .collect();
        let (mut i, len) = (0, bits.len());
        while b.num_gates() < 1000 {
            let (x, y) = (bits[i % len], bits[(7 * i + 3) % len]);
            let out = match i % 3 {
                0 => xor(&mut b, x, y),
                1 => and_not(&mut b, x, y),
                _ => not(&mut b, x),
            };
            bits[i % len] = out;
            i += 1;
        }
        let (circuit, _) = b.build();
        assert_eq!(circuit.num_vars(), 10);
        circuit
    }

    #[test]
    fn narrow_selectors_preprocess_within_their_fq_budget() {
        // The engine's shape, priced at six Fq multiplications a batch-affine
        // addition. A selector entry of ±1 or −2 is its own one-window
        // half: six per nonzero entry, plus per selector the merge of the
        // ones-sum (a mixed addition) and the running sums over the lines
        // of its two buckets. σ's slot indices are below 3·2^μ, so b = μ + 2
        // bits at the auto width w: ⌈b/w⌉ windows hold digits (the top
        // one's two bits never carry), each with one addition a point, two
        // a bucket into its row and column sums, two projective additions
        // a line, the row term's doublings, and the combine's w doublings
        // and one addition. No images anywhere: no scalar has a second half.
        use zkspeed_curve::{
            auto_window_bits, BATCH_AFFINE_ADD_FQ_MULS as ADD, PADD_FQ_MULS as PADD,
            PADD_MIXED_FQ_MULS as MIXED, PDBL_FQ_MULS as PDBL,
        };
        let mut r = rng();
        let mu = 10;
        let srs = srs(mu, &mut r);
        let circuit = bit_gadget_circuit(&mut r);
        let allowed = [-Fr::from_u64(2), -Fr::one(), Fr::zero(), Fr::one()];
        let mut nonzero = 0;
        for selector in circuit.selectors() {
            for v in selector.evaluations() {
                assert!(allowed.contains(v), "selector entry {v}");
                nonzero += usize::from(!v.is_zero());
            }
        }
        let n = 1 << mu;
        let selectors = ADD * nonzero + 5 * (MIXED + 4 * PADD);
        let (b, w) = (mu + 2, auto_window_bits(n));
        let buckets = 1usize << (w - 1);
        let cols = 1usize << buckets.ilog2().div_ceil(2);
        let lines = cols + buckets / cols;
        let window =
            ADD * (n + 2 * buckets) + 2 * lines * PADD + (cols.ilog2() as usize + w) * PDBL + PADD;
        let budget = selectors + 3 * b.div_ceil(w) * window;
        let (_, count) = zkspeed_field::measure_modmuls(|| preprocess(circuit, &srs).unwrap());
        assert!(count.fq as usize <= budget, "{count:?} over {budget}");
    }

    #[test]
    fn backend_preprocess_matches_serial() {
        let mut r = rng();
        let srs = srs(5, &mut r);
        let (circuit, _) = mock_circuit(5, SparsityProfile::paper_default(), &mut r);
        let (_, vk_a) = preprocess(circuit.clone(), &srs).unwrap();
        let (_, vk_b) = try_preprocess(circuit, &srs, &ThreadPool::new(4)).unwrap();
        assert_eq!(vk_a.selector_commitments, vk_b.selector_commitments);
        assert_eq!(vk_a.sigma_commitments, vk_b.sigma_commitments);
    }
}
