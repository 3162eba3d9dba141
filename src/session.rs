//! The session-oriented proving API: a [`ProofSystem`] owns the universal
//! SRS and an execution backend, and hands out long-lived
//! [`ProverHandle`] / [`VerifierHandle`] pairs per circuit.
//!
//! The paper's Figure-2 pipeline is a long-lived system — one universal
//! setup, one preprocessing pass per circuit, then many proofs. The free
//! functions of the component crates re-derive nothing, but they force
//! every caller to carry keys and an execution context around. The session
//! API owns both: keys live inside the handles (`Arc`-shared, cheap to
//! clone), and one reusable [`Backend`] worker pool serves every proof of
//! the session.
//!
//! ```
//! use zkspeed::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let srs = Srs::try_setup(4, &mut rng, &Serial)?;
//! let system = ProofSystem::setup(srs);
//! let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
//! let (prover, verifier) = system.preprocess(circuit)?;
//!
//! let proof = prover.prove(&witness)?;
//! verifier.verify(&proof)?;
//!
//! // Proofs ship as canonical bytes.
//! let bytes = proof.to_bytes();
//! verifier.verify(&Proof::from_bytes(&bytes)?)?;
//! # Ok::<(), zkspeed::Error>(())
//! ```

use std::sync::Arc;

use zkspeed_hyperplonk::{
    prove, prove_batch, prove_unchecked, try_preprocess, verify, Circuit, ExecCtx, Proof,
    ProveError, ProverReport, ProvingKey, VerifyingKey, Witness,
};
use zkspeed_pcs::Srs;
use zkspeed_rt::pool::{self, Backend};
use zkspeed_svc::{ProvingService, ServiceConfig};

use crate::error::Error;

/// The session entry point: owns the universal SRS plus the execution
/// backend every derived handle will prove with.
#[derive(Clone, Debug)]
pub struct ProofSystem {
    srs: Arc<Srs>,
    backend: Arc<dyn Backend>,
}

impl ProofSystem {
    /// Wraps a universal setup with the default backend: the process-wide
    /// shared worker pool, sized by `ZKSPEED_THREADS` (falling back to the
    /// hardware parallelism).
    pub fn setup(srs: Srs) -> Self {
        Self::setup_with_backend(srs, Arc::clone(pool::global()))
    }

    /// Wraps a universal setup with an explicit execution backend
    /// (`Arc<Serial>`, a dedicated `ThreadPool`, or any custom [`Backend`]).
    pub fn setup_with_backend(srs: Srs, backend: Arc<dyn Backend>) -> Self {
        Self {
            srs: Arc::new(srs),
            backend,
        }
    }

    /// Replaces the execution backend, keeping the SRS.
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// The universal SRS this session proves against.
    pub fn srs(&self) -> &Srs {
        &self.srs
    }

    /// The execution backend handles derived from this session will use.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Starts a long-running [`ProvingService`] over this session's SRS:
    /// circuits register as sessions keyed by digest, jobs queue with
    /// priorities and backpressure, and shard workers pack them into
    /// `prove_batch` waves (see [`zkspeed_svc`]). Everything else, the
    /// per-shard backend pools among it, is `config`'s.
    pub fn serve(&self, config: ServiceConfig) -> ProvingService {
        ProvingService::start(Arc::clone(&self.srs), config)
    }

    /// Preprocesses (indexes) a circuit: commits to its selector and wiring
    /// tables once, yielding a long-lived prover/verifier handle pair. The
    /// eight table commitments fan out across the session backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Preprocess`] if the circuit needs more variables
    /// than the SRS supports.
    pub fn preprocess(&self, circuit: Circuit) -> Result<(ProverHandle, VerifierHandle), Error> {
        let (pk, vk) = try_preprocess(circuit, &self.srs, &*self.backend)?;
        let ctx = ExecCtx {
            backend: Arc::clone(&self.backend),
            ..ExecCtx::default()
        };
        Ok((
            ProverHandle {
                pk: Arc::new(pk),
                ctx,
            },
            VerifierHandle { vk: Arc::new(vk) },
        ))
    }
}

/// A long-lived prover for one circuit: owns the proving key and the
/// execution context, so each [`ProverHandle::prove`] call is pure compute
/// with no per-call setup. Cloning the handle shares the key and backend.
#[derive(Clone, Debug)]
pub struct ProverHandle {
    pk: Arc<ProvingKey>,
    ctx: ExecCtx,
}

impl ProverHandle {
    /// Proves that `witness` satisfies the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Prove`] if the witness fails the circuit's gate or
    /// wiring constraints.
    pub fn prove(&self, witness: &Witness) -> Result<Proof, Error> {
        Ok(self.prove_with_report(witness)?.0)
    }

    /// Like [`ProverHandle::prove`], additionally returning wall-clock and
    /// operation-count measurements per protocol step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Prove`] if the witness is invalid.
    pub fn prove_with_report(&self, witness: &Witness) -> Result<(Proof, ProverReport), Error> {
        Ok(prove(&self.pk, witness, &self.ctx)?)
    }

    /// Proves a batch of witnesses, fanning the independent proofs (and the
    /// three witness commits inside each) out across the backend's worker
    /// pool. Proofs come back in input order and are bit-identical to
    /// individual [`ProverHandle::prove`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Prove`] for the first invalid witness; no proving
    /// work starts in that case.
    pub fn prove_batch(&self, witnesses: &[Witness]) -> Result<Vec<Proof>, Error> {
        // The whole batch is checked before any proof starts, as documented;
        // the prover's per-job check then passes.
        for witness in witnesses {
            self.pk
                .circuit
                .check_witness(witness)
                .map_err(ProveError::UnsatisfiedWitness)?;
        }
        let batch: Vec<(u64, Arc<Witness>)> =
            (0..).zip(witnesses.iter().cloned().map(Arc::new)).collect();
        let proved = prove_batch(&self.pk, &batch, &self.ctx).into_iter();
        proved.map(|p| Ok(p?.0)).collect()
    }

    /// Runs the prover without checking witness satisfiability first (used
    /// by soundness tests: an unsatisfied witness yields a proof the
    /// verifier rejects).
    pub fn prove_unchecked(&self, witness: &Witness) -> (Proof, ProverReport) {
        prove_unchecked(&self.pk, witness, &self.ctx)
    }

    /// The proving key (circuit tables plus SRS).
    pub fn proving_key(&self) -> &ProvingKey {
        &self.pk
    }

    /// The execution backend this handle proves on.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.ctx.backend
    }

    /// Number of variables `μ` of the underlying circuit.
    pub fn num_vars(&self) -> usize {
        self.pk.circuit.num_vars()
    }
}

/// A long-lived verifier for one circuit: owns the verifying key. Cloning
/// the handle shares it.
#[derive(Clone, Debug)]
pub struct VerifierHandle {
    vk: Arc<VerifyingKey>,
}

impl VerifierHandle {
    /// Verifies a proof against this circuit's verifying key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`] describing the first failed check.
    pub fn verify(&self, proof: &Proof) -> Result<(), Error> {
        Ok(verify(&self.vk, proof)?)
    }

    /// The verifying key (for serialization via
    /// [`VerifyingKey::to_bytes`]).
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.vk
    }

    /// Rebuilds a verifier handle from a serialized verifying key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decode`] if the bytes are malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        Ok(Self {
            vk: Arc::new(VerifyingKey::from_bytes(bytes)?),
        })
    }

    /// Number of variables `μ` of the underlying circuit.
    pub fn num_vars(&self) -> usize {
        self.vk.num_vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_hyperplonk::{mock_circuit, SparsityProfile};
    use zkspeed_pcs::SetupError;
    use zkspeed_rt::pool::{Serial, ThreadPool};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    #[test]
    fn session_roundtrip_and_batch() {
        let mut rng = StdRng::seed_from_u64(0x5e55_0001);
        let srs = Srs::try_setup(4, &mut rng, &Serial).expect("small setup");
        let system = ProofSystem::setup_with_backend(srs, Arc::new(ThreadPool::new(4)));
        let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        assert_eq!(prover.num_vars(), 4);
        assert_eq!(verifier.num_vars(), 4);

        let proof = prover.prove(&witness).expect("valid witness");
        verifier.verify(&proof).expect("honest proof verifies");

        let batch = prover
            .prove_batch(&[witness.clone(), witness.clone()])
            .expect("valid batch");
        assert_eq!(batch.len(), 2);
        for p in &batch {
            assert_eq!(*p, proof);
        }

        // Handles are cheap to clone and share state.
        let prover2 = prover.clone();
        assert_eq!(prover2.prove(&witness).expect("still proves"), proof);
    }

    #[test]
    fn session_errors_are_structured() {
        let mut rng = StdRng::seed_from_u64(0x5e55_0002);
        let srs = Srs::try_setup(2, &mut rng, &Serial).expect("small setup");
        let system = ProofSystem::setup(srs).with_backend(Arc::new(Serial));
        let (circuit, _) = mock_circuit(3, SparsityProfile::paper_default(), &mut rng);
        let err = system.preprocess(circuit).unwrap_err();
        assert!(matches!(err, Error::Preprocess(_)));
        assert!(err.to_string().contains("SRS supports up to 2^2"));

        assert!(matches!(
            Srs::try_setup(64, &mut rng, &Serial).map(ProofSystem::setup),
            Err(SetupError::TooManyVariables { .. })
        ));
    }

    #[test]
    fn verifier_handle_roundtrips_through_bytes() {
        let mut rng = StdRng::seed_from_u64(0x5e55_0003);
        let srs = Srs::try_setup(3, &mut rng, &Serial).expect("small setup");
        let system = ProofSystem::setup_with_backend(srs, Arc::new(Serial));
        let (circuit, witness) = mock_circuit(3, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        let proof = prover.prove(&witness).expect("valid witness");

        let vk_bytes = verifier.verifying_key().to_bytes();
        let restored = VerifierHandle::from_bytes(&vk_bytes).expect("valid key bytes");
        restored.verify(&proof).expect("proof verifies");
        assert!(matches!(
            VerifierHandle::from_bytes(&vk_bytes[..10]),
            Err(Error::Decode(_))
        ));
    }
}
