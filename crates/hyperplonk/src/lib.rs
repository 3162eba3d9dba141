//! The HyperPlonk proof system — the protocol that the zkSpeed accelerator
//! (modeled in `zkspeed-core` / `zkspeed-hw`) accelerates.
//!
//! The crate provides the complete proving stack of Figure 2 of the paper:
//!
//! * [`CircuitBuilder`] / [`Circuit`] — the Plonk gate encoding of Eq. (1)
//!   and the wiring permutation;
//! * [`try_preprocess`] — universal-setup indexing (commitments to selectors
//!   and wiring);
//! * [`prove`] / [`prove_batch`] — the five protocol steps (Witness
//!   Commits, Gate Identity, Wiring Identity, Batch Evaluations, Polynomial
//!   Opening), each exercising the kernels the accelerator builds units for,
//!   run where an [`ExecCtx`] says: its backend, trace sink and job id;
//! * [`verify`] — the succinct verifier;
//! * [`mock_circuit`] / [`NAMED_WORKLOADS`] — the synthetic workloads the
//!   paper evaluates on (Table 3);
//! * [`profile_kernels`] — measured modmul counts and arithmetic intensities
//!   per kernel (Table 1).
//!
//! # Examples
//!
//! ```
//! use zkspeed_rt::rngs::StdRng;
//! use zkspeed_rt::SeedableRng;
//! use zkspeed_rt::pool::Serial;
//! use zkspeed_hyperplonk::{
//!     mock_circuit, prove, try_preprocess, verify, ExecCtx, SparsityProfile,
//! };
//! use zkspeed_pcs::{PrecomputeBudget, Srs};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let srs = Srs::try_setup(4, &mut rng, &Serial)?;
//! let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
//! let (pk, vk) = try_preprocess(circuit, &srs, &Serial, &PrecomputeBudget::disabled())?;
//! let (proof, _report) = prove(&pk, &witness, &ExecCtx::default())?;
//! verify(&vk, &proof)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Downstream users should prefer the session API of the umbrella `zkspeed`
//! crate (`ProofSystem::setup` → `preprocess` → `ProverHandle::prove`),
//! which owns the keys and builds the [`ExecCtx`] once per session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod circuit;
pub mod gadgets;
mod keys;
mod mock;
mod profile;
mod proof;
mod prover;
mod serialize;
mod stats;
mod verifier;
pub mod workloads;

pub use builder::{CircuitBuilder, Variable};
pub use circuit::{Circuit, GateSelectors, SatisfactionError, WireColumn, Witness};
pub use keys::{
    bind_circuit_to_transcript, try_preprocess, PreprocessError, ProvingKey, VerifyingKey,
};
pub use mock::{mock_circuit, NamedWorkload, SparsityProfile, NAMED_WORKLOADS};
pub use profile::{profile_kernels, KernelProfile, BYTES_PER_FIELD_ELEMENT, BYTES_PER_G1_POINT};
pub use proof::{query_groups, BatchEvaluations, PolyLabel, Proof, QueryGroup};
pub use prover::{
    prove, prove_batch, prove_unchecked, ExecCtx, ProtocolStep, ProveError, ProverReport,
    GATE_SUMCHECK_DEGREE, OPENCHECK_DEGREE, PERM_SUMCHECK_DEGREE,
};
pub use serialize::{KIND_CIRCUIT, KIND_PROOF, KIND_VERIFYING_KEY, KIND_WITNESS};
pub use stats::{CircuitStats, ColumnStats, GateKindCounts};
pub use verifier::{verify, VerifyError};
