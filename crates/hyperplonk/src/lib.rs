//! The HyperPlonk proof system — the protocol that the zkSpeed accelerator
//! (modeled in `zkspeed-core`) accelerates.
//!
//! The crate provides the complete proving stack of Figure 2 of the paper:
//!
//! * [`CircuitBuilder`] / [`Circuit`] — the Plonk gate encoding of Eq. (1)
//!   and the wiring permutation;
//! * [`constraints`] — the Gate and Wiring Identities of Eqs. (3) and (4),
//!   each declared once and read by the prover, the verifier and the
//!   witness check;
//! * [`try_preprocess`] — universal-setup indexing (commitments to selectors
//!   and wiring);
//! * [`prove`] / [`prove_batch`] — the five protocol steps (Witness
//!   Commits, Gate Identity, Wiring Identity, Batch Evaluations, Polynomial
//!   Opening), each exercising the kernels the accelerator builds units for,
//!   run where an [`ExecCtx`] says: its backend, trace sink and job id.
//!   Each proof's [`ProverReport`] counts its modmuls by Table 1 [`Kernel`];
//! * [`verify`] — the succinct verifier;
//! * [`mock_circuit`] / [`NAMED_WORKLOADS`] — the synthetic workloads the
//!   paper evaluates on (Table 3).
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
//! use zkspeed_pcs::Srs;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let srs = Srs::try_setup(4, &mut rng, &Serial)?;
//! let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
//! let (pk, vk) = try_preprocess(circuit, &srs, &Serial)?;
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
pub mod constraints;
pub mod gadgets;
mod keys;
mod mock;
mod proof;
mod prover;
mod report;
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
pub use proof::{query_groups, BatchEvaluations, PolyLabel, Proof, QueryGroup};
pub use prover::{
    prove, prove_batch, prove_unchecked, ExecCtx, ProveError, GATE_SUMCHECK_DEGREE,
    OPENCHECK_DEGREE, PERM_SUMCHECK_DEGREE,
};
pub use report::{Kernel, KernelRow, ProtocolStep, ProverReport};
pub use stats::{CircuitStats, ColumnStats, GateKindCounts};
pub use verifier::{verify, VerifyError};
