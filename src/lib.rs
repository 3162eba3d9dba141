//! Umbrella crate for the zkSpeed HyperPlonk reproduction.
//!
//! This crate owns the workspace-level integration tests (`tests/`) and
//! examples (`examples/`), re-exports every layer of the stack under one
//! roof, and provides the **session-oriented proving API** — the intended
//! entry point for downstream users:
//!
//! * [`ProofSystem`] — owns the universal SRS and a reusable execution
//!   [`Backend`](rt::pool::Backend) (serial or worker pool);
//! * [`ProverHandle`] / [`VerifierHandle`] — long-lived per-circuit handles
//!   with [`prove`](ProverHandle::prove),
//!   [`prove_with_report`](ProverHandle::prove_with_report),
//!   [`prove_batch`](ProverHandle::prove_batch) and
//!   [`verify`](VerifierHandle::verify);
//! * [`enum@Error`] — one structured error enum across setup, preprocessing,
//!   proving, verification and decoding;
//! * canonical byte encodings with magic + version headers for
//!   [`Proof`](hyperplonk::Proof),
//!   [`VerifyingKey`](hyperplonk::VerifyingKey) and [`Srs`](pcs::Srs).
//!
//! The re-exported component layers:
//!
//! * [`rt`] — dependency-free runtime (SHA3, deterministic PRNG, JSON,
//!   worker-pool backends, byte-codec substrate, fault injection, tracing);
//! * [`field`] / [`curve`] / [`poly`] — BLS12-381 arithmetic and multilinear
//!   polynomials;
//! * [`transcript`] / [`sumcheck`] / [`pcs`] / [`hyperplonk`] — the
//!   functional HyperPlonk prover and verifier;
//! * [`hw`] / [`model`] — the zkSpeed accelerator's analytical hardware
//!   model and design-space exploration;
//! * [`svc`] — the long-running proving service: priority job queue with
//!   backpressure, shard-aware `prove_batch` wave scheduling, and the
//!   framed wire protocol for circuits, witnesses and proofs (start one
//!   with [`ProofSystem::serve`]);
//! * [`net`] — the TCP transport in front of the service: authenticated
//!   threaded frame server with connection caps and graceful drain, the
//!   blocking [`NetClient`](net::NetClient), and the `zkspeed` operator
//!   CLI binary;
//! * [`bench`](mod@bench) — helpers shared by the figure/table reproduction binaries.
//!
//! # Quickstart
//!
//! ```
//! use zkspeed::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let srs = Srs::try_setup(4, &mut rng, &Serial)?;
//! let system = ProofSystem::setup(srs);
//! let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
//! let (prover, verifier) = system.preprocess(circuit)?;
//!
//! let proof = prover.prove(&witness)?;
//! verifier.verify(&proof)?;
//!
//! // Proofs are canonical bytes: hash them, persist them, ship them.
//! let bytes = proof.to_bytes();
//! assert_eq!(Proof::from_bytes(&bytes)?, proof);
//! # Ok::<(), zkspeed::Error>(())
//! ```
//!
//! To pin the parallelism instead of inheriting `ZKSPEED_THREADS`:
//!
//! ```
//! use std::sync::Arc;
//! use zkspeed::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let srs = Srs::try_setup(3, &mut rng, &Serial)?;
//! let system = ProofSystem::setup_with_backend(srs, Arc::new(ThreadPool::new(4)));
//! # let _ = system;
//! # Ok::<(), zkspeed::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod session;

pub use error::Error;
pub use session::{ProofSystem, ProverHandle, VerifierHandle};

/// Converts measured circuit statistics ([`hyperplonk::CircuitStats`])
/// into a hardware-model [`Workload`](model::Workload) with per-column
/// witness splits, so the chip model and design-space exploration run on
/// real compiled circuits instead of the paper's assumed 45/45/10 split.
///
/// The returned workload keeps the measured circuit's `μ`; project it to
/// paper scale with [`Workload::with_num_vars`](model::Workload::with_num_vars).
///
/// # Errors
///
/// Returns a [`model::WorkloadError`] if the measured fractions are
/// malformed (NaN, negative, or summing past 1) — which for
/// [`hyperplonk::CircuitStats::measure`] output indicates a bug upstream.
pub fn measured_workload(
    stats: &hyperplonk::CircuitStats,
) -> Result<model::Workload, model::WorkloadError> {
    let columns = [
        model::ColumnSplit::new(
            stats.columns[0].zero_fraction(),
            stats.columns[0].one_fraction(),
        )?,
        model::ColumnSplit::new(
            stats.columns[1].zero_fraction(),
            stats.columns[1].one_fraction(),
        )?,
        model::ColumnSplit::new(
            stats.columns[2].zero_fraction(),
            stats.columns[2].one_fraction(),
        )?,
    ];
    Ok(
        model::Workload::new(stats.num_vars, stats.zero_fraction(), stats.one_fraction())?
            .with_columns(columns),
    )
}

pub use zkspeed_bench as bench;
pub use zkspeed_core as model;
pub use zkspeed_curve as curve;
pub use zkspeed_field as field;
pub use zkspeed_hw as hw;
pub use zkspeed_hyperplonk as hyperplonk;
pub use zkspeed_net as net;
pub use zkspeed_pcs as pcs;
pub use zkspeed_poly as poly;
pub use zkspeed_rt as rt;
pub use zkspeed_sumcheck as sumcheck;
pub use zkspeed_svc as svc;
pub use zkspeed_transcript as transcript;

/// One-line import for the session API and the types most programs touch.
pub mod prelude {
    pub use crate::{measured_workload, Error, ProofSystem, ProverHandle, VerifierHandle};
    pub use zkspeed_hyperplonk::workloads::{
        HashChainSpec, MerkleSpec, StateTransitionSpec, WorkloadSpec,
    };
    pub use zkspeed_hyperplonk::{
        mock_circuit, Circuit, CircuitBuilder, CircuitStats, Proof, ProverReport, SparsityProfile,
        VerifyingKey, Witness,
    };
    pub use zkspeed_net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};
    pub use zkspeed_pcs::{PrecomputeBudget, Srs};
    pub use zkspeed_rt::pool::{Backend, Serial, ThreadPool};
    pub use zkspeed_rt::rngs::StdRng;
    pub use zkspeed_rt::{SeedableRng, ToJson};
    pub use zkspeed_svc::{JobSpec, Priority, ProvingService, ServiceConfig, ServiceError};
}
