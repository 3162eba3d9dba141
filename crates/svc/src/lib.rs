//! `zkspeed-svc` — the long-running proving service on top of the session
//! proving stack.
//!
//! The zkSpeed paper accelerates one HyperPlonk prove; a production system
//! serves a *stream* of proofs for many circuits and many clients. This
//! crate turns the session API into that service:
//!
//! * [`wire`] — the byte-level request/response protocol (framed, versioned,
//!   bounds-checked) carrying circuits, witnesses and proofs as canonical
//!   artifacts;
//! * [`queue`] — a bounded multi-producer job queue with priority classes,
//!   backpressure and anti-starvation aging;
//! * [`ProvingService`] — session registration and job submission, also
//!   served in-process through [`ProvingService::handle_frame`]. Each fact
//!   has one owner: the session store holds every session (LRU eviction
//!   over [`ServiceConfig::session_capacity`], transparent re-provisioning)
//!   with its metrics row, and the job table gives every accepted job
//!   exactly one outcome. Supervised shard workers pack queued jobs into
//!   `prove_batch` waves on disjoint backend pools; a panicking wave fails
//!   only its own jobs, and every job carries a deadline ([`JobSpec`]);
//! * [`ServiceMetrics`] — queue depth, wave occupancy, per-session and
//!   per-phase latency histograms ([`PhaseHistograms`], indexed by
//!   `ProtocolStep` and keyed by its metrics key), per-class queue-wait
//!   histograms, proofs/sec and MSM rollups, emitted via
//!   [`ToJson`](zkspeed_rt::ToJson).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use zkspeed_hyperplonk::{mock_circuit, Proof, SparsityProfile};
//! use zkspeed_pcs::Srs;
//! use zkspeed_rt::pool::Serial;
//! use zkspeed_rt::rngs::StdRng;
//! use zkspeed_rt::SeedableRng;
//! use zkspeed_svc::{Priority, ProvingService, ServiceConfig};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let srs = Arc::new(Srs::try_setup(4, &mut rng, &Serial)?);
//! let service = ProvingService::start(srs, ServiceConfig::default());
//!
//! let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut rng);
//! let digest = service.register_circuit(circuit)?;
//! let job = service.submit(&digest, witness, Priority::Normal)?;
//! let proof_bytes = service.wait(job)?;
//! assert!(Proof::from_bytes(&proof_bytes).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod endpoint;
mod jobs;
mod metrics;
pub mod queue;
mod service;
mod store;
mod sync;
pub mod wire;
mod worker;

pub use metrics::{
    ConnectionMetrics, MsmRollup, PhaseHistograms, ServiceMetrics, SessionLifecycleMetrics,
    SessionMetrics, SupervisionMetrics,
};
pub use service::{JobSpec, ProvingService, ServiceConfig, ServiceError};
pub use store::SessionState;
pub use wire::{JobState, Priority, RejectCode, Request, Response, SessionRow};
