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
//! * [`ProvingService`] — the session registry (keyed by circuit digest),
//!   shard workers that pack queued jobs into `prove_batch` waves on
//!   disjoint backend pools, and the in-process wire endpoint
//!   ([`ProvingService::handle_frame`]). Shard workers run under a
//!   supervisor: a panicking wave fails only that wave's jobs, the dead
//!   worker is respawned within a bounded restart budget, and every job
//!   carries a deadline ([`JobSpec`]) so no waiter blocks forever. Session
//!   lifecycle is fleet-scale: LRU eviction bounds the provisioned working
//!   set ([`ServiceConfig::session_capacity`]) and evicted sessions
//!   transparently re-provision on re-registration;
//! * [`ServiceMetrics`] — queue depth, wave occupancy, per-session and
//!   per-phase latency histograms ([`PhaseHistograms`]), per-class queue-wait
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

mod metrics;
pub mod queue;
mod service;
mod store;
mod sync;
pub mod wire;

pub use metrics::{
    ConnectionMetrics, MsmRollup, PhaseHistograms, ServiceMetrics, SessionLifecycleMetrics,
    SessionMetrics, SupervisionMetrics,
};
pub use service::{JobSpec, ProvingService, ServiceConfig, ServiceError};
pub use store::{SessionInfo, SessionState};
pub use wire::{
    JobState, Priority, RejectCode, Request, Response, SessionRow, KIND_REQUEST, KIND_RESPONSE,
};
