//! `zkspeed-net` — the TCP transport in front of the proving service.
//!
//! [`zkspeed_svc::ProvingService`] is socket-ready (framed, versioned,
//! bounds-checked wire protocol) but transport-agnostic; this crate puts a
//! real listener in front of it, std-only:
//!
//! * [`NetServer`] — a thread-per-connection TCP server. Every connection
//!   must open with a `Hello` frame carrying the auth token; a mismatch
//!   answers `Rejected`/`BadAuth` and closes. A connection cap forms a
//!   second backpressure tier above the job queue (over-cap connects get
//!   `Rejected`/`OverCapacity` then close), idle connections are reaped by
//!   a per-connection read timeout, and shutdown drains gracefully: stop
//!   accepting, finish in-flight jobs, leave a grace window for clients to
//!   collect their `ProofReady` responses, then join every thread.
//! * [`NetClient`] — a blocking client: connect/auth/submit/poll/metrics
//!   with I/O timeouts, bounded reconnect on transient connect errors and
//!   bounded backoff-retry on retryable `Rejected` codes (queue or
//!   connection backpressure).
//!
//! Framing reuses [`zkspeed_rt::codec`] end to end — the same bytes the
//! in-process endpoint [`zkspeed_svc::ProvingService::handle_frame`]
//! consumes travel over the socket, read back through the split-tolerant
//! [`zkspeed_rt::codec::FrameReader`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use zkspeed_rt::pool::Serial;
//! use zkspeed_rt::rngs::StdRng;
//! use zkspeed_rt::SeedableRng;
//! use zkspeed_svc::{ProvingService, ServiceConfig};
//! use zkspeed_net::{ClientConfig, NetClient, NetServer, ServerConfig};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let srs = Arc::new(zkspeed_pcs::Srs::try_setup(4, &mut rng, &Serial)?);
//! let service = ProvingService::start(srs, ServiceConfig::default());
//! let server = NetServer::bind(
//!     service,
//!     ServerConfig::new("127.0.0.1:0").with_auth_token(b"token"),
//! )?;
//! let addr = server.local_addr();
//!
//! let mut client = NetClient::connect(addr, b"token", ClientConfig::default())?;
//! let json = client.metrics()?;
//! assert!(json.contains("proofs_per_second"));
//! drop(client);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod error;
mod server;

pub use client::{ClientConfig, NetClient};
pub use error::NetError;
pub use server::{NetServer, ServerConfig};
