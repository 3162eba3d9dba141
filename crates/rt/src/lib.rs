//! Runtime substrate for the zkSpeed workspace.
//!
//! The build environment for this repository has no access to crates.io, so
//! everything the other `zkspeed-*` crates would normally pull from external
//! dependencies lives here, implemented from scratch on top of `std`:
//!
//! * [`keccak_f1600`] / [`Sha3_256`] — the Keccak permutation and SHA3-256
//!   (FIPS 202), shared by the Fiat–Shamir transcript and the PRNG;
//! * [`StdRng`] / [`Rng`] / [`SeedableRng`] — a deterministic,
//!   `rand`-compatible PRNG facade backed by the SHA3 XOF (SHAKE-style
//!   squeezing), so every test, example and benchmark is reproducible from a
//!   single `u64` seed;
//! * [`JsonValue`] / [`ToJson`] — hand-rolled, stable (insertion-ordered)
//!   JSON emission for the hardware-model report structs, replacing `serde`;
//! * [`bench::Harness`] — a minimal warmup + median-of-N benchmark harness
//!   with JSON output and per-suite history files, replacing `criterion`;
//! * [`pool`] — the pluggable execution [`pool::Backend`] (serial, reusable
//!   std-only worker pool) behind every parallel hot path, replacing
//!   per-call scoped-thread spawning. Work is always split into
//!   deterministic contiguous chunks combined in chunk order, so parallel
//!   runs are bit-identical to serial runs;
//! * [`par`] — the chunk splitting itself and the `ZKSPEED_THREADS` sizing
//!   of [`pool::global`];
//! * [`codec`] — the canonical byte-encoding substrate (magic + version
//!   headers, bounds-checked reads, structured [`codec::DecodeError`]) used
//!   by proof / key / SRS serialization;
//! * [`faults`] — the deterministic fault-injection plan (`ZKSPEED_FAULTS`)
//!   consulted by the proving service's shard workers and the TCP server
//!   when chaos-testing the stack's failure paths;
//! * [`trace`] — the structured tracing/profiling substrate: a
//!   thread-aware span recorder ([`trace::TraceSink`]) exporting Chrome
//!   trace-event JSON, and a mergeable log-bucketed latency
//!   [`trace::Histogram`] behind the service's phase-level metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod codec;
pub mod faults;
mod json;
mod keccak;
pub mod par;
pub mod pool;
mod rng;
pub mod trace;

pub use json::{JsonValue, ToJson};
pub use keccak::{
    keccak_f1600, keccak_f1600_rounds, Sha3_256, KECCAK_ROUND_CONSTANTS, SHA3_256_RATE,
};
pub use rng::{FromRng, Rng, SampleUniform, SeedableRng, StdRng};

/// `rand`-style module alias so call sites can keep the familiar
/// `use zkspeed_rt::rngs::StdRng;` import shape.
pub mod rngs {
    pub use crate::rng::StdRng;
}
