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
//!   JSON emission for the chip configuration dump and the service's
//!   metrics, replacing `serde`;
//! * [`table_enum!`] / [`impl_index_by!`] — an enum declared with its
//!   table, one row beside each variant, and arrays indexed by the enum;
//! * [`pool`] — the pluggable execution [`pool::Backend`] (serial, reusable
//!   std-only worker pool) behind every parallel hot path, replacing
//!   per-call scoped-thread spawning. Work is always split into
//!   deterministic contiguous chunks combined in chunk order, so parallel
//!   runs are bit-identical to serial runs;
//! * [`par`] — the chunk splitting itself and the `ZKSPEED_THREADS` sizing
//!   of [`pool::global`];
//! * [`counters`] — the thread-local modmul counters every field
//!   multiplication records into, which the pool carries across threads;
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

pub mod codec;
pub mod counters;
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

/// Indexes arrays of `$len` values by the fieldless enum `$enum`, whose
/// `$len` variants number them in declaration order: with
/// `impl_index_by!(Step, 5)`, `seconds[Step::Open]` reads `seconds[4]`.
#[macro_export]
macro_rules! impl_index_by {
    ($enum:ty, $len:expr) => {
        impl<T> ::core::ops::Index<$enum> for [T; $len] {
            type Output = T;

            fn index(&self, i: $enum) -> &T {
                &self[i as usize]
            }
        }

        impl<T> ::core::ops::IndexMut<$enum> for [T; $len] {
            fn index_mut(&mut self, i: $enum) -> &mut T {
                &mut self[i as usize]
            }
        }
    };
}

/// Declares a fieldless enum whose variants each carry one row of a table,
/// written beside the variant: the enum gains `ALL`, its variants in
/// declaration order, and `TABLE`, their rows in the same order, and
/// arrays of its length are indexed by it ([`impl_index_by!`]).
///
/// ```
/// zkspeed_rt::table_enum! {
///     /// Two steps, each with its display name.
///     pub enum Step: &'static str {
///         /// The first step.
///         Commit = "Commit",
///         /// The second step.
///         Open = "Open",
///     }
/// }
/// assert_eq!(Step::TABLE[Step::Open as usize], "Open");
/// assert_eq!(Step::ALL.map(|step| [0.5, 2.0][step]), [0.5, 2.0]);
/// ```
#[macro_export]
macro_rules! table_enum {
    (
        $(#[$doc:meta])*
        $vis:vis enum $name:ident: $row:ty {
            $($(#[$variant_doc:meta])* $variant:ident = $value:expr,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
        $vis enum $name {
            $($(#[$variant_doc])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$(stringify!($variant)),*].len()] = [$($name::$variant),*];

            /// Each variant's row, in [`Self::ALL`] order.
            pub const TABLE: [$row; [$(stringify!($variant)),*].len()] = [$($value),*];
        }

        $crate::impl_index_by!($name, [$(stringify!($variant)),*].len());
    };
}

/// `rand`-style module alias so call sites can keep the familiar
/// `use zkspeed_rt::rngs::StdRng;` import shape.
pub mod rngs {
    pub use crate::rng::StdRng;
}
