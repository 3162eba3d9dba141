//! Multilinear polynomial commitment scheme for the zkSpeed HyperPlonk
//! reproduction.
//!
//! The scheme follows the multilinear-KZG structure HyperPlonk uses:
//!
//! * **universal setup** ([`Srs::try_setup`]) — one ceremony, reusable by every
//!   circuit up to the maximum size;
//! * **commit** ([`commit`], [`commit_sparse`]) — one MSM per polynomial
//!   (dense Pippenger, or the Sparse MSM of the Witness Commit step);
//! * **open** ([`open`]) — the halving MSM sequence (`2^{μ−1}`, `2^{μ−2}`, …,
//!   1-point MSMs) of the Polynomial Opening step;
//! * **verify** ([`verify_opening`]) — the algebraic identity the production
//!   pairing check enforces, evaluated in G1 with the retained trapdoor (a
//!   documented substitution: the accelerator models the prover, whose work
//!   is unchanged).
//!
//! # Examples
//!
//! ```
//! use zkspeed_rt::rngs::StdRng;
//! use zkspeed_rt::SeedableRng;
//! use zkspeed_field::{Field, Fr};
//! use zkspeed_pcs::{commit, open, verify_opening, Srs};
//! use zkspeed_poly::MultilinearPoly;
//! use zkspeed_rt::pool::Serial;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let srs = Srs::try_setup(4, &mut rng, &Serial)?;
//! let f = MultilinearPoly::random(4, &mut rng);
//! let (com, _stats) = commit(&Serial, &srs, &f, None);
//! let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
//! let (value, proof, _stats) = open(&Serial, &srs, &f, &point, None);
//! assert!(verify_opening(&srs, &com, &point, value, &proof));
//! # Ok::<(), zkspeed_pcs::SetupError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commit;
mod open;
mod precompute;
mod srs;

pub use commit::{commit, commit_on, commit_sparse, commit_sparse_on, Commitment};
pub use open::{open, open_on, verify_opening, OpeningProof};
pub use precompute::{CommitTables, PrecomputeBudget};
pub use srs::{SetupError, Srs, KIND_SRS, MAX_NUM_VARS};
