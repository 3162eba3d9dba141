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
//! * **verify** ([`verify_combined_opening`], and [`verify_opening`] for one
//!   commitment) — the algebraic identity the production pairing check
//!   enforces, evaluated in G1 with the retained trapdoor (a documented
//!   substitution: the accelerator models the prover, whose work is
//!   unchanged). An opening of `Σ sᵢ·fᵢ` is checked against the terms
//!   `(sᵢ, Com(fᵢ))` in the same single MSM, with no combined commitment
//!   formed first.
//!
//! # Examples
//!
//! ```
//! use zkspeed_rt::rngs::StdRng;
//! use zkspeed_rt::SeedableRng;
//! use zkspeed_field::{Field, Fr};
//! use zkspeed_pcs::{commit, open, verify_combined_opening, verify_opening, Srs};
//! use zkspeed_poly::MultilinearPoly;
//! use zkspeed_rt::pool::Serial;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let srs = Srs::try_setup(4, &mut rng, &Serial)?;
//! let f = MultilinearPoly::random(4, &mut rng);
//! let (com, _stats) = commit(&Serial, &srs, &f);
//! let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
//! let (value, proof, _stats) = open(&Serial, &srs, &f, &point);
//! assert!(verify_opening(&srs, &com, &point, value, &proof));
//!
//! // An opening of 3·f + 5·g, checked against the two commitments.
//! let g = MultilinearPoly::random(4, &mut rng);
//! let (com_g, _stats) = commit(&Serial, &srs, &g);
//! let (three, five) = (Fr::from_u64(3), Fr::from_u64(5));
//! let h = MultilinearPoly::linear_combination(&[three, five], &[&f, &g]);
//! let (value, proof, _stats) = open(&Serial, &srs, &h, &point);
//! let terms = [(three, com), (five, com_g)];
//! assert!(verify_combined_opening(&srs, &terms, &point, value, &proof));
//! # Ok::<(), zkspeed_pcs::SetupError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commit;
mod open;
mod precompute;
mod srs;

pub use commit::{commit, commit_on, commit_sparse, commit_sparse_on, Commitment};
pub use open::{open, open_on, verify_combined_opening, verify_opening, OpeningProof, Quotients};
pub use precompute::PrecomputeBudget;
pub use srs::{NumVars, SetupError, Srs, MAX_NUM_VARS};
