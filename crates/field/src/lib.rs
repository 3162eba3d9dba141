//! BLS12-381 prime-field arithmetic for the zkSpeed HyperPlonk reproduction.
//!
//! HyperPlonk's prover computes exclusively over two prime fields:
//!
//! * [`Fr`], the 255-bit scalar field — the datatype of every MLE table
//!   entry, SumCheck evaluation, permutation/fraction polynomial and MSM
//!   scalar;
//! * [`Fq`], the 381-bit base field — the coordinate field of the BLS12-381
//!   G1 points added inside the MSM (point addition, PADD) kernels.
//!
//! Elements are held in Montgomery form, so every field multiplication is a
//! single Montgomery multiplication. This is precisely the operation the
//! zkSpeed paper counts as a "modmul" when sizing its accelerator units
//! (Table 1, Table 4), which lets the prover of this repository count its
//! modmuls by construction rather than by estimate.
//!
//! # Examples
//!
//! ```
//! use zkspeed_field::{batch_invert, Field, Fr};
//!
//! // Fraction-MLE style computation: invert a batch of denominators.
//! let mut denominators: Vec<Fr> = (1..=8u64).map(Fr::from_u64).collect();
//! batch_invert(&mut denominators);
//! assert_eq!(denominators[3] * Fr::from_u64(4), Fr::one());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod arith;
mod fq;
mod fr;
mod inverse;
#[cfg(test)]
mod kernel_tests;
mod montgomery;
mod traits;

pub use fq::Fq;
pub use fr::Fr;
pub use traits::{batch_invert, Field};

// The modmul counters live beside the pool that carries them across
// threads; `counters::record` is what `impl_montgomery_field!` calls.
pub use zkspeed_rt::counters::{self, *};
