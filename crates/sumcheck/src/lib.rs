//! SumCheck for the zkSpeed HyperPlonk reproduction.
//!
//! HyperPlonk invokes SumCheck three times — ZeroCheck inside Gate Identity,
//! PermCheck inside Wiring Identity, and OpenCheck inside Polynomial Opening
//! (Equations 3–5 of the zkSpeed paper). All three are sums of scaled
//! products of multilinear polynomials, so this crate provides:
//!
//! * a unified [`prove`] / [`verify`] pair over [`VirtualPolynomial`]s
//!   (mirroring the unified SumCheck PE of Section 4.1.4);
//! * the ZeroCheck wrapper ([`prove_zerocheck`] / [`verify_zerocheck`]) that
//!   masks the polynomial with the Build-MLE `eq(X, r)` factor;
//! * proof rows that carry only what the verifier cannot derive, and the
//!   [`Rows`] codec adapter that writes them with no length prefixes;
//! * the per-round computation ([`round_polynomial`]) structured exactly as
//!   the SumCheck Round PE of Figure 4 (per-MLE extensions, per-term
//!   products, sum of products), which the hardware model costs out.
//!
//! PermCheck and OpenCheck are expressed by the HyperPlonk crate as specific
//! virtual polynomials fed into these same routines.
//!
//! # Examples
//!
//! ```
//! use zkspeed_field::Fr;
//! use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
//! use zkspeed_rt::pool::Serial;
//! use zkspeed_rt::trace::TraceSink;
//! use zkspeed_sumcheck::{prove, verify};
//! use zkspeed_transcript::Transcript;
//!
//! // Prove the hypercube sum of f·g for random tables f, g.
//! let f = MultilinearPoly::new(vec![Fr::from_u64(1); 8]);
//! let g = MultilinearPoly::new(vec![Fr::from_u64(2); 8]);
//! let mut vp = VirtualPolynomial::new(3);
//! let fi = vp.add_mle(f);
//! let gi = vp.add_mle(g);
//! vp.add_term(Fr::one(), vec![fi, gi]);
//! let claim = vp.sum_over_hypercube();
//!
//! // `prove` takes the polynomial and folds the tables it alone holds in
//! // place. This clone shares f and g with `vp`, which the check below
//! // still reads, so the first fold copies them instead.
//! let mut pt = Transcript::new(b"demo");
//! let out = prove(vp.clone(), &mut pt, &Serial, &TraceSink::disabled(), "round");
//! let mut vt = Transcript::new(b"demo");
//! let sub = verify(claim, 3, vp.degree(), &out.proof, &mut vt).unwrap();
//! assert_eq!(sub.expected_evaluation, vp.evaluate(&sub.point));
//! ```
//!
//! [`VirtualPolynomial`]: zkspeed_poly::VirtualPolynomial

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod prover;
mod verifier;
mod zerocheck;

pub use error::SumcheckError;
pub use prover::{
    prove, prove_on, round_polynomial, round_polynomial_on, ProverOutput, Rows, SumcheckProof,
};
pub use verifier::{interpolate_uniform, verify, SubClaim};
pub use zerocheck::{
    mask_with_eq, prove_zerocheck, prove_zerocheck_on, verify_zerocheck, ZerocheckProof,
    ZerocheckProverOutput, ZerocheckSubClaim,
};
