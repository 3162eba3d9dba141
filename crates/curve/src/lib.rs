//! BLS12-381 G1 group arithmetic and multi-scalar multiplication for the
//! zkSpeed HyperPlonk reproduction.
//!
//! HyperPlonk commits to every MLE table with an MSM over BLS12-381 G1, and
//! the zkSpeed paper identifies these MSMs as the single largest consumer of
//! compute (Table 1) and of chip area (64.6% of compute area in the
//! highlighted design). This crate provides the functional counterpart of
//! that MSM unit:
//!
//! * [`G1Affine`] / [`G1Projective`] — the group, with complete full and
//!   mixed addition formulas (the PADD datapath);
//! * [`msm`] / [`msm_with_config_on`] — Pippenger's algorithm over the GLV
//!   endomorphism (128-bit scalar halves over the points and their images),
//!   with configurable window size, signed-digit recoding, and streaming
//!   batch-affine bucket accumulation and aggregation (the chip's 255-bit
//!   unit and its grouped aggregation schedule, Fig. 5 of the paper, are
//!   modelled in `zkspeed_hw`) — see [`MsmConfig`];
//! * [`sparse_msm`] — the Sparse MSM used by the Witness Commit step;
//! * [`msm_precomputed`] / [`sparse_msm_precomputed`] — both over a
//!   [`MultiBaseTable`] of fixed bases, with no window doublings;
//! * [`MsmStats`] — per-addition-kind operation counters consumed by the
//!   hardware cost model.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use zkspeed_curve::{msm, G1Affine, G1Projective};
//! use zkspeed_field::{Field, Fr};
//! use zkspeed_rt::pool::Serial;
//! use zkspeed_rt::rngs::StdRng;
//! use zkspeed_rt::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let points: Vec<G1Affine> = (0..8)
//!     .map(|_| G1Projective::random(&mut rng).to_affine())
//!     .collect();
//! let scalars: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
//! let (commitment, _stats) = msm(&Serial, &Arc::new(points), &scalars);
//! assert!(commitment.is_on_curve());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixed_base;
mod g1;
mod msm;
mod multi_base;

pub use fixed_base::{FixedBaseTable, FIXED_BASE_DEFAULT_WINDOW_BITS};
pub use g1::{
    G1Affine, G1Projective, BATCH_AFFINE_ADD_FQ_MULS, G1_ENCODED_BYTES, PADD_FQ_MULS,
    PADD_MIXED_FQ_MULS, PDBL_FQ_MULS,
};
pub use msm::{
    auto_window_bits, msm, msm_precomputed, msm_with_config_on, naive_msm, sparse_msm,
    sparse_msm_on, sparse_msm_precomputed, MsmConfig, MsmStats, SparseMsmStats,
    BATCH_AFFINE_DEFAULT_MIN_POINTS,
};
pub use multi_base::{MultiBaseTable, MULTI_BASE_DEFAULT_WINDOW_BITS};
