//! The CPU baseline cost model.
//!
//! The paper's baseline is the arkworks HyperPlonk library on a 32-core AMD
//! EPYC 7502 (296 mm² of core area). This module provides an analytical model
//! of that baseline, anchored to the end-to-end runtimes the paper publishes
//! (Table 3, problem sizes 2^17–2^23) and to the per-kernel breakdown of
//! Figure 12a. Between anchors the model interpolates per-gate cost; outside
//! them it extrapolates with the nearest per-gate cost (HyperPlonk is an
//! `O(n)` prover, so per-gate cost is nearly flat).
//!
//! The functional Rust prover in `zkspeed-hyperplonk` provides a second,
//! measured baseline at small sizes; `zkspeed-bench` compares the two.
//!
//! Drift between the two: the anchors are arkworks' 255-bit Pippenger MSMs,
//! while the functional prover's MSMs run over the GLV endomorphism (two
//! 128-bit halves per scalar, half the windows), so its MSM kernels come in
//! below this model at the same size. No constant here accounts for that.

use zkspeed_hyperplonk::Kernel as Table1;

use crate::chip::Kernel;

/// Table 3 anchors: (μ, end-to-end CPU milliseconds).
const ANCHORS: [(usize, f64); 5] = [
    (17, 1429.0),
    (20, 8619.0),
    (21, 18637.0),
    (22, 37469.0),
    (23, 74052.0),
];

/// Figure 12a: the CPU's runtime share per kernel at 2^20 gates, each row
/// with its label, the Table 1 kernels it covers and the Figure 14
/// [`Kernel`] it folds into. All MLE Updates is in no row: it is spread over
/// the three SumCheck shares. The shares sum to 0.999; the rest is glue.
#[rustfmt::skip]
pub const FIG12A_SHARES: [(&str, f64, &[Table1], Kernel); 9] = [
    ("Sparse MSMs", 0.088, &[Table1::WitnessMsm], Kernel::WitnessMsm),
    ("Gate Identity", 0.056, &[Table1::ZeroCheck], Kernel::ZeroCheck),
    ("Create PermCheck MLEs", 0.012,
        &[Table1::ConstructNd, Table1::FractionMle, Table1::ProductMle], Kernel::PermCheck),
    ("PermCheck dense MSMs", 0.436, &[Table1::WiringMsm], Kernel::WiringMsm),
    ("PermCheck", 0.062, &[Table1::PermCheck], Kernel::PermCheck),
    ("Batch Evals", 0.025, &[Table1::BatchEval], Kernel::FinalEval),
    ("MLE Combine", 0.033, &[Table1::LinearCombine], Kernel::FinalEval),
    ("OpenCheck", 0.041, &[Table1::OpenCheck], Kernel::OpenCheck),
    ("PolyOpen dense MSMs", 0.246, &[Table1::OpeningMsm], Kernel::PolyOpenMsm),
];

/// The calibrated CPU baseline model.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CpuModel;

impl CpuModel {
    /// End-to-end CPU proving time in seconds for `2^num_vars` gates.
    pub fn total_seconds(num_vars: usize) -> f64 {
        let n = (1u64 << num_vars) as f64;
        // Per-gate microseconds at each anchor, interpolated in μ.
        let per_gate = |mu: usize, ms: f64| ms * 1e-3 / (1u64 << mu) as f64;
        if num_vars <= ANCHORS[0].0 {
            return per_gate(ANCHORS[0].0, ANCHORS[0].1) * n;
        }
        if num_vars >= ANCHORS[ANCHORS.len() - 1].0 {
            let (mu, ms) = ANCHORS[ANCHORS.len() - 1];
            return per_gate(mu, ms) * n;
        }
        // Linear interpolation of per-gate cost between the bracketing
        // anchors.
        let mut lo = ANCHORS[0];
        let mut hi = ANCHORS[ANCHORS.len() - 1];
        for window in ANCHORS.windows(2) {
            if window[0].0 <= num_vars && num_vars <= window[1].0 {
                lo = window[0];
                hi = window[1];
                break;
            }
        }
        let t = (num_vars - lo.0) as f64 / (hi.0 - lo.0) as f64;
        let pg = per_gate(lo.0, lo.1) * (1.0 - t) + per_gate(hi.0, hi.1) * t;
        pg * n
    }

    /// Per-kernel CPU times in seconds for `2^num_vars` gates, indexed by
    /// [`Kernel`]: the end-to-end time split by [`FIG12A_SHARES`].
    pub fn kernel_seconds(num_vars: usize) -> [f64; 7] {
        let mut shares = [0.0; 7];
        for (_, share, _, kernel) in FIG12A_SHARES {
            shares[kernel] += share;
        }
        let total = Self::total_seconds(num_vars);
        shares.map(|share| total * share)
    }

    /// The CPU die's core area in mm² (used for the iso-area comparison).
    pub const CORE_AREA_MM2: f64 = 296.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_reproduced() {
        for (mu, ms) in ANCHORS {
            let model = CpuModel::total_seconds(mu) * 1e3;
            assert!(
                (model - ms).abs() / ms < 0.01,
                "μ = {mu}: model {model} vs paper {ms}"
            );
        }
    }

    #[test]
    fn interpolation_is_monotone() {
        let mut prev = 0.0;
        for mu in 15..=25 {
            let t = CpuModel::total_seconds(mu);
            assert!(t > prev, "μ = {mu}");
            prev = t;
        }
        // Doubling the problem size roughly doubles the runtime.
        let r = CpuModel::total_seconds(22) / CpuModel::total_seconds(21);
        assert!(r > 1.8 && r < 2.3, "ratio {r}");
    }

    #[test]
    fn kernel_shares_sum_to_one() {
        let shares: f64 = FIG12A_SHARES.iter().map(|(_, share, _, _)| share).sum();
        assert!((shares - 0.999).abs() < 0.01, "{shares}");
        let total = CpuModel::total_seconds(20);
        let kernels = CpuModel::kernel_seconds(20);
        assert!((kernels.iter().sum::<f64>() - shares * total).abs() < 1e-6);
        // MSMs dominate the CPU runtime (the paper's key observation).
        let msm_time: f64 = Kernel::MSMS.map(|k| kernels[k]).iter().sum();
        assert!(msm_time / total > 0.7);
    }

    #[test]
    fn every_table1_kernel_but_the_mle_updates_is_in_one_share() {
        for kernel in Table1::ALL {
            let rows = FIG12A_SHARES
                .iter()
                .filter(|(_, _, covers, _)| covers.contains(&kernel))
                .count();
            let expected = usize::from(kernel != Table1::MleUpdate);
            assert_eq!(rows, expected, "{}", kernel.label());
        }
    }
}
