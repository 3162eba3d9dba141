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

/// Table 3 anchors: (μ, end-to-end CPU milliseconds).
const ANCHORS: [(usize, f64); 5] = [
    (17, 1429.0),
    (20, 8619.0),
    (21, 18637.0),
    (22, 37469.0),
    (23, 74052.0),
];

/// Figure 12a: CPU runtime share per kernel at 2^20 gates.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CpuKernelShares {
    /// Sparse (witness) MSMs.
    pub sparse_msms: f64,
    /// Gate Identity (ZeroCheck).
    pub gate_identity: f64,
    /// Creation of the PermCheck MLEs (Construct N&D, FracMLE, ProdMLE).
    pub create_permcheck_mles: f64,
    /// PermCheck dense MSMs (φ and π commitments).
    pub permcheck_dense_msms: f64,
    /// PermCheck SumCheck rounds.
    pub permcheck: f64,
    /// Batch evaluations.
    pub batch_evals: f64,
    /// MLE Combine.
    pub mle_combine: f64,
    /// OpenCheck SumCheck rounds.
    pub opencheck: f64,
    /// Polynomial-opening dense MSMs.
    pub polyopen_dense_msms: f64,
}

impl CpuKernelShares {
    /// The Figure 12a breakdown.
    pub fn paper() -> Self {
        Self {
            sparse_msms: 0.088,
            gate_identity: 0.056,
            create_permcheck_mles: 0.012,
            permcheck_dense_msms: 0.436,
            permcheck: 0.062,
            batch_evals: 0.025,
            mle_combine: 0.033,
            opencheck: 0.041,
            polyopen_dense_msms: 0.246,
        }
    }

    /// Sum of the shares (≈ 1.0, the remainder is miscellaneous glue).
    pub fn total(&self) -> f64 {
        self.sparse_msms
            + self.gate_identity
            + self.create_permcheck_mles
            + self.permcheck_dense_msms
            + self.permcheck
            + self.batch_evals
            + self.mle_combine
            + self.opencheck
            + self.polyopen_dense_msms
    }
}

/// Per-kernel CPU times in seconds (Figure 14 kernel grouping).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct CpuKernelSeconds {
    pub witness_msm: f64,
    pub wiring_msm: f64,
    pub polyopen_msm: f64,
    pub zerocheck: f64,
    pub permcheck: f64,
    pub opencheck: f64,
    pub other: f64,
}

impl CpuKernelSeconds {
    /// Total CPU proving time.
    pub fn total(&self) -> f64 {
        self.witness_msm
            + self.wiring_msm
            + self.polyopen_msm
            + self.zerocheck
            + self.permcheck
            + self.opencheck
            + self.other
    }
}

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

    /// Per-kernel CPU times (Figure 14 grouping) for `2^num_vars` gates,
    /// applying the Figure 12a shares to the end-to-end time.
    pub fn kernel_seconds(num_vars: usize) -> CpuKernelSeconds {
        let total = Self::total_seconds(num_vars);
        let s = CpuKernelShares::paper();
        CpuKernelSeconds {
            witness_msm: total * s.sparse_msms,
            wiring_msm: total * s.permcheck_dense_msms,
            polyopen_msm: total * s.polyopen_dense_msms,
            zerocheck: total * s.gate_identity,
            permcheck: total * (s.permcheck + s.create_permcheck_mles),
            opencheck: total * s.opencheck,
            other: total * (s.batch_evals + s.mle_combine) + total * (1.0 - s.total()),
        }
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
        let shares = CpuKernelShares::paper();
        assert!((shares.total() - 0.999).abs() < 0.01, "{}", shares.total());
        let kernels = CpuModel::kernel_seconds(20);
        assert!((kernels.total() - CpuModel::total_seconds(20)).abs() < 1e-6);
        // MSMs dominate the CPU runtime (the paper's key observation).
        let msm_time = kernels.witness_msm + kernels.wiring_msm + kernels.polyopen_msm;
        assert!(msm_time / kernels.total() > 0.7);
    }
}

zkspeed_rt::impl_to_json_struct!(CpuKernelShares {
    sparse_msms,
    gate_identity,
    create_permcheck_mles,
    permcheck_dense_msms,
    permcheck,
    batch_evals,
    mle_combine,
    opencheck,
    polyopen_dense_msms,
});
zkspeed_rt::impl_to_json_struct!(CpuKernelSeconds {
    witness_msm,
    wiring_msm,
    polyopen_msm,
    zerocheck,
    permcheck,
    opencheck,
    other,
});
zkspeed_rt::impl_to_json_struct!(CpuModel {});
