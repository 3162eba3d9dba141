//! Latency and area models for the non-MSM zkSpeed units: SumCheck, MLE
//! Update, Multifunction Tree, Construct N&D, FracMLE, MLE Combine and SHA3.
//!
//! Every unit follows the same pattern: a configuration struct holding the
//! Table 2 design knobs, an `area_mm2` model derived from its modular
//! multiplier count (the paper's dominant area term), and a cycle model for
//! the work it performs per protocol step. Memory-boundedness is handled by
//! the chip-level scheduler in `zkspeed-core`, which takes the maximum of a
//! unit's compute time and the HBM streaming time for its traffic.

use crate::params::{
    BEEA_LATENCY_CYCLES, MLE_COMBINE_MODMULS_SHARED, MODADD_255_MM2, MODMUL_255_MM2,
    MODMUL_LATENCY_CYCLES, SHA3_PERMUTATION_CYCLES, SHA3_UNIT_MM2, SUMCHECK_PE_MODMULS_SHARED,
};

/// SumCheck unit configuration (Section 4.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SumcheckUnitConfig {
    /// Number of SumCheck Round PEs.
    pub pes: usize,
}

impl Default for SumcheckUnitConfig {
    fn default() -> Self {
        Self { pes: 2 } // Table 5 highlighted design
    }
}

impl SumcheckUnitConfig {
    /// Unit area: each unified PE holds 94 shared modular multipliers
    /// (Section 4.1.4).
    pub fn area_mm2(&self) -> f64 {
        self.pes as f64 * SUMCHECK_PE_MODMULS_SHARED as f64 * MODMUL_255_MM2
    }

    /// Compute cycles for one SumCheck round over `instances` boolean
    /// hypercube instances (each PE retires one instance per cycle once the
    /// pipeline is full, regardless of the polynomial's term structure —
    /// that is what the 94 multipliers buy).
    pub fn round_cycles(&self, instances: usize) -> f64 {
        instances as f64 / self.pes as f64 + MODMUL_LATENCY_CYCLES as f64
    }

    /// Compute cycles for a full `μ`-round SumCheck starting from `2^μ`
    /// table entries (each round halves the instance count).
    pub fn full_sumcheck_cycles(&self, num_vars: usize) -> f64 {
        (0..num_vars)
            .map(|round| self.round_cycles(1usize << (num_vars - 1 - round)))
            .sum()
    }
}

/// MLE Update unit configuration (Eq. 2 applied between SumCheck rounds).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MleUpdateUnitConfig {
    /// Number of MLE Update PEs (each handles one MLE table at a time).
    pub pes: usize,
    /// Modular multipliers per PE.
    pub modmuls_per_pe: usize,
}

impl Default for MleUpdateUnitConfig {
    fn default() -> Self {
        Self {
            pes: 11,
            modmuls_per_pe: 4,
        } // Table 5 highlighted design
    }
}

impl MleUpdateUnitConfig {
    /// Unit area (multiplier dominated).
    pub fn area_mm2(&self) -> f64 {
        (self.pes * self.modmuls_per_pe) as f64 * MODMUL_255_MM2
    }

    /// Cycles to update `tables` MLE tables of `entries` entries each
    /// (one multiplication per output entry, Eq. 2).
    pub fn update_cycles(&self, tables: usize, entries: usize) -> f64 {
        let total_muls = (tables * entries / 2) as f64;
        let throughput = (self.pes * self.modmuls_per_pe) as f64;
        total_muls / throughput + MODMUL_LATENCY_CYCLES as f64
    }
}

/// Multifunction Tree unit configuration (Section 4.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MtuConfig {
    /// Number of leaf-level PEs (`p` inputs are consumed per cycle).
    pub leaf_pes: usize,
}

impl Default for MtuConfig {
    fn default() -> Self {
        Self { leaf_pes: 32 }
    }
}

impl MtuConfig {
    /// Total PEs in the hardware tree (a `p`-leaf binary tree has `2p − 1`
    /// nodes, each a modular multiplier + adder).
    pub fn total_pes(&self) -> usize {
        2 * self.leaf_pes - 1
    }

    /// Unit area.
    pub fn area_mm2(&self) -> f64 {
        self.total_pes() as f64 * (MODMUL_255_MM2 + MODADD_255_MM2) * 1.15 // accumulator + RF
    }

    /// Cycles to run one tree pass (Build MLE, MLE Evaluate or Product MLE)
    /// over `2^μ` elements with the hybrid DFS/BFS traversal: the unit
    /// consumes/produces `leaf_pes` elements per cycle with >99% utilization,
    /// plus a small drain for the accumulator-handled upper levels.
    pub fn tree_pass_cycles(&self, num_vars: usize) -> f64 {
        let n = (1u64 << num_vars) as f64;
        n / self.leaf_pes as f64 + (num_vars as f64) * 8.0
    }

    /// PE utilization during a tree pass (Figure 6 discussion: >99% for 2^20
    /// workloads).
    pub fn utilization(&self, num_vars: usize) -> f64 {
        let ideal = (1u64 << num_vars) as f64 / self.leaf_pes as f64;
        ideal / self.tree_pass_cycles(num_vars)
    }

    /// Area that would be required if Build MLE, MLE Evaluate and Product
    /// MLE each had a dedicated unit instead of sharing this one (Section
    /// 4.3.3 reports 41.6% savings from multi-function reuse).
    pub fn unshared_area_mm2(&self) -> f64 {
        self.area_mm2() / (1.0 - 0.416)
    }
}

/// FracMLE unit configuration (Section 4.4): batched modular inversion.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FracMleConfig {
    /// Number of FracMLE PEs (Table 2: 1, 2 or 4).
    pub pes: usize,
    /// Montgomery-batching batch size `b` (64 in the paper).
    pub batch_size: usize,
}

impl Default for FracMleConfig {
    fn default() -> Self {
        Self {
            pes: 1,
            batch_size: 64,
        }
    }
}

impl FracMleConfig {
    /// Latency of the inversion path for one batch: the shared multiplier
    /// tree (`log₂ b` levels) followed by one constant-time BEEA inversion.
    pub fn inversion_path_cycles(&self) -> f64 {
        BEEA_LATENCY_CYCLES as f64
            + (self.batch_size.max(2) as f64).log2().ceil() * MODMUL_LATENCY_CYCLES as f64
    }

    /// Latency of the partial-product path for one batch (sequential
    /// multiplications overlapped with the inversion).
    pub fn partial_product_path_cycles(&self) -> f64 {
        self.batch_size as f64 * MODMUL_LATENCY_CYCLES as f64 / 4.0
    }

    /// The latency imbalance the paper optimizes in Figure 8.
    pub fn latency_imbalance_cycles(&self) -> f64 {
        (self.inversion_path_cycles() - self.partial_product_path_cycles()).abs()
    }

    /// Number of batched-inverse engines needed so the unit accepts one
    /// element per cycle (one new batch every `b` cycles must hide the full
    /// inversion path).
    pub fn num_inverse_engines(&self) -> usize {
        (self.inversion_path_cycles() / self.batch_size as f64).ceil() as usize
    }

    /// Stand-alone unit area as plotted in Figure 8 (inverse engines +
    /// shared multiplier tree + per-batch partial-product storage), not
    /// counting chip-level reuse.
    pub fn standalone_area_mm2(&self) -> f64 {
        let engine_area = 0.22; // BEEA shifters/subtractors + control
        let sram_mm2_per_batch = self.batch_size as f64 * 32.0 / (1 << 20) as f64 * 4.0;
        let tree_area = (self.batch_size.saturating_sub(1)) as f64 * MODMUL_255_MM2;
        self.num_inverse_engines() as f64
            * (engine_area + sram_mm2_per_batch + 2.0 * MODMUL_255_MM2)
            + tree_area
    }

    /// Area charged to the FracMLE unit inside the full chip, where the
    /// multiplier tree is shared with the Multifunction Tree unit (Table 5
    /// reports 1.92 mm² for one PE).
    pub fn area_mm2(&self) -> f64 {
        let engine_area = 0.12;
        self.pes as f64 * self.num_inverse_engines() as f64 * engine_area
            + self.pes as f64 * 2.0 * MODMUL_255_MM2
    }

    /// Cycles to produce `n` fraction elements: the unit is a pipeline with
    /// one output per cycle per PE once full.
    pub fn fraction_cycles(&self, n: usize) -> f64 {
        n as f64 / self.pes as f64
            + self.inversion_path_cycles()
            + self.partial_product_path_cycles()
    }
}

/// Construct N&D unit (Section 4.4.1): six multiply-add streams.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct ConstructNdConfig;

impl ConstructNdConfig {
    /// Unit area (Table 5: 1.35 mm² ≈ 10 multipliers).
    pub fn area_mm2(&self) -> f64 {
        10.0 * MODMUL_255_MM2
    }

    /// Cycles to construct the six intermediate MLEs plus the N and D
    /// products for `n` gates: the unit streams one index per cycle
    /// (10 modmuls per index: 6 for `β·id/σ`, 4 for the two triple products).
    pub fn construct_cycles(&self, n: usize) -> f64 {
        n as f64 + MODMUL_LATENCY_CYCLES as f64
    }
}

/// MLE Combine unit (Section 4.5): linear combinations of MLEs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct MleCombineConfig;

impl MleCombineConfig {
    /// Unit area with resource sharing (72 multipliers, Table 5: 9.56 mm²).
    pub fn area_mm2(&self) -> f64 {
        MLE_COMBINE_MODMULS_SHARED as f64 * MODMUL_255_MM2
    }

    /// Cycles to combine `tables` MLEs of `entries` entries each into one
    /// output (one multiply-accumulate per input element, spread over the
    /// shared multipliers).
    pub fn combine_cycles(&self, tables: usize, entries: usize) -> f64 {
        (tables * entries) as f64 / MLE_COMBINE_MODMULS_SHARED as f64 + MODMUL_LATENCY_CYCLES as f64
    }
}

/// SHA3 transcript unit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct Sha3UnitConfig;

impl Sha3UnitConfig {
    /// Unit area (OpenCores IP, Section 7.3.1).
    pub fn area_mm2(&self) -> f64 {
        SHA3_UNIT_MM2
    }

    /// Cycles to absorb `bytes` of transcript data (136-byte SHA3-256 rate,
    /// one permutation per rate block).
    pub fn hash_cycles(&self, bytes: u64) -> f64 {
        self.permutation_cycles(bytes.div_ceil(136).max(1))
    }

    /// Cycles for `permutations` Keccak-f\[1600\] invocations (24 cycles
    /// each on the OpenCores core). The functional layer counts real
    /// permutations (`Sha3_256::permutation_count`, and the in-circuit
    /// Keccak workloads), so measured counts can drive the unit directly
    /// instead of going through a byte estimate.
    pub fn permutation_cycles(&self, permutations: u64) -> f64 {
        (permutations * SHA3_PERMUTATION_CYCLES) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sumcheck_area_matches_table5() {
        let cfg = SumcheckUnitConfig { pes: 2 };
        let area = cfg.area_mm2();
        assert!((area - 24.96).abs() < 0.1, "area {area}");
        // Rounds halve in cost; the full run costs ≈ 2× the first round.
        let first = cfg.round_cycles(1 << 19);
        let full = cfg.full_sumcheck_cycles(20);
        assert!(full > 1.8 * first && full < 2.5 * first);
    }

    #[test]
    fn mle_update_area_matches_table5() {
        let cfg = MleUpdateUnitConfig::default();
        let area = cfg.area_mm2();
        assert!((area - 5.852).abs() < 0.1, "area {area}");
        assert!(cfg.update_cycles(9, 1 << 20) > cfg.update_cycles(9, 1 << 16));
    }

    #[test]
    fn mtu_area_and_utilization() {
        let cfg = MtuConfig::default();
        let area = cfg.area_mm2();
        assert!(area > 9.0 && area < 14.0, "area {area}");
        // >99% utilization at 2^20 (Section 4.3.3).
        assert!(cfg.utilization(20) > 0.99);
        // Small problems cannot hide the accumulator drain.
        assert!(cfg.utilization(8) < 0.99);
        // Multi-function sharing saves 41.6% against dedicated units.
        assert!(cfg.unshared_area_mm2() > cfg.area_mm2() / 0.6);
    }

    #[test]
    fn fracmle_optimum_is_at_batch_64() {
        // Both the latency imbalance and the stand-alone area of Figure 8
        // should be minimized at (or very near) b = 64.
        let batches: Vec<usize> = (1..=8).map(|k| 1usize << k).collect();
        let imbalances: Vec<f64> = batches
            .iter()
            .map(|b| {
                FracMleConfig {
                    pes: 1,
                    batch_size: *b,
                }
                .latency_imbalance_cycles()
            })
            .collect();
        let areas: Vec<f64> = batches
            .iter()
            .map(|b| {
                FracMleConfig {
                    pes: 1,
                    batch_size: *b,
                }
                .standalone_area_mm2()
            })
            .collect();
        let best_imbalance = batches[imbalances
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0];
        let best_area = batches[areas
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0];
        assert!(
            (32..=128).contains(&best_imbalance),
            "imbalance optimum at {best_imbalance}"
        );
        assert!(
            (32..=128).contains(&best_area),
            "area optimum at {best_area}"
        );
        // Paper: 256 engines at b = 2 versus ~12 at b = 64.
        let engines_b2 = FracMleConfig {
            pes: 1,
            batch_size: 2,
        }
        .num_inverse_engines();
        let engines_b64 = FracMleConfig {
            pes: 1,
            batch_size: 64,
        }
        .num_inverse_engines();
        assert!(engines_b2 > 200, "engines at b=2: {engines_b2}");
        assert!(
            (8..=16).contains(&engines_b64),
            "engines at b=64: {engines_b64}"
        );
    }

    #[test]
    fn small_unit_areas_match_table5() {
        assert!((ConstructNdConfig.area_mm2() - 1.33).abs() < 0.1);
        assert!((MleCombineConfig.area_mm2() - 9.576).abs() < 0.1);
        assert!(Sha3UnitConfig.area_mm2() < 0.01);
        assert!(Sha3UnitConfig.hash_cycles(1) >= 24.0);
        assert!(Sha3UnitConfig.hash_cycles(1000) > Sha3UnitConfig.hash_cycles(100));
        // Byte-based and permutation-count-based accounting agree.
        assert_eq!(
            Sha3UnitConfig.hash_cycles(136 * 7),
            Sha3UnitConfig.permutation_cycles(7)
        );
        assert!(ConstructNdConfig.construct_cycles(1 << 20) >= (1 << 20) as f64);
        assert!(MleCombineConfig.combine_cycles(13, 1 << 20) > 0.0);
    }

    #[test]
    fn fracmle_chip_area_is_small() {
        let cfg = FracMleConfig::default();
        let area = cfg.area_mm2();
        assert!(area > 0.5 && area < 3.0, "area {area}");
        assert!(cfg.fraction_cycles(1 << 20) >= (1 << 20) as f64);
    }
}

zkspeed_rt::impl_to_json_struct!(SumcheckUnitConfig { pes });
zkspeed_rt::impl_to_json_struct!(MleUpdateUnitConfig {
    pes,
    modmuls_per_pe
});
zkspeed_rt::impl_to_json_struct!(MtuConfig { leaf_pes });
zkspeed_rt::impl_to_json_struct!(FracMleConfig { pes, batch_size });
zkspeed_rt::impl_to_json_struct!(ConstructNdConfig {});
zkspeed_rt::impl_to_json_struct!(MleCombineConfig {});
zkspeed_rt::impl_to_json_struct!(Sha3UnitConfig {});
