//! Technology and calibration constants for the zkSpeed hardware model.
//!
//! All constants are taken from, or calibrated against, the numbers the paper
//! publishes: modular-multiplier areas and the 22 nm → 7 nm scaling factors
//! (Section 6.1), HBM PHY areas (Section 7.1), and the per-unit area/power
//! breakdown of the highlighted design (Table 5).

/// Accelerator clock frequency in Hz (the paper clocks all units at 1 GHz
/// after scaling the 1.05 ns 22 nm critical path by 1.7×).
pub const CLOCK_HZ: f64 = 1.0e9;

/// Area of one 255-bit Montgomery multiplier at 7 nm, in mm² (Table 4).
pub const MODMUL_255_MM2: f64 = 0.133;
/// Area of one 381-bit Montgomery multiplier at 7 nm, in mm² (Table 4).
pub const MODMUL_381_MM2: f64 = 0.314;
/// Area of one 255-bit modular adder at 7 nm, in mm² (small relative to a
/// multiplier; used by the Multifunction Tree PEs).
pub const MODADD_255_MM2: f64 = 0.012;

/// 22 nm → 7 nm scaling factors used by the paper (area, power, delay).
pub const SCALE_AREA_22_TO_7: f64 = 3.6;
/// Power scaling factor from 22 nm to 7 nm.
pub const SCALE_POWER_22_TO_7: f64 = 3.3;
/// Delay scaling factor from 22 nm to 7 nm.
pub const SCALE_DELAY_22_TO_7: f64 = 1.7;

/// Pipeline latency (cycles) of the fully-pipelined 381-bit point adder.
pub const PADD_LATENCY_CYCLES: u64 = 50;
/// Pipeline latency (cycles) of a 255-bit Montgomery multiplier.
pub const MODMUL_LATENCY_CYCLES: u64 = 36;
/// Latency (cycles) of one constant-time BEEA modular inversion
/// (`2W − 1` iterations for `W = 255`, Section 4.4.1).
pub const BEEA_LATENCY_CYCLES: u64 = 509;

/// Number of modular multipliers in one unified SumCheck PE with resource
/// sharing (Section 4.1.4).
pub const SUMCHECK_PE_MODMULS_SHARED: usize = 94;
/// Number of modular multipliers a SumCheck PE would need without sharing.
pub const SUMCHECK_PE_MODMULS_UNSHARED: usize = 184;
/// Modular multipliers in the MLE Combine unit with resource sharing
/// (Section 4.5).
pub const MLE_COMBINE_MODMULS_SHARED: usize = 72;
/// Modular multipliers the MLE Combine unit would need without sharing.
pub const MLE_COMBINE_MODMULS_UNSHARED: usize = 122;

/// Fq multipliers of the modelled PADD datapath: the complete addition
/// formula with its two products by `3b` on multipliers of their own. This
/// is the Table-5 calibration point; the functional layer's software
/// formulas replace those two products with addition chains and count
/// `zkspeed_curve::PADD_FQ_MULS` = 12.
pub const PADD_FQ_MULS: usize = 14;

/// SHA3 unit area in mm² (5888 µm², Section 7.3.1).
pub const SHA3_UNIT_MM2: f64 = 0.005888;
/// Keccak-f\[1600\] permutation latency in cycles (24 rounds, one per cycle).
pub const SHA3_PERMUTATION_CYCLES: u64 = 24;

/// SRAM density in mm² per MiB at 7 nm (calibrated so the highlighted design
/// of Table 5 lands near 144 mm² of on-chip memory).
pub const SRAM_MM2_PER_MIB: f64 = 4.0;
/// SRAM access energy proxy: average power per mm² of SRAM (W/mm²),
/// calibrated to Table 5 (19.60 W / 143.73 mm²).
pub const SRAM_W_PER_MM2: f64 = 0.136;

/// HBM2 per-stack bandwidth in GB/s and PHY area in mm².
pub const HBM2_STACK_GBPS: f64 = 512.0;
/// Area of one HBM2 PHY in mm².
pub const HBM2_PHY_MM2: f64 = 14.9;
/// HBM3 per-stack bandwidth in GB/s and PHY area in mm².
pub const HBM3_STACK_GBPS: f64 = 1024.0;
/// Area of one HBM3 PHY in mm².
pub const HBM3_PHY_MM2: f64 = 29.6;
/// DDR5 per-channel bandwidth in GB/s (Section 7.1 cites 256 GB/s and below
/// as DDR5-class).
pub const DDR5_CHANNEL_GBPS: f64 = 64.0;
/// PHY/controller area per DDR5 channel in mm².
pub const DDR5_PHY_MM2: f64 = 2.0;
/// Average power per HBM PHY + DRAM access, W per PHY (calibrated to Table
/// 5: 63.6 W for two HBM3 PHYs).
pub const HBM_PHY_W: f64 = 31.8;

/// Compute-logic power densities in W/mm², calibrated to Table 5.
pub mod power_density {
    /// MSM unit (76.19 W / 105.64 mm²).
    pub const MSM: f64 = 0.72;
    /// SumCheck unit (5.38 W / 24.96 mm²).
    pub const SUMCHECK: f64 = 0.22;
    /// Construct N&D (0.19 W / 1.35 mm²).
    pub const CONSTRUCT_ND: f64 = 0.14;
    /// FracMLE (0.25 W / 1.92 mm²).
    pub const FRACMLE: f64 = 0.13;
    /// MLE Combine (0.34 W / 9.56 mm²).
    pub const MLE_COMBINE: f64 = 0.036;
    /// MLE Update (1.13 W / 5.84 mm²).
    pub const MLE_UPDATE: f64 = 0.19;
    /// Multifunction Tree (4.16 W / 12.28 mm²).
    pub const MTU: f64 = 0.34;
    /// Other (SHA3 + interconnect).
    pub const OTHER: f64 = 0.02;
}

/// Bytes per 255-bit field element as moved over HBM.
pub const BYTES_PER_FR: f64 = 32.0;
/// Bytes per elliptic-curve point as moved over HBM (two 381-bit
/// coordinates, Section 4.2.1).
pub const BYTES_PER_POINT: f64 = 96.0;

/// Interconnect / bus area overhead as a fraction of compute area.
pub const INTERCONNECT_FRACTION: f64 = 0.012;

/// The memory bandwidths explored by the paper's DSE (Table 2), in GB/s.
pub const DSE_BANDWIDTHS_GBPS: [f64; 7] = [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper_values() {
        assert_eq!(PADD_FQ_MULS, 14);
        assert!((MODMUL_255_MM2 - 0.133).abs() < 1e-9);
        assert!((MODMUL_381_MM2 - 0.314).abs() < 1e-9);
        assert_eq!(BEEA_LATENCY_CYCLES, 2 * 255 - 1);
        assert_eq!(SUMCHECK_PE_MODMULS_SHARED, 94);
        // Resource sharing savings quoted by the paper: 48.9% and 41%.
        let sumcheck_saving =
            1.0 - SUMCHECK_PE_MODMULS_SHARED as f64 / SUMCHECK_PE_MODMULS_UNSHARED as f64;
        assert!((sumcheck_saving - 0.489).abs() < 0.01);
        let combine_saving =
            1.0 - MLE_COMBINE_MODMULS_SHARED as f64 / MLE_COMBINE_MODMULS_UNSHARED as f64;
        assert!((combine_saving - 0.41).abs() < 0.01);
        assert_eq!(DSE_BANDWIDTHS_GBPS.len(), 7);
    }

    #[test]
    fn hbm_phy_areas_match_paper() {
        assert!((HBM2_PHY_MM2 - 14.9).abs() < 1e-9);
        assert!((HBM3_PHY_MM2 - 29.6).abs() < 1e-9);
        // Two HBM3 PHYs at 2 TB/s (Table 5).
        assert!((2.0 * HBM3_PHY_MM2 - 59.2).abs() < 1e-9);
    }
}
