//! The memory system model: HBM/DDR bandwidth and PHYs, and the on-chip
//! SRAM sizing with the MLE compression scheme of Section 4.6.

use crate::params::{
    BYTES_PER_FR, DDR5_CHANNEL_GBPS, DDR5_PHY_MM2, HBM2_PHY_MM2, HBM2_STACK_GBPS, HBM3_PHY_MM2,
    HBM3_STACK_GBPS, HBM_PHY_W, SRAM_MM2_PER_MIB, SRAM_W_PER_MM2,
};

/// The memory technology implied by a bandwidth target.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemoryTechnology {
    /// DDR5-class (≤ 256 GB/s in the paper's taxonomy).
    Ddr5,
    /// HBM2/HBM2E-class (≈ 0.5 TB/s per stack).
    Hbm2,
    /// HBM3-class (≥ 1 TB/s per stack).
    Hbm3,
}

/// Off-chip memory configuration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MemoryConfig {
    /// Aggregate off-chip bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self {
            bandwidth_gbps: 2048.0,
        }
    }
}

impl MemoryConfig {
    /// The memory technology this bandwidth is provisioned with.
    pub fn technology(&self) -> MemoryTechnology {
        if self.bandwidth_gbps <= 256.0 {
            MemoryTechnology::Ddr5
        } else if self.bandwidth_gbps <= 512.0 {
            MemoryTechnology::Hbm2
        } else {
            MemoryTechnology::Hbm3
        }
    }

    /// Number of stacks / channels needed to supply the bandwidth.
    pub fn num_interfaces(&self) -> usize {
        let per = match self.technology() {
            MemoryTechnology::Ddr5 => DDR5_CHANNEL_GBPS,
            MemoryTechnology::Hbm2 => HBM2_STACK_GBPS,
            MemoryTechnology::Hbm3 => HBM3_STACK_GBPS,
        };
        (self.bandwidth_gbps / per).ceil() as usize
    }

    /// Total PHY area in mm².
    pub fn phy_area_mm2(&self) -> f64 {
        let per = match self.technology() {
            MemoryTechnology::Ddr5 => DDR5_PHY_MM2,
            MemoryTechnology::Hbm2 => HBM2_PHY_MM2,
            MemoryTechnology::Hbm3 => HBM3_PHY_MM2,
        };
        self.num_interfaces() as f64 * per
    }

    /// Average memory-subsystem power in watts (PHY + DRAM access).
    pub fn power_w(&self) -> f64 {
        match self.technology() {
            MemoryTechnology::Ddr5 => self.num_interfaces() as f64 * 4.0,
            _ => self.num_interfaces() as f64 * HBM_PHY_W,
        }
    }

    /// Seconds to stream `bytes` of off-chip traffic at full bandwidth.
    pub fn transfer_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.bandwidth_gbps * 1.0e9)
    }
}

/// On-chip SRAM model with the Section 4.6 MLE compression scheme.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SramModel;

impl SramModel {
    /// Bytes needed to store the input MLE tables for `2^μ` gates
    /// *uncompressed* (12 tables of full-width field elements: 5 selectors,
    /// 3 witnesses, 3 wiring permutations, plus one spare working table).
    pub fn uncompressed_input_bytes(num_vars: usize) -> f64 {
        let n = (1u64 << num_vars) as f64;
        12.0 * n * BYTES_PER_FR
    }

    /// Bytes needed with the compression scheme: binary control MLEs are
    /// bit-packed, 90%-sparse tables store a 1-bit flag plus the dense 10%,
    /// and wiring permutations store packed indices.
    pub fn compressed_input_bytes(num_vars: usize) -> f64 {
        let n = (1u64 << num_vars) as f64;
        // q_L, q_R, q_M, q_O: 1 bit each.
        let control = 4.0 * n / 8.0;
        // q_C, w1, w2, w3: flag bit + 10% full-width.
        let sparse = 4.0 * n * (1.0 / 8.0 + 0.1 * BYTES_PER_FR);
        // σ1..σ3: packed (μ + 2)-bit indices.
        let sigma = 3.0 * n * ((num_vars + 2) as f64 / 8.0);
        // Address-translation tags, banking and alignment overhead of the
        // compressed layout (Section 4.6's address translation units).
        let overhead = 1.5;
        (control + sparse + sigma) * overhead
    }

    /// The compression ratio achieved (the paper reports 10–11×).
    pub fn compression_ratio(num_vars: usize) -> f64 {
        Self::uncompressed_input_bytes(num_vars) / Self::compressed_input_bytes(num_vars)
    }

    /// Global SRAM bytes provisioned for a problem size (compressed input
    /// MLEs plus staging buffers for intermediate tiles).
    pub fn global_sram_bytes(num_vars: usize) -> f64 {
        Self::compressed_input_bytes(num_vars) * 1.15
    }

    /// SRAM area in mm² for a byte count.
    pub fn area_mm2(bytes: f64) -> f64 {
        bytes / (1u64 << 20) as f64 * SRAM_MM2_PER_MIB
    }

    /// SRAM average power in watts for an area.
    pub fn power_w(area_mm2: f64) -> f64 {
        area_mm2 * SRAM_W_PER_MM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technology_classification() {
        assert_eq!(
            MemoryConfig {
                bandwidth_gbps: 64.0
            }
            .technology(),
            MemoryTechnology::Ddr5
        );
        assert_eq!(
            MemoryConfig {
                bandwidth_gbps: 256.0
            }
            .technology(),
            MemoryTechnology::Ddr5
        );
        assert_eq!(
            MemoryConfig {
                bandwidth_gbps: 512.0
            }
            .technology(),
            MemoryTechnology::Hbm2
        );
        assert_eq!(
            MemoryConfig {
                bandwidth_gbps: 2048.0
            }
            .technology(),
            MemoryTechnology::Hbm3
        );
    }

    #[test]
    fn phy_area_matches_table5_at_2tbps() {
        let m = MemoryConfig {
            bandwidth_gbps: 2048.0,
        };
        assert_eq!(m.num_interfaces(), 2);
        assert!((m.phy_area_mm2() - 59.2).abs() < 1e-9);
        assert!((m.power_w() - 63.6).abs() < 0.1);
    }

    #[test]
    fn transfer_time_scales_inversely_with_bandwidth() {
        let slow = MemoryConfig {
            bandwidth_gbps: 512.0,
        };
        let fast = MemoryConfig {
            bandwidth_gbps: 2048.0,
        };
        let bytes = 1.0e9;
        assert!((slow.transfer_seconds(bytes) / fast.transfer_seconds(bytes) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn compression_ratio_matches_paper_range() {
        for mu in [17usize, 20, 23] {
            let ratio = SramModel::compression_ratio(mu);
            assert!(
                (8.0..=13.0).contains(&ratio),
                "μ = {mu}: compression ratio {ratio}"
            );
        }
        // Compressed 2^20 input MLEs fit in tens of MiB (the global SRAM).
        let bytes = SramModel::global_sram_bytes(20);
        let mib = bytes / (1u64 << 20) as f64;
        assert!(mib > 20.0 && mib < 60.0, "global SRAM {mib} MiB");
        assert!(SramModel::area_mm2(bytes) > 50.0);
        assert!(SramModel::power_w(100.0) > 10.0);
    }
}
