//! Higher-level analyses built on the chip model: speedups over the CPU
//! baseline (Figures 12 and 14, Table 3), PE/bandwidth scaling (Figure 11),
//! and the cross-accelerator comparison (Table 4).

use crate::chip::{ChipConfig, ChipSimulation, Kernel};
use crate::cpu_model::CpuModel;
use crate::units::{MleUpdateUnitConfig, SumcheckUnitConfig};
use crate::workload::Workload;
use crate::MsmUnitConfig;

/// Speedups of the accelerator over the CPU baseline, total and per kernel
/// (the Figure 14 grouping).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SpeedupReport {
    /// Problem size `μ`.
    pub num_vars: usize,
    /// End-to-end CPU proving time in seconds.
    pub cpu_seconds: f64,
    /// End-to-end accelerator proving time in seconds.
    pub zkspeed_seconds: f64,
    /// End-to-end speedup.
    pub total: f64,
    /// Speedup of each kernel, indexed by [`Kernel`].
    pub kernels: [f64; 7],
}

/// Computes the speedup report of a chip configuration on a workload,
/// against the calibrated CPU model.
pub fn speedup_report(chip: &ChipConfig, workload: &Workload) -> SpeedupReport {
    let sim = chip.simulate(workload);
    speedup_from_simulation(&sim, workload.num_vars)
}

/// Computes the speedup report from an existing simulation result.
pub fn speedup_from_simulation(sim: &ChipSimulation, num_vars: usize) -> SpeedupReport {
    let cpu = CpuModel::kernel_seconds(num_vars);
    let cpu_seconds = CpuModel::total_seconds(num_vars);
    SpeedupReport {
        num_vars,
        cpu_seconds,
        zkspeed_seconds: sim.total_seconds(),
        total: cpu_seconds / sim.total_seconds(),
        kernels: Kernel::ALL.map(|k| cpu[k] / sim.kernels[k]),
    }
}

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One point of the Figure 11 scaling study.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Number of PEs of the scaled unit.
    pub pes: usize,
    /// Off-chip bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Speedup normalized to 1 PE at 512 GB/s.
    pub speedup: f64,
}

/// The Figure 11 study: how MSM-kernel and SumCheck-kernel latencies scale
/// with PE count and bandwidth, normalized to one PE at 512 GB/s.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingStudy {
    /// MSM-kernel scaling points.
    pub msm: Vec<ScalingPoint>,
    /// SumCheck-kernel scaling points.
    pub sumcheck: Vec<ScalingPoint>,
}

/// Seconds `sim` spends in `kernels`.
fn kernels_seconds(sim: &ChipSimulation, kernels: [Kernel; 3]) -> f64 {
    kernels.iter().map(|k| sim.kernels[*k]).sum()
}

/// Runs the Figure 11 scaling study for the given PE counts and bandwidths.
pub fn scaling_study(
    workload: &Workload,
    pe_counts: &[usize],
    bandwidths_gbps: &[f64],
) -> ScalingStudy {
    let base = ChipConfig::table5_design().with_max_num_vars(workload.num_vars);
    // Baselines: one PE at 512 GB/s.
    let msm_base_cfg = ChipConfig {
        msm: MsmUnitConfig {
            pes_per_core: 1,
            cores: 1,
            ..base.msm
        },
        ..base
    }
    .with_bandwidth(512.0);
    let sc_base_cfg = ChipConfig {
        sumcheck: SumcheckUnitConfig { pes: 1 },
        mle_update: MleUpdateUnitConfig {
            pes: 1,
            modmuls_per_pe: 4,
        },
        ..base
    }
    .with_bandwidth(512.0);
    let msm_base = kernels_seconds(&msm_base_cfg.simulate(workload), Kernel::MSMS);
    let sc_base = kernels_seconds(&sc_base_cfg.simulate(workload), Kernel::SUMCHECKS);

    let mut study = ScalingStudy {
        msm: Vec::new(),
        sumcheck: Vec::new(),
    };
    for &bw in bandwidths_gbps {
        for &pes in pe_counts {
            let msm_cfg = ChipConfig {
                msm: MsmUnitConfig {
                    pes_per_core: pes,
                    cores: 1,
                    ..base.msm
                },
                ..base
            }
            .with_bandwidth(bw);
            let t = kernels_seconds(&msm_cfg.simulate(workload), Kernel::MSMS);
            study.msm.push(ScalingPoint {
                pes,
                bandwidth_gbps: bw,
                speedup: msm_base / t,
            });

            let sc_cfg = ChipConfig {
                sumcheck: SumcheckUnitConfig { pes },
                mle_update: MleUpdateUnitConfig {
                    pes: pes.min(11),
                    modmuls_per_pe: 4,
                },
                ..base
            }
            .with_bandwidth(bw);
            let t = kernels_seconds(&sc_cfg.simulate(workload), Kernel::SUMCHECKS);
            study.sumcheck.push(ScalingPoint {
                pes,
                bandwidth_gbps: bw,
                speedup: sc_base / t,
            });
        }
    }
    study
}

/// One row of the Table 4 cross-accelerator comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorComparison {
    /// Accelerator name.
    pub name: &'static str,
    /// Protocol accelerated.
    pub protocol: &'static str,
    /// Main kernels.
    pub main_kernels: &'static str,
    /// Encoding.
    pub encoding: &'static str,
    /// Proof size in bytes.
    pub proof_size_bytes: f64,
    /// Setup requirement.
    pub setup: &'static str,
    /// CPU prover time in seconds at 2^24 constraints/gates.
    pub cpu_prover_seconds: f64,
    /// Hardware prover time in milliseconds at 2^24.
    pub hw_prover_ms: f64,
    /// Verifier latency in milliseconds.
    pub verifier_ms: f64,
    /// Chip area in mm².
    pub chip_area_mm2: f64,
    /// Average power in watts.
    pub power_w: f64,
}

/// The Table 4 comparison: NoCap and SZKP+ use the paper's published values;
/// the zkSpeed row is produced by this repository's own model at 2^24 gates.
pub fn comparison_table() -> Vec<AcceleratorComparison> {
    // The global SRAM stays sized for 2^20 inputs (as in Table 5); larger
    // problems spill MLE tables to HBM, as the paper discusses in §7.3.2.
    let chip = ChipConfig::table5_design().with_max_num_vars(20);
    let sim = chip.simulate(&Workload::standard(24));
    let area = chip.area();
    let power = chip.power();
    vec![
        AcceleratorComparison {
            name: "NoCap",
            protocol: "Spartan+Orion",
            main_kernels: "NTT & SumCheck",
            encoding: "R1CS",
            proof_size_bytes: 8.1e6,
            setup: "none",
            cpu_prover_seconds: 94.2,
            hw_prover_ms: 151.3,
            verifier_ms: 134.0,
            chip_area_mm2: 38.73,
            power_w: 62.0,
        },
        AcceleratorComparison {
            name: "SZKP+",
            protocol: "Groth16",
            main_kernels: "NTT & MSM",
            encoding: "R1CS",
            proof_size_bytes: 0.18e3,
            setup: "circuit-specific",
            cpu_prover_seconds: 51.18,
            hw_prover_ms: 28.43,
            verifier_ms: 4.2,
            chip_area_mm2: 353.2,
            power_w: 220.0,
        },
        AcceleratorComparison {
            name: "zkSpeed (this model)",
            protocol: "HyperPlonk",
            main_kernels: "SumCheck & MSM",
            encoding: "Plonk",
            proof_size_bytes: 5.09e3,
            setup: "universal",
            cpu_prover_seconds: CpuModel::total_seconds(24),
            hw_prover_ms: sim.total_seconds() * 1e3,
            verifier_ms: 26.0,
            chip_area_mm2: area.total_mm2(),
            power_w: power.total_w(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert!((geomean(&[801.0]) - 801.0).abs() < 1e-9);
    }

    #[test]
    fn speedups_are_in_the_papers_order_of_magnitude() {
        // Paper: 801× geomean over 2^17–2^23 with per-size Pareto picks; the
        // fixed Table 5 design should land within a few-hundred to a couple
        // of thousand × across the same range.
        let mut totals = Vec::new();
        for mu in [17usize, 20, 23] {
            let chip = ChipConfig::table5_design().with_max_num_vars(mu);
            let report = speedup_report(&chip, &Workload::standard(mu));
            assert!(
                report.total > 100.0 && report.total < 5000.0,
                "μ = {mu}: total speedup {}",
                report.total
            );
            // MSM kernels enjoy larger speedups than SumCheck kernels
            // (Figure 14's observation).
            let msm_gm = geomean(&Kernel::MSMS.map(|k| report.kernels[k]));
            let sc_gm = geomean(&Kernel::SUMCHECKS.map(|k| report.kernels[k]));
            assert!(msm_gm > sc_gm, "μ = {mu}: msm {msm_gm} vs sumcheck {sc_gm}");
            totals.push(report.total);
        }
        let gm = geomean(&totals);
        assert!(gm > 200.0 && gm < 3000.0, "geomean {gm}");
    }

    #[test]
    fn scaling_study_shows_compute_vs_memory_bound_behaviour() {
        let w = Workload::standard(18);
        let study = scaling_study(&w, &[1, 4, 16], &[512.0, 4096.0]);
        assert_eq!(study.msm.len(), 6);
        assert_eq!(study.sumcheck.len(), 6);
        let find = |points: &[ScalingPoint], pes: usize, bw: f64| {
            points
                .iter()
                .find(|p| p.pes == pes && p.bandwidth_gbps == bw)
                .unwrap()
                .speedup
        };
        // MSMs are compute bound: more PEs help a lot, more bandwidth alone
        // helps little.
        let msm_pe_gain = find(&study.msm, 16, 512.0) / find(&study.msm, 1, 512.0);
        let msm_bw_gain = find(&study.msm, 1, 4096.0) / find(&study.msm, 1, 512.0);
        assert!(msm_pe_gain > 4.0, "msm pe gain {msm_pe_gain}");
        assert!(msm_bw_gain < 1.5, "msm bw gain {msm_bw_gain}");
        // SumChecks are memory bound: at fixed (low) bandwidth, adding PEs
        // saturates; adding bandwidth helps.
        let sc_pe_gain = find(&study.sumcheck, 16, 512.0) / find(&study.sumcheck, 1, 512.0);
        let sc_bw_gain = find(&study.sumcheck, 16, 4096.0) / find(&study.sumcheck, 16, 512.0);
        assert!(sc_pe_gain < msm_pe_gain, "sumcheck pe gain {sc_pe_gain}");
        assert!(sc_bw_gain > 1.5, "sumcheck bw gain {sc_bw_gain}");
    }

    #[test]
    fn comparison_table_has_three_rows_with_expected_tradeoffs() {
        let table = comparison_table();
        assert_eq!(table.len(), 3);
        let nocap = &table[0];
        let szkp = &table[1];
        let zkspeed = &table[2];
        // Proof-size ordering: Groth16 < HyperPlonk << Orion.
        assert!(szkp.proof_size_bytes < zkspeed.proof_size_bytes);
        assert!(zkspeed.proof_size_bytes < nocap.proof_size_bytes / 100.0);
        // zkSpeed's universal setup vs Groth16's circuit-specific setup.
        assert_eq!(zkspeed.setup, "universal");
        assert_eq!(szkp.setup, "circuit-specific");
        // Our modeled prover time at 2^24 should be within a factor ~3 of the
        // paper's 171.61 ms.
        assert!(
            zkspeed.hw_prover_ms > 60.0 && zkspeed.hw_prover_ms < 520.0,
            "hw prover {} ms",
            zkspeed.hw_prover_ms
        );
        // Area near the paper's 366 mm².
        assert!((zkspeed.chip_area_mm2 - 366.0).abs() < 80.0);
    }
}
