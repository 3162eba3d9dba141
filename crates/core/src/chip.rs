//! The full-chip zkSpeed model: configuration, area/power aggregation and
//! the protocol scheduler that maps the five HyperPlonk steps onto the
//! accelerator units under a bandwidth constraint (Section 5 of the paper).

use zkspeed_hw::params::{power_density, CLOCK_HZ, INTERCONNECT_FRACTION};
use zkspeed_hw::{
    ConstructNdConfig, FracMleConfig, MemoryConfig, MleCombineConfig, MleUpdateUnitConfig,
    MsmUnitConfig, MtuConfig, Sha3UnitConfig, SramModel, SumcheckUnitConfig,
};

use zkspeed_hyperplonk::{Kernel as Table1, ProtocolStep};

use crate::workload::Workload;

/// Bytes per 255-bit field element moved over HBM.
const FR_BYTES: f64 = 32.0;
/// Bytes per elliptic-curve point moved over HBM.
const POINT_BYTES: f64 = 96.0;

zkspeed_rt::table_enum! {
    /// The accelerator units, in the order used for utilization reporting
    /// (Figure 13), each with its display name.
    pub enum Unit: &'static str {
        /// MSM unit.
        Msm = "MSM",
        /// SumCheck unit.
        Sumcheck = "SumCheck",
        /// MLE Update unit.
        MleUpdate = "MLE Update",
        /// Multifunction Tree unit.
        MultifunctionTree = "Multifunction Tree",
        /// Construct N&D unit.
        ConstructNd = "Construct N&D",
        /// FracMLE unit.
        FracMle = "FracMLE",
        /// MLE Combine unit.
        MleCombine = "MLE Combine",
        /// SHA3 unit.
        Sha3 = "SHA3",
    }
}

impl Unit {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        Self::TABLE[*self as usize]
    }
}

zkspeed_rt::table_enum! {
    /// The kernels a proof's time is grouped into for the speedup analysis
    /// (Figures 10 and 14), each with its display name: three MSM groups,
    /// three SumChecks and the final evaluations.
    pub enum Kernel: &'static str {
        /// The Sparse MSMs of the witness commitments (step 1): one Table 1 row.
        WitnessMsm = Table1::WitnessMsm.label(),
        /// The dense MSMs committing φ and π (step 3).
        WiringMsm = "Wiring MSMs",
        /// The halving MSMs of the polynomial opening (step 5).
        PolyOpenMsm = "PolyOpen MSMs",
        /// The Gate Identity ZeroCheck rounds (step 2).
        ZeroCheck = "ZeroCheck",
        /// The PermCheck rounds (step 3); on the CPU also the creation of
        /// its MLEs.
        PermCheck = "PermCheck",
        /// The OpenCheck rounds (step 5).
        OpenCheck = "OpenCheck",
        /// The batch evaluations (step 4) and MLE Combine (step 5).
        FinalEval = "Final Eval",
    }
}

impl Kernel {
    /// The MSM kernels (Figure 11's MSM scaling).
    pub const MSMS: [Kernel; 3] = [Kernel::WitnessMsm, Kernel::WiringMsm, Kernel::PolyOpenMsm];

    /// The SumCheck kernels (Figure 11's SumCheck scaling).
    pub const SUMCHECKS: [Kernel; 3] = [Kernel::ZeroCheck, Kernel::PermCheck, Kernel::OpenCheck];

    /// Display name.
    pub fn name(&self) -> &'static str {
        Self::TABLE[*self as usize]
    }
}

/// A complete zkSpeed chip configuration (every Table 2 knob plus the
/// memory system and the maximum supported problem size).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ChipConfig {
    /// MSM unit configuration.
    pub msm: MsmUnitConfig,
    /// SumCheck unit configuration.
    pub sumcheck: SumcheckUnitConfig,
    /// MLE Update unit configuration.
    pub mle_update: MleUpdateUnitConfig,
    /// FracMLE unit configuration.
    pub fracmle: FracMleConfig,
    /// Multifunction Tree unit configuration.
    pub mtu: MtuConfig,
    /// Off-chip memory configuration.
    pub memory: MemoryConfig,
    /// Construct N&D unit.
    pub construct_nd: ConstructNdConfig,
    /// MLE Combine unit.
    pub mle_combine: MleCombineConfig,
    /// SHA3 unit.
    pub sha3: Sha3UnitConfig,
    /// Largest `μ` the on-chip global SRAM is sized for.
    pub max_num_vars: usize,
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::table5_design()
    }
}

impl ChipConfig {
    /// The design highlighted in Table 5: one 16-PE MSM core with 9-bit
    /// windows and 2048 points per PE, 1 FracMLE PE, 2 SumCheck PEs, 11 MLE
    /// Update PEs with 4 multipliers each, and 2 TB/s of HBM3.
    pub fn table5_design() -> Self {
        Self {
            msm: MsmUnitConfig::default(),
            sumcheck: SumcheckUnitConfig { pes: 2 },
            mle_update: MleUpdateUnitConfig {
                pes: 11,
                modmuls_per_pe: 4,
            },
            fracmle: FracMleConfig {
                pes: 1,
                batch_size: 64,
            },
            mtu: MtuConfig::default(),
            memory: MemoryConfig {
                bandwidth_gbps: 2048.0,
            },
            construct_nd: ConstructNdConfig,
            mle_combine: MleCombineConfig,
            sha3: Sha3UnitConfig,
            max_num_vars: 20,
        }
    }

    /// Returns a copy with a different off-chip bandwidth.
    pub fn with_bandwidth(mut self, bandwidth_gbps: f64) -> Self {
        self.memory.bandwidth_gbps = bandwidth_gbps;
        self
    }

    /// Returns a copy sized for a different maximum problem size.
    pub fn with_max_num_vars(mut self, max_num_vars: usize) -> Self {
        self.max_num_vars = max_num_vars;
        self
    }

    /// Area breakdown of this configuration.
    pub fn area(&self) -> AreaBreakdown {
        let msm = self.msm.datapath_area_mm2() + SramModel::area_mm2(self.msm.local_sram_bytes());
        let sumcheck = self.sumcheck.area_mm2();
        let mle_update = self.mle_update.area_mm2();
        let mtu = self.mtu.area_mm2();
        let construct_nd = self.construct_nd.area_mm2();
        let fracmle = self.fracmle.area_mm2();
        let mle_combine = self.mle_combine.area_mm2();
        let sha3 = self.sha3.area_mm2();
        let compute =
            msm + sumcheck + mle_update + mtu + construct_nd + fracmle + mle_combine + sha3;
        let interconnect = compute * INTERCONNECT_FRACTION;
        // The global SRAM holds the compressed input MLEs up to 2^20 gates
        // (the Table 5 sizing); larger problems keep streaming their inputs
        // from HBM, the alternative the paper discusses in Section 7.3.2.
        let sram_vars = self.max_num_vars.min(20);
        let sram = SramModel::area_mm2(SramModel::global_sram_bytes(sram_vars));
        let hbm_phy = self.memory.phy_area_mm2();
        AreaBreakdown {
            msm,
            sumcheck,
            mle_update,
            mtu,
            construct_nd,
            fracmle,
            mle_combine,
            sha3,
            interconnect,
            sram,
            hbm_phy,
        }
    }

    /// Average-power breakdown of this configuration.
    pub fn power(&self) -> PowerBreakdown {
        let a = self.area();
        PowerBreakdown {
            msm: a.msm * power_density::MSM,
            sumcheck: a.sumcheck * power_density::SUMCHECK,
            mle_update: a.mle_update * power_density::MLE_UPDATE,
            mtu: a.mtu * power_density::MTU,
            construct_nd: a.construct_nd * power_density::CONSTRUCT_ND,
            fracmle: a.fracmle * power_density::FRACMLE,
            mle_combine: a.mle_combine * power_density::MLE_COMBINE,
            other: (a.sha3 + a.interconnect) * power_density::OTHER,
            sram: SramModel::power_w(a.sram),
            memory: self.memory.power_w(),
        }
    }

    /// Simulates a full proof generation for `workload`, returning per-step
    /// and per-kernel latencies plus per-unit busy times.
    pub fn simulate(&self, workload: &Workload) -> ChipSimulation {
        let mu = workload.num_vars;
        let n = workload.num_gates() as f64;
        let clk = CLOCK_HZ;
        let mem = |bytes: f64| self.memory.transfer_seconds(bytes);
        let secs = |cycles: f64| cycles / clk;

        let mut sim = ChipSimulation {
            num_vars: mu,
            ..ChipSimulation::default()
        };

        // ---- Step 1: Witness Commits (three serial Sparse MSMs) ----------
        // Each witness column gets its own measured zero/one/dense split
        // (uniform when the workload carries only aggregate fractions).
        let mut step1 = 0.0;
        for j in 0..3 {
            let (zeros, ones, dense) = workload.column_split(j);
            let compute = secs(self.msm.sparse_msm_cycles(zeros, ones, dense));
            // The precomputed datapath reads one shifted table point per
            // window for each dense scalar; ones still read a single base.
            let traffic = (ones as f64 + dense as f64 * self.msm.points_read_per_scalar())
                * POINT_BYTES
                + dense as f64 * FR_BYTES;
            step1 += compute.max(mem(traffic));
            sim.busy[Unit::Msm] += compute;
        }
        sim.kernels[Kernel::WitnessMsm] = step1;
        sim.step_seconds[ProtocolStep::WitnessCommit] = step1;

        // ---- Step 2: Gate Identity (Build MLE + ZeroCheck rounds) --------
        let build = secs(self.mtu.tree_pass_cycles(mu));
        sim.busy[Unit::MultifunctionTree] += build;
        let step2_build = build.max(mem(n * FR_BYTES));
        let zerocheck = self.sumcheck_phase(mu, 9, true, &mut sim);
        sim.kernels[Kernel::ZeroCheck] = zerocheck;
        sim.step_seconds[ProtocolStep::GateIdentity] = step2_build + zerocheck;

        // ---- Step 3: Wiring Identity --------------------------------------
        // Pipelined Construct N&D → FracMLE → ProdMLE → MSM chain.
        let construct = secs(self.construct_nd.construct_cycles(n as usize));
        let frac = secs(self.fracmle.fraction_cycles(n as usize));
        let prod = secs(self.mtu.tree_pass_cycles(mu));
        let msm_compute = secs(2.0 * self.msm.dense_msm_cycles(n as usize));
        let msm_traffic = 2.0 * n * (self.msm.points_read_per_scalar() * POINT_BYTES + FR_BYTES);
        let wiring_msm = msm_compute.max(mem(msm_traffic));
        let stream_traffic = 8.0 * n * FR_BYTES;
        let phase_a = construct
            .max(frac)
            .max(prod)
            .max(wiring_msm)
            .max(mem(stream_traffic));
        sim.busy[Unit::ConstructNd] += construct;
        sim.busy[Unit::FracMle] += frac;
        sim.busy[Unit::MultifunctionTree] += prod;
        sim.busy[Unit::Msm] += msm_compute;
        sim.kernels[Kernel::WiringMsm] = wiring_msm;
        // PermCheck: Build MLE + ZeroCheck rounds over 11 tables.
        let build = secs(self.mtu.tree_pass_cycles(mu));
        sim.busy[Unit::MultifunctionTree] += build;
        let permcheck = self.sumcheck_phase(mu, 11, false, &mut sim);
        sim.kernels[Kernel::PermCheck] = permcheck;
        sim.step_seconds[ProtocolStep::WireIdentity] =
            phase_a + build.max(mem(n * FR_BYTES)) + permcheck;

        // ---- Step 4: Batch Evaluations -------------------------------------
        // 22 MLE Evaluates on the Multifunction Tree; only φ and π live
        // off-chip (the compression of Section 4.6 keeps the rest on-chip).
        let evals_compute = secs(22.0 * self.mtu.tree_pass_cycles(mu));
        sim.busy[Unit::MultifunctionTree] += evals_compute;
        let evals = evals_compute.max(mem(4.0 * n * FR_BYTES));
        sim.kernels[Kernel::FinalEval] = evals;
        sim.step_seconds[ProtocolStep::BatchEvaluation] = evals;

        // ---- Step 5: Polynomial Opening -------------------------------------
        // MLE Combine into the OpenCheck inputs + Build the k_i MLEs.
        let combine = secs(self.mle_combine.combine_cycles(13, n as usize));
        let build_k = secs(6.0 * self.mtu.tree_pass_cycles(mu));
        sim.busy[Unit::MleCombine] += combine;
        sim.kernels[Kernel::FinalEval] += combine;
        sim.busy[Unit::MultifunctionTree] += build_k;
        let phase_5a = combine.max(build_k).max(mem(8.0 * n * FR_BYTES));
        // OpenCheck rounds over 12 tables.
        let opencheck = self.sumcheck_phase(mu, 12, false, &mut sim);
        sim.kernels[Kernel::OpenCheck] = opencheck;
        // Final combine + the serial halving MSM sequence.
        let final_combine = secs(self.mle_combine.combine_cycles(6, n as usize));
        sim.busy[Unit::MleCombine] += final_combine;
        sim.kernels[Kernel::FinalEval] += final_combine;
        let mut halving_cycles = 0.0;
        let mut size = workload.num_gates() / 2;
        while size >= 1 {
            halving_cycles += self.msm.dense_msm_cycles(size);
            if size == 1 {
                break;
            }
            size /= 2;
        }
        let halving_compute = secs(halving_cycles);
        sim.busy[Unit::Msm] += halving_compute;
        let polyopen_msm = halving_compute.max(mem(
            n * (self.msm.points_read_per_scalar() * POINT_BYTES + FR_BYTES)
        ));
        sim.kernels[Kernel::PolyOpenMsm] = polyopen_msm;
        sim.step_seconds[ProtocolStep::PolynomialOpening] =
            phase_5a + opencheck + final_combine.max(polyopen_msm);

        // SHA3 transcript maintenance between steps (negligible but tracked).
        let sha3 = secs(self.sha3.hash_cycles(64 * (3 * mu as u64 + 40)));
        sim.busy[Unit::Sha3] += sha3;
        sim.step_seconds[ProtocolStep::PolynomialOpening] += sha3;

        sim
    }

    /// Latency of a full SumCheck (`μ` rounds over `tables` MLE tables),
    /// with SumCheck compute, MLE Update and HBM streaming overlapped
    /// (Section 4.1.2's streaming approach). When `first_round_on_chip` is
    /// set, the round-1 inputs come from the global SRAM.
    fn sumcheck_phase(
        &self,
        mu: usize,
        tables: usize,
        first_round_on_chip: bool,
        sim: &mut ChipSimulation,
    ) -> f64 {
        let clk = CLOCK_HZ;
        let mut total = 0.0;
        for round in 0..mu {
            let entries = 1usize << (mu - round);
            let sc = self.sumcheck.round_cycles(entries / 2) / clk;
            let upd = self.mle_update.update_cycles(tables, entries) / clk;
            let read = if round == 0 && first_round_on_chip {
                // Inputs are decompressed from the global SRAM; only the eq
                // table streams from HBM.
                (entries as f64) * FR_BYTES
            } else {
                (tables * entries) as f64 * FR_BYTES
            };
            let write = (tables * entries / 2) as f64 * FR_BYTES;
            let traffic = self.memory.transfer_seconds(read + write);
            total += sc.max(upd).max(traffic);
            sim.busy[Unit::Sumcheck] += sc;
            sim.busy[Unit::MleUpdate] += upd;
        }
        total
    }
}

/// Per-unit area breakdown in mm².
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct AreaBreakdown {
    pub msm: f64,
    pub sumcheck: f64,
    pub mle_update: f64,
    pub mtu: f64,
    pub construct_nd: f64,
    pub fracmle: f64,
    pub mle_combine: f64,
    pub sha3: f64,
    pub interconnect: f64,
    pub sram: f64,
    pub hbm_phy: f64,
}

impl AreaBreakdown {
    /// Compute (logic) area: everything except SRAM and PHYs.
    pub fn compute_mm2(&self) -> f64 {
        self.msm
            + self.sumcheck
            + self.mle_update
            + self.mtu
            + self.construct_nd
            + self.fracmle
            + self.mle_combine
            + self.sha3
            + self.interconnect
    }

    /// Total chip area.
    pub fn total_mm2(&self) -> f64 {
        self.compute_mm2() + self.sram + self.hbm_phy
    }

    /// Total area excluding the HBM PHYs (used for the iso-CPU-area
    /// comparison of Section 7.3, where the EPYC I/O die is excluded).
    pub fn total_without_phy_mm2(&self) -> f64 {
        self.compute_mm2() + self.sram
    }

    /// Share of compute area per unit, in [`Unit::ALL`] order.
    pub fn compute_area_shares(&self) -> [f64; 8] {
        let c = self.compute_mm2();
        [
            self.msm / c,
            self.sumcheck / c,
            self.mle_update / c,
            self.mtu / c,
            self.construct_nd / c,
            self.fracmle / c,
            self.mle_combine / c,
            self.sha3 / c,
        ]
    }
}

/// Per-unit average power breakdown in watts.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct PowerBreakdown {
    pub msm: f64,
    pub sumcheck: f64,
    pub mle_update: f64,
    pub mtu: f64,
    pub construct_nd: f64,
    pub fracmle: f64,
    pub mle_combine: f64,
    pub other: f64,
    pub sram: f64,
    pub memory: f64,
}

impl PowerBreakdown {
    /// Total average power in watts.
    pub fn total_w(&self) -> f64 {
        self.msm
            + self.sumcheck
            + self.mle_update
            + self.mtu
            + self.construct_nd
            + self.fracmle
            + self.mle_combine
            + self.other
            + self.sram
            + self.memory
    }
}

/// The result of simulating one proof generation on one chip configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChipSimulation {
    /// Problem size `μ`.
    pub num_vars: usize,
    /// Latency of each protocol step, in seconds, indexed by
    /// [`ProtocolStep`].
    pub step_seconds: [f64; 5],
    /// Latency of each kernel, in seconds, indexed by [`Kernel`].
    pub kernels: [f64; 7],
    /// Per-unit busy time in seconds, indexed by [`Unit`].
    pub busy: [f64; 8],
}

impl ChipSimulation {
    /// Total proving latency in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.step_seconds.iter().sum()
    }

    /// Per-unit utilization (busy time over total time), in [`Unit::ALL`]
    /// order.
    pub fn utilization(&self) -> [f64; 8] {
        let t = self.total_seconds();
        self.busy.map(|b| (b / t).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_area_and_power_match_paper() {
        let chip = ChipConfig::table5_design();
        let area = chip.area();
        // Paper: 163.53 mm² compute, 143.73 SRAM, 59.2 PHY, 366.46 total.
        assert!(
            (area.compute_mm2() - 163.5).abs() < 25.0,
            "compute area {}",
            area.compute_mm2()
        );
        assert!((area.sram - 143.7).abs() < 30.0, "sram {}", area.sram);
        assert!((area.hbm_phy - 59.2).abs() < 1e-9);
        assert!(
            (area.total_mm2() - 366.5).abs() < 45.0,
            "total {}",
            area.total_mm2()
        );
        // MSM dominates compute area (paper: 64.6%).
        let shares = area.compute_area_shares();
        assert!(shares[0] > 0.5, "MSM share {}", shares[0]);
        // Power: paper total 170.88 W.
        let power = chip.power();
        assert!(
            (power.total_w() - 170.9).abs() < 35.0,
            "power {}",
            power.total_w()
        );
    }

    #[test]
    fn simulation_is_in_the_paper_latency_range() {
        // Paper Table 3: 11.4 ms at 2^20 gates on the 2 TB/s design.
        let chip = ChipConfig::table5_design();
        let sim = chip.simulate(&Workload::standard(20));
        let ms = sim.total_seconds() * 1e3;
        assert!(ms > 3.0 && ms < 40.0, "total {ms} ms");
        // Every step contributes.
        for (i, s) in sim.step_seconds.iter().enumerate() {
            assert!(*s > 0.0, "step {i} has zero latency");
        }
        // MSM-heavy steps dominate (Figure 12b: Wire Identity ≈ 48.5%).
        assert!(sim.step_seconds[2] > sim.step_seconds[0]);
        // The MSM unit is the busiest unit (Figure 13).
        let util = sim.utilization();
        assert!(util[0] > util[4] && util[0] > util[7]);
        assert!(util.iter().all(|u| *u <= 1.0));
    }

    #[test]
    fn more_bandwidth_never_hurts_and_helps_sumcheck() {
        let slow = ChipConfig::table5_design().with_bandwidth(512.0);
        let fast = ChipConfig::table5_design().with_bandwidth(4096.0);
        let w = Workload::standard(20);
        let s_slow = slow.simulate(&w);
        let s_fast = fast.simulate(&w);
        assert!(s_fast.total_seconds() < s_slow.total_seconds());
        // SumCheck phases are memory bound: they speed up markedly.
        assert!(s_fast.kernels[Kernel::PermCheck] < s_slow.kernels[Kernel::PermCheck] * 0.6);
        // MSMs are compute bound: they barely change.
        assert!(s_fast.kernels[Kernel::WitnessMsm] > s_slow.kernels[Kernel::WitnessMsm] * 0.8);
    }

    #[test]
    fn latency_scales_with_problem_size() {
        let chip = ChipConfig::table5_design().with_max_num_vars(23);
        let t17 = chip.simulate(&Workload::standard(17)).total_seconds();
        let t20 = chip.simulate(&Workload::standard(20)).total_seconds();
        let t23 = chip.simulate(&Workload::standard(23)).total_seconds();
        assert!(t20 > 5.0 * t17, "t17 {t17}, t20 {t20}");
        assert!(t23 > 5.0 * t20, "t20 {t20}, t23 {t23}");
    }

    #[test]
    fn measured_column_splits_change_witness_commit_latency() {
        use crate::workload::ColumnSplit;
        let chip = ChipConfig::table5_design();
        // A bit-heavy measured circuit (≈ the Keccak workloads): almost no
        // dense scalars, so the Sparse MSM tree mode dominates and the
        // Witness Commit step is much cheaper than under 45/45/10.
        let sparse_cols = [
            ColumnSplit::new(0.52, 0.47).unwrap(),
            ColumnSplit::new(0.50, 0.49).unwrap(),
            ColumnSplit::new(0.55, 0.44).unwrap(),
        ];
        let measured = Workload::new(20, 0.0, 0.0)
            .unwrap()
            .with_columns(sparse_cols);
        let standard = Workload::standard(20);
        let sim_measured = chip.simulate(&measured);
        let sim_standard = chip.simulate(&standard);
        assert!(
            sim_measured.kernels[Kernel::WitnessMsm]
                < 0.5 * sim_standard.kernels[Kernel::WitnessMsm],
            "measured {} vs standard {}",
            sim_measured.kernels[Kernel::WitnessMsm],
            sim_standard.kernels[Kernel::WitnessMsm]
        );
        // Only step 1 depends on the witness split; the rest is identical.
        for i in 1..5 {
            assert!((sim_measured.step_seconds[i] - sim_standard.step_seconds[i]).abs() < 1e-12);
        }
        // A fully dense measured circuit is strictly slower than 45/45/10.
        let dense = Workload::new(20, 0.0, 0.0).unwrap();
        assert!(
            chip.simulate(&dense).kernels[Kernel::WitnessMsm]
                > sim_standard.kernels[Kernel::WitnessMsm]
        );
    }

    #[test]
    fn area_scales_with_pe_count() {
        let small = ChipConfig {
            msm: MsmUnitConfig {
                pes_per_core: 1,
                ..MsmUnitConfig::default()
            },
            sumcheck: SumcheckUnitConfig { pes: 1 },
            ..ChipConfig::table5_design()
        };
        let big = ChipConfig::table5_design();
        assert!(small.area().total_mm2() < big.area().total_mm2());
        assert!(small.power().total_w() < big.power().total_w());
        // A 1-PE MSM is much slower on the MSM-heavy kernels.
        let w = Workload::standard(18);
        assert!(
            small.simulate(&w).kernels[Kernel::WiringMsm]
                > 4.0 * big.simulate(&w).kernels[Kernel::WiringMsm]
        );
    }
}

zkspeed_rt::impl_to_json_struct!(ChipConfig {
    msm,
    sumcheck,
    mle_update,
    fracmle,
    mtu,
    memory,
    construct_nd,
    mle_combine,
    sha3,
    max_num_vars,
});
zkspeed_rt::impl_to_json_struct!(AreaBreakdown {
    msm,
    sumcheck,
    mle_update,
    mtu,
    construct_nd,
    fracmle,
    mle_combine,
    sha3,
    interconnect,
    sram,
    hbm_phy,
});
zkspeed_rt::impl_to_json_struct!(PowerBreakdown {
    msm,
    sumcheck,
    mle_update,
    mtu,
    construct_nd,
    fracmle,
    mle_combine,
    other,
    sram,
    memory,
});
