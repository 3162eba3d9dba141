//! The zkSpeed full-chip accelerator model — the primary contribution of the
//! paper *"Need for zkSpeed: Accelerating HyperPlonk for Zero-Knowledge
//! Proofs"* (ISCA 2025), reproduced in Rust.
//!
//! The crate models the eight accelerator units (Section 4 of the paper),
//! the on-chip SRAM with MLE compression (Section 4.6) and the HBM/DDR
//! memory system (Section 5). Each unit config ([`MsmUnitConfig`],
//! [`SumcheckUnitConfig`], …) holds its Table 2 design knobs, an area model
//! in mm² at 7 nm calibrated against Table 5, and a cycle model for the work
//! it performs; the paper's per-unit numbers (94-multiplier SumCheck PEs, the
//! 509-cycle BEEA inversion, the 14.9 / 29.6 mm² HBM PHYs, …) are the
//! constants of [`params`]. It composes the units into a complete chip
//! ([`ChipConfig`]) and provides:
//!
//! * [`ChipConfig::simulate`] — the protocol scheduler that maps HyperPlonk's
//!   five steps onto the units under an off-chip bandwidth constraint,
//!   producing per-step latencies, per-kernel latencies and per-unit
//!   utilizations (Figures 10, 12b, 13). Each list is an enum and every
//!   array is indexed by it: steps by `zkspeed_hyperplonk::ProtocolStep`,
//!   the Figure 14 kernel grouping by [`Kernel`], units by [`Unit`];
//! * [`ChipConfig::area`] / [`ChipConfig::power`] — the Table 5 area and
//!   power breakdowns;
//! * [`DesignSpace`] / [`explore`] / [`pareto_frontier`] — the Table 2
//!   design-space exploration and Figure 9 Pareto analysis;
//! * [`CpuModel`] — the CPU baseline calibrated against the paper's Table 3
//!   and Figure 12a ([`FIG12A_SHARES`]: each of the nine shares with its
//!   label and the [`Kernel`] it folds into);
//! * [`speedup_report`], [`scaling_study`], [`comparison_table`] — the
//!   Figure 11/14 and Table 3/4 analyses.
//!
//! # Examples
//!
//! ```
//! use zkspeed_core::{ChipConfig, Workload};
//!
//! let chip = ChipConfig::table5_design();
//! let sim = chip.simulate(&Workload::standard(20));
//! println!("2^20 gates prove in {:.2} ms", sim.total_seconds() * 1e3);
//! assert!(sim.total_seconds() < 0.1);
//! assert!(chip.area().total_mm2() > 300.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod chip;
mod cpu_model;
mod dse;
mod memory;
mod msm_unit;
pub mod params;
mod units;
mod workload;

pub use analysis::{
    comparison_table, geomean, scaling_study, speedup_from_simulation, speedup_report,
    AcceleratorComparison, ScalingPoint, ScalingStudy, SpeedupReport,
};
pub use chip::{AreaBreakdown, ChipConfig, ChipSimulation, Kernel, PowerBreakdown, Unit};
pub use cpu_model::{CpuModel, FIG12A_SHARES};
pub use dse::{explore, pareto_frontier, pick_iso_area, DesignPoint, DesignSpace};
pub use memory::{MemoryConfig, MemoryTechnology, SramModel};
pub use msm_unit::{aggregation_cycles, AggregationSchedule, MsmDatapath, MsmUnitConfig};
pub use units::{
    ConstructNdConfig, FracMleConfig, MleCombineConfig, MleUpdateUnitConfig, MtuConfig,
    Sha3UnitConfig, SumcheckUnitConfig,
};
pub use workload::{ColumnSplit, Workload, WorkloadError};
