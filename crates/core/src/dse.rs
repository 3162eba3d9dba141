//! Design-space exploration and Pareto analysis (Section 7.1 / Figure 9 of
//! the paper).
//!
//! The paper sweeps the Table 2 knobs, simulates every configuration, and
//! extracts the Pareto frontier of (area, runtime). [`DesignSpace`] describes
//! the sweep, [`explore`] evaluates it against a workload, and
//! [`pareto_frontier`] extracts the non-dominated points.

use crate::chip::ChipConfig;
use crate::memory::MemoryConfig;
use crate::msm_unit::MsmUnitConfig;
use crate::params::DSE_BANDWIDTHS_GBPS;
use crate::units::{FracMleConfig, MleUpdateUnitConfig, SumcheckUnitConfig};
use crate::workload::Workload;

/// A parameter sweep over the zkSpeed design knobs (Table 2).
#[derive(Clone, Debug, PartialEq)]
pub struct DesignSpace {
    /// MSM core counts to explore.
    pub msm_cores: Vec<usize>,
    /// MSM PEs per core.
    pub msm_pes_per_core: Vec<usize>,
    /// MSM window sizes in bits.
    pub msm_window_bits: Vec<usize>,
    /// Points buffered per MSM PE.
    pub msm_points_per_pe: Vec<usize>,
    /// FracMLE PE counts.
    pub fracmle_pes: Vec<usize>,
    /// SumCheck PE counts.
    pub sumcheck_pes: Vec<usize>,
    /// MLE Update PE counts.
    pub mle_update_pes: Vec<usize>,
    /// Modular multipliers per MLE Update PE.
    pub mle_update_modmuls: Vec<usize>,
    /// Off-chip bandwidths in GB/s.
    pub bandwidths_gbps: Vec<f64>,
}

impl DesignSpace {
    /// The full Table 2 design space.
    pub fn paper() -> Self {
        Self {
            msm_cores: vec![1, 2],
            msm_pes_per_core: vec![1, 2, 4, 8, 16],
            msm_window_bits: vec![7, 8, 9, 10],
            msm_points_per_pe: vec![1024, 2048, 4096, 8192, 16384],
            fracmle_pes: vec![1, 2, 4],
            sumcheck_pes: vec![1, 2, 4, 8, 16],
            mle_update_pes: (1..=11).collect(),
            mle_update_modmuls: vec![1, 2, 4, 8, 16],
            bandwidths_gbps: DSE_BANDWIDTHS_GBPS.to_vec(),
        }
    }

    /// A reduced sweep (same knobs, coarser grids: each knob's values are a
    /// subset of [`DesignSpace::paper`]'s) that keeps the Pareto frontier
    /// shape while evaluating in a few seconds.
    pub fn reduced() -> Self {
        Self {
            msm_cores: vec![1, 2],
            msm_pes_per_core: vec![1, 2, 4, 8, 16],
            msm_window_bits: vec![7, 9, 10],
            msm_points_per_pe: vec![2048, 8192],
            fracmle_pes: vec![1, 2],
            sumcheck_pes: vec![1, 2, 4, 8, 16],
            mle_update_pes: vec![1, 3, 5, 7, 9, 11],
            mle_update_modmuls: vec![1, 4, 16],
            bandwidths_gbps: DSE_BANDWIDTHS_GBPS.to_vec(),
        }
    }

    /// A reduced sweep restricted to one off-chip bandwidth.
    pub fn reduced_at_bandwidth(bandwidth_gbps: f64) -> Self {
        Self {
            bandwidths_gbps: vec![bandwidth_gbps],
            ..Self::reduced()
        }
    }

    /// Number of configurations in the sweep.
    pub fn len(&self) -> usize {
        self.msm_cores.len()
            * self.msm_pes_per_core.len()
            * self.msm_window_bits.len()
            * self.msm_points_per_pe.len()
            * self.fracmle_pes.len()
            * self.sumcheck_pes.len()
            * self.mle_update_pes.len()
            * self.mle_update_modmuls.len()
            * self.bandwidths_gbps.len()
    }

    /// Returns `true` if the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every chip configuration in the sweep, sized for
    /// `max_num_vars`.
    pub fn configurations(&self, max_num_vars: usize) -> Vec<ChipConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &cores in &self.msm_cores {
            for &pes in &self.msm_pes_per_core {
                for &w in &self.msm_window_bits {
                    for &pts in &self.msm_points_per_pe {
                        for &fpes in &self.fracmle_pes {
                            for &scpes in &self.sumcheck_pes {
                                for &upes in &self.mle_update_pes {
                                    for &umm in &self.mle_update_modmuls {
                                        for &bw in &self.bandwidths_gbps {
                                            out.push(ChipConfig {
                                                msm: MsmUnitConfig {
                                                    cores,
                                                    pes_per_core: pes,
                                                    window_bits: w,
                                                    points_per_pe: pts,
                                                    ..MsmUnitConfig::default()
                                                },
                                                sumcheck: SumcheckUnitConfig { pes: scpes },
                                                mle_update: MleUpdateUnitConfig {
                                                    pes: upes,
                                                    modmuls_per_pe: umm,
                                                },
                                                fracmle: FracMleConfig {
                                                    pes: fpes,
                                                    batch_size: 64,
                                                },
                                                memory: MemoryConfig { bandwidth_gbps: bw },
                                                max_num_vars,
                                                ..ChipConfig::table5_design()
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One evaluated design point.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// The chip configuration.
    pub config: ChipConfig,
    /// Total chip area in mm² (including SRAM and PHYs).
    pub area_mm2: f64,
    /// End-to-end proving latency in seconds for the evaluated workload.
    pub runtime_seconds: f64,
}

/// Evaluates every configuration of a design space against a workload.
pub fn explore(space: &DesignSpace, workload: &Workload) -> Vec<DesignPoint> {
    space
        .configurations(workload.num_vars)
        .into_iter()
        .map(|config| {
            let area = config.area().total_mm2();
            let sim = config.simulate(workload);
            DesignPoint {
                config,
                area_mm2: area,
                runtime_seconds: sim.total_seconds(),
            }
        })
        .collect()
}

/// Extracts the Pareto frontier (minimal area for a given runtime and vice
/// versa) from a set of design points, sorted by increasing runtime.
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<&DesignPoint> = points.iter().collect();
    sorted.sort_by(|a, b| {
        a.runtime_seconds
            .partial_cmp(&b.runtime_seconds)
            .unwrap()
            .then(a.area_mm2.partial_cmp(&b.area_mm2).unwrap())
    });
    let mut frontier: Vec<DesignPoint> = Vec::new();
    let mut best_area = f64::INFINITY;
    for p in sorted {
        if p.area_mm2 < best_area {
            best_area = p.area_mm2;
            frontier.push(p.clone());
        }
    }
    frontier
}

/// Picks the Pareto point whose area is closest to (but not exceeding, when
/// possible) a target area — used for the iso-CPU-area comparison.
pub fn pick_iso_area(frontier: &[DesignPoint], target_area_mm2: f64) -> Option<DesignPoint> {
    let mut best_under: Option<&DesignPoint> = None;
    for p in frontier {
        if p.area_mm2 <= target_area_mm2 {
            match best_under {
                Some(b) if p.runtime_seconds >= b.runtime_seconds => {}
                _ => best_under = Some(p),
            }
        }
    }
    best_under
        .or_else(|| {
            frontier.iter().min_by(|a, b| {
                (a.area_mm2 - target_area_mm2)
                    .abs()
                    .partial_cmp(&(b.area_mm2 - target_area_mm2).abs())
                    .unwrap()
            })
        })
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_space() -> DesignSpace {
        DesignSpace {
            msm_cores: vec![1],
            msm_pes_per_core: vec![1, 4, 16],
            msm_window_bits: vec![9],
            msm_points_per_pe: vec![2048],
            fracmle_pes: vec![1],
            sumcheck_pes: vec![1, 2, 8],
            mle_update_pes: vec![4, 11],
            mle_update_modmuls: vec![4],
            bandwidths_gbps: vec![512.0, 2048.0],
        }
    }

    #[test]
    fn design_space_sizes() {
        assert_eq!(
            DesignSpace::paper().len(),
            2 * 5 * 4 * 5 * 3 * 5 * 11 * 5 * 7
        );
        assert!(!DesignSpace::reduced().is_empty());
        assert!(DesignSpace::reduced().len() < DesignSpace::paper().len());
        let tiny = tiny_space();
        assert_eq!(tiny.configurations(18).len(), tiny.len());
    }

    #[test]
    fn reduced_is_a_sub_grid_of_paper() {
        // Destructured whole, so a knob added to the space must be listed
        // here too.
        let DesignSpace {
            msm_cores,
            msm_pes_per_core,
            msm_window_bits,
            msm_points_per_pe,
            fracmle_pes,
            sumcheck_pes,
            mle_update_pes,
            mle_update_modmuls,
            bandwidths_gbps,
        } = DesignSpace::reduced();
        let paper = DesignSpace::paper();
        fn within<T: PartialEq + std::fmt::Debug>(knob: &str, reduced: &[T], paper: &[T]) {
            for v in reduced {
                assert!(
                    paper.contains(v),
                    "{knob}: {v:?} is not in the paper's grid"
                );
            }
        }
        within("msm_cores", &msm_cores, &paper.msm_cores);
        within(
            "msm_pes_per_core",
            &msm_pes_per_core,
            &paper.msm_pes_per_core,
        );
        within("msm_window_bits", &msm_window_bits, &paper.msm_window_bits);
        within(
            "msm_points_per_pe",
            &msm_points_per_pe,
            &paper.msm_points_per_pe,
        );
        within("fracmle_pes", &fracmle_pes, &paper.fracmle_pes);
        within("sumcheck_pes", &sumcheck_pes, &paper.sumcheck_pes);
        within("mle_update_pes", &mle_update_pes, &paper.mle_update_pes);
        within(
            "mle_update_modmuls",
            &mle_update_modmuls,
            &paper.mle_update_modmuls,
        );
        within("bandwidths_gbps", &bandwidths_gbps, &paper.bandwidths_gbps);
    }

    #[test]
    fn pareto_frontier_is_monotone_and_non_dominated() {
        let points = explore(&tiny_space(), &Workload::standard(18));
        assert_eq!(points.len(), 36);
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= points.len());
        // Monotone: runtime increases, area decreases along the frontier.
        for pair in frontier.windows(2) {
            assert!(pair[1].runtime_seconds >= pair[0].runtime_seconds);
            assert!(pair[1].area_mm2 <= pair[0].area_mm2);
        }
        // No point dominates any frontier point.
        for f in &frontier {
            for p in &points {
                assert!(
                    !(p.area_mm2 < f.area_mm2 && p.runtime_seconds < f.runtime_seconds),
                    "frontier point dominated"
                );
            }
        }
    }

    #[test]
    fn higher_bandwidth_dominates_at_equal_area_for_fast_designs() {
        // Among identical compute configurations, the 2 TB/s points should be
        // at least as fast as the 512 GB/s points.
        let w = Workload::standard(18);
        let slow = ChipConfig::table5_design()
            .with_bandwidth(512.0)
            .with_max_num_vars(18);
        let fast = ChipConfig::table5_design()
            .with_bandwidth(2048.0)
            .with_max_num_vars(18);
        assert!(fast.simulate(&w).total_seconds() <= slow.simulate(&w).total_seconds());
    }

    #[test]
    fn iso_area_pick_respects_budget() {
        let points = explore(&tiny_space(), &Workload::standard(18));
        let frontier = pareto_frontier(&points);
        let max_area = frontier.iter().map(|p| p.area_mm2).fold(0.0, f64::max);
        let pick = pick_iso_area(&frontier, max_area + 100.0).unwrap();
        // With a generous budget we should get the fastest frontier point.
        let fastest = frontier
            .iter()
            .map(|p| p.runtime_seconds)
            .fold(f64::INFINITY, f64::min);
        assert!((pick.runtime_seconds - fastest).abs() < 1e-12);
        // With a tiny budget we still get *something* (closest point).
        assert!(pick_iso_area(&frontier, 1.0).is_some());
        assert!(pick_iso_area(&[], 100.0).is_none());
    }
}
