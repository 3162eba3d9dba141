//! Integration tests of the accelerator-model layer against the functional
//! layer and against the headline numbers of the paper.

use zkspeed_core::{
    explore, geomean, pareto_frontier, speedup_report, ChipConfig, CpuModel, DesignSpace,
    SramModel, Workload,
};

#[test]
fn table5_design_reproduces_headline_area_power_and_latency() {
    let chip = ChipConfig::table5_design();
    let area = chip.area();
    let power = chip.power();
    // Paper: 366.46 mm^2 and 170.88 W.
    assert!(
        (area.total_mm2() - 366.46).abs() < 40.0,
        "area {}",
        area.total_mm2()
    );
    assert!(
        (power.total_w() - 170.88).abs() < 35.0,
        "power {}",
        power.total_w()
    );
    // Power density stays below the CPU's (the paper's 0.46 W/mm^2 argument).
    assert!(power.total_w() / area.total_mm2() < 0.75);
    // Paper Table 3: 11.4 ms at 2^20; allow a generous modeling band.
    let sim = chip.simulate(&Workload::standard(20));
    let ms = sim.total_seconds() * 1e3;
    assert!(ms > 3.0 && ms < 40.0, "latency {ms} ms");
}

#[test]
fn geomean_speedup_is_hundreds_x_over_the_cpu_baseline() {
    let mut totals = Vec::new();
    for mu in 17..=23usize {
        let chip = ChipConfig::table5_design();
        let report = speedup_report(&chip, &Workload::standard(mu));
        totals.push(report.total);
    }
    let gm = geomean(&totals);
    // Paper: 801x with per-size Pareto picks; the fixed design must still be
    // in the hundreds.
    assert!(gm > 200.0 && gm < 3000.0, "geomean speedup {gm}");
}

#[test]
fn pareto_frontier_prefers_high_bandwidth_for_high_performance() {
    let workload = Workload::standard(20);
    let mut points = Vec::new();
    for bw in [512.0, 2048.0] {
        let space = DesignSpace {
            msm_cores: vec![1],
            msm_pes_per_core: vec![4, 16],
            msm_window_bits: vec![9],
            msm_points_per_pe: vec![2048],
            fracmle_pes: vec![1],
            sumcheck_pes: vec![1, 4, 16],
            mle_update_pes: vec![11],
            mle_update_modmuls: vec![4],
            bandwidths_gbps: vec![bw],
        };
        points.extend(explore(&space, &workload));
    }
    let frontier = pareto_frontier(&points);
    // The fastest frontier point must use the higher bandwidth.
    let fastest = frontier.first().expect("non-empty frontier");
    assert_eq!(fastest.config.memory.bandwidth_gbps, 2048.0);
}

#[test]
fn cpu_model_matches_published_anchors_and_functional_trend() {
    // Published anchors.
    assert!((CpuModel::total_seconds(20) - 8.619).abs() < 0.05);
    assert!((CpuModel::total_seconds(23) - 74.052).abs() < 0.5);
    // The model scales roughly linearly, like the functional prover does.
    let r = CpuModel::total_seconds(22) / CpuModel::total_seconds(20);
    assert!(r > 3.0 && r < 6.0, "scaling ratio {r}");
}

#[test]
fn mle_compression_matches_paper_claims() {
    for mu in [17usize, 20, 23] {
        let ratio = SramModel::compression_ratio(mu);
        assert!(ratio > 8.0, "compression ratio {ratio} at mu = {mu}");
    }
    // The Batch-Evaluation bandwidth saving claim (~84%) follows from only
    // phi and pi living off-chip: 2 of 13 tables plus eq traffic.
    let off_chip_fraction = 4.0 / 22.0;
    assert!(off_chip_fraction < 0.2);
}
