//! Regenerates Figure 9: area-vs-runtime Pareto frontiers for 2^20 gates
//! under the seven off-chip bandwidths of Table 2, plus the global frontier.

use zkspeed_bench::{banner, ms, section};
use zkspeed_core::{explore, pareto_frontier, DesignSpace, Workload};

fn main() {
    let num_vars: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    banner(&format!(
        "Figure 9 reproduction: Pareto frontiers at 2^{num_vars} gates"
    ));
    let workload = Workload::standard(num_vars);
    let mut all_points = Vec::new();
    for &bw in &zkspeed_core::params::DSE_BANDWIDTHS_GBPS {
        let space = DesignSpace::reduced_at_bandwidth(bw);
        let points = explore(&space, &workload);
        let frontier = pareto_frontier(&points);
        section(&format!(
            "{:.0} GB/s: {} designs, {} Pareto-optimal",
            bw,
            points.len(),
            frontier.len()
        ));
        println!("{:>14} {:>14}", "Runtime (ms)", "Area (mm^2)");
        for p in frontier.iter().take(8) {
            println!("{:>14.3} {:>14.1}", ms(p.runtime_seconds), p.area_mm2);
        }
        all_points.extend(points);
    }
    let global = pareto_frontier(&all_points);
    section(&format!("global Pareto frontier ({} points)", global.len()));
    println!(
        "{:>14} {:>14} {:>12} {:>10} {:>8}",
        "Runtime (ms)", "Area (mm^2)", "BW (GB/s)", "MSM PEs", "SC PEs"
    );
    for p in &global {
        println!(
            "{:>14.3} {:>14.1} {:>12.0} {:>10} {:>8}",
            ms(p.runtime_seconds),
            p.area_mm2,
            p.config.memory.bandwidth_gbps,
            p.config.msm.total_pes(),
            p.config.sumcheck.pes
        );
    }
    let best_low_bw = all_points
        .iter()
        .filter(|p| p.config.memory.bandwidth_gbps <= 512.0)
        .map(|p| p.runtime_seconds)
        .fold(f64::INFINITY, f64::min);
    let best_high_bw = all_points
        .iter()
        .filter(|p| p.config.memory.bandwidth_gbps >= 1024.0)
        .map(|p| p.runtime_seconds)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nBest runtime at <= 512 GB/s: {:.3} ms; best at >= 1 TB/s: {:.3} ms ({:.2}x faster)",
        ms(best_low_bw),
        ms(best_high_bw),
        best_low_bw / best_high_bw
    );
    println!("(The paper's key Figure 9 observation: HBM3-scale bandwidths yield >2x speedups");
    println!(" over 512 GB/s designs in the high-performance region of the frontier.)");
}
