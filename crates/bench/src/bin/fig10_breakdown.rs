//! Regenerates Figure 10: area and runtime breakdown for four Pareto points
//! (A-D), one per bandwidth class, at 2^20 gates.

use zkspeed_bench::{banner, ms, pct, section};
use zkspeed_core::{explore, pareto_frontier, ChipConfig, DesignSpace, Kernel, Workload};

fn breakdown(label: &str, config: &ChipConfig, workload: &Workload) {
    section(label);
    let area = config.area();
    let total = area.total_mm2();
    println!(
        "total area {total:.1} mm^2, bandwidth {:.0} GB/s",
        config.memory.bandwidth_gbps
    );
    println!(
        "  area %: MSM {:.1}  SumCheck {:.1}  MLE-Combine {:.1}  MTU {:.1}  on-chip mem {:.1}  HBM PHY {:.1}  other {:.1}",
        pct(area.msm / total),
        pct(area.sumcheck / total),
        pct(area.mle_combine / total),
        pct(area.mtu / total),
        pct(area.sram / total),
        pct(area.hbm_phy / total),
        pct((area.mle_update + area.construct_nd + area.fracmle + area.sha3 + area.interconnect) / total),
    );
    let sim = config.simulate(workload);
    let t = sim.total_seconds();
    let shares: Vec<String> = Kernel::ALL
        .iter()
        .map(|k| format!("{} {:.1}", k.name(), pct(sim.kernels[*k] / t)))
        .collect();
    println!("  runtime {:.3} ms; %: {}", ms(t), shares.join("  "));
}

fn main() {
    banner("Figure 10 reproduction: area & runtime breakdown of Pareto points A-D");
    let workload = Workload::standard(20);
    for (label, bw) in [
        ("A (512 GB/s)", 512.0),
        ("B (1 TB/s)", 1024.0),
        ("C (2 TB/s)", 2048.0),
        ("D (4 TB/s)", 4096.0),
    ] {
        let space = DesignSpace::reduced_at_bandwidth(bw);
        let frontier = pareto_frontier(&explore(&space, &workload));
        // Highest-performing design at this bandwidth = first frontier entry.
        if let Some(best) = frontier.first() {
            breakdown(label, &best.config, &workload);
        }
    }
    println!();
    println!("Expected shape (paper): SumCheck area share grows from A to D, the MSM unit's");
    println!("absolute area stays constant, and the SumCheck-related runtime share shrinks.");
}
