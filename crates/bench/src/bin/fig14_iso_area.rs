//! Regenerates Figure 14: speedup over the CPU at iso-CPU-area designs for
//! problem sizes 2^17-2^23, per kernel, plus the geometric means.

use zkspeed_bench::banner;
use zkspeed_core::{
    explore, geomean, pareto_frontier, pick_iso_area, speedup_from_simulation, CpuModel,
    DesignSpace, Kernel, Workload,
};

fn main() {
    banner("Figure 14 reproduction: iso-CPU-area speedups, 2^17 - 2^23 gates");
    // Figure 14's kernels: the MSMs and the SumChecks.
    let kernels = [Kernel::MSMS, Kernel::SUMCHECKS].concat();
    print!("{:>6} {:>10} {:>9}", "mu", "Area", "Total");
    for k in &kernels {
        print!(" {:>13}", k.name());
    }
    println!();
    let mut totals = Vec::new();
    let mut per_kernel: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    for mu in 17..=23usize {
        let workload = Workload::standard(mu);
        // Pick a Pareto-optimal design close to the EPYC core area (296 mm^2),
        // excluding the PHY as the paper does.
        let space = DesignSpace::reduced_at_bandwidth(2048.0);
        let points = explore(&space, &workload);
        let frontier = pareto_frontier(&points);
        let adjusted: Vec<zkspeed_core::DesignPoint> = frontier
            .iter()
            .map(|p| zkspeed_core::DesignPoint {
                config: p.config,
                area_mm2: p.config.area().total_without_phy_mm2(),
                runtime_seconds: p.runtime_seconds,
            })
            .collect();
        let pick = pick_iso_area(&adjusted, CpuModel::CORE_AREA_MM2).expect("non-empty frontier");
        let sim = pick.config.simulate(&workload);
        let r = speedup_from_simulation(&sim, mu);
        print!("{:>6} {:>10.1} {:>9.0}", mu, pick.area_mm2, r.total);
        for (k, bucket) in kernels.iter().zip(per_kernel.iter_mut()) {
            print!(" {:>13.0}", r.kernels[*k]);
            bucket.push(r.kernels[*k]);
        }
        println!();
        totals.push(r.total);
    }
    println!();
    println!(
        "geomean total speedup: {:.0}x  (paper: 801x; >=2 orders of magnitude expected)",
        geomean(&totals)
    );
    for (k, vals) in kernels.iter().zip(per_kernel.iter()) {
        println!("geomean {}: {:.0}x", k.name(), geomean(vals));
    }
}
