//! Regenerates the Figure 6 / Section 4.3.3 claim: the Multifunction Tree
//! unit's PEs stay >99% utilized on large workloads thanks to the hybrid
//! DFS/BFS traversal, and the multi-function sharing saves ~41.6% area.

use zkspeed_bench::banner;
use zkspeed_core::MtuConfig;

fn main() {
    banner("Figure 6 / Section 4.3 reproduction: Multifunction Tree unit");
    let mtu = MtuConfig::default();
    println!("leaf PEs: {}, total PEs: {}", 32, mtu.total_pes());
    println!(
        "{:>10} {:>16} {:>14}",
        "Problem", "Tree-pass cycles", "Utilization"
    );
    for mu in [8usize, 12, 16, 20, 23] {
        println!(
            "{:>10} {:>16.0} {:>13.2}%",
            format!("2^{mu}"),
            mtu.tree_pass_cycles(mu),
            mtu.utilization(mu) * 100.0
        );
    }
    println!();
    println!(
        "Shared-unit area: {:.2} mm^2; dedicated units would need {:.2} mm^2 ({:.1}% savings)",
        mtu.area_mm2(),
        mtu.unshared_area_mm2(),
        (1.0 - mtu.area_mm2() / mtu.unshared_area_mm2()) * 100.0
    );
}
