//! Regenerates Figure 13: per-unit utilization and compute-area share for
//! the highlighted (Table 5) design at 2^20 gates.

use zkspeed_bench::{banner, pct};
use zkspeed_core::{ChipConfig, Unit, Workload};

fn main() {
    banner("Figure 13 reproduction: unit utilization and compute-area share");
    let chip = ChipConfig::table5_design();
    let sim = chip.simulate(&Workload::standard(20));
    let util = sim.utilization();
    let shares = chip.area().compute_area_shares();
    println!(
        "{:<22} {:>14} {:>16}",
        "Unit", "Utilization", "Area share (AU)"
    );
    for unit in Unit::ALL {
        println!(
            "{:<22} {:>13.1}% {:>15.2}%",
            unit.name(),
            pct(util[unit]),
            pct(shares[unit])
        );
    }
    println!();
    println!("Expected shape (paper): the MSM unit has both the largest area share (~64.6%)");
    println!("and the highest utilization; SHA3 is tiny and rarely used.");
}
