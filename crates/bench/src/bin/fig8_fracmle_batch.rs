//! Regenerates Figure 8: FracMLE latency imbalance and stand-alone area as a
//! function of the Montgomery-batching batch size (optimum at b = 64).

use zkspeed_bench::banner;
use zkspeed_core::FracMleConfig;

fn main() {
    banner("Figure 8 reproduction: FracMLE batch-size optimization");
    println!(
        "{:>12} {:>20} {:>16} {:>14}",
        "Batch size", "Latency imbalance", "Inverse units", "Area (mm^2)"
    );
    for k in 1..=8usize {
        let b = 1usize << k;
        let cfg = FracMleConfig {
            pes: 1,
            batch_size: b,
        };
        println!(
            "{:>12} {:>20.0} {:>16} {:>14.2}",
            b,
            cfg.latency_imbalance_cycles(),
            cfg.num_inverse_engines(),
            cfg.standalone_area_mm2()
        );
    }
    println!("\nBoth curves reach their minimum at or near b = 64, the paper's chosen batch size.");
}
