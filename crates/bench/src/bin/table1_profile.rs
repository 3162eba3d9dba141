//! Regenerates Table 1: modmuls, input/output sizes and arithmetic intensity
//! of the twelve profiled HyperPlonk kernels.
//!
//! The paper profiles the arkworks CPU library at 2^20 gates; here the
//! instrumented functional layer is profiled at a laptop-friendly size
//! (default 2^12, override with the first CLI argument) and the per-kernel
//! modmul counts are also extrapolated linearly to 2^20 (every kernel is
//! O(n) in the gate count).

use zkspeed_bench::{banner, section};
use zkspeed_hyperplonk::profile_kernels;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

fn main() {
    let num_vars: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    banner(&format!(
        "Table 1 reproduction: kernel profile at 2^{num_vars} gates (paper: 2^20)"
    ));
    let mut rng = StdRng::seed_from_u64(1);
    let rows = profile_kernels(num_vars, &mut rng);
    let scale = (1u64 << 20) as f64 / (1u64 << num_vars) as f64;

    section("measured at this size / extrapolated to 2^20");
    println!(
        "{:<22} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "Kernel", "Modmuls", "Modmuls@2^20", "In (MB)", "Out (MB)", "AI (mm/B)"
    );
    for r in &rows {
        println!(
            "{:<22} {:>14} {:>14.3e} {:>12.3} {:>12.3} {:>10.3}",
            r.kernel,
            r.modmuls,
            r.modmuls as f64 * scale,
            r.input_bytes as f64 * scale / 1e6,
            r.output_bytes as f64 * scale / 1e6,
            r.arithmetic_intensity(),
        );
    }
    println!();
    println!("Paper shape check: the three MSM kernels must have the highest arithmetic");
    println!("intensity and 'All MLE Updates' the lowest.");
}
