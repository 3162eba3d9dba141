//! Walk through what each zkSpeed unit does for one proof: functional result
//! first (on a small instance), then the hardware model's view of the same
//! kernel at paper scale.
//!
//! Run with: `cargo run --release --example accelerator_walkthrough`

use zkspeed_core::{ChipConfig, Unit, Workload};
use zkspeed_field::Fr;
use zkspeed_hw::params::CLOCK_HZ;
use zkspeed_poly::{fraction_mle, product_mle, MultilinearPoly};
use zkspeed_rt::pool::Serial;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let mu_small = 6;

    println!("== Functional kernels (2^{mu_small} entries) ==");
    // Build MLE (Multifunction Tree, forward mode).
    let challenges: Vec<Fr> = (0..mu_small).map(|_| Fr::random(&mut rng)).collect();
    let eq = MultilinearPoly::eq_mle(&challenges, &Serial);
    println!(
        "Build MLE: eq table sums to one over the hypercube: {}",
        eq.sum_over_hypercube() == Fr::one()
    );

    // FracMLE + Product MLE (Wiring Identity).
    let numerator = MultilinearPoly::random(mu_small, &mut rng);
    let denominator = MultilinearPoly::from_fn(mu_small, |i| Fr::from_u64(i as u64 + 1));
    let phi = fraction_mle(&numerator, &denominator);
    let pi = product_mle(&phi);
    println!(
        "FracMLE/ProdMLE: grand product reconstructed at index 2^mu-2: {}",
        pi[(1 << mu_small) - 2] == phi.evaluations().iter().copied().product::<Fr>()
    );

    println!("\n== Hardware model at 2^20 gates (Table 5 design, 2 TB/s) ==");
    let chip = ChipConfig::table5_design();
    let workload = Workload::standard(20);
    let sim = chip.simulate(&workload);
    let util = sim.utilization();
    println!(
        "total latency: {:.2} ms at {:.1} GHz",
        sim.total_seconds() * 1e3,
        CLOCK_HZ / 1e9
    );
    println!("{:<22} {:>12} {:>12}", "Unit", "Busy (ms)", "Utilization");
    for (i, unit) in Unit::ALL.iter().enumerate() {
        println!(
            "{:<22} {:>12.3} {:>11.1}%",
            unit.name(),
            sim.busy[i] * 1e3,
            util[i] * 100.0
        );
    }
    let area = chip.area();
    println!(
        "\nchip: {:.0} mm^2 total ({:.0} compute, {:.0} SRAM, {:.0} HBM PHY), {:.0} W average",
        area.total_mm2(),
        area.compute_mm2(),
        area.sram,
        area.hbm_phy,
        chip.power().total_w()
    );
}
