//! Regenerates Figure 12: CPU vs zkSpeed runtime breakdown at 2^20 gates.

use zkspeed_bench::{banner, ms, pct, section};
use zkspeed_core::{ChipConfig, CpuModel, Workload, FIG12A_SHARES};
use zkspeed_hyperplonk::ProtocolStep;

fn main() {
    banner("Figure 12 reproduction: runtime breakdown at 2^20 gates");

    section("a) CPU (calibrated model, Figure 12a shares)");
    println!("total {:.0} ms", ms(CpuModel::total_seconds(20)));
    for (label, share, _, kernel) in FIG12A_SHARES {
        println!("  {label:<24} {:>5.1}%  ({})", pct(share), kernel.name());
    }

    section("b) zkSpeed with 2 TB/s (this model, per protocol step)");
    let chip = ChipConfig::table5_design();
    let sim = chip.simulate(&Workload::standard(20));
    let t = sim.total_seconds();
    println!("total {:.3} ms  (paper: 11.405 ms)", ms(t));
    let row = |name: &str, sec: f64| {
        println!(
            "  {:<24} {:>8.3} ms  ({:>5.1}%)",
            name,
            ms(sec),
            pct(sec / t)
        );
    };
    for step in ProtocolStep::ALL {
        row(step.name(), sim.step_seconds[step]);
    }
    // The paper's Figure 12b reports steps 4 and 5 as one bar.
    let (evals, open) = (
        ProtocolStep::BatchEvaluation,
        ProtocolStep::PolynomialOpening,
    );
    let combined = format!("{} & {}", evals.name(), open.name());
    row(&combined, sim.step_seconds[evals] + sim.step_seconds[open]);
    println!();
    println!("Expected shape (paper 12b): Wire Identity ~48.5%, Batch Evals & Poly Open ~35.4%,");
    println!("Witness MSMs ~7.8%, Gate Identity ~8.2%.");
}
