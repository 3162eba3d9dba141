//! Regenerates Table 5: area and power breakdown of the highlighted 366 mm^2
//! zkSpeed design.

use zkspeed_bench::banner;
use zkspeed_core::ChipConfig;

fn main() {
    banner("Table 5 reproduction: area and power of the highlighted design");
    let chip = ChipConfig::table5_design();
    let a = chip.area();
    let p = chip.power();
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "Module", "Area (mm^2)", "Paper", "Power (W)", "Paper"
    );
    let rows: [(&str, f64, f64, f64, f64); 8] = [
        ("MSM (16 PEs)", a.msm, 105.64, p.msm, 76.19),
        ("SumCheck (2 PEs)", a.sumcheck, 24.96, p.sumcheck, 5.38),
        ("Construct N&D", a.construct_nd, 1.35, p.construct_nd, 0.19),
        ("FracMLE", a.fracmle, 1.92, p.fracmle, 0.25),
        ("MLE Combine", a.mle_combine, 9.56, p.mle_combine, 0.34),
        ("MLE Update", a.mle_update, 5.84, p.mle_update, 1.13),
        ("Multifunction Tree", a.mtu, 12.28, p.mtu, 4.16),
        ("Other", a.sha3 + a.interconnect, 1.98, p.other, 0.04),
    ];
    for (name, area, parea, power, ppower) in rows {
        println!("{name:<28} {area:>12.2} {parea:>12.2} {power:>12.2} {ppower:>12.2}");
    }
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
        "Total Compute",
        a.compute_mm2(),
        163.53,
        p.msm
            + p.sumcheck
            + p.construct_nd
            + p.fracmle
            + p.mle_combine
            + p.mle_update
            + p.mtu
            + p.other,
        87.68
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
        "SRAM", a.sram, 143.73, p.sram, 19.60
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
        "HBM3 (2 PHYs)", a.hbm_phy, 59.20, p.memory, 63.60
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
        "Total",
        a.total_mm2(),
        366.46,
        p.total_w(),
        170.88
    );
}
