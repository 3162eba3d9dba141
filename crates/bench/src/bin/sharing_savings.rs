//! Regenerates the resource-sharing claims of Sections 4.1.4, 4.3.3 and 4.5:
//! modular-multiplier sharing inside the SumCheck PE and MLE Combine unit,
//! and multi-function sharing of the tree unit.

use zkspeed_bench::banner;
use zkspeed_core::params::{
    MLE_COMBINE_MODMULS_SHARED, MLE_COMBINE_MODMULS_UNSHARED, MODMUL_255_MM2,
    SUMCHECK_PE_MODMULS_SHARED, SUMCHECK_PE_MODMULS_UNSHARED,
};
use zkspeed_core::MtuConfig;

fn main() {
    banner("Resource-sharing savings (Sections 4.1.4, 4.3.3, 4.5)");
    let sc_shared = SUMCHECK_PE_MODMULS_SHARED as f64 * MODMUL_255_MM2;
    let sc_unshared = SUMCHECK_PE_MODMULS_UNSHARED as f64 * MODMUL_255_MM2;
    println!(
        "SumCheck PE      : {} vs {} modmuls -> {:.2} vs {:.2} mm^2 ({:.1}% saved; paper: 48.9%)",
        SUMCHECK_PE_MODMULS_SHARED,
        SUMCHECK_PE_MODMULS_UNSHARED,
        sc_shared,
        sc_unshared,
        (1.0 - sc_shared / sc_unshared) * 100.0
    );
    let mc_shared = MLE_COMBINE_MODMULS_SHARED as f64 * MODMUL_255_MM2;
    let mc_unshared = MLE_COMBINE_MODMULS_UNSHARED as f64 * MODMUL_255_MM2;
    println!(
        "MLE Combine unit : {} vs {} modmuls -> {:.2} vs {:.2} mm^2 ({:.1}% saved; paper: 41%)",
        MLE_COMBINE_MODMULS_SHARED,
        MLE_COMBINE_MODMULS_UNSHARED,
        mc_shared,
        mc_unshared,
        (1.0 - mc_shared / mc_unshared) * 100.0
    );
    let mtu = MtuConfig::default();
    println!(
        "Multifunction Tree: shared {:.2} mm^2 vs dedicated {:.2} mm^2 ({:.1}% saved; paper: 41.6%)",
        mtu.area_mm2(),
        mtu.unshared_area_mm2(),
        (1.0 - mtu.area_mm2() / mtu.unshared_area_mm2()) * 100.0
    );
}
