//! Pins what the analytical model computes for the Table 5 design on the
//! standard 45/45/10 workload at μ ∈ {17, 20, 23}: the five step latencies,
//! the seven chip kernel latencies, the CPU model's per-kernel seconds and
//! the per-kernel speedups. A share folded into the wrong kernel, a unit
//! charged to the wrong step or a reordered list fails here, where a check
//! of totals alone would pass.

use zkspeed_core::{speedup_report, ChipConfig, CpuModel, Workload};

/// Relative tolerance of every pinned value.
const TOLERANCE: f64 = 1e-12;

/// One problem size's pinned values. Kernels are in the Figure 14 order:
/// witness, wiring and opening MSMs, then the ZeroCheck, PermCheck and
/// OpenCheck, each with its Build MLE passes; the chip adds its batch
/// evaluations and MLE Combine last.
struct Pin {
    mu: usize,
    steps: [f64; 5],
    chip: [f64; 7],
    cpu: [f64; 6],
    speedup: [f64; 6],
}

const PINS: [Pin; 3] = [
    Pin {
        mu: 17,
        steps: [
            9.26075625e-5,
            7.037950000000002e-5,
            0.00055257225,
            9.3104e-5,
            0.0003826620625,
        ],
        chip: [
            9.26075625e-5,
            0.00048038875,
            0.0002822145625,
            7.037950000000002e-5,
            7.218350000000002e-5,
            7.571372222222224e-5,
            0.00012776444444444443,
        ],
        cpu: [
            0.125752,
            0.623044,
            0.351534,
            0.080024,
            0.10574599999999999,
            0.058589,
        ],
        speedup: [
            1357.902061184258,
            1296.9579325077868,
            1245.6267206267926,
            1137.0356424811198,
            1464.9608289983164,
            773.8227401902046,
        ],
    },
    Pin {
        mu: 20,
        steps: [
            0.0006693680625,
            0.0005579354999999998,
            0.00438030825,
            0.000724416,
            0.0027419091874999997,
        ],
        chip: [
            0.0006693680625,
            0.00380634075,
            0.0019530696875,
            0.0005579354999999998,
            0.0005739674999999998,
            0.0005983252777777776,
            0.0010011955555555556,
        ],
        cpu: [
            0.7584719999999999,
            3.757884,
            2.1202739999999998,
            0.482664,
            0.637806,
            0.353379,
        ],
        speedup: [
            1133.1165056892746,
            987.2694660876065,
            1085.6110325044403,
            865.0892441868283,
            1111.2231964353384,
            590.6135226518836,
        ],
    },
    Pin {
        mu: 23,
        steps: [
            0.0052802745,
            0.0044574595,
            0.03500202825,
            0.005771216,
            0.0215588603125,
        ],
        chip: [
            0.0052802745,
            0.03041395675,
            0.0152647568125,
            0.0044574595,
            0.004588071500000001,
            0.0047782097222222215,
            0.007984948444444443,
        ],
        cpu: [
            6.516576000000001,
            32.286672,
            18.216792,
            4.146912,
            5.4798480000000005,
            3.0361320000000003,
        ],
        speedup: [
            1234.135838960645,
            1061.5742063879934,
            1193.3889431558214,
            930.33083082415,
            1194.3684835774682,
            635.4120426903266,
        ],
    },
];

fn assert_close(what: &str, mu: usize, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "μ = {mu}: {what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            ((g - w) / w).abs() <= TOLERANCE,
            "μ = {mu}: {what}[{i}] is {g:?}, pinned {w:?}"
        );
    }
}

#[test]
fn the_model_computes_its_pinned_values() {
    let chip = ChipConfig::table5_design();
    for pin in &PINS {
        let mu = pin.mu;
        let workload = Workload::standard(mu);
        let sim = chip.simulate(&workload);
        assert_close("step_seconds", mu, &sim.step_seconds, &pin.steps);
        assert_close("chip kernels", mu, &sim.kernels, &pin.chip);
        let c = CpuModel::kernel_seconds(mu);
        assert_close("cpu kernels", mu, &c[..6], &pin.cpu);
        let r = speedup_report(&chip, &workload);
        assert_close("speedups", mu, &r.kernels[..6], &pin.speedup);
    }
}
