//! Regenerates Table 1: modmuls, input/output sizes and arithmetic intensity
//! of the twelve HyperPlonk kernels, as one proof counts them.
//!
//! The paper profiles the arkworks CPU library at 2^20 gates; here one
//! `mock_circuit` proof is counted at a laptop-friendly size (default 2^12,
//! override with the first CLI argument) and each kernel's modmuls and
//! traffic are also extrapolated linearly to 2^20 (every kernel but the
//! MSMs is O(n) in the gate count). Each row names the Figure 12a share it
//! falls in.

use zkspeed_bench::{banner, section};
use zkspeed_core::FIG12A_SHARES;
use zkspeed_hw::params::{BYTES_PER_FR, BYTES_PER_POINT};
use zkspeed_hyperplonk::{
    mock_circuit, prove, try_preprocess, ExecCtx, Kernel, ProverReport, SparsityProfile,
};
use zkspeed_pcs::{PrecomputeBudget, Srs};
use zkspeed_rt::pool::Serial;
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
    let scale = (1u64 << 20) as f64 / (1u64 << num_vars) as f64;

    section("one proof at this size / extrapolated to 2^20");
    println!(
        "{:<22} {:>14} {:>14} {:>12} {:>12} {:>10}  Fig. 12a share",
        "Kernel", "Modmuls", "Modmuls@2^20", "In (MB)", "Out (MB)", "AI (mm/B)"
    );
    for row in table1(&mock_proof_report(num_vars, 1)) {
        let (kernel, modmuls, input, output) = row;
        println!(
            "{:<22} {:>14} {:>14.3e} {:>12.3} {:>12.3} {:>10.3}  {}",
            kernel.label(),
            modmuls,
            modmuls as f64 * scale,
            input * scale / 1e6,
            output * scale / 1e6,
            intensity(&row),
            fig12a_share(kernel),
        );
    }
    println!();
    println!("Paper shape check: the three MSM rows must have the highest arithmetic");
    println!("intensity and the MLE Updates row the lowest.");
}

/// The report of one proof of the paper's mock circuit at `2^num_vars` gates.
fn mock_proof_report(num_vars: usize, seed: u64) -> ProverReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::try_setup(num_vars, &mut rng, &Serial).expect("setup fits");
    let (circuit, witness) = mock_circuit(num_vars, SparsityProfile::paper_default(), &mut rng);
    let budget = PrecomputeBudget::disabled();
    let (pk, _) = try_preprocess(circuit, &srs, &Serial, &budget).expect("circuit fits");
    prove(&pk, &witness, &ExecCtx::default())
        .expect("valid witness")
        .1
}

/// A kernel, its modmuls, and the bytes it reads and writes.
type Row = (Kernel, u64, f64, f64);

/// Each kernel of the report with its traffic, most intensive first.
fn table1(report: &ProverReport) -> Vec<Row> {
    let n = (1u64 << report.num_vars) as f64;
    let mut rows: Vec<Row> = (Kernel::ALL.into_iter())
        .map(|kernel| {
            let k = report.kernels[kernel];
            let input = n * (k.reads as f64 * BYTES_PER_FR + k.bases as f64 * BYTES_PER_POINT);
            let output = n * k.writes as f64 * BYTES_PER_FR;
            (kernel, k.modmuls, input, output)
        })
        .collect();
    rows.sort_by(|a, b| intensity(b).total_cmp(&intensity(a)));
    rows
}

/// The label of the Figure 12a share a kernel falls in: the MLE Updates
/// fall in the three SumCheck shares.
fn fig12a_share(kernel: Kernel) -> &'static str {
    (FIG12A_SHARES.iter())
        .find(|(_, _, covers, _)| covers.contains(&kernel))
        .map_or("(the three SumChecks)", |(label, ..)| label)
}

/// Modmuls per byte of input and output traffic.
fn intensity(&(_, modmuls, input, output): &Row) -> f64 {
    modmuls as f64 / (input + output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_reproduces_table1_shape() {
        let mu = 8;
        let rows = table1(&mock_proof_report(mu, 0x5eed_0012));
        assert_eq!(rows.len(), 12);
        // Batch Evaluations reads one table per query step 4 evaluates.
        let batch = rows.iter().find(|r| r.0 == Kernel::BatchEval);
        assert_eq!(batch.unwrap().2, (11 << mu) as f64 * BYTES_PER_FR);
        // Every kernel does real work.
        for row in &rows {
            assert!(row.1 > 0, "{} has zero modmuls", row.0.label());
        }
        // The MSM kernels lead arithmetic intensity (the paper's headline
        // observation) and the MLE Updates trail it.
        let top3: Vec<Kernel> = rows[..3].iter().map(|r| r.0).collect();
        assert!(
            top3.iter().all(|k| Kernel::MSMS.contains(k)),
            "top rows: {top3:?}"
        );
        assert_eq!(rows.last().unwrap().0, Kernel::MleUpdate);
    }
}
