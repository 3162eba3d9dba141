//! Kernel-level profiling of the HyperPlonk prover (Table 1 of the zkSpeed
//! paper).
//!
//! Table 1 characterizes twelve kernels by modular-multiplication count,
//! input/output size and arithmetic intensity (modmuls per byte). Because
//! every field multiplication in this repository passes through the counted
//! Montgomery multipliers ([`zkspeed_field::counters`]), the profile below is
//! measured, not estimated: each kernel is run in isolation at the requested
//! problem size and its counters and table sizes are recorded.
//!
//! The paper profiles at 2^20 gates; the functional layer here profiles at
//! whatever size the caller asks for (the figures harness uses 2^12–2^14 and
//! reports both the measured values and an O(n) extrapolation to 2^20, since
//! every kernel except the MSMs is linear in the number of gates).

use zkspeed_field::{measure_modmuls, modmul_count, reset_modmul_count, Fr};
use zkspeed_poly::{fraction_mle, product_mle, split_even_odd, MultilinearPoly};
use zkspeed_rt::pool::Serial;
use zkspeed_rt::Rng;
use zkspeed_sumcheck::{prove_on, prove_zerocheck_on};
use zkspeed_transcript::Transcript;

use crate::constraints::{Shifts, GATE, WIRING};
use crate::mock::{mock_circuit, SparsityProfile};
use crate::proof::{query_groups, PolyLabel};
use crate::prover::{opening_polynomial, zerocheck_position};

/// Bytes per MLE table entry (one 255-bit field element packed into 32 B).
pub const BYTES_PER_FIELD_ELEMENT: usize = 32;
/// Bytes per affine G1 point as stored off-chip (two 381-bit coordinates,
/// 48 B each — the paper's reduced (X, Y, 1) representation).
pub const BYTES_PER_G1_POINT: usize = 96;

/// One row of the Table 1 reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (matching the paper's row labels).
    pub kernel: &'static str,
    /// Modular multiplications (255-bit and 381-bit combined).
    pub modmuls: u64,
    /// Input bytes read by the kernel.
    pub input_bytes: u64,
    /// Output bytes produced by the kernel.
    pub output_bytes: u64,
}

impl KernelProfile {
    /// Arithmetic intensity in modmuls per byte of input + output traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = (self.input_bytes + self.output_bytes).max(1);
        self.modmuls as f64 / bytes as f64
    }
}

/// Profiles the twelve Table 1 kernels at `2^num_vars` gates.
///
/// Runs each kernel functionally (with the real field arithmetic) and
/// records its measured modmul count together with its input/output table
/// sizes. Rows are returned sorted by arithmetic intensity, matching the
/// paper's presentation.
///
/// # Panics
///
/// Panics if `num_vars < 2`.
pub fn profile_kernels<R: Rng + ?Sized>(num_vars: usize, rng: &mut R) -> Vec<KernelProfile> {
    assert!(num_vars >= 2, "profiling needs at least 4 gates");
    let n = 1usize << num_vars;
    let fe = BYTES_PER_FIELD_ELEMENT as u64;
    let (circuit, witness) = mock_circuit(num_vars, SparsityProfile::paper_default(), rng);
    let mut rows = Vec::new();

    // --- MSM kernels -------------------------------------------------------
    // MSMs are profiled through their operation counts (the points live in
    // the 381-bit field); the paper's three MSM rows are witness commits,
    // wiring-identity commits and polynomial-opening commits.
    let g = zkspeed_curve::G1Projective::generator();
    let points: Vec<zkspeed_curve::G1Affine> = {
        // A small synthetic basis is enough for counting: op counts depend on
        // the number of scalars and the window configuration only.
        let proj: Vec<zkspeed_curve::G1Projective> = (0..n)
            .map(|i| g.mul_scalar(&Fr::from_u64(i as u64 + 1)))
            .collect();
        zkspeed_curve::G1Projective::batch_to_affine(&proj)
    };

    reset_modmul_count();
    let before = modmul_count();
    for col in &witness.columns {
        let _ = zkspeed_curve::sparse_msm(&Serial, &points, col.evaluations());
    }
    rows.push(KernelProfile {
        kernel: "Witness MSMs",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 3 * n as u64 * fe + n as u64 * BYTES_PER_G1_POINT as u64,
        output_bytes: 0,
    });

    // Wiring identity MSMs: dense commitments to φ and π.
    let beta = Fr::random(rng);
    let gamma = Fr::random(rng);
    // Construct N & D makes what the chip's unit makes: the two products
    // and the six factor tables, all read off one shift table.
    let construct_nd = || {
        let shifts = Shifts::new(num_vars, beta, gamma);
        let [numerator, denominator] = shifts.products(&witness, &circuit);
        (numerator, denominator, shifts.tables(&witness, &circuit))
    };
    let (numerator, denominator, factors) = construct_nd();
    let phi = fraction_mle(&numerator, &denominator);
    let pi = product_mle(&phi);

    let before = modmul_count();
    let shared = std::sync::Arc::new(points.clone());
    let _ = zkspeed_curve::msm(&Serial, &shared, phi.evaluations());
    let _ = zkspeed_curve::msm(&Serial, &shared, pi.evaluations());
    rows.push(KernelProfile {
        kernel: "Wire Identity MSMs",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 2 * n as u64 * fe + n as u64 * BYTES_PER_G1_POINT as u64,
        output_bytes: 0,
    });

    // Polynomial-opening MSMs: the halving sequence 2^{μ-1} … 2^0.
    let before = modmul_count();
    {
        let mut size = n / 2;
        let mut offset = 0usize;
        while size >= 1 {
            let scalars: Vec<Fr> = phi.evaluations()[..size].to_vec();
            let halved = std::sync::Arc::new(points[offset..offset + size].to_vec());
            let _ = zkspeed_curve::msm(&Serial, &halved, &scalars);
            offset = 0;
            if size == 1 {
                break;
            }
            size /= 2;
        }
    }
    rows.push(KernelProfile {
        kernel: "Poly Open MSMs",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: n as u64 * fe + n as u64 * BYTES_PER_G1_POINT as u64,
        output_bytes: 0,
    });

    // --- SumCheck kernels ------------------------------------------------------
    // The three polynomials exactly as the prover builds them, each proved
    // in full. A table's MLE Updates over all rounds are the multiplications
    // of evaluating it at a point; the rest of a proof's count is its rounds
    // (for the two ZeroChecks, with the Build MLE of their `eq` table).
    let point: Vec<Fr> = (0..num_vars).map(|_| Fr::random(rng)).collect();
    let sigmas = circuit.sigma_mles();
    let committed: Vec<&MultilinearPoly> = (circuit.selectors().iter())
        .chain(&witness.columns)
        .chain(&sigmas)
        .chain([&phi, &pi])
        .collect();
    let table = |label: PolyLabel| committed[label as usize].clone();
    let f_gate = GATE.polynomial(num_vars, Fr::zero(), table, []);
    let (p1, p2) = split_even_odd(&phi, &pi);
    let derived = factors.into_iter().chain([p1, p2]);
    let f_perm = WIRING.polynomial(num_vars, Fr::random(rng), table, derived);
    let groups = query_groups(&point, &point);
    let combined: Vec<MultilinearPoly> = (0..groups.len())
        .map(|_| MultilinearPoly::random(num_vars, rng))
        .collect();
    let f_open = opening_polynomial(&groups, &combined, Fr::random(rng), &Serial);
    let mut update_modmuls = 0;
    let mut update_entries = 0;
    for (kernel, f, zerocheck) in [
        ("ZeroCheck Rounds", &f_gate, true),
        ("PermCheck Rounds", &f_perm, true),
        ("OpenCheck Rounds", &f_open, false),
    ] {
        let ((), updates) = measure_modmuls(|| {
            for m in f.mles() {
                let _ = m.evaluate(&point);
            }
        });
        let ((), proof) = measure_modmuls(|| {
            let mut transcript = Transcript::new(b"profile");
            if zerocheck {
                let _ = prove_zerocheck_on(f, &mut transcript, &Serial);
            } else {
                let _ = prove_on(f, &mut transcript, &Serial);
            }
        });
        rows.push(KernelProfile {
            kernel,
            modmuls: proof.total() - updates.total(),
            input_bytes: 2 * f.table_entries() as u64 * fe,
            output_bytes: 0,
        });
        update_modmuls += updates.total();
        update_entries += f.table_entries() as u64;
    }

    // --- MLE construction kernels -------------------------------------------
    let before = modmul_count();
    let _ = fraction_mle(&numerator, &denominator);
    rows.push(KernelProfile {
        kernel: "Fraction MLE",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 0,
        output_bytes: n as u64 * fe,
    });

    let before = modmul_count();
    let _ = product_mle(&phi);
    rows.push(KernelProfile {
        kernel: "Product MLE",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: 0,
        output_bytes: n as u64 * fe,
    });

    let before = modmul_count();
    let _ = construct_nd();
    rows.push(KernelProfile {
        kernel: "Construct N & D",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: (6 * n) as u64 / 8, // witness/σ indices are compressible
        output_bytes: 8 * n as u64 * fe,
    });

    // Batch evaluations: of the 21 queries, the 11 neither ZeroCheck
    // returned (W₁…W₃ and σ₁…σ₃ at the PermCheck point, φ and π at the two
    // shifted points, π at the grand-product point), each reading its table.
    let before = modmul_count();
    let mut evaluated = 0;
    for (g, group) in query_groups(&point, &point).iter().enumerate() {
        for label in &group.labels {
            if zerocheck_position(g, *label).is_none() {
                let _ = committed[*label as usize].evaluate(&group.point);
                evaluated += 1;
            }
        }
    }
    rows.push(KernelProfile {
        kernel: "Batch Evaluations",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: evaluated * n as u64 * fe,
        output_bytes: 0,
    });

    // Linear Combine (MLE Combine unit).
    let before = modmul_count();
    let all: Vec<&MultilinearPoly> = circuit
        .selectors()
        .iter()
        .chain(witness.columns.iter())
        .collect();
    let coeffs: Vec<Fr> = (0..all.len()).map(|_| Fr::random(rng)).collect();
    let _ = MultilinearPoly::linear_combination(&coeffs, &all);
    let _ = MultilinearPoly::linear_combination(&coeffs[..3], &all[..3]);
    rows.push(KernelProfile {
        kernel: "Linear Combine",
        modmuls: modmul_count().since(&before).total(),
        input_bytes: all.len() as u64 * n as u64 * fe / 4,
        output_bytes: 2 * n as u64 * fe,
    });

    // MLE Updates: every table of all three SumChecks, over all rounds.
    rows.push(KernelProfile {
        kernel: "All MLE Updates",
        modmuls: update_modmuls,
        input_bytes: 2 * update_entries * fe,
        output_bytes: update_entries * fe,
    });

    rows.sort_by(|a, b| {
        b.arithmetic_intensity()
            .partial_cmp(&a.arithmetic_intensity())
            .unwrap()
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    #[test]
    fn profile_reproduces_table1_shape() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0012);
        let rows = profile_kernels(7, &mut rng);
        assert_eq!(rows.len(), 12);
        // Batch Evaluations reads one table per query step 4 evaluates.
        let batch = rows.iter().find(|r| r.kernel == "Batch Evaluations");
        let table = (1 << 7) * BYTES_PER_FIELD_ELEMENT as u64;
        assert_eq!(batch.unwrap().input_bytes, 11 * table);
        // Every kernel does real work.
        for row in &rows {
            assert!(row.modmuls > 0, "{} has zero modmuls", row.kernel);
            assert!(row.input_bytes + row.output_bytes > 0, "{}", row.kernel);
        }
        // The MSM kernels must dominate arithmetic intensity (the paper's
        // headline observation) and MLE Updates must be near the bottom.
        let top3: Vec<&str> = rows[..3].iter().map(|r| r.kernel).collect();
        assert!(top3.iter().all(|k| k.contains("MSM")), "top rows: {top3:?}");
        assert_eq!(rows.last().unwrap().kernel, "All MLE Updates");
        // Intensities are sorted.
        for pair in rows.windows(2) {
            assert!(pair[0].arithmetic_intensity() >= pair[1].arithmetic_intensity());
        }
    }
}
