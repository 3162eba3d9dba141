//! The Fr-multiplication budget of the SumCheck round kernel, asserted as
//! closed forms over counts `measure_modmuls` takes: what one hypercube
//! instance costs in each of the three SumChecks a proof runs, and what a
//! whole proof costs. Before the grouped kernel the per-instance figures
//! were 75 / 84 / 30 and a 2^10 proof took 312 236. The setup's Fq budget
//! sits beside them.

use zkspeed::prelude::*;
use zkspeed_curve::{fixed_base_window_bits, BATCH_AFFINE_ADD_FQ_MULS, PDBL_FQ_MULS};
use zkspeed_field::{measure_modmuls, Fr};
use zkspeed_hyperplonk::constraints::{Column, Identity, GATE, WIRING};
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_sumcheck::{prove_on, prove_zerocheck_on};
use zkspeed_transcript::Transcript;

const MU: usize = 10;

/// `identity` over random tables: the shape is all the count depends on.
fn shape(identity: &Identity, alpha: Fr, rng: &mut StdRng) -> VirtualPolynomial {
    let derived = (identity.columns.iter()).filter(|c| !matches!(c, Column::Committed(_)));
    let derived: Vec<_> = derived.map(|_| MultilinearPoly::random(MU, rng)).collect();
    identity.polynomial(MU, alpha, |_| MultilinearPoly::random(MU, rng), derived)
}

/// Fr multiplications of one SumCheck over `f`, split as the closed form
/// `per_instance·(2^μ − 1) + per_round·μ + fixed`, returning `per_instance`.
fn per_instance(f: &VirtualPolynomial, zerocheck: bool, per_round: u64, fixed: u64) -> u64 {
    let ((), count) = measure_modmuls(|| {
        let mut transcript = Transcript::new(b"budget");
        if zerocheck {
            let _ = prove_zerocheck_on(f, &mut transcript, &Serial);
        } else {
            let _ = prove_on(f, &mut transcript, &Serial);
        }
    });
    assert_eq!(count.fq, 0);
    let instances = (1u64 << MU) - 1;
    let kernel = count.fr - per_round * MU as u64 - fixed;
    assert_eq!(
        kernel % instances,
        0,
        "the count {} is not of the closed form",
        count.fr
    );
    kernel / instances
}

#[test]
fn each_sumcheck_keeps_its_per_instance_budget() {
    let mut rng = StdRng::seed_from_u64(0xb0d6_e700);
    let one = Fr::one();
    let (alpha, c) = (Fr::random(&mut rng), Fr::random(&mut rng));
    // Build MLE of the half-size `eq` table: one multiplication per entry
    // but the first.
    let build_mle = (1u64 << (MU - 1)) - 1;
    // Per round every SumCheck draws a challenge (two multiplications to
    // reduce it) and multiplies the sums of a group whose coefficient is not
    // ±1 by it; a ZeroCheck drew one more challenge for the round's variable,
    // multiplies each of its `d + 2` evaluations by the prefix scalar and
    // the linear `eq` factor, and folds `eq(rᵢ, ρᵢ)` into the prefix (three).
    let challenge = 2;

    // Gate Identity, Eq. (3): 8 tables, one ±1 group of degree 3. Per
    // instance 4 points × (5 products + 1 weight) = 24, plus 8 updates.
    let gate = shape(&GATE, alpha, &mut rng);
    let gate_cost = per_instance(&gate, true, 2 * challenge + 2 * 5 + 3, build_mle);
    assert_eq!(gate_cost, 24 + 8);

    // Wiring Identity, Eq. (4): 10 tables, a ±1 group of degree 2 and an α
    // group of degree 4. Per instance 5 points × (6 products + 2 weights) =
    // 40, plus 10 updates.
    let perm = shape(&WIRING, alpha, &mut rng);
    let perm_cost = per_instance(&perm, true, 2 * challenge + 2 * 6 + 3 + 5, build_mle);
    assert_eq!(perm_cost, 40 + 10);

    // OpenCheck, Eq. (5): 5 products of 2 tables under 1, c, …, c⁴. Per
    // instance 3 points × 5 products = 15, plus 10 updates.
    let mut open = VirtualPolynomial::new(MU);
    let mut power = one;
    for _ in 0..5 {
        let y = open.add_mle(MultilinearPoly::random(MU, &mut rng));
        let k = open.add_mle(MultilinearPoly::random(MU, &mut rng));
        open.add_term(power, vec![y, k]);
        power *= c;
    }
    let open_cost = per_instance(&open, false, challenge + 4 * 3, 0);
    assert_eq!(open_cost, 15 + 10);
}

#[test]
fn a_whole_proof_keeps_its_budget() {
    let mut rng = StdRng::seed_from_u64(0xb0d6_e800);
    let srs = Srs::try_setup(MU, &mut rng, &Serial).expect("setup fits");
    let (circuit, witness) = mock_circuit(MU, SparsityProfile::paper_default(), &mut rng);
    let (prover, _) = ProofSystem::setup_with_backend(srs, std::sync::Arc::new(Serial))
        .preprocess(circuit)
        .expect("circuit fits");
    let (proof, count) = measure_modmuls(|| prover.prove(&witness));
    proof.expect("valid witness");
    assert!(
        count.fr <= 201_928,
        "{} Fr multiplications in a 2^10 proof",
        count.fr
    );
}

#[test]
fn a_setup_keeps_its_fq_budget() {
    // Six Fq multiplications a batch-affine addition, a shared inversion's
    // one included: at most ⌈256/w⌉ a level-0 point, one a point of every
    // halved level and one a table entry; the table's windows take `w`
    // projective doublings each and a squaring a row pass. Projective
    // additions in any of the three break it.
    let mut rng = StdRng::seed_from_u64(0xb0d6_e900);
    let (_, count) = measure_modmuls(|| Srs::try_setup(MU, &mut rng, &Serial).expect("fits"));
    let (n, w) = (1 << MU, fixed_base_window_bits(1 << MU));
    let (add, windows) = (BATCH_AFFINE_ADD_FQ_MULS, 256usize.div_ceil(w));
    let table = windows * (w * PDBL_FQ_MULS + w - 1) + (windows << (w - 1)) * add;
    let budget = n * add * windows + table + add * (n - 1);
    assert!(count.fq as usize <= budget, "{count:?} over {budget}");
}
