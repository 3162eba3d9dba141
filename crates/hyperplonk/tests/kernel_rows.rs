//! Pins every Table 1 row of `ProverReport::kernels` — its modmuls and the
//! tables it reads, writes and takes bases from — for one proof of the
//! paper's mock circuit at μ ∈ {4, 8} on `Serial`. A count moved from one
//! row to another, into a row or out of every row fails here, where the
//! totals that `prover::tests` hold would still pass.

use zkspeed_hyperplonk::{mock_circuit, prove_unchecked, try_preprocess, ExecCtx, SparsityProfile};
use zkspeed_pcs::Srs;
use zkspeed_rt::pool::Serial;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

/// `(modmuls, reads, writes, bases)` of each row, in Table 1 order.
type Rows = [(u64, u32, u32, u32); 12];

/// The three MSM rows count Fq only: the opening's Fr folds sit in no row.
const PINS: [(usize, Rows); 2] = [
    (
        4,
        [
            (6427, 3, 0, 1),  // Witness MSMs
            (19694, 2, 0, 1), // Wire Identity MSMs
            (17118, 1, 0, 1), // Poly Open MSMs
            (435, 16, 0, 0),  // ZeroCheck Rounds
            (703, 20, 0, 0),  // PermCheck Rounds
            (361, 20, 0, 0),  // OpenCheck Rounds
            (65, 2, 1, 0),    // Fraction MLE
            (15, 1, 1, 0),    // Product MLE
            (64, 3, 8, 0),    // Construct N & D
            (118, 11, 0, 0),  // Batch Evaluations
            (357, 26, 6, 0),  // Linear Combine
            (420, 56, 28, 0), // All MLE Updates
        ],
    ),
    (
        8,
        [
            (41337, 3, 0, 1),  // Witness MSMs
            (135932, 2, 0, 1), // Wire Identity MSMs
            (108145, 1, 0, 1), // Poly Open MSMs
            (6383, 16, 0, 0),  // ZeroCheck Rounds
            (10519, 20, 0, 0), // PermCheck Rounds
            (5217, 20, 0, 0),  // OpenCheck Rounds
            (1028, 2, 1, 0),   // Fraction MLE
            (255, 1, 1, 0),    // Product MLE
            (1024, 3, 8, 0),   // Construct N & D
            (2038, 11, 0, 0),  // Batch Evaluations
            (5397, 26, 6, 0),  // Linear Combine
            (7140, 56, 28, 0), // All MLE Updates
        ],
    ),
];

fn rows(mu: usize) -> Rows {
    let mut rng = StdRng::seed_from_u64(0x5eed_0010);
    let srs = Srs::try_setup(mu, &mut rng, &Serial).unwrap();
    let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    let (pk, _vk) = try_preprocess(circuit, &srs, &Serial).expect("circuit fits");
    let (_, report) = prove_unchecked(&pk, &witness, &ExecCtx::default());
    report
        .kernels
        .map(|k| (k.modmuls, k.reads, k.writes, k.bases))
}

#[test]
fn every_kernel_row_is_pinned() {
    for (mu, pinned) in PINS {
        assert_eq!(rows(mu), pinned, "μ = {mu}");
    }
}
