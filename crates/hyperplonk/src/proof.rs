//! The HyperPlonk proof object and the shared prover/verifier protocol
//! vocabulary (polynomial labels, query groups).

use zkspeed_field::Fr;
use zkspeed_pcs::{Commitment, OpeningProof};
use zkspeed_poly::grand_product_point;
use zkspeed_sumcheck::SumcheckProof;

use crate::constraints::{shifted_point, GATE, SHIFTED, WIRING};

/// Identifies one of the thirteen polynomials the verifier queries during
/// Batch Evaluation (Section 3.3.4 of the paper: "22 total evaluations ...
/// among 13 polynomials using 6 distinct points").
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PolyLabel {
    /// Selector `q_L`.
    QL,
    /// Selector `q_R`.
    QR,
    /// Selector `q_M`.
    QM,
    /// Selector `q_O`.
    QO,
    /// Selector `q_C`.
    QC,
    /// Witness column `w₁`.
    W1,
    /// Witness column `w₂`.
    W2,
    /// Witness column `w₃`.
    W3,
    /// Wiring permutation `σ₁`.
    Sigma1,
    /// Wiring permutation `σ₂`.
    Sigma2,
    /// Wiring permutation `σ₃`.
    Sigma3,
    /// The Fraction MLE `φ`.
    Phi,
    /// The Product MLE `π`.
    Pi,
}

/// One group of batch-evaluation queries: several polynomials evaluated at
/// one shared point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryGroup {
    /// The evaluation point.
    pub point: Vec<Fr>,
    /// The polynomials queried at `point`.
    pub labels: Vec<PolyLabel>,
}

/// The number of query groups (see [`query_groups`]).
pub(crate) const QUERY_GROUPS: usize = 5;

/// The labels of each query group, in group order (see [`query_groups`]).
pub(crate) fn group_labels() -> [Vec<PolyLabel>; QUERY_GROUPS] {
    [
        GATE.labels(),
        WIRING.labels(),
        SHIFTED.to_vec(),
        SHIFTED.to_vec(),
        vec![PolyLabel::Pi],
    ]
}

/// Builds the canonical list of query groups used by both the prover and the
/// verifier, given the Gate Identity ZeroCheck point `a` and the Wiring
/// Identity ZeroCheck point `s`.
///
/// The groups are:
///
/// 1. the labels the Gate Identity reads, at `a`;
/// 2. the labels the Wiring Identity reads, at `s`;
/// 3. `φ`, `π` at the shifted point `(0, s₁, …, s_{μ−1})` (for `p₁`);
/// 4. `φ`, `π` at the shifted point `(1, s₁, …, s_{μ−1})` (for `p₂`);
/// 5. `π` at the fixed grand-product point `(0, 1, …, 1)`.
pub fn query_groups(gate_point: &[Fr], perm_point: &[Fr]) -> Vec<QueryGroup> {
    let mu = gate_point.len();
    assert_eq!(mu, perm_point.len(), "query_groups: point length mismatch");
    let points = [
        gate_point.to_vec(),
        perm_point.to_vec(),
        shifted_point(perm_point, Fr::zero()),
        shifted_point(perm_point, Fr::one()),
        grand_product_point(mu),
    ];
    points
        .into_iter()
        .zip(group_labels())
        .map(|(point, labels)| QueryGroup { point, labels })
        .collect()
}

/// The claimed evaluations of every query group, in group order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchEvaluations {
    /// `values[i][j]` is the claimed evaluation of the `j`-th polynomial of
    /// group `i` at that group's point.
    pub values: Vec<Vec<Fr>>,
}

impl BatchEvaluations {
    /// Total number of claimed evaluations (22 in the paper's accounting).
    pub fn total(&self) -> usize {
        self.values.iter().map(Vec::len).sum()
    }

    /// Flattens the claimed values in transcript order.
    pub fn flatten(&self) -> Vec<Fr> {
        self.values.iter().flatten().copied().collect()
    }
}

/// A complete HyperPlonk proof.
///
/// It encodes (`serialize.rs`) to **`1 329 + 385·μ` bytes**: the 8-byte
/// header, `μ` as a `u32`, five G1 points of 97 bytes (the three witness
/// commitments, φ and π), the 21 batch evaluations and 5 combined
/// evaluations of 32 bytes each, and per variable one row of each SumCheck
/// (3 + 4 + 2 Fr) and one opening quotient. Every shape follows from `μ`,
/// so no length is written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// The number of variables `μ` the proof is for; the verifier rejects
    /// a proof whose `μ` is not its key's.
    pub num_vars: usize,
    /// Commitments to the witness columns `w₁, w₂, w₃` (Witness Commit step).
    pub witness_commitments: [Commitment; 3],
    /// Gate Identity ZeroCheck round polynomials.
    pub gate_zerocheck: SumcheckProof,
    /// Commitment to the Fraction MLE `φ` (Wiring Identity step).
    pub phi_commitment: Commitment,
    /// Commitment to the Product MLE `π` (Wiring Identity step).
    pub pi_commitment: Commitment,
    /// Wiring Identity (PermCheck) ZeroCheck round polynomials.
    pub perm_zerocheck: SumcheckProof,
    /// Claimed polynomial evaluations (Batch Evaluation step).
    pub evaluations: BatchEvaluations,
    /// OpenCheck round polynomials (Polynomial Opening step).
    pub opencheck: SumcheckProof,
    /// Claimed evaluations `yᵢ(ρ)` of the per-group combined polynomials at
    /// the OpenCheck point.
    pub combined_evaluations: Vec<Fr>,
    /// Opening proof of the final combined polynomial `g′` at the OpenCheck
    /// point (the halving-MSM sequence).
    pub gprime_opening: OpeningProof,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_groups_have_paper_shape() {
        let mu = 5;
        let a: Vec<Fr> = (0..mu).map(|i| Fr::from_u64(i as u64 + 10)).collect();
        let s: Vec<Fr> = (0..mu).map(|i| Fr::from_u64(i as u64 + 100)).collect();
        let groups = query_groups(&a, &s);
        assert_eq!(groups.len(), 5);
        // 8 + 8 + 2 + 2 + 1 = 21 evaluations among 13 distinct polynomials.
        let total: usize = groups.iter().map(|g| g.labels.len()).sum();
        assert_eq!(total, 21);
        let mut distinct: std::collections::HashSet<PolyLabel> = Default::default();
        for g in &groups {
            distinct.extend(g.labels.iter().copied());
        }
        assert_eq!(distinct.len(), 13);
        // Shifted points: prepend 0/1, drop the last coordinate of s.
        assert_eq!(groups[2].point[0], Fr::zero());
        assert_eq!(groups[3].point[0], Fr::one());
        assert_eq!(groups[2].point[1..], s[..mu - 1]);
        // Grand-product point is fixed at compile time: (0, 1, 1, ...).
        assert_eq!(groups[4].point[0], Fr::zero());
        assert!(groups[4].point[1..].iter().all(|x| *x == Fr::one()));
    }

    #[test]
    fn batch_evaluations_accounting() {
        let be = BatchEvaluations {
            values: vec![vec![Fr::one(); 8], vec![Fr::one(); 8], vec![Fr::one(); 2]],
        };
        assert_eq!(be.total(), 18);
        assert_eq!(be.flatten().len(), 18);
    }
}
